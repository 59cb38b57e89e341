// Package slo aggregates the fleet's restart, sweep, preemption, and
// migration machinery into one typed SLO report.
//
// Every failure surface in the stack records a fleet.FailureRecord
// whose code comes from the nymerr registry, so the report's failure
// taxonomy is exact: a bucket per registered code, zero free-text
// parsing, and an Unclassified counter the chaos suites pin to zero.
// On top of the taxonomy the report carries the latencies and budgets
// the paper's deployment story turns on — ramp latency percentiles
// (admission queue entry to Running), restart/preemption/migration
// rates per simulated hour, the sweep scheduler's staleness
// distribution (how old a checkpoint gets under backoff pressure),
// and the checkpoint wire budget against its monolithic baseline.
//
// Build a report with FromCluster (the whole pool, retired hosts
// included; one orchestrator is a one-host cluster); Render prints it
// the way `nymixctl status` does. The sweep figures are one
// fleet.FoldSweeps over every host's logged passes, so a report
// covers exactly the passes the hosts log: a fleet SaveSweep, whose
// record goes only to its caller, is not in them.
package slo
