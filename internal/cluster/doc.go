// Package cluster shards nym fleets across an elastic pool of
// simulated Nymix hosts behind a placement layer — the step from one
// machine running hundreds of nyms (internal/fleet) toward a
// production service running millions. The paper's NymBox model binds
// every nym to the one host the user sits at; a multi-tenant service
// instead treats a nym's durable identity (its NymVault checkpoint)
// as the primary object and the host it executes on as a scheduling
// decision.
//
// Five mechanisms do the work:
//
//   - Placement. Every host wraps its own hypervisor, Nym Manager,
//     and fleet orchestrator; all hosts share one simulated Internet
//     and one cloud-provider set. A pluggable policy places each
//     launch by consulting per-host admission headroom
//     (ReservedBytes/RAMBudgetBytes); when every host is saturated
//     the launch queues cluster-wide in priority-FIFO order
//     (descending fleet.Priority, FIFO among equals) and is
//     dispatched as soon as any host frees capacity.
//   - Live migration. MigrateNym checkpoints a nym through the
//     NymVault on its source host, tears the source nymbox down, and
//     restores the checkpoint on the destination — the same
//     save-on-A/load-on-B channel a user roaming between machines
//     would use, so pseudonym identity (disks, cookies, guard,
//     credentials) survives the move byte-identically. A crash
//     between the source save and the destination restore is retried
//     from the last durable checkpoint.
//   - Rebalancing. Config.Rebalance arms a state-driven daemon that
//     watches per-host reserved shares and migrates persistent nyms
//     off hot hosts (share above 0.85) toward underloaded ones (under
//     0.6), so a pack-first ramp or a skewed teardown converges back
//     to an even spread without operator action. While the sweep
//     coordinator runs the adaptive cadence, moves are priced by the
//     wire they would ship and deferred into its idle slots; otherwise
//     the longest-running member moves at once.
//   - Autoscaling. The pool itself is elastic: with a nonzero
//     Config.MaxHosts, a cluster-wide queue that persists past a dwell
//     provisions a new host (up to MaxHosts), and a pool idling under
//     the shrink watermark cordons its least-loaded host, drains every
//     live nym off it via MigrateNym, and retires it (down to
//     MinHosts). Hosts walk
//     Active -> Cordoned -> Draining -> Retired.
//   - Preemption. A high-priority launch stuck at the head of the
//     cluster-wide queue past Config.PreemptDwell sacrifices strictly-lower
//     classes on the cheapest host (fleet.PreemptOne: ephemeral nyms
//     terminated, persistent ones vaulted and evicted), so System
//     work lands in seconds while a new host is still provisioning.
//   - Coordinated sweeps. StartSweeps runs the cluster-wide
//     checkpoint coordinator: each round assigns every host one
//     stagger slot (Interval/N apart) and a token gate bounds how
//     many hosts may be on the shared providers at once, so N
//     per-host schedulers never herd the providers simultaneously.
//     Every host pass runs the config's fleet.Cadence unchanged and
//     saves through the cluster's own VaultPassword and DestFor, the
//     channel migration uses; under the adaptive cadence, idle slots
//     also carry batched rebalance moves and prune dead vault chunks.
//     Hosts out of Active duty are paused — the drain path
//     checkpoints their nyms itself — and a per-slot log plus
//     ClusterSweepReport (fleet.FoldSweeps over the non-paused slot
//     records, plus rounds, coordinator errors and the idle-slot
//     economy) surface the sweep economy pool-wide. The report covers
//     exactly the slot passes: a host's own SaveSweep or SweepOnce
//     outside the coordinator is not in it.
//
// The daemons' dwells, watermarks and budgets are package constants
// set to the values every caller runs; Config carries only the four
// settings callers vary. Every daemon is armed state-driven, the same idiom as the fleet's
// KSM pacing: timers exist only while a pass could help, so a
// balanced, idle, or floor-sized cluster leaves the event queue empty
// and the engine drainable. The sweep coordinator is the deliberate
// exception — periodic checkpointing is open-ended work, so its
// lifetime belongs to the caller via StartSweeps/StopSweeps.
package cluster
