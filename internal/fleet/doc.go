// Package fleet orchestrates large populations of concurrent nyms
// over a single core.Manager. The paper's Nym Manager supervises
// nymbox "creation, longevity, and destruction" (section 3) one nym
// at a time; this layer scales that supervision to hundreds of
// simultaneous nymboxes — the ROADMAP's production-scale multi-user
// service — without giving up any of the lifecycle guarantees.
//
// Five mechanisms do the work:
//
//   - Admission control. Every nymbox is RAM: both VMs' memory and
//     both RAM-backed writable disks come from the host's physical
//     stash (section 5.2). Launches reserve their requested footprint
//     against a configurable headroom share of host RAM and queue —
//     rather than fail mid-boot with a half-built nymbox — when the
//     host is oversubscribed. A bounded start gate likewise keeps the
//     number of concurrent boot+bootstrap pipelines proportional to
//     the chip, so a 256-nym ramp does not collapse into timeslicing.
//   - Priority classes. Each launch carries a Priority (System >
//     Persistent > Ephemeral, defaulting from the usage model), and
//     the admission queue is strict priority-FIFO: higher classes are
//     admitted first, equals keep arrival order. Under sustained
//     pressure the preemption daemon sacrifices strictly-lower
//     classes for a queued launch — ephemeral victims are terminated
//     outright, persistent ones are checkpointed to the NymVault and
//     evicted, so durable identity survives the kill.
//   - Parallel pipelines. Startup and teardown run as independent
//     simulated processes fanned out over sim futures, so wall-clock
//     (simulated) time is bounded by the slowest admitted batch, not
//     the sum of serial starts.
//   - KSM pacing. Host capacity is enforced at page-write time,
//     before the KSM scanner has had a chance to merge identical
//     base-image pages across VMs. The orchestrator runs a merge
//     daemon while operations are in flight so a large ramp's
//     transient private pages are folded back into shared frames
//     instead of tripping the host's out-of-memory wall.
//   - Supervision. Each nym fails independently: a failed launch or a
//     crashed nymbox releases its reservation and is restarted under
//     the fleet's restart policy, with backoff, until its restart
//     budget is spent. One bad nym never takes down the ramp.
//
// Checkpointing rounds out the lifecycle. SaveSweep is the
// caller-driven full checkpoint: every Running persistent nym is
// saved through the NymVault on a fixed stagger with a bounded number
// of in-flight saves, so a fleet-wide checkpoint does not
// thundering-herd the anonymizer or the providers. StartSweeps
// installs the periodic scheduler on top: it fires on an interval,
// reads each nym's dirty state (plumbed up from internal/vm through
// core.Nym) and backs off exponentially, up to four intervals, while
// the orchestrator is under admission pressure or preempting. A
// Cadence picks the members a pass saves: the default dirty mode
// skips clean members entirely — no upload, no login, no provider
// round trip — the all mode saves everything (SaveSweep's mode), and
// the adaptive mode defers a dirty member until its delta is worth
// shipping or its RPO deadline nears. Each pass's counters form a
// SweepTally; per-pass SweepRecords sum into a SweepReport (wire
// bytes, dirty-skip ratio, and a Spread of sweep latency and
// per-save staleness), and a per-member saving guard makes
// the scheduler, SaveSweep, CheckpointNym, and preemption eviction
// mutually exclusive per nym, so no nym is ever double-checkpointed.
package fleet
