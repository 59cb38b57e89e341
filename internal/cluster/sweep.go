package cluster

// The cluster-wide sweep coordinator. Every host runs the same
// checkpoint workload against the same shared cloud providers, so N
// independent per-host sweep schedulers firing on the same interval
// would herd all N hosts onto the providers at once — exactly the
// thundering-herd the ROADMAP's cluster-aware-sweeps item forbids.
// The coordinator owns the cadence instead: each round, every pool
// host is assigned one stagger slot (an Interval/N offset from the
// round start), and a token gate bounds how many hosts may be on the
// providers simultaneously no matter how far a slow sweep overruns
// its slot. Hosts that are Cordoned, Draining, or Retired at their
// slot are paused — a draining host's nyms are being checkpointed by
// the migration path already, and sweeping them here would only burn
// wire on state the drain is about to save again.

import (
	"fmt"
	"time"

	"nymix/internal/cloud"
	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
)

// ErrSweepsRunning is returned by StartSweeps when a coordinator is
// already installed.
var ErrSweepsRunning = nymerr.New(CodeSweepsRunning, "cluster: sweep coordinator already running")

// SweepConfig parameterizes the cluster sweep coordinator. Zero
// values take defaults.
type SweepConfig struct {
	// Interval is one full stagger round: every pool host gets one
	// slot per round, Interval/hosts apart (default 30s).
	Interval time.Duration
	// Tokens bounds how many hosts may sweep the shared providers
	// concurrently (default 1). Slots stagger sweep *starts*; the
	// token gate is the hard cap that holds even when a sweep
	// overruns its slot.
	Tokens int
	// Cadence is every host pass's checkpoint policy, forwarded to
	// fleet.SweepOnce as-is (default: dirty). Under the adaptive
	// cadence the coordinator passes each host an honest next-pass
	// horizon of two Intervals — its slot cadence plus one skipped
	// round — and spends idle slots pruning dead vault chunks: the
	// provider token is held and the host had nothing dirty, so the
	// reclaim wire rides a window the cadence already paid for.
	Cadence fleet.Cadence
	// Password seals checkpoints (default: the cluster's
	// VaultPassword). DestFor maps nym names to vault destinations
	// (default: the cluster's DestFor).
	Password string
	DestFor  func(name string) core.VaultDest
}

func (sc *SweepConfig) fillDefaults(c *Config) {
	if sc.Interval <= 0 {
		sc.Interval = 30 * time.Second
	}
	if sc.Tokens <= 0 {
		sc.Tokens = 1
	}
	if sc.Password == "" {
		sc.Password = c.VaultPassword
	}
	if sc.DestFor == nil {
		sc.DestFor = c.DestFor
	}
}

// SweepSlot records one host's stagger slot in one coordinator round:
// when the host held the provider token and what its pass did. Paused
// slots (host not Active at slot time) hold no token and save
// nothing.
type SweepSlot struct {
	Round int
	Slot  int
	Host  string
	// Start/End bracket the token hold — the window in which this
	// host was on the shared providers. The coordinator's invariant
	// is that at most Tokens of these windows ever overlap.
	Start, End sim.Time
	Paused     bool
	Record     fleet.SweepRecord
	// Idle marks a slot whose pass saved nothing and erred nowhere —
	// the windows the coordinator spends on batched rebalance moves
	// and opportunistic GC, recorded below.
	Idle             bool
	Moves            int // batched rebalance moves executed in this slot
	MovesDropped     int // queued moves discarded as stale in this slot
	GCRuns           int // members garbage-collected in this slot
	GCReclaimedBytes int64
	GCWireBytes      int64
}

// ClusterSweepReport aggregates coordinator telemetry across rounds
// and hosts.
type ClusterSweepReport struct {
	Rounds int
	// RoundsSkipped counts ticks the coordinator sat out because the
	// previous round's slots were still draining through the token
	// gate — sustained skipping means the interval is shorter than
	// the pool's serialized sweep time.
	RoundsSkipped int
	HostSweeps    int // completed per-host passes
	Paused        int // slots skipped on non-Active hosts
	// SweepTally sums the host passes the coordinator ran.
	fleet.SweepTally
	// CoordinatorErrors counts the failures the coordinator itself
	// logged outside host passes: batched rebalance moves and idle-slot
	// GC. Failed saves are in Errors.
	CoordinatorErrors int
	// Latency summarizes per-host pass latencies.
	Latency fleet.Spread
	// Staleness summarizes per-save checkpoint staleness, pooled across
	// every host's samples so each save weighs equally (not an average
	// of per-host quantiles).
	Staleness fleet.Spread
	// Idle-slot economy: slots with nothing dirty, the batched
	// rebalance moves and opportunistic GC they absorbed, and what
	// the GC paid (wire) and recovered (provider bytes).
	IdleSlots        int
	MovesPlanned     int
	MovesExecuted    int
	MovesDropped     int
	GCRuns           int
	GCReclaimedBytes int64
	GCWireBytes      int64
	Slots            []SweepSlot
}

// StartSweeps installs the coordinator: the first round begins one
// Interval from now and rounds repeat until StopSweeps. Each round
// snapshots the pool and assigns slots in pool order, so hosts the
// autoscaler adds join the stagger on the next round.
func (c *Cluster) StartSweeps(cfg SweepConfig) error {
	if c.sweepCfg != nil {
		return ErrSweepsRunning
	}
	cfg.fillDefaults(&c.cfg)
	c.sweepCfg = &cfg
	c.sweepTimer = c.eng.Schedule(cfg.Interval, c.sweepRoundTick)
	return nil
}

// StopSweeps uninstalls the coordinator. Slot passes already in
// flight complete; no further round is scheduled.
func (c *Cluster) StopSweeps() {
	if c.sweepTimer != nil {
		c.sweepTimer.Cancel()
		c.sweepTimer = nil
	}
	c.sweepCfg = nil
}

// AwaitSweepsIdle parks the caller until no slot pass is in flight.
func (c *Cluster) AwaitSweepsIdle(p *sim.Proc) {
	for c.sweepInFlight > 0 {
		c.parkOnChange(p)
	}
}

// SweepSlots returns the coordinator's slot log in completion order.
func (c *Cluster) SweepSlots() []SweepSlot {
	return append([]SweepSlot(nil), c.slotLog...)
}

// SweepErrors returns every error a coordinator slot pass produced, in
// completion order. Empty in healthy runs; chaos suites assert each
// entry classifies to a registered code.
func (c *Cluster) SweepErrors() []error {
	return append([]error(nil), c.sweepErrs...)
}

// SweepReport aggregates the slot log.
func (c *Cluster) SweepReport() ClusterSweepReport {
	rep := ClusterSweepReport{
		Rounds:        c.sweepRounds,
		RoundsSkipped: c.sweepRoundsSkipped,
		Slots:         c.SweepSlots(),
	}
	rep.MovesPlanned = c.movesPlanned
	// Each slot whose pass failed logged exactly one wrapped error; the
	// rest of the log is the coordinator's own.
	rep.CoordinatorErrors = len(c.sweepErrs)
	var lats []time.Duration
	for _, s := range c.slotLog {
		if s.Paused {
			rep.Paused++
			continue
		}
		rep.HostSweeps++
		rep.Add(s.Record.SweepTally)
		if s.Record.Errors > 0 {
			rep.CoordinatorErrors--
		}
		if s.Idle {
			rep.IdleSlots++
		}
		rep.MovesExecuted += s.Moves
		rep.MovesDropped += s.MovesDropped
		rep.GCRuns += s.GCRuns
		rep.GCReclaimedBytes += s.GCReclaimedBytes
		rep.GCWireBytes += s.GCWireBytes
		lats = append(lats, s.Record.Elapsed)
	}
	rep.Latency = fleet.SpreadOf(lats)
	var stale []time.Duration
	for _, h := range c.hosts {
		stale = append(stale, h.orch.CheckpointStaleness()...)
	}
	for _, h := range c.retired {
		stale = append(stale, h.orch.CheckpointStaleness()...)
	}
	rep.Staleness = fleet.SpreadOf(stale)
	return rep
}

// sweepRoundTick launches one coordinator round and re-arms the next.
func (c *Cluster) sweepRoundTick() {
	cfg := c.sweepCfg
	if cfg == nil {
		return
	}
	if c.sweepInFlight > 0 {
		// The previous round's slots are still draining through the
		// token gate. Spawning another round on top would grow the
		// backlog without bound and re-save hosts back-to-back; skip
		// this round and try again next Interval (the same overrun
		// guard the fleet scheduler applies to its ticks).
		c.sweepRoundsSkipped++
		c.sweepTimer = c.eng.Schedule(cfg.Interval, c.sweepRoundTick)
		return
	}
	round := c.sweepRounds
	c.sweepRounds++
	hosts := append([]*Host(nil), c.hosts...)
	if len(hosts) > 0 {
		gap := cfg.Interval / time.Duration(len(hosts))
		for i, h := range hosts {
			i, h := i, h
			c.sweepInFlight++
			c.eng.Go("cluster/sweep-"+h.name, func(p *sim.Proc) {
				defer func() {
					c.sweepInFlight--
					c.notify()
				}()
				p.Sleep(time.Duration(i) * gap)
				c.sweepSlot(p, cfg, round, i, h)
			})
		}
	}
	c.sweepTimer = c.eng.Schedule(cfg.Interval, c.sweepRoundTick)
}

// sweepSlot runs one host's slot: pause if the host left Active duty
// (its nyms are being drained through the migration path, which
// checkpoints them itself), otherwise take a provider token and run
// the host's dirty-skipping pass.
func (c *Cluster) sweepSlot(p *sim.Proc, cfg *SweepConfig, round, slot int, h *Host) {
	if !h.placeable() {
		c.slotLog = append(c.slotLog, SweepSlot{
			Round: round, Slot: slot, Host: h.name,
			Start: p.Now(), End: p.Now(), Paused: true,
		})
		return
	}
	for c.sweepTokensHeld >= cfg.Tokens {
		c.parkOnChange(p)
	}
	// The token wait yields; the host may have been cordoned or put
	// into a drain while this slot was parked. Sweeping it now would
	// race the drain's own checkpoints, so re-check and pause instead.
	if !h.placeable() {
		c.slotLog = append(c.slotLog, SweepSlot{
			Round: round, Slot: slot, Host: h.name,
			Start: p.Now(), End: p.Now(), Paused: true,
		})
		c.notify()
		return
	}
	c.sweepTokensHeld++
	start := p.Now()
	destFor := cfg.DestFor
	rec, err := h.orch.SweepOnce(p, fleet.SweepConfig{
		Password: cfg.Password,
		DestFor:  func(m *fleet.Member) core.VaultDest { return destFor(m.Name()) },
		Cadence:  cfg.Cadence,
		// The cadence's deferral horizon: this host's next slot is one
		// round out, two if the coordinator skips a round — plus one
		// Interval of pass-duration allowance.
		Interval:   cfg.Interval,
		NextPassIn: 2 * cfg.Interval,
	})
	if err != nil {
		// The per-save failures are already in the host orchestrator's
		// logs, but the coordinator must not drop them: a provider quota
		// blowing up every slot would otherwise read as a healthy round
		// with a low save count.
		c.sweepErrs = append(c.sweepErrs, fmt.Errorf("cluster: sweep slot %s round %d: %w", h.name, round, err))
	}
	rec2 := SweepSlot{
		Round: round, Slot: slot, Host: h.name,
		Start: start, Record: rec,
	}
	// An idle slot — the host had nothing dirty enough to save and
	// nothing failed — is a paid-for provider window (token held, wire
	// quiet). Spend it on the work the cluster has been deferring:
	// batched rebalance moves, then opportunistic vault GC.
	if err == nil && rec.Saves == 0 && rec.Errors == 0 {
		rec2.Idle = true
		rec2.Moves, rec2.MovesDropped = c.drainPendingMoves(p)
		if cfg.Cadence.Mode == fleet.CadenceAdaptive {
			rec2.GCRuns, rec2.GCReclaimedBytes, rec2.GCWireBytes = c.opportunisticGC(p, cfg, h)
		}
	}
	c.sweepTokensHeld--
	rec2.End = p.Now()
	c.slotLog = append(c.slotLog, rec2)
	c.notify()
}

// drainPendingMoves executes up to MaxMovesPerPass rebalance moves the
// planner batched for idle slots. Each move is re-validated at
// execution time — the plan may be rounds old: the source must still
// be hot (otherwise the pressure the move was priced against is gone)
// and the destination still cold and admitting, else a fresh
// destination is planned. Stale moves are dropped, not retried — the
// rebalancer re-plans from live state on its next pass.
func (c *Cluster) drainPendingMoves(p *sim.Proc) (executed, dropped int) {
	for executed < c.cfg.Rebalance.MaxMovesPerPass && len(c.pendingMoves) > 0 {
		mv := c.pendingMoves[0]
		c.pendingMoves = c.pendingMoves[1:]
		delete(c.moveQueued, mv.name)
		src := c.placement[mv.name]
		if src == nil || c.migrating[mv.name] || src.ReservedShare() <= c.cfg.Rebalance.HotShare {
			dropped++
			continue
		}
		m := src.orch.Member(mv.name)
		if m == nil || !c.movable(m, nil) {
			dropped++
			continue
		}
		dst := c.Host(mv.dst)
		if dst == nil || dst == src || !dst.placeable() ||
			dst.ReservedShare() >= c.cfg.Rebalance.ColdShare || !dst.orch.CanAdmit(m.Footprint()) {
			dst = c.coldDestination(src, m)
		}
		if dst == nil {
			dropped++
			continue
		}
		if _, err := c.MigrateNym(p, mv.name, dst.name); err != nil {
			c.sweepErrs = append(c.sweepErrs, fmt.Errorf("cluster: batched move %s->%s: %w", mv.name, dst.name, err))
			dropped++
			continue
		}
		executed++
	}
	return executed, dropped
}

// gcPerSlot bounds the members opportunisticGC prunes per idle slot.
const gcPerSlot = 2

// opportunisticGC prunes dead vault chunks for up to gcPerSlot of the
// host's members, rotating a per-host cursor so every member gets its
// turn across idle slots. Members without a checkpoint are skipped
// (nothing in the vault to prune — probing would buy an ErrNoManifest
// with real wire), as are members mid-save or mid-migration (GC must
// never race a manifest replace).
func (c *Cluster) opportunisticGC(p *sim.Proc, cfg *SweepConfig, h *Host) (runs int, reclaimed, wire int64) {
	members := h.orch.Members()
	if len(members) == 0 {
		return 0, 0, 0
	}
	start := c.gcCursor[h.name]
	for scanned := 0; scanned < len(members) && runs < gcPerSlot; scanned++ {
		m := members[(start+scanned)%len(members)]
		c.gcCursor[h.name] = (start + scanned + 1) % len(members)
		if m.Nym() == nil || m.Saving() || c.migrating[m.Name()] {
			continue
		}
		if _, ok := m.Checkpoint(); !ok {
			continue
		}
		dest := cfg.DestFor(m.Name())
		stats, err := h.mgr.VaultGC(p, m.Nym(), cfg.Password, dest)
		wire += stats.ManifestBytes + int64(len(dest.Providers))*cloud.LoginWireBytes
		if err != nil {
			c.sweepErrs = append(c.sweepErrs, fmt.Errorf("cluster: gc %s in idle slot: %w", m.Name(), err))
			continue
		}
		runs++
		reclaimed += stats.FreedBytes
	}
	return runs, reclaimed, wire
}
