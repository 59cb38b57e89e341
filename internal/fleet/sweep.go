package fleet

// The checkpoint sweep scheduler: the daemonized, incremental save
// path. SaveSweep (fleet.go) is caller-driven and saves every
// persistent member whether or not it mutated; the scheduler here
// fires on an interval, reads each nym's dirty state (plumbed up from
// internal/vm through core.Nym), skips clean members entirely — no
// upload, no login, no provider round trip — and backs off
// exponentially while the orchestrator is under admission pressure,
// so checkpointing never competes with ramps for the wire and the
// chip.
//
// Unlike the KSM daemon, the sweep scheduler is
// explicitly started and stopped (StartSweeps/StopSweeps): a periodic
// checkpoint is open-ended work, so only the caller knows when the
// fleet's useful life is over and the engine should drain.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"nymix/internal/cloud"
	"nymix/internal/core"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
)

// ErrSweepsRunning is returned by StartSweeps when a scheduler is
// already installed.
var ErrSweepsRunning = nymerr.New(CodeSweepsRunning, "fleet: sweep scheduler already running")

// saveClaim is one holder's claim on a member's in-flight save (see
// Member.saving). Each claimant allocates its own token and releases
// only a claim it still holds.
type saveClaim struct{}

// releaseClaim clears m's save claim if tok still holds it, waking
// anyone parked on the flag. Releasing a claim another holder has
// since taken is a no-op. The wake-up also reaches the cluster's host
// watcher, which re-arms its preemption pass: victims() excludes
// saving members, so a pass that found every adequate victim mid-save
// stood down, and the freed member may be the victim a queued launch
// is waiting on.
func (o *Orchestrator) releaseClaim(m *Member, tok *saveClaim) {
	if m.saving == tok {
		m.saving = nil
		o.notify()
	}
}

// CadenceMode selects which Running persistent members a sweep pass
// checkpoints.
type CadenceMode int

const (
	// CadenceDirty, the zero value, saves every member whose state
	// mutated since its last checkpoint and skips clean ones.
	CadenceDirty CadenceMode = iota
	// CadenceAll saves every member, mutated or not: SaveSweep's full
	// checkpoint, and the naive mode the dirty cadence is benchmarked
	// against.
	CadenceAll
	// CadenceAdaptive scales each member's eligibility from its
	// observed dirty byte-rate: a dirty member whose churn has not yet
	// accumulated a delta worth shipping is Deferred rather than saved.
	// Hot members checkpoint every Interval; cold members stretch
	// toward their RPO ceiling. A cluster coordinator also spends this
	// mode's idle slots on opportunistic vault GC.
	CadenceAdaptive
)

// Cadence is a sweep pass's checkpoint policy: one mode plus the
// adaptive mode's parameters, which the other modes ignore.
type Cadence struct {
	Mode CadenceMode
	// RPO is the per-member checkpoint-staleness ceiling the adaptive
	// cadence enforces (default 16x Interval, four times the backoff
	// ceiling): no dirty member is deferred past the point where its
	// oldest unsaved mutation could be RPO old, provided passes keep
	// starting within NextPassIn of each other and complete within one
	// Interval. It is the per-member analogue of the scheduler's
	// saturated-backoff guarantee — and composes with it: the
	// scheduler's own tick horizon (backoff included) is folded into
	// NextPassIn, so the ceiling holds through pressure episodes, not
	// just calm ones.
	RPO time.Duration
	// RPOFor overrides the staleness ceiling per member (nil or a
	// non-positive return: the member uses RPO).
	RPOFor func(*Member) time.Duration
	// TargetDeltaBytes is the dirty disk delta one save should
	// amortize (default 256 KiB): the adaptive cadence stretches a
	// member's interval until its observed rate would accumulate this
	// much, and a member already holding this much dirt saves now.
	TargetDeltaBytes int64
}

// SweepConfig parameterizes the checkpoint sweep scheduler (and a
// single SweepOnce pass). Zero values take defaults. Save launches
// inside a pass are spaced saveStagger apart with at most
// saveConcurrency in flight.
type SweepConfig struct {
	// Interval is the scheduler's firing period (default 30s).
	Interval time.Duration
	// Password seals the checkpoints; DestFor maps each member to its
	// vault destination. Both are required for StartSweeps.
	Password string
	DestFor  func(*Member) core.VaultDest
	// Cadence decides which members a pass saves (default: dirty).
	Cadence Cadence
	// NextPassIn is the caller's expected time until the next pass
	// over this fleet (default: the 4x Interval backoff ceiling — the
	// scheduler's own worst-case re-arm). The adaptive cadence never
	// defers a member whose RPO deadline falls inside this horizon:
	// deferral is only legal when a later pass can still honor the
	// ceiling.
	NextPassIn time.Duration
}

// maxBackoff caps the exponential backoff applied while the
// orchestrator is under admission pressure. It is also
// the staleness ceiling: once the delay is fully backed off, ticks
// sweep even under pressure — pressure defers checkpoints, it never
// cancels them, so a fleet pinned at capacity still checkpoints every
// four Intervals.
func (c *SweepConfig) maxBackoff() time.Duration { return 4 * c.Interval }

func (c *SweepConfig) fillDefaults() {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.Cadence.RPO <= 0 {
		c.Cadence.RPO = 4 * c.maxBackoff()
	}
	if c.Cadence.TargetDeltaBytes <= 0 {
		c.Cadence.TargetDeltaBytes = 256 << 10
	}
	if c.NextPassIn <= 0 {
		c.NextPassIn = c.maxBackoff()
	}
}

// SweepTally is the additive checkpoint work of sweep passes: one
// pass's (SweepRecord) or a FoldSweeps sum over passes and hosts
// (SweepReport, the cluster coordinator's report, the SLO report).
// Every eligible member lands in exactly one of Saves, Skipped,
// Deferred, Busy and Errors.
type SweepTally struct {
	Eligible int // Running persistent members considered
	Saves    int // checkpoints performed
	Skipped  int // clean members skipped (the dirty-skip win)
	Deferred int // dirty members whose adaptive cadence was not yet due
	Busy     int // members already mid-save, left alone
	Errors   int // failed checkpoints
	// UploadedBytes is vault wire actually shipped; LoginBytes is the
	// per-provider session-setup wire charged for each launched save.
	// BaselineBytes prices the monolithic re-upload of what was saved.
	UploadedBytes int64
	LoginBytes    int64
	BaselineBytes int64
	// NewChunks counts uploaded chunks; TotalChunks sums each saved
	// checkpoint's full manifest chunk count — the dedup denominator
	// NewChunks is read against.
	NewChunks   int
	TotalChunks int
}

// add accumulates u into t. Only FoldSweeps sums tallies.
func (t *SweepTally) add(u SweepTally) {
	t.Eligible += u.Eligible
	t.Saves += u.Saves
	t.Skipped += u.Skipped
	t.Deferred += u.Deferred
	t.Busy += u.Busy
	t.Errors += u.Errors
	t.UploadedBytes += u.UploadedBytes
	t.LoginBytes += u.LoginBytes
	t.BaselineBytes += u.BaselineBytes
	t.NewChunks += u.NewChunks
	t.TotalChunks += u.TotalChunks
}

// WireBytes is the total checkpoint wire: uploads plus session setup.
func (t SweepTally) WireBytes() int64 { return t.UploadedBytes + t.LoginBytes }

// DirtySkipRatio is the fraction of eligible member-passes skipped as
// clean (1.0 = a fully idle fleet cost nothing).
func (t SweepTally) DirtySkipRatio() float64 {
	if t.Eligible == 0 {
		return 0
	}
	return float64(t.Skipped) / float64(t.Eligible)
}

// SweepRecord is the telemetry of one sweep pass (or one backed-off
// tick).
type SweepRecord struct {
	At      sim.Time      // when the pass started
	Elapsed time.Duration // launch of first save to completion of last
	// BackedOff marks a tick the scheduler skipped under admission
	// pressure; all other fields are zero.
	BackedOff bool
	SweepTally
	// Stale holds one checkpoint-staleness sample per successful save
	// of a dirty member, in save-launch order: how old the member's
	// oldest unsaved mutation could have been when its save launched.
	// The adaptive cadence's contract is that no sample exceeds the
	// member's RPO.
	Stale []time.Duration
}

// SweepStats is the result of one SaveSweep: the same record a
// scheduled pass produces.
type SweepStats = SweepRecord

// SweepReport aggregates sweep passes — the typed telemetry the
// experiments render: total wire, dirty-skip ratio, and per-sweep
// latency and per-save staleness percentiles. A report covers exactly
// the records it was folded from.
type SweepReport struct {
	Sweeps   int // completed passes (backed-off ticks excluded)
	Backoffs int // ticks skipped under pressure
	SweepTally
	// Latency summarizes completed passes' Elapsed times.
	Latency Spread
	// Staleness summarizes every record's Stale samples, pooled so each
	// save weighs equally (not an average of per-pass quantiles).
	Staleness Spread
	Records   []SweepRecord
}

// FoldSweeps sums recs into a report. It is the one aggregation of
// sweep telemetry: the orchestrator's report, the cluster
// coordinator's and the SLO report all fold their records here. The
// report's Records is recs itself.
func FoldSweeps(recs []SweepRecord) SweepReport {
	rep := SweepReport{Records: recs}
	var lats, stale []time.Duration
	for _, rec := range recs {
		if rec.BackedOff {
			rep.Backoffs++
			continue
		}
		rep.Sweeps++
		rep.add(rec.SweepTally)
		lats = append(lats, rec.Elapsed)
		stale = append(stale, rec.Stale...)
	}
	rep.Latency = SpreadOf(lats)
	rep.Staleness = SpreadOf(stale)
	return rep
}

// SweepRecords returns every recorded sweep pass and backed-off tick
// (scheduler ticks and explicit SweepOnce calls alike), in order.
// SaveSweep's pass is not recorded: its record goes to its caller.
func (o *Orchestrator) SweepRecords() []SweepRecord {
	return append([]SweepRecord(nil), o.sweepRecs...)
}

// SweepReport folds every recorded pass (see SweepRecords).
func (o *Orchestrator) SweepReport() SweepReport { return FoldSweeps(o.SweepRecords()) }

// SweepErrors returns every error a recorded sweep pass produced, in
// order. Tests use it to assert that interleavings (crash injection,
// migration, preemption) never drive the save path into an illegal
// state, rather than just counting failures.
func (o *Orchestrator) SweepErrors() []error {
	return append([]error(nil), o.sweepErrs...)
}

// Spread is the nearest-rank p50 and p95 and the maximum of a set of
// duration samples; all zero for an empty set.
type Spread struct{ P50, P95, Max time.Duration }

// SpreadOf summarizes ds. Exported so layered telemetry (the cluster
// coordinator, the SLO report, the experiments) renders percentiles
// the same way.
func SpreadOf(ds []time.Duration) Spread {
	if len(ds) == 0 {
		return Spread{}
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return Spread{P50: nearestRank(sorted, 0.50), P95: nearestRank(sorted, 0.95), Max: sorted[len(sorted)-1]}
}

// LatencyPercentile returns the nearest-rank q-quantile of ds, or 0.
// In-repo code uses SpreadOf; this stays for the bench module, which
// reads arbitrary quantiles.
func LatencyPercentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return nearestRank(sorted, q)
}

// nearestRank returns the q-quantile of a sorted, non-empty sample.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// StartSweeps installs the checkpoint sweep scheduler: the first pass
// fires one Interval from now and the scheduler re-arms after every
// pass until StopSweeps. While the orchestrator is under admission
// pressure (launches queued for RAM), ticks are skipped and the delay
// doubles up to four Intervals; once saturated, ticks sweep even under
// pressure (the backoff ceiling is the checkpoint-staleness ceiling),
// and the first calm tick resets the cadence.
func (o *Orchestrator) StartSweeps(cfg SweepConfig) error {
	if o.sweepCfg != nil {
		return ErrSweepsRunning
	}
	if cfg.Password == "" || cfg.DestFor == nil {
		return nymerr.New(CodeSweepUnconfigured, "fleet: sweep scheduler needs Password and DestFor")
	}
	cfg.fillDefaults()
	o.sweepCfg = &cfg
	o.sweepDelay = cfg.Interval
	o.sweepTimer = o.eng.Schedule(cfg.Interval, o.sweepTick)
	return nil
}

// StopSweeps uninstalls the scheduler. A pass already in flight runs
// to completion (AwaitSweepsIdle waits it out); no further tick fires.
func (o *Orchestrator) StopSweeps() {
	o.sweepTimer.Cancel()
	o.sweepCfg = nil
}

// AwaitSweepsIdle parks the caller until no sweep pass is in flight.
// Call it after StopSweeps for a clean teardown boundary.
func (o *Orchestrator) AwaitSweepsIdle(p *sim.Proc) {
	for o.sweeping > 0 {
		o.parkOnChange(p)
	}
}

// underSavePressure reports the condition under which the scheduler
// stands aside: launches queued for RAM admission (a ramp or
// migration wants the wire and the chip first).
func (o *Orchestrator) underSavePressure() bool {
	return o.ram.queued() > 0
}

// sweepTick is one scheduler firing.
func (o *Orchestrator) sweepTick() {
	cfg := o.sweepCfg
	if cfg == nil {
		return
	}
	ceiling := cfg.maxBackoff()
	if o.underSavePressure() && o.sweepDelay < ceiling {
		o.sweepRecs = append(o.sweepRecs, SweepRecord{At: o.eng.Now(), BackedOff: true})
		o.sweepDelay = min(2*o.sweepDelay, ceiling)
		o.sweepTimer = o.eng.Schedule(o.sweepDelay, o.sweepTick)
		return
	}
	// Either calm, or the backoff is saturated at its ceiling: sweep
	// anyway. Sustained pressure (a fleet pinned at capacity keeps its
	// admission queue non-empty forever) must defer checkpoints, never
	// starve them — the backoff ceiling is the staleness ceiling.
	if !o.underSavePressure() {
		o.sweepDelay = cfg.Interval
	}
	if o.sweeping > 0 {
		// A manual SweepOnce (or cluster-coordinated pass) is mid-
		// flight; piling a second pass on top would double-checkpoint.
		o.sweepTimer = o.eng.Schedule(cfg.Interval, o.sweepTick)
		return
	}
	// Count the pass as in flight from this instant, not from when its
	// proc first runs: eng.Go only schedules a zero-delay start event,
	// and a StopSweeps+AwaitSweepsIdle at the same timestamp would
	// otherwise see zero in flight and let StopAll race the escaped
	// pass's saves.
	// The adaptive cadence may only defer a member when a later pass
	// can still honor its RPO. The next pass is NOT simply one
	// sweepDelay away: if pressure arrives right after this (calm)
	// pass, the following ticks back off — Interval, 2x, 4x, ... up
	// to the ceiling — before a pass is forced at saturation. That
	// chain sums to under twice the ceiling, so that is the horizon
	// the cadence must assume.
	run := *cfg
	run.NextPassIn = 2 * ceiling
	o.sweeping++
	o.eng.Go("fleet/sweep", func(p *sim.Proc) {
		o.SweepOnce(p, run)
		o.sweeping--
		o.notify()
		// Re-arm only if THIS scheduler installation is still the live
		// one: a StopSweeps/StartSweeps cycle during the pass has
		// already armed its own tick chain, and re-arming here would
		// run two chains at double cadence.
		if o.sweepCfg == cfg {
			o.sweepTimer = o.eng.Schedule(o.sweepDelay, o.sweepTick)
		}
	})
}

// SweepOnce runs one checkpoint sweep pass immediately on the calling
// process and records its telemetry: every Running persistent member
// is considered; members the cadence does not select are skipped or
// deferred, members already mid-save are left alone, and the rest are
// checkpointed with the orchestrator's save stagger and concurrency
// bound. The cluster-wide sweep
// coordinator calls this per host inside its stagger slots.
func (o *Orchestrator) SweepOnce(p *sim.Proc, cfg SweepConfig) (SweepRecord, error) {
	cfg.fillDefaults()
	o.sweeping++
	rec, err := o.runSweep(p, cfg)
	o.sweeping--
	o.sweepRecs = append(o.sweepRecs, rec)
	if err != nil {
		o.sweepErrs = append(o.sweepErrs, err)
	}
	o.notify()
	return rec, err
}

// cadenceDefers decides whether the adaptive cadence holds a dirty
// member back from this pass. The member saves now when any of:
//
//   - it has no baseline checkpoint yet (nothing to restore from, so
//     there is no cadence to stretch);
//   - its RPO deadline falls within NextPassIn plus one Interval —
//     this pass is the last one guaranteed to honor the ceiling (the
//     extra Interval absorbs the in-pass delay before a later pass
//     reaches this member: schedulers re-arm only after a pass
//     completes, so the true inter-visit gap is NextPassIn plus the
//     pass's own elapsed time);
//   - its accumulated dirty disk already amortizes a save
//     (>= TargetDeltaBytes);
//   - its observed byte-rate says TargetDeltaBytes accumulates in
//     less than the time already waited (clamped to [Interval, RPO]).
//
// Otherwise the member is deferred: its delta is not yet worth a
// login and a manifest, and a later pass can still meet its RPO.
func (o *Orchestrator) cadenceDefers(m *Member, cfg SweepConfig, now sim.Time) bool {
	m.cad.observe(now, m.nym.DirtyDiskTotal())
	if m.cad.lastSave == 0 && m.cad.cleanAt == 0 {
		return false
	}
	cad := cfg.Cadence
	rpo := cad.RPO
	if cad.RPOFor != nil {
		if r := cad.RPOFor(m); r > 0 {
			rpo = r
		}
	}
	since := m.dirtySince()
	if now+cfg.NextPassIn+cfg.Interval >= since+rpo {
		return false
	}
	if m.nym.DirtyState().DiskBytes >= cad.TargetDeltaBytes {
		return false
	}
	desired := rpo
	if m.cad.rate > 0 {
		if d := time.Duration(float64(cad.TargetDeltaBytes) / m.cad.rate * float64(time.Second)); d < desired {
			desired = d
		}
	}
	if desired < cfg.Interval {
		desired = cfg.Interval
	}
	return now < since+desired
}

// runSweep is the shared sweep engine under SaveSweep (CadenceAll, the
// caller-driven full checkpoint) and SweepOnce (the scheduler's
// dirty-skipping or adaptive pass).
func (o *Orchestrator) runSweep(p *sim.Proc, cfg SweepConfig) (SweepRecord, error) {
	o.opStarted()
	defer o.opDone()
	rec := SweepRecord{At: p.Now()}
	gate := newSem(o.eng, saveConcurrency)
	var futs []*sim.Future[core.SaveResult]
	var saved []*Member
	var dests []core.VaultDest
	var claims []*saveClaim
	var stales []time.Duration // per-launch staleness; kept on success
	var cleanAts []sim.Time    // pre-launch cleanAt; restored on failure
	var launchAts []sim.Time   // when each save launched
	first := true
	for _, m := range o.Members() {
		if m.state != StateRunning || m.nym == nil || m.nym.Model() != core.ModelPersistent {
			continue
		}
		rec.Eligible++
		if m.saving != nil {
			// Another pass (a migration's CheckpointNym, an eviction)
			// holds this member's save slot; touching it here would
			// double-checkpoint a nym mid-operation.
			rec.Busy++
			continue
		}
		dirty := m.nym.StateDirty()
		if cfg.Cadence.Mode != CadenceAll && !dirty {
			// A clean observation re-anchors the staleness clock and
			// feeds the rate estimator a zero-delta round, so an idle
			// member's rate decays instead of reading hot forever.
			rec.Skipped++
			m.cad.observe(p.Now(), m.nym.DirtyDiskTotal())
			m.cad.cleanAt = p.Now()
			continue
		}
		if cfg.Cadence.Mode == CadenceAdaptive && o.cadenceDefers(m, cfg, p.Now()) {
			rec.Deferred++
			continue
		}
		if !first {
			p.Sleep(saveStagger)
		}
		first = false
		sim.Await(p, gate.reserve(1))
		// The stagger sleep and the gate wait both yield; the member
		// may have crashed, stopped, or been claimed by a migration's
		// checkpoint in the meantime. Count it as Busy so every
		// eligible member lands in exactly one outcome bucket and the
		// dirty-skip ratio stays honest.
		if m.state != StateRunning || m.nym == nil || m.saving != nil {
			gate.release(1)
			rec.Busy++
			continue
		}
		// Sample staleness at launch: the checkpoint about to ship
		// captures everything up to now, so its staleness is the age
		// of the oldest mutation it could have been waiting on. Clean
		// members swept under CadenceAll contribute no sample — nothing
		// was at risk.
		stale := time.Duration(-1)
		if dirty {
			stale = p.Now() - m.dirtySince()
		}
		cleanAts = append(cleanAts, m.cad.cleanAt)
		stales = append(stales, stale)
		launchAts = append(launchAts, p.Now())
		m.cad.cleanAt = p.Now()
		m.cad.lastSave = p.Now()
		dest := cfg.DestFor(m)
		claim := &saveClaim{}
		m.saving = claim
		fut := o.mgr.StoreNymVaultAsync(m.nym, cfg.Password, dest)
		member := m
		// Release the claim and the gate slot (and wake saving-flag
		// waiters) the moment the save completes, so later launches in
		// this pass overlap with it. The claim is ALSO released in the
		// await loop below: OnDone fires as a zero-delay event, which
		// would leave it visibly stale to whoever runs right after this
		// pass's final await returns. Both releases are token-guarded,
		// so whichever runs second — possibly after a waiter has
		// re-claimed the member for its own save — is a no-op.
		fut.OnDone(func() {
			o.releaseClaim(member, claim)
			gate.release(1)
		})
		futs = append(futs, fut)
		saved = append(saved, m)
		dests = append(dests, dest)
		claims = append(claims, claim)
		rec.LoginBytes += int64(len(dest.Providers)) * cloud.LoginWireBytes
	}
	var errs []error
	n := 0
	for i, f := range futs {
		res, err := sim.Await(p, f)
		o.releaseClaim(saved[i], claims[i])
		if err != nil {
			rec.Errors++
			werr := fmt.Errorf("fleet: save %q: %w", res.Nym, err)
			errs = append(errs, werr)
			o.recordFailure(res.Nym, "sweep", werr)
			// The checkpoint never landed, so the member's dirt is as
			// old as it was: put the staleness clock back unless some
			// later save of this member already moved it.
			if saved[i].cad.cleanAt == launchAts[i] {
				saved[i].cad.cleanAt = cleanAts[i]
			}
			continue
		}
		rec.Saves++
		// Filter stales in place into the record's samples: n <= i, so
		// every slot is read before it is overwritten.
		if stales[i] >= 0 {
			stales[n] = stales[i]
			n++
		}
		rec.UploadedBytes += res.Stats.UploadedBytes
		rec.BaselineBytes += res.Stats.BaselineWireBytes
		rec.NewChunks += res.Stats.NewChunks
		rec.TotalChunks += res.Stats.TotalChunks
		// A successful save becomes the member's restart checkpoint.
		saved[i].checkpoint = &Checkpoint{Password: cfg.Password, Dest: dests[i]}
	}
	if n > 0 {
		rec.Stale = stales[:n]
	}
	rec.Elapsed = p.Now() - rec.At
	o.sampleRAM()
	return rec, errors.Join(errs...)
}
