package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"nymix/internal/core"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vault"
)

// RestartPolicy bounds how persistently the fleet revives a failing
// nym.
type RestartPolicy struct {
	MaxRestarts int           // restart budget per member (0 = never restart)
	Backoff     time.Duration // delay before each restart attempt
}

// DefaultRestartPolicy retries twice with a short breather.
func DefaultRestartPolicy() RestartPolicy {
	return RestartPolicy{MaxRestarts: 2, Backoff: 2 * time.Second}
}

// Config parameterizes an Orchestrator. Zero values take defaults.
type Config struct {
	// RAMHeadroom is the fraction of host physical RAM admissible for
	// nymbox reservations (default 0.9); the remainder stays free for
	// the hypervisor's own growth and KSM scan slack.
	RAMHeadroom float64
	// StartsPerCore bounds concurrent startup pipelines at
	// ceil(StartsPerCore * physical cores) (default 2).
	StartsPerCore float64
	// Restart is the per-member failure policy.
	Restart RestartPolicy
	// SaveStagger spaces successive save launches in a sweep
	// (default 250ms).
	SaveStagger time.Duration
	// SaveConcurrency caps in-flight saves during a sweep (default 4).
	SaveConcurrency int
	// StopConcurrency caps parallel teardowns (default: the start
	// gate's width).
	StopConcurrency int
	// KSMInterval is the merge daemon's period while fleet operations
	// are in flight (default 100ms). KSMBudget is the page budget per
	// tick; <0 drains the scan queue (the default).
	KSMInterval time.Duration
	KSMBudget   int
	// Preempt arms the pressure-driven preemption daemon (disabled by
	// default); see PreemptConfig.
	Preempt PreemptConfig
	// WireBudget is the admissible idle uplink rate in bytes per
	// second (0 = uncapped). Constant-rate transports (the mixnet's
	// cover traffic) hold wire even when no request is in flight, so
	// admission reserves each member's Options.WireFootprint against
	// this budget the way RAM admission reserves Footprint.
	WireBudget float64
}

func (c *Config) fillDefaults(cores int) {
	if c.RAMHeadroom <= 0 || c.RAMHeadroom > 1 {
		c.RAMHeadroom = 0.9
	}
	if c.StartsPerCore <= 0 {
		c.StartsPerCore = 2
	}
	if c.SaveStagger <= 0 {
		c.SaveStagger = 250 * time.Millisecond
	}
	if c.SaveConcurrency <= 0 {
		c.SaveConcurrency = 4
	}
	if c.StopConcurrency <= 0 {
		c.StopConcurrency = c.startGateWidth(cores)
	}
	if c.KSMInterval <= 0 {
		c.KSMInterval = 100 * time.Millisecond
	}
	if c.KSMBudget == 0 {
		c.KSMBudget = -1
	}
	c.Preempt.fillDefaults()
}

func (c *Config) startGateWidth(cores int) int {
	w := int(c.StartsPerCore * float64(cores))
	if w < 1 {
		w = 1
	}
	return w
}

// MemberState is a fleet member's lifecycle state.
type MemberState int

// Member lifecycle states.
const (
	StateQueued     MemberState = iota // waiting for admission
	StateStarting                      // admitted, nymbox booting
	StateRunning                       // nym live
	StateRestarting                    // failed, awaiting its next attempt
	StateStopping                      // teardown in progress
	StateStopped                       // terminated cleanly
	StateFailed                        // restart budget exhausted
	StatePreempted                     // terminated/evicted to admit a higher class
)

// String implements fmt.Stringer.
func (s MemberState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateStarting:
		return "starting"
	case StateRunning:
		return "running"
	case StateRestarting:
		return "restarting"
	case StateStopping:
		return "stopping"
	case StateStopped:
		return "stopped"
	case StateFailed:
		return "failed"
	case StatePreempted:
		return "preempted"
	}
	return "unknown"
}

// Priority is a launch's admission class. Higher classes are admitted
// first: the admission queue is ordered by descending priority (FIFO
// among equals), and under sustained pressure the preemption machinery
// terminates or evicts strictly-lower-priority members to admit a
// queued higher-priority launch.
type Priority int

// Admission classes, lowest to highest. The zero value resolves from
// the nym's usage model (persistent and pre-configured nyms rank above
// ephemeral ones, whose state is disposable by design); PrioritySystem
// is reserved for launches that must land even on a saturated host.
const (
	PriorityDefault    Priority = iota // resolve from the usage model
	PriorityEphemeral                  // disposable; first to be preempted
	PriorityPersistent                 // durable identity; evicted only via the vault
	PrioritySystem                     // admitted ahead of everything, never preempted
)

// String implements fmt.Stringer.
func (pr Priority) String() string {
	switch pr {
	case PriorityEphemeral:
		return "ephemeral"
	case PriorityPersistent:
		return "persistent"
	case PrioritySystem:
		return "system"
	}
	return "default"
}

// Spec names one nym the fleet should run.
type Spec struct {
	Name string
	Opts core.Options
	// Priority is the admission class; PriorityDefault resolves from
	// Opts.Model (persistent/pre-configured -> PriorityPersistent,
	// ephemeral -> PriorityEphemeral).
	Priority Priority
}

// EffectivePriority resolves the spec's admission class, mapping
// PriorityDefault onto the usage model.
func (s Spec) EffectivePriority() Priority {
	if s.Priority != PriorityDefault {
		return s.Priority
	}
	switch s.Opts.Model {
	case core.ModelPersistent, core.ModelPreconfigured:
		return PriorityPersistent
	}
	return PriorityEphemeral
}

// Member is one nym under fleet supervision.
type Member struct {
	spec      Spec
	footprint int64
	wireRate  int64 // idle uplink bytes/sec held while admitted
	pri       Priority
	state     MemberState
	nym       *core.Nym
	restarts  int
	lastErr   error
	queuedAt  sim.Time
	runningAt sim.Time // time of the most recent transition to Running
	// checkpoint records the member's most recent successful vault
	// save; a restart restores from it instead of booting blank, so a
	// crash cannot cost a persistent nym its durable state.
	checkpoint *Checkpoint
	// detached tells the member's supervision process to stand down:
	// the member has been handed off (migrated to another host) and
	// must not be restarted here.
	detached bool
	// saving, while non-nil, identifies the vault checkpoint currently
	// in flight for this member. It is the per-nym mutual exclusion
	// between the sweep scheduler, a caller-driven SaveSweep, a
	// migration's CheckpointNym, and preemption eviction: whichever
	// claims the member first saves it; everyone else skips or waits.
	// The claim is a unique token, not a bool, so a holder can only
	// release its own claim — a stale release path (a sweep's await
	// loop draining after a waiter already re-claimed the member) must
	// not clobber the next holder's exclusion. Without this two
	// concurrent saves would race their exportState pauses on the same
	// nymbox.
	saving *saveClaim
	// pendingRes is the RAM reservation enqueued synchronously by
	// Launch, consumed by the first runLaunch attempt. Reserving at
	// Launch time (not when the supervise proc first runs) means
	// ReservedBytes reflects a launch the moment it is accepted — a
	// cluster placement layer that spreads a batch across hosts must
	// see each placement it just made.
	pendingRes *sim.Future[struct{}]
	// pendingWire is the wire-rate reservation enqueued alongside
	// pendingRes; nil for members with no idle wire footprint.
	pendingWire *sim.Future[struct{}]
	// cad is the member's adaptive sweep cadence state: the dirty
	// byte-rate estimate and the staleness bookkeeping the scheduler
	// reads to scale this member's next sweep eligibility.
	cad cadence
}

// cadence tracks one member's observed churn for the adaptive sweep
// scheduler. All fields are maintained at sweep-pass granularity —
// the scheduler observes, it is never called back on mutation.
type cadence struct {
	seen     bool     // first observation taken
	obsAt    sim.Time // when the cadence last observed the nym
	obsBytes int64    // cumulative dirty-disk counter at that observation
	rate     float64  // EWMA dirty-disk bytes per second
	// cleanAt is the last instant the member was observed clean (or a
	// checkpoint launched): the conservative lower bound on when its
	// oldest unsaved mutation can have happened. Staleness is measured
	// from here, and the RPO ceiling is enforced against it.
	cleanAt  sim.Time
	lastSave sim.Time // when the last checkpoint launched
}

// observe folds a new cumulative dirty-disk reading into the rate
// estimate. An EWMA (half new, half history) smooths bursty rounds
// without letting a formerly-hot member read hot forever; a negative
// delta means the VM counters restarted (crash-restore) and resets
// the baseline instead of poisoning the rate.
func (c *cadence) observe(now sim.Time, total int64) {
	if !c.seen {
		c.seen, c.obsAt, c.obsBytes = true, now, total
		return
	}
	dt := now - c.obsAt
	if dt <= 0 {
		return
	}
	delta := total - c.obsBytes
	if delta < 0 {
		delta = 0
	}
	c.rate = 0.5*c.rate + 0.5*float64(delta)/dt.Seconds()
	c.obsAt, c.obsBytes = now, total
}

// Checkpoint is where (and under which password) a member's state was
// last vault-saved. It is the portable half of a member: a cluster
// migration carries it to another host's orchestrator, which restores
// the nym from the vault instead of booting it blank.
type Checkpoint struct {
	Password string
	Dest     core.VaultDest
}

// Name returns the member's nym name.
func (m *Member) Name() string { return m.spec.Name }

// State returns the member's lifecycle state.
func (m *Member) State() MemberState { return m.state }

// Nym returns the live nym, or nil unless the member is Running.
func (m *Member) Nym() *core.Nym { return m.nym }

// Restarts returns how many restart attempts the member has consumed.
func (m *Member) Restarts() int { return m.restarts }

// LastErr returns the most recent failure, or nil.
func (m *Member) LastErr() error { return m.lastErr }

// QueuedAt returns when the member entered the admission queue.
func (m *Member) QueuedAt() sim.Time { return m.queuedAt }

// RunningAt returns when the member last transitioned to Running.
func (m *Member) RunningAt() sim.Time { return m.runningAt }

// Footprint returns the host RAM the member reserves while admitted.
func (m *Member) Footprint() int64 { return m.footprint }

// WireRate returns the idle uplink rate (bytes/sec) the member holds
// against the wire budget while admitted — the cover-traffic cost of
// its anonymizer chain, zero for demand-driven transports.
func (m *Member) WireRate() int64 { return m.wireRate }

// Priority returns the member's resolved admission class.
func (m *Member) Priority() Priority { return m.pri }

// Saving reports whether a vault checkpoint is currently in flight
// for this member — claimed by a scheduled sweep, a caller-driven
// SaveSweep, a migration's CheckpointNym, or a preemption eviction.
// The cluster's opportunistic GC consults it: pruning a vault whose
// manifest is about to be replaced would race the in-flight save.
func (m *Member) Saving() bool { return m.saving != nil }

// dirtySince is the conservative bound on when the member's oldest
// unsaved mutation can have happened: the last instant it was
// observed clean, falling back to its latest transition to Running
// for a member never yet observed.
func (m *Member) dirtySince() sim.Time {
	if m.cad.cleanAt > 0 {
		return m.cad.cleanAt
	}
	return m.runningAt
}

// Checkpoint returns the member's last recorded vault checkpoint.
func (m *Member) Checkpoint() (Checkpoint, bool) {
	if m.checkpoint == nil {
		return Checkpoint{}, false
	}
	return *m.checkpoint, true
}

// Spec returns the launch spec the member runs under.
func (m *Member) Spec() Spec { return m.spec }

// Orchestrator drives a fleet of nyms over one Manager.
type Orchestrator struct {
	mgr *core.Manager
	eng *sim.Engine
	cfg Config

	ram       *sem // host RAM reservations, bytes
	wire      *sem // idle uplink reservations, bytes/sec
	startGate *sem // concurrent startup pipelines

	members map[string]*Member
	order   []string

	// watchers is notified on every member state change; AwaitRunning
	// and AwaitSettled park on it.
	watchers *sim.Broadcast

	// ops counts explicit in-flight operations (save sweeps,
	// teardowns). Together with member states it drives the KSM
	// daemon's lifetime, so the event queue drains when nothing is
	// writing pages — even if launches are still queued for RAM that
	// nothing will free.
	ops          int
	ksmScheduled bool

	// Preemption daemon state: the pressure clock (simulated time at
	// which the current pressure episode began, -1 while clear), the
	// armed dwell timer, the in-flight pass, and completed counts.
	pressureSince sim.Time
	preemptArmed  bool
	preempting    bool
	preempted     PreemptStats

	// Sweep scheduler state (sweep.go): the installed config (nil
	// while stopped), the armed tick timer, the current possibly
	// backed-off delay, in-flight pass count, and recorded telemetry.
	sweepCfg   *SweepConfig
	sweepTimer *sim.Timer
	sweepDelay time.Duration
	sweeping   int
	sweepRecs  []SweepRecord
	sweepErrs  []error
	// sweepStale collects one checkpoint-staleness sample per
	// successful save of a dirty member: how old the oldest unsaved
	// mutation could have been when the save launched. The adaptive
	// scheduler's contract is that no sample exceeds the member's RPO.
	sweepStale []time.Duration

	// failures is the classified failure history (codes.go): one record
	// per member-scoped error surface, bucketed by code in the SLO
	// report.
	failures []FailureRecord

	peakRAMBytes int64
}

// New builds an orchestrator over mgr. The admissible RAM budget is
// RAMHeadroom of host capacity minus what the hypervisor already
// holds; an uncapped host admits everything immediately.
func New(mgr *core.Manager, cfg Config) *Orchestrator {
	host := mgr.Host()
	cfg.fillDefaults(host.CPU().Config().Cores)
	budget := int64(-1) // uncapped host: admit everything
	if cap := host.Mem().Capacity(); cap > 0 {
		budget = int64(cfg.RAMHeadroom*float64(cap)) - host.Mem().UsedBytes()
		if budget < 0 {
			// Already saturated past the headroom: nothing is admissible.
			budget = 0
		}
	}
	wireBudget := int64(-1) // uncapped by default
	if cfg.WireBudget > 0 {
		wireBudget = int64(cfg.WireBudget)
	}
	eng := mgr.Engine()
	return &Orchestrator{
		mgr:           mgr,
		eng:           eng,
		cfg:           cfg,
		ram:           newSem(eng, budget),
		wire:          newSem(eng, wireBudget),
		startGate:     newSem(eng, int64(cfg.startGateWidth(host.CPU().Config().Cores))),
		members:       make(map[string]*Member),
		watchers:      sim.NewBroadcast(eng),
		pressureSince: -1,
	}
}

// Manager returns the underlying Nym Manager.
func (o *Orchestrator) Manager() *core.Manager { return o.mgr }

// Config returns the effective (default-filled) configuration.
func (o *Orchestrator) Config() Config { return o.cfg }

// RAMBudgetBytes returns the admissible reservation budget.
func (o *Orchestrator) RAMBudgetBytes() int64 { return o.ram.capacity }

// StartGateWidth returns how many startup pipelines may run at once.
func (o *Orchestrator) StartGateWidth() int { return int(o.startGate.capacity) }

// ReservedBytes returns currently admitted reservations.
func (o *Orchestrator) ReservedBytes() int64 { return o.ram.used }

// QueuedLaunches returns launches waiting for RAM admission.
func (o *Orchestrator) QueuedLaunches() int { return o.ram.queued() }

// HeadroomBytes returns the admission headroom: budget minus current
// reservations. It is what a cluster placement policy bids with.
func (o *Orchestrator) HeadroomBytes() int64 { return o.ram.capacity - o.ram.used }

// CanAdmit reports whether a launch of the given footprint would be
// admitted immediately — enough free budget and no earlier launch
// queued ahead of it (admission is strict priority-FIFO, so an empty
// queue is the only state in which every class is admitted at once).
func (o *Orchestrator) CanAdmit(footprint int64) bool {
	return o.ram.queued() == 0 && footprint <= o.HeadroomBytes()
}

// WireBudgetRate returns the admissible idle uplink budget in
// bytes/sec, or -1 when uncapped.
func (o *Orchestrator) WireBudgetRate() int64 {
	if o.cfg.WireBudget <= 0 {
		return -1
	}
	return o.wire.capacity
}

// WireReservedRate returns the idle uplink rate (bytes/sec) currently
// admitted — the fleet's standing cover-traffic bill.
func (o *Orchestrator) WireReservedRate() int64 { return o.wire.used }

// QueuedWireLaunches returns launches parked for wire admission.
func (o *Orchestrator) QueuedWireLaunches() int { return o.wire.queued() }

// CanAdmitWire reports whether an idle wire rate fits the wire budget
// immediately; always true on an uncapped host.
func (o *Orchestrator) CanAdmitWire(rate int64) bool {
	return o.wire.queued() == 0 && rate <= o.wire.capacity-o.wire.used
}

// PeakRAMBytes returns the highest physical host memory use sampled
// during fleet operations.
func (o *Orchestrator) PeakRAMBytes() int64 { return o.peakRAMBytes }

// Member returns a member by name, or nil.
func (o *Orchestrator) Member(name string) *Member { return o.members[name] }

// Members returns all members in launch order.
func (o *Orchestrator) Members() []*Member {
	out := make([]*Member, 0, len(o.order))
	for _, name := range o.order {
		out = append(out, o.members[name])
	}
	return out
}

// CountState returns how many members are in state s.
func (o *Orchestrator) CountState(s MemberState) int {
	n := 0
	for _, name := range o.order {
		if o.members[name].state == s {
			n++
		}
	}
	return n
}

// Running returns the number of live members.
func (o *Orchestrator) Running() int { return o.CountState(StateRunning) }

// WireRateFor returns the integral idle uplink rate (bytes/sec) a nym
// with these options reserves against a host's wire budget — its
// chain's cover-traffic cost, rounded up to whole bytes.
func WireRateFor(opts core.Options) int64 {
	return int64(math.Ceil(opts.WireFootprint()))
}

// Launch enqueues one nym for admission and starts its supervision
// process. It returns immediately; the launch proceeds on its own
// simulated process. A footprint that can never fit the admissible
// budget fails now instead of queueing forever.
func (o *Orchestrator) Launch(spec Spec) (*Member, error) {
	if _, dup := o.members[spec.Name]; dup {
		return nil, nymerr.Newf(CodeDuplicateMember, "fleet: member %q already launched", spec.Name)
	}
	m := &Member{
		spec:      spec,
		footprint: spec.Opts.Footprint(),
		wireRate:  WireRateFor(spec.Opts),
		pri:       spec.EffectivePriority(),
		state:     StateQueued,
		queuedAt:  o.eng.Now(),
	}
	if m.footprint > o.ram.capacity {
		m.state = StateFailed
		m.lastErr = fmt.Errorf("%w: %q needs %d bytes, budget is %d",
			ErrNeverAdmissible, spec.Name, m.footprint, o.ram.capacity)
		o.members[spec.Name] = m
		o.order = append(o.order, spec.Name)
		o.recordFailure(spec.Name, "launch", m.lastErr)
		return m, m.lastErr
	}
	if m.wireRate > o.wire.capacity {
		m.state = StateFailed
		m.lastErr = fmt.Errorf("%w: %q holds %d B/s of idle uplink, wire budget is %d",
			ErrNeverAdmissible, spec.Name, m.wireRate, o.wire.capacity)
		o.members[spec.Name] = m
		o.order = append(o.order, spec.Name)
		o.recordFailure(spec.Name, "launch", m.lastErr)
		return m, m.lastErr
	}
	o.members[spec.Name] = m
	o.order = append(o.order, spec.Name)
	m.pendingRes = o.ram.reservePri(m.footprint, int(m.pri))
	if m.wireRate > 0 {
		m.pendingWire = o.wire.reservePri(m.wireRate, int(m.pri))
	}
	// A launch that queued is pressure the preemptor may act on; no
	// state transition fires until admission, so arm it here.
	o.schedulePreempt()
	o.superviseLaunch(m, 0)
	return m, nil
}

// LaunchRestored enqueues a nym whose first boot restores the given
// vault checkpoint instead of starting blank. This is the receiving
// half of a cross-host migration: the destination orchestrator admits
// the member like any launch (RAM reservation, start gate, restart
// policy) but its state comes off the vault.
func (o *Orchestrator) LaunchRestored(spec Spec, cp Checkpoint) (*Member, error) {
	m, err := o.Launch(spec)
	if m != nil && err == nil {
		m.checkpoint = &cp
	}
	return m, err
}

// LaunchAll enqueues a batch, returning the first hard admission error
// (other members still launch).
func (o *Orchestrator) LaunchAll(specs []Spec) ([]*Member, error) {
	var firstErr error
	members := make([]*Member, 0, len(specs))
	for _, spec := range specs {
		m, err := o.Launch(spec)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if m != nil {
			members = append(members, m)
		}
	}
	return members, firstErr
}

// superviseLaunch spawns the member's launch pipeline after delay.
func (o *Orchestrator) superviseLaunch(m *Member, delay time.Duration) {
	o.eng.Go("fleet/"+m.spec.Name, func(p *sim.Proc) {
		if delay > 0 {
			p.Sleep(delay)
		}
		o.runLaunch(p, m)
	})
}

// runLaunch drives one member from admission to Running, consuming
// restart budget on failed attempts. RAM is reserved before the start
// gate so a queued launch holds its place in admission order. A
// member with a recorded vault checkpoint is restored from it rather
// than started blank — a restarted persistent nym keeps its state.
// (The throwaway loader nym inside LoadNymVault is transient and not
// separately reserved.)
func (o *Orchestrator) runLaunch(p *sim.Proc, m *Member) {
	res := m.pendingRes
	m.pendingRes = nil
	wres := m.pendingWire
	m.pendingWire = nil
	for {
		if m.detached && res == nil && wres == nil {
			return
		}
		if res == nil {
			res = o.ram.reservePri(m.footprint, int(m.pri))
		}
		if wres == nil && m.wireRate > 0 {
			wres = o.wire.reservePri(m.wireRate, int(m.pri))
		}
		// Already-enqueued reservations must be seen through even if
		// the member detaches meanwhile: each eventual grant is
		// released below, never leaked in a semaphore's queue. Both
		// queues admit strict priority-FIFO with the same ordering, so
		// holding one grant while parked for the other cannot deadlock.
		_, err := sim.Await(p, res)
		res = nil
		ramHeld := err == nil
		var werr error
		wireHeld := false
		if wres != nil {
			_, werr = sim.Await(p, wres)
			wres = nil
			wireHeld = werr == nil
		}
		if err == nil {
			err = werr
		}
		if err != nil {
			// Oversized for the whole budget — Launch pre-checks this, so
			// only a shrunken budget could trip it; fail, don't wedge.
			if ramHeld {
				o.ram.release(m.footprint)
			}
			if wireHeld {
				o.wire.release(m.wireRate)
			}
			m.lastErr = err
			o.recordFailure(m.spec.Name, "launch", err)
			o.setState(m, StateFailed)
			return
		}
		if m.detached {
			o.releaseAdmission(m)
			return
		}
		sim.Await(p, o.startGate.reserve(1))
		if m.detached {
			o.startGate.release(1)
			o.releaseAdmission(m)
			return
		}
		o.setState(m, StateStarting)
		var nym *core.Nym
		if cp := m.checkpoint; cp != nil {
			nym, err = o.mgr.LoadNymVault(p, m.spec.Name, cp.Password, m.spec.Opts, cp.Dest)
		} else {
			nym, err = o.mgr.StartNym(p, m.spec.Name, m.spec.Opts)
		}
		o.startGate.release(1)
		if err == nil {
			m.nym = nym
			m.lastErr = nil
			m.runningAt = p.Now()
			o.sampleRAM()
			o.setState(m, StateRunning)
			return
		}
		o.releaseAdmission(m)
		m.lastErr = err
		o.recordFailure(m.spec.Name, "launch", err)
		if m.restarts >= o.cfg.Restart.MaxRestarts {
			o.setState(m, StateFailed)
			return
		}
		m.restarts++
		o.setState(m, StateRestarting)
		if o.cfg.Restart.Backoff > 0 {
			p.Sleep(o.cfg.Restart.Backoff)
		}
	}
}

// releaseAdmission returns an admitted member's RAM and wire-rate
// reservations to their semaphores. Every release site pairs the two:
// a member either holds both grants or neither.
func (o *Orchestrator) releaseAdmission(m *Member) {
	o.ram.release(m.footprint)
	if m.wireRate > 0 {
		o.wire.release(m.wireRate)
	}
}

// FailNym injects a nymbox failure: the AnonVM dies out from under the
// nym (the crash), the manager reclaims whatever remains of the
// nymbox, the reservation is released, and the restart policy decides
// whether the member comes back. Tests and chaos experiments use this
// to verify per-nym failure isolation.
func (o *Orchestrator) FailNym(p *sim.Proc, name string, cause error) error {
	m := o.members[name]
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMember, name)
	}
	if m.state != StateRunning {
		return fmt.Errorf("%w: %q is %v", ErrNotRunning, name, m.state)
	}
	if cause == nil {
		cause = nymerr.New(CodeCrashInjected, "fleet: injected failure")
	} else {
		// Caller-supplied causes classify too: the injected failure is
		// the outermost code, the original cause stays errors.Is-able.
		cause = nymerr.Wrap(CodeCrashInjected, cause, "fleet: injected failure")
	}
	m.lastErr = cause
	o.recordFailure(name, "crash", cause)
	// Transition the member before any yield: the teardown below parks
	// this process for whole wipe durations, and concurrent observers
	// (a second FailNym, a SaveSweep mid-stagger) must never see a
	// stale Running member whose nymbox is half-destroyed.
	nym := m.nym
	m.nym = nil
	restart := m.restarts < o.cfg.Restart.MaxRestarts
	if restart {
		m.restarts++
		o.setState(m, StateRestarting)
	} else {
		o.setState(m, StateFailed)
	}
	// The crash: one VM vanishes. Teardown of the remains must still
	// retire the nym (the TerminateNym partial-failure contract). The
	// reservation is released only after the wipe, when the physical
	// pages are actually free.
	o.mgr.Host().DestroyVM(p, nym.AnonVM())
	o.mgr.TerminateNym(p, nym) // best effort; the AnonVM is already gone
	o.releaseAdmission(m)
	if restart {
		o.superviseLaunch(m, o.cfg.Restart.Backoff)
	}
	return nil
}

// AwaitRunning parks the caller until target members are Running
// simultaneously. It errors out instead of parking forever when the
// target is unreachable: everything pending has failed, the RAM
// budget cannot hold that many of the launched footprints at once, or
// the admission queue has stalled — nothing is mid-flight and the
// FIFO head needs more RAM than remains, so only an external stop
// could ever make progress.
func (o *Orchestrator) AwaitRunning(p *sim.Proc, target int) error {
	if max := o.maxSimultaneous(); target > max {
		return nymerr.Newf(CodeTargetInfeasible, "fleet: target %d exceeds the %d nyms the RAM budget can hold at once", target, max)
	}
	for {
		if o.Running() >= target {
			return nil
		}
		if !o.anyPending() {
			return nymerr.Newf(CodeRampDead, "fleet: %d/%d running and no launches pending (%d failed)",
				o.Running(), target, o.CountState(StateFailed))
		}
		if o.queueStalled() {
			return nymerr.Newf(CodeAdmissionStalled, "fleet: %d/%d running and %d launches stalled in the admission queue (the FIFO head needs more RAM or wire than remains free)",
				o.Running(), target, o.ram.queued()+o.wire.queued())
		}
		o.parkOnChange(p)
	}
}

// QueueStalled reports whether the admission queue is stalled: only
// queued members remain and nothing in flight will free or claim the
// capacity their FIFO head needs. A cluster placement layer uses it
// to tell "this host will admit its queue eventually" from "only an
// external stop could unwedge this host".
func (o *Orchestrator) QueueStalled() bool { return o.queueStalled() }

// queueStalled reports that the only pending members are parked in
// the RAM admission queue and nothing in flight will free or claim
// capacity: the semaphore admits strictly priority-FIFO, and a queue
// is only non-empty when its head does not fit the free budget, so
// without a Starting/Restarting/Stopping member (or a launch proc that
// has not reached the queue yet) the fleet cannot make progress on its
// own. An armed or in-flight preemption pass counts as progress: the
// head's deficit is about to be freed by force.
func (o *Orchestrator) queueStalled() bool {
	if o.preemptArmed || o.preempting || o.needsPreempt() {
		return false
	}
	queued := 0
	for _, name := range o.order {
		switch o.members[name].state {
		case StateStarting, StateRestarting, StateStopping:
			return false
		case StateQueued:
			queued++
		}
	}
	// Queued members whose supervisor procs have not yet enqueued a
	// reservation are still in flight, not stalled. A member parks in
	// the RAM queue first and the wire queue second; when every queued
	// member sits in one of them, no admission can proceed on its own.
	// (Each member holds at most one slot per queue, so either count
	// matching the queued total means everyone is wedged.)
	return queued > 0 && (queued == o.ram.queued() || queued == o.wire.queued())
}

// maxSimultaneous bounds how many launched members the RAM budget can
// hold concurrently: the largest prefix of the (smallest-first)
// footprints that fits.
func (o *Orchestrator) maxSimultaneous() int {
	var fps []int64
	for _, name := range o.order {
		m := o.members[name]
		if m.state == StateFailed || m.state == StateStopped || m.state == StatePreempted {
			continue
		}
		fps = append(fps, m.footprint)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	var sum int64
	n := 0
	for _, fp := range fps {
		if sum+fp > o.ram.capacity {
			break
		}
		sum += fp
		n++
	}
	return n
}

// AwaitSettled parks the caller until no member is queued, starting,
// restarting, or stopping.
func (o *Orchestrator) AwaitSettled(p *sim.Proc) {
	for o.anyPending() || o.CountState(StateStopping) > 0 {
		o.parkOnChange(p)
	}
}

func (o *Orchestrator) anyPending() bool {
	for _, name := range o.order {
		switch o.members[name].state {
		case StateQueued, StateStarting, StateRestarting:
			return true
		}
	}
	return false
}

func (o *Orchestrator) parkOnChange(p *sim.Proc) {
	o.watchers.Park(p)
}

// ChangeFuture returns a future completed on the orchestrator's next
// member state change (or detach). A cluster placement layer awaits
// it to learn when this host's admission picture may have moved.
func (o *Orchestrator) ChangeFuture() *sim.Future[struct{}] {
	return o.watchers.Future()
}

// notify wakes everyone waiting on fleet progress.
func (o *Orchestrator) notify() {
	o.watchers.Notify()
}

// setState transitions a member, keeps the KSM and preemption daemons
// armed while they have work, and wakes everyone waiting on fleet
// progress.
func (o *Orchestrator) setState(m *Member, s MemberState) {
	m.state = s
	o.scheduleKSM()
	o.schedulePreempt()
	o.notify()
}

// SaveSweep checkpoints every Running persistent member through the
// NymVault, mutated or not — the caller-driven full checkpoint (a
// fleet's cold save, a pre-shutdown flush). Save launches are spaced
// SaveStagger apart with at most SaveConcurrency in flight, so a
// fleet-wide checkpoint is a smooth trickle on the anonymizer and the
// providers rather than a thundering herd. destFor maps each member
// to its vault destination (typically one pseudonymous account per
// nym). Members another pass is already saving are left alone and
// counted Busy: state they dirtied after that save's export was NOT
// captured, so a pre-shutdown flush that needs full coverage should
// re-sweep while Busy > 0. For the periodic, dirty-skipping variant see StartSweeps.
func (o *Orchestrator) SaveSweep(p *sim.Proc, password string, destFor func(*Member) core.VaultDest) (SweepStats, error) {
	return o.runSweep(p, SweepConfig{Password: password, DestFor: destFor, Cadence: Cadence{Mode: CadenceAll}})
}

// CheckpointNym vault-saves one Running member synchronously and
// records the result as its checkpoint (the same record SaveSweep
// writes). Migration uses it for the source-side save; callers that
// checkpoint whole fleets should prefer SaveSweep's stagger. If a
// sweep pass is already saving the member, CheckpointNym waits for
// that save to finish before taking its own — a nym is never
// double-checkpointed by two concurrent saves.
func (o *Orchestrator) CheckpointNym(p *sim.Proc, name, password string, dest core.VaultDest) (vault.SaveStats, error) {
	m := o.members[name]
	if m == nil {
		return vault.SaveStats{}, fmt.Errorf("%w: %q", ErrUnknownMember, name)
	}
	o.opStarted()
	defer o.opDone()
	for m.saving != nil {
		o.parkOnChange(p)
	}
	// The wait yields; the member may have crashed or stopped while
	// the sweep's save drained.
	if m.state != StateRunning || m.nym == nil {
		return vault.SaveStats{}, fmt.Errorf("%w: %q is %v", ErrNotRunning, name, m.state)
	}
	claim := &saveClaim{}
	m.saving = claim
	stats, err := o.mgr.StoreNymVault(p, m.nym, password, dest)
	o.releaseClaim(m, claim)
	if err != nil {
		return stats, err
	}
	m.checkpoint = &Checkpoint{Password: password, Dest: dest}
	return stats, nil
}

// Stop tears down one Running member, releasing its reservation once
// the wipe completes.
func (o *Orchestrator) Stop(p *sim.Proc, name string) error {
	m := o.members[name]
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMember, name)
	}
	if m.state != StateRunning || m.nym == nil {
		return fmt.Errorf("%w: %q is %v", ErrNotRunning, name, m.state)
	}
	o.opStarted()
	defer o.opDone()
	nym := m.nym
	m.nym = nil
	o.setState(m, StateStopping)
	err := o.mgr.TerminateNym(p, nym)
	o.recordFailure(name, "stop", err)
	o.releaseAdmission(m)
	o.setState(m, StateStopped)
	return err
}

// Detach removes a member from the fleet's supervision without
// touching any nymbox: its record is forgotten, its name freed, and
// any pending restart of it stands down. Only members whose nymbox is
// not live (queued, restarting, stopped, failed) can be detached — a
// migration stops the member first, then detaches it, so the source
// host cannot resurrect a nym that now runs elsewhere.
func (o *Orchestrator) Detach(name string) error {
	m := o.members[name]
	if m == nil {
		return fmt.Errorf("%w: %q", ErrUnknownMember, name)
	}
	switch m.state {
	case StateRunning, StateStarting, StateStopping:
		return fmt.Errorf("%w: %q is %v", ErrNotDetachable, name, m.state)
	}
	m.detached = true
	delete(o.members, name)
	for i, n := range o.order {
		if n == name {
			o.order = append(o.order[:i], o.order[i+1:]...)
			break
		}
	}
	o.notify()
	return nil
}

// StopAll tears down every Running member in parallel, bounded by
// StopConcurrency, releasing each reservation as its wipe completes.
// Queued members that have not been admitted yet are left queued; call
// AwaitSettled first for a clean shutdown of a mid-ramp fleet.
func (o *Orchestrator) StopAll(p *sim.Proc) error {
	o.opStarted()
	defer o.opDone()
	gate := newSem(o.eng, int64(o.cfg.StopConcurrency))
	var futs []*sim.Future[struct{}]
	var stopping []*Member
	var errs []error
	for _, m := range o.Members() {
		if m.state != StateRunning || m.nym == nil {
			continue
		}
		o.setState(m, StateStopping)
		sim.Await(p, gate.reserve(1))
		fut := o.mgr.TerminateNymAsync(m.nym)
		fut.OnDone(func() { gate.release(1) })
		futs = append(futs, fut)
		stopping = append(stopping, m)
	}
	for i, f := range futs {
		_, err := sim.Await(p, f)
		if err != nil {
			errs = append(errs, err)
			o.recordFailure(stopping[i].spec.Name, "stop", err)
		}
		m := stopping[i]
		o.releaseAdmission(m)
		m.nym = nil
		o.setState(m, StateStopped)
	}
	return errors.Join(errs...)
}

// opStarted/opDone bracket explicit fleet operations (sweeps,
// teardowns), which keep the KSM daemon eligible while they run.
func (o *Orchestrator) opStarted() {
	o.ops++
	o.scheduleKSM()
}

func (o *Orchestrator) opDone() {
	o.ops--
	if o.ops == 0 && !o.needsKSM() {
		// Final drain so post-op memory readings reflect merged state.
		o.mgr.Host().Mem().ScanAll()
		o.sampleRAM()
	}
}

// needsKSM reports whether anything is (or is about to be) writing
// host pages: a member booting, restarting, or being wiped, or an
// explicit operation in flight. Members that are merely Queued write
// nothing, so they do not keep the daemon alive — otherwise a launch
// starved for RAM that nothing will free would tick the daemon
// forever and Engine.Run would never return.
func (o *Orchestrator) needsKSM() bool {
	if o.ops > 0 {
		return true
	}
	for _, name := range o.order {
		switch o.members[name].state {
		case StateStarting, StateRestarting, StateStopping:
			return true
		}
	}
	return false
}

// scheduleKSM ticks the merge daemon while page-writing work is in
// flight. Capacity is enforced at page-write time, before merging;
// without this daemon a hundred-nym ramp would hit the host's
// out-of-memory wall on pages that are 90% mergeable base image. The
// daemon re-arms on every state transition and op start, and stops
// (with a final drain) as soon as nothing needs it, so an idle or
// starved fleet leaves the event queue empty.
func (o *Orchestrator) scheduleKSM() {
	if o.ksmScheduled || !o.needsKSM() {
		return
	}
	o.ksmScheduled = true
	o.eng.Schedule(o.cfg.KSMInterval, func() {
		o.ksmScheduled = false
		o.sampleRAM() // capture the pre-merge spike
		o.mgr.Host().KSMScan(o.cfg.KSMBudget)
		if o.needsKSM() {
			o.scheduleKSM()
			return
		}
		o.mgr.Host().Mem().ScanAll()
		o.sampleRAM()
	})
}

func (o *Orchestrator) sampleRAM() {
	if used := o.mgr.Host().Mem().UsedBytes(); used > o.peakRAMBytes {
		o.peakRAMBytes = used
	}
}
