package cluster

import (
	"errors"
	"fmt"
	"time"

	"nymix/internal/cloud"
	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/hypervisor"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// ClusterUplink is the default per-host uplink: a datacenter-grade
// 1 Gbit/s line rather than the paper's rate-limited 10 Mbit/s DSL.
var ClusterUplink = vnet.LinkConfig{Latency: time.Millisecond, Capacity: 1e9 / 8}

// Host naming and cloud quota shared by every cluster.
const (
	// hostPrefix names hosts hostPrefix0, hostPrefix1, ... in boot
	// order.
	hostPrefix = "shard"
	// providerQuota is the per-account cloud quota.
	providerQuota = 2 << 30
)

// Config parameterizes a cluster. Zero values take defaults.
type Config struct {
	// Hosts is the pool size (default 4).
	Hosts int
	// HostConfig sizes each host (default: 64 GiB, 16 cores — the
	// fleet experiment's production profile). Name is overridden per
	// host with hostPrefix.
	HostConfig hypervisor.Config
	// Uplink is each host's uplink (default ClusterUplink).
	Uplink *vnet.LinkConfig
	// Fleet configures every host's orchestrator.
	Fleet fleet.Config
	// Policy is the placement policy (default LeastReserved).
	Policy Policy
	// Rebalance arms the hot-host rebalancer (see rebalance.go for its
	// fixed interval, watermarks and move budget).
	Rebalance bool
	// MinHosts and MaxHosts bound the elastic pool: the autoscaler
	// never drains below MinHosts (or one host) nor grows past
	// MaxHosts. A zero MaxHosts leaves the autoscaler off.
	MinHosts int
	MaxHosts int
	// PreemptDwell arms cluster-queue preemption: a high-priority
	// launch stuck at the head of the cluster-wide queue this long
	// sacrifices lower-priority nyms on the cheapest host, admitting
	// System work while a new host is still provisioning. Zero leaves
	// preemption off.
	PreemptDwell time.Duration
	// VaultPassword seals migration, sweep and preemption-eviction
	// checkpoints (default "cluster-pw").
	VaultPassword string
	// DestFor maps a nym name to its vault destination for the same
	// saves (default: one pseudonymous dropbin account per nym).
	DestFor func(name string) core.VaultDest
	// RegionFor maps a host index to a hosting region. When set, each
	// host uplinks to its region's gateway router
	// (webworld.EnsureRegion) instead of the world's LAN gateway, so
	// vnet.SeverRegions can partition subsets of the pool from each
	// other or from the backbone. Nil keeps the single-LAN topology.
	RegionFor func(hostIndex int) string
}

func (c *Config) fillDefaults() {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.HostConfig.RAMBytes == 0 && c.HostConfig.CPU.Cores == 0 {
		c.HostConfig = hypervisor.Config{RAMBytes: 64 << 30, CPU: defaultChip()}
	}
	if c.Uplink == nil {
		c.Uplink = &ClusterUplink
	}
	if c.Policy == nil {
		c.Policy = LeastReserved{}
	}
	if c.VaultPassword == "" {
		c.VaultPassword = "cluster-pw"
	}
	if c.DestFor == nil {
		c.DestFor = func(name string) core.VaultDest {
			return core.VaultDest{
				Providers:       []string{"dropbin"},
				Account:         "acct-" + name,
				AccountPassword: "cloud-pw",
			}
		}
	}
}

// HostState is a pool member's scheduling state — the autoscaler's
// shrink path walks a host through Active -> Cordoned -> Draining ->
// Retired, and only Active hosts receive placements.
type HostState int

// Host lifecycle states.
const (
	HostActive   HostState = iota // taking placements
	HostCordoned                  // no new placements; existing nyms untouched
	HostDraining                  // live nyms being migrated off
	HostRetired                   // empty and removed from the pool
)

// String implements fmt.Stringer.
func (s HostState) String() string {
	switch s {
	case HostActive:
		return "active"
	case HostCordoned:
		return "cordoned"
	case HostDraining:
		return "draining"
	case HostRetired:
		return "retired"
	}
	return "unknown"
}

// Host is one machine in the pool: a hypervisor wrapped in its own
// Nym Manager and fleet orchestrator.
type Host struct {
	name  string
	mgr   *core.Manager
	orch  *fleet.Orchestrator
	state HostState
}

// Name returns the host's network identity.
func (h *Host) Name() string { return h.name }

// State returns the host's scheduling state.
func (h *Host) State() HostState { return h.state }

// placeable reports whether the placement layer may put new nyms here.
func (h *Host) placeable() bool { return h.state == HostActive }

// Manager returns the host's Nym Manager.
func (h *Host) Manager() *core.Manager { return h.mgr }

// Fleet returns the host's orchestrator.
func (h *Host) Fleet() *fleet.Orchestrator { return h.orch }

// ReservedShare returns the host's reserved fraction of its
// admissible budget — the figure placement and rebalancing bid with.
func (h *Host) ReservedShare() float64 {
	if h.orch.RAMBudgetBytes() <= 0 {
		return 0
	}
	return float64(h.orch.ReservedBytes()) / float64(h.orch.RAMBudgetBytes())
}

// pendingLaunch is one cluster-wide queued launch. cp is set when the
// launch restores a vault checkpoint — a migration whose destination
// restore failed re-queues here, so the nym relaunches from durable
// state as soon as any host has room.
type pendingLaunch struct {
	spec fleet.Spec
	pri  fleet.Priority
	cp   *fleet.Checkpoint
}

// Cluster owns the host pool and schedules nyms across it.
type Cluster struct {
	eng   *sim.Engine
	world *webworld.World
	cfg   Config
	hosts []*Host

	// providers is the shared cloud set every host (including ones the
	// autoscaler adds later) mounts, so any host can restore any
	// checkpoint. hostSeq numbers hosts monotonically — a retired
	// host's name is never reused.
	providers map[string]*cloud.Provider
	hostSeq   int
	retired   []*Host

	// placement maps each launched nym to the host currently
	// responsible for it; specs remembers launch options so a
	// migration can rebuild the member elsewhere; launchedAt records
	// when the cluster accepted each launch, so time-to-admit covers
	// the cluster-wide queue as well as the host-side pipeline.
	placement  map[string]*Host
	specs      map[string]fleet.Spec
	launchedAt map[string]sim.Time

	// pending is the cluster-wide admission queue, ordered by
	// descending priority, FIFO among equals.
	pending    []pendingLaunch
	peakQueued int

	// migrating guards each nym against concurrent migrations (a
	// user-initiated move racing a rebalance pass).
	migrating map[string]bool
	// launchErrs records launches the dispatcher had to drop (the
	// host's orchestrator rejected a dequeued spec) — surfaced instead
	// of silently losing the nym.
	launchErrs map[string]error

	watchers *sim.Broadcast

	migrations     int
	migrationWire  int64
	rebalScheduled bool
	rebalancing    bool

	// Cost-aware rebalance batching: moves the planner approved but
	// deferred into idle sweep slots (pendingMoves, FIFO), the
	// members currently queued (so re-planning skips them), and the
	// plan/execute/drop counters the economy telemetry reads.
	pendingMoves []plannedMove
	moveQueued   map[string]bool
	movesPlanned int

	// gcCursor rotates opportunistic VaultGC fairly over each host's
	// member list across idle slots.
	gcCursor map[string]int

	// Autoscaler state: the pressure/idle clocks (-1 while clear),
	// armed dwell timers, in-flight grow/drain work, and the scale
	// event log the elastic experiment renders.
	queueSince   sim.Time
	coldSince    sim.Time
	growArmed    bool
	growing      bool
	shrinkArmed  bool
	draining     bool
	growEvents   int
	shrinkEvents int
	scaleLog     []ScaleEvent

	// Cluster-queue preemption state, same idiom.
	preemptArmed bool
	preempting   bool

	// Sweep coordinator state (sweep.go): installed config (nil while
	// stopped), the round timer, completed round count, provider
	// tokens currently held, in-flight slot passes, and the slot log.
	sweepCfg           *SweepConfig
	sweepTimer         sim.Timer
	sweepRounds        int
	sweepRoundsSkipped int
	sweepTokensHeld    int
	sweepInFlight      int
	slotLog            []SweepSlot
	sweepErrs          []error
}

// New builds a cluster of cfg.Hosts hosts on the world, sharing one
// cloud-provider set so vault checkpoints written through any host
// are loadable from every other.
func New(eng *sim.Engine, world *webworld.World, cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	c := &Cluster{
		eng:        eng,
		world:      world,
		cfg:        cfg,
		placement:  make(map[string]*Host),
		specs:      make(map[string]fleet.Spec),
		launchedAt: make(map[string]sim.Time),
		migrating:  make(map[string]bool),
		moveQueued: make(map[string]bool),
		gcCursor:   make(map[string]int),
		launchErrs: make(map[string]error),
		watchers:   sim.NewBroadcast(eng),
		queueSince: -1,
		coldSince:  -1,
	}
	c.providers = core.DefaultProviders(world, providerQuota)
	for i := 0; i < cfg.Hosts; i++ {
		if _, err := c.addHost(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// addHost boots one more machine into the pool: its own hypervisor,
// Nym Manager, and fleet orchestrator, on the shared Internet and the
// shared provider set. The autoscaler's grow path calls it at runtime;
// New calls it for the initial pool.
func (c *Cluster) addHost() (*Host, error) {
	hostCfg := c.cfg.HostConfig
	hostCfg.Name = fmt.Sprintf("%s%d", hostPrefix, c.hostSeq)
	var gateway *vnet.Node
	if c.cfg.RegionFor != nil {
		if region := c.cfg.RegionFor(c.hostSeq); region != "" {
			gateway = c.world.EnsureRegion(region)
		}
	}
	mgr, err := core.NewManagerWith(c.eng, c.world, hostCfg, core.ManagerConfig{
		Uplink:    c.cfg.Uplink,
		Providers: c.providers,
		Gateway:   gateway,
	})
	if err != nil {
		return nil, err
	}
	h := &Host{name: hostCfg.Name, mgr: mgr, orch: fleet.New(mgr, c.cfg.Fleet)}
	c.hostSeq++
	c.hosts = append(c.hosts, h)
	c.watchHost(h)
	return h, nil
}

// memberDest is Config.DestFor in the form fleet's save paths take.
func (c *Cluster) memberDest(m *fleet.Member) core.VaultDest { return c.cfg.DestFor(m.Name()) }

// watchHost runs a daemon that reacts to every state change on one
// host: dispatch queued launches, arm the rebalancer, wake cluster
// waiters. The daemon parks (adding nothing to the event queue) when
// the host is quiet, so an idle cluster drains the engine.
func (c *Cluster) watchHost(h *Host) {
	c.eng.Go("cluster/watch-"+h.name, func(p *sim.Proc) {
		for {
			sim.Await(p, h.orch.ChangeFuture())
			c.onChange()
		}
	})
}

// onChange is the cluster's scheduling pulse.
func (c *Cluster) onChange() {
	c.dispatch()
	// Maintain the pressure clock: queueSince is when the current
	// episode of cluster-wide queueing began (-1 while the queue is
	// empty). The grow and preemption dwells both read it.
	if len(c.pending) > 0 {
		if c.queueSince < 0 {
			c.queueSince = c.eng.Now()
		}
	} else {
		c.queueSince = -1
	}
	c.maybeScheduleRebalance()
	c.autoscale()
	c.schedulePreempt()
	c.notify()
}

func (c *Cluster) notify() { c.watchers.Notify() }

func (c *Cluster) parkOnChange(p *sim.Proc) { c.watchers.Park(p) }

// Hosts returns the pool in fixed order (retired hosts excluded).
func (c *Cluster) Hosts() []*Host { return append([]*Host(nil), c.hosts...) }

// RetiredHosts returns hosts the autoscaler has drained and removed,
// oldest first.
func (c *Cluster) RetiredHosts() []*Host { return append([]*Host(nil), c.retired...) }

// ActiveHosts returns how many hosts currently take placements.
func (c *Cluster) ActiveHosts() int {
	n := 0
	for _, h := range c.hosts {
		if h.placeable() {
			n++
		}
	}
	return n
}

// placeableHosts returns the hosts the policy may place on.
func (c *Cluster) placeableHosts() []*Host {
	out := make([]*Host, 0, len(c.hosts))
	for _, h := range c.hosts {
		if h.placeable() {
			out = append(out, h)
		}
	}
	return out
}

// Host returns a pool member by name, or nil.
func (c *Cluster) Host(name string) *Host {
	for _, h := range c.hosts {
		if h.name == name {
			return h
		}
	}
	return nil
}

// HostOf returns the host currently responsible for a nym, or nil.
func (c *Cluster) HostOf(name string) *Host { return c.placement[name] }

// Member returns a nym's fleet member record, or nil.
func (c *Cluster) Member(name string) *fleet.Member {
	h := c.placement[name]
	if h == nil {
		return nil
	}
	return h.orch.Member(name)
}

// Running returns live nyms across the pool.
func (c *Cluster) Running() int {
	n := 0
	for _, h := range c.hosts {
		n += h.orch.Running()
	}
	return n
}

// QueuedClusterWide returns launches the placement layer is holding
// because no host can admit them yet.
func (c *Cluster) QueuedClusterWide() int { return len(c.pending) }

// PeakQueued returns the cluster-wide queue's high-water mark.
func (c *Cluster) PeakQueued() int { return c.peakQueued }

// Migrations returns completed cross-host migrations, including
// re-queued ones once their deferred restore lands.
func (c *Cluster) Migrations() int { return c.migrations }

// MigrationWireBytes returns the cross-host wire cost of all
// migrations: vault bytes uploaded by source saves plus bytes
// downloaded by destination restores (a re-queued migration's save
// bytes are counted at requeue time, its download when it lands).
func (c *Cluster) MigrationWireBytes() int64 { return c.migrationWire }

// Launch places one nym through the policy, or queues it
// cluster-wide when every host is saturated. Like fleet.Launch it
// returns immediately; a footprint no host could ever admit fails now.
func (c *Cluster) Launch(spec fleet.Spec) error {
	if _, dup := c.specs[spec.Name]; dup {
		return nymerr.Newf(CodeDuplicateNym, "cluster: nym %q already launched", spec.Name)
	}
	fp := spec.Opts.Footprint()
	feasible := false
	for _, h := range c.hosts {
		if fp <= h.orch.RAMBudgetBytes() {
			feasible = true
			break
		}
	}
	if !feasible {
		return fmt.Errorf("%w: %q needs %d bytes", ErrNeverPlaceable, spec.Name, fp)
	}
	c.specs[spec.Name] = spec
	c.launchedAt[spec.Name] = c.eng.Now()
	if h := c.cfg.Policy.Pick(c.placeableHosts(), fp); h != nil {
		return c.place(h, spec, nil)
	}
	c.enqueue(pendingLaunch{spec: spec, pri: spec.EffectivePriority()})
	// A queued launch is pressure only the autoscaler or the preemptor
	// can relieve when no host motion is in flight; evaluate now.
	c.onChange()
	return nil
}

// LaunchedAt returns when the cluster accepted a launch — the zero
// point for time-to-admit, which includes cluster-wide queueing.
func (c *Cluster) LaunchedAt(name string) (sim.Time, bool) {
	t, ok := c.launchedAt[name]
	return t, ok
}

// enqueue inserts into the cluster-wide queue in priority order:
// descending class, FIFO among equals — the same discipline the
// host-side admission semaphore enforces.
func (c *Cluster) enqueue(pl pendingLaunch) {
	at := len(c.pending)
	for i, x := range c.pending {
		if x.pri < pl.pri {
			at = i
			break
		}
	}
	c.pending = append(c.pending, pendingLaunch{})
	copy(c.pending[at+1:], c.pending[at:])
	c.pending[at] = pl
	if len(c.pending) > c.peakQueued {
		c.peakQueued = len(c.pending)
	}
}

// LaunchAll places a batch, returning the first hard error (other
// members still launch).
func (c *Cluster) LaunchAll(specs []fleet.Spec) error {
	var firstErr error
	for _, spec := range specs {
		if err := c.Launch(spec); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// place hands a spec to a host's orchestrator and records ownership;
// ownership is recorded only on success, and a rejected launch's
// failed stub (fleet registers one for a hard admission error) is
// detached so the name is not stranded on the host.
func (c *Cluster) place(h *Host, spec fleet.Spec, cp *fleet.Checkpoint) error {
	var m *fleet.Member
	var err error
	if cp != nil {
		m, err = h.orch.LaunchRestored(spec, *cp)
	} else {
		m, err = h.orch.Launch(spec)
	}
	if err != nil {
		h.orch.Detach(spec.Name) // best effort; no member may exist
		return err
	}
	c.placement[spec.Name] = h
	if cp != nil {
		// This is the deferred half of a migration whose first
		// destination failed: when the restore lands, count the move
		// and its download wire so MigrationWireBytes stays honest.
		c.watchRestored(h, m)
	}
	return nil
}

// watchRestored completes a re-queued migration's accounting once its
// vault restore reaches Running on the new host.
func (c *Cluster) watchRestored(h *Host, m *fleet.Member) {
	c.eng.Go("cluster/restored-"+m.Name(), func(p *sim.Proc) {
		for m.State() != fleet.StateRunning && m.State() != fleet.StateFailed {
			sim.Await(p, h.orch.ChangeFuture())
		}
		if m.State() == fleet.StateRunning && m.Nym() != nil {
			c.migrations++
			c.migrationWire += m.Nym().RestoreStats().DownloadedBytes
			c.notify()
		}
	})
}

// dispatch drains the cluster-wide queue in priority-FIFO order while
// the policy can place its head. A launch the chosen host rejects is
// recorded in launchErrs rather than silently dropped.
func (c *Cluster) dispatch() {
	for len(c.pending) > 0 {
		head := c.pending[0]
		h := c.cfg.Policy.Pick(c.placeableHosts(), head.spec.Opts.Footprint())
		if h == nil {
			return
		}
		c.pending = c.pending[1:]
		if err := c.place(h, head.spec, head.cp); err != nil {
			c.launchErrs[head.spec.Name] = err
		}
	}
}

// LaunchErrors returns launches the dispatcher could not place on the
// host the policy chose (keyed by nym name). Empty in healthy runs.
func (c *Cluster) LaunchErrors() map[string]error {
	out := make(map[string]error, len(c.launchErrs))
	for k, v := range c.launchErrs {
		out[k] = v
	}
	return out
}

// AwaitRunning parks the caller until target nyms run simultaneously
// across the pool, erroring instead of parking forever when nothing in
// flight can close the gap.
func (c *Cluster) AwaitRunning(p *sim.Proc, target int) error {
	for {
		if c.Running() >= target {
			return nil
		}
		if !c.anyPending() {
			return nymerr.Newf(CodeRampDead, "cluster: %d/%d running and nothing pending (%d failed)",
				c.Running(), target, c.countState(fleet.StateFailed))
		}
		c.parkOnChange(p)
	}
}

// AwaitSettled parks until no launch or teardown is in flight
// anywhere in the pool, no rebalance pass is running or armed to
// fire, and the autoscaler has no grow or drain in motion — a caller
// that reads a snapshot afterwards will not have it invalidated by
// work the daemons had already scheduled.
func (c *Cluster) AwaitSettled(p *sim.Proc) {
	for c.anyPending() || c.countState(fleet.StateStopping) > 0 ||
		c.rebalancing || c.rebalScheduled ||
		c.growing || c.growArmed || c.draining || c.shrinkArmed ||
		c.preempting || c.preemptArmed {
		c.parkOnChange(p)
	}
}

// anyPending reports whether any launch can still make progress: a
// host-side member mid-flight, or a cluster-wide queued spec that the
// autoscaler or the preemptor is still able to act on.
func (c *Cluster) anyPending() bool {
	inFlight := false
	for _, h := range c.hosts {
		if h.orch.CountState(fleet.StateStarting) > 0 ||
			h.orch.CountState(fleet.StateRestarting) > 0 ||
			h.orch.CountState(fleet.StateStopping) > 0 {
			inFlight = true
			break
		}
		if h.orch.CountState(fleet.StateQueued) > 0 && !h.orch.QueueStalled() {
			inFlight = true
			break
		}
	}
	if inFlight {
		return true
	}
	if len(c.pending) > 0 {
		// Nothing is moving host-side, but the queue is still pending
		// while elastic machinery can act: a grow (armed or
		// provisioning) will add capacity, a preemption pass will free
		// some, and a drain in flight re-places what it migrates.
		if c.growing || c.growArmed || c.preempting || c.preemptArmed || c.draining {
			return true
		}
	}
	// Only the cluster queue remains: it is pending only if something
	// could still place its head — and with nothing in flight, nothing
	// will. Report stalled (not pending) so waiters error out.
	return false
}

func (c *Cluster) countState(s fleet.MemberState) int {
	n := 0
	for _, h := range c.hosts {
		n += h.orch.CountState(s)
	}
	return n
}

// StopAll tears down every running member on every host in parallel.
func (c *Cluster) StopAll(p *sim.Proc) error {
	var futs []*sim.Future[struct{}]
	var errs []error
	for _, h := range c.hosts {
		h := h
		futs = append(futs, c.eng.Go("cluster/stop-"+h.name, func(sp *sim.Proc) {
			if err := h.orch.StopAll(sp); err != nil {
				errs = append(errs, err)
			}
		}))
	}
	for _, f := range futs {
		sim.Await(p, f)
	}
	return errors.Join(errs...)
}

// Stats is a point-in-time cluster snapshot.
type Stats struct {
	Hosts              int // pool members (excluding retired)
	ActiveHosts        int // hosts taking placements
	RetiredHosts       int // hosts drained and removed by the autoscaler
	Running            int
	QueuedClusterWide  int
	PeakQueued         int
	Migrations         int
	MigrationWireBytes int64
	GrowEvents         int                // hosts the autoscaler added
	ShrinkEvents       int                // hosts the autoscaler retired
	Preempted          fleet.PreemptStats // summed over all hosts, retired included
	PerHostRunning     []int
	PerHostShare       []float64
	PeakRAMBytes       int64 // max over hosts
	// WireReservedRate sums each active host's launched idle uplink
	// (bytes/sec) — the pool's standing cover-traffic bill.
	WireReservedRate int64
}

// Snapshot gathers Stats.
func (c *Cluster) Snapshot() Stats {
	st := Stats{
		Hosts:              len(c.hosts),
		ActiveHosts:        c.ActiveHosts(),
		RetiredHosts:       len(c.retired),
		Running:            c.Running(),
		QueuedClusterWide:  len(c.pending),
		PeakQueued:         c.peakQueued,
		Migrations:         c.migrations,
		MigrationWireBytes: c.migrationWire,
		GrowEvents:         c.growEvents,
		ShrinkEvents:       c.shrinkEvents,
	}
	for _, h := range c.hosts {
		st.PerHostRunning = append(st.PerHostRunning, h.orch.Running())
		st.PerHostShare = append(st.PerHostShare, h.ReservedShare())
		st.WireReservedRate += h.orch.WireReservedRate()
		if peak := h.orch.PeakRAMBytes(); peak > st.PeakRAMBytes {
			st.PeakRAMBytes = peak
		}
		pre := h.orch.Preemptions()
		st.Preempted.Terminated += pre.Terminated
		st.Preempted.Evicted += pre.Evicted
	}
	for _, h := range c.retired {
		pre := h.orch.Preemptions()
		st.Preempted.Terminated += pre.Terminated
		st.Preempted.Evicted += pre.Evicted
	}
	return st
}
