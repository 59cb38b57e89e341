package experiments

import (
	"fmt"
	"time"

	"nymix/internal/cluster"
	"nymix/internal/core"
	"nymix/internal/cpusched"
	"nymix/internal/fleet"
	"nymix/internal/hypervisor"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// defaultElasticChip sizes the elastic scenario's hosts: a 4-core
// commodity box, so the pool scales out rather than up.
func defaultElasticChip() cpusched.Config { return cpusched.Config{Cores: 4, SMTFactor: 1.3} }

// The elastic experiment is the ROADMAP's cluster-elasticity scenario
// end to end: a bursty launch wave hits a small floor pool, the
// autoscaler grows the pool while priority-class admission and
// preemption keep System launches from starving behind the ephemeral
// tail, the wave quiesces, and the autoscaler drains the surplus hosts
// back to the floor over the vault-backed migration machinery. The
// same wave is replayed against a fixed floor-sized pool for contrast:
// everything the fixed pool cannot admit stalls forever.

// Elastic scenario sizing (overridable via ElasticOn / nymbench
// flags). The autoscaler's floor sits below the initial pool size, so
// the quiesce phase drains through a host that still carries live
// persistent nyms — the migration half of elasticity — instead of
// only retiring hosts the teardown already emptied.
const (
	ElasticDefaultNyms  = 96
	ElasticDefaultHosts = 2
	ElasticFloorHosts   = 1
)

// ElasticClassRow is one admission class in one mode of the elastic
// experiment.
type ElasticClassRow struct {
	Mode      string // "fixed" or "elastic"
	Class     string // "system", "persistent", "ephemeral"
	Launched  int
	Admitted  int           // reached Running at least once
	Stalled   int           // never admitted when the run settled
	Preempted int           // admitted, later sacrificed to a higher class
	P50, P95  time.Duration // time-to-admit among admitted (cluster accept -> Running)
}

// ElasticResult aggregates both modes of the elastic experiment.
type ElasticResult struct {
	Nyms         int
	InitialHosts int
	FloorHosts   int
	MaxHosts     int
	Rows         []ElasticClassRow

	// The elastic pool's story.
	GrowEvents      int
	ShrinkEvents    int
	HostsPeak       int
	HostsEnd        int
	BurstToAdmitted time.Duration // launch start -> wave settled (everything admitted)
	DrainElapsed    time.Duration // quiesce -> pool back at the floor
	DrainMoves      int           // migrations paid by the drain phase
	DrainWireMB     float64       // cross-host vault wire of those moves
	LeakedBytes     int64         // reservation bytes unaccounted anywhere (must be 0)
	ScaleLog        []cluster.ScaleEvent

	// The fixed pool's story.
	FixedStalled int // launches the fixed pool never admitted
}

// ElasticSpecs builds the n-nym burst wave: every eighth nym is a
// System-class persistent nym (infrastructure that must land), every
// other fourth a persistent user nym, the rest disposable ephemerals.
func ElasticSpecs(n int) []fleet.Spec {
	specs := make([]fleet.Spec, n)
	for i := range specs {
		name := fmt.Sprintf("elastic%03d", i)
		opts := FleetNymOptions(name, i)
		var pri fleet.Priority
		if i%8 == 0 {
			opts.Model = core.ModelPersistent
			opts.GuardSeed = name
			pri = fleet.PrioritySystem
		}
		specs[i] = fleet.Spec{Name: name, Opts: opts, Priority: pri}
	}
	return specs
}

// ElasticClusterConfig is the pool the elastic experiment runs: 8 GiB
// 4-core hosts (about 36 density-tuned nymboxes each), preemption
// armed in both modes, and — in elastic mode — an autoscaler from
// ElasticFloorHosts to 3x the initial pool. The autoscaler's dwells
// are the cluster's constants (5s to grow, 20s to provision, 15s
// under a 0.6 share to shrink), so decisions land in tens of seconds.
// On the fixed pool preemption is the only relief (10s dwell); on the
// elastic pool its 45s dwell sits past the grow path's
// time-to-provision, so new capacity absorbs sustained pressure and
// victims die only once the ceiling is hit.
func ElasticClusterConfig(hosts int, elastic bool) cluster.Config {
	cfg := cluster.Config{
		Hosts: hosts,
		HostConfig: hypervisor.Config{
			RAMBytes: 8 << 30,
			CPU:      defaultElasticChip(),
		},
		PreemptDwell: 10 * time.Second,
	}
	if elastic {
		cfg.MinHosts = ElasticFloorHosts
		cfg.MaxHosts = 3 * hosts
		cfg.PreemptDwell = 45 * time.Second
	}
	return cfg
}

// Elastic runs the experiment at the default scale. Zero nyms/hosts
// take the defaults (a 96-nym burst on an initial pool of 2).
func Elastic(seed uint64, nyms, hosts int) (*ElasticResult, error) {
	if nyms <= 0 {
		nyms = ElasticDefaultNyms
	}
	if hosts <= 0 {
		hosts = ElasticDefaultHosts
	}
	return ElasticOn(seed, nyms, hosts, hypervisor.Config{})
}

// ElasticOn runs the elastic experiment with explicit host sizing
// (zero config = the 8 GiB scenario profile). Tests use small hosts so
// the pool scales at a handful of nyms.
func ElasticOn(seed uint64, nyms, hosts int, hostCfg hypervisor.Config) (*ElasticResult, error) {
	res := &ElasticResult{
		Nyms:         nyms,
		InitialHosts: hosts,
		FloorHosts:   ElasticFloorHosts,
		MaxHosts:     3 * hosts,
	}
	fixed, err := elasticRun(seed+7000, nyms, hosts, false, hostCfg, res)
	if err != nil {
		return nil, fmt.Errorf("elastic fixed: %w", err)
	}
	elastic, err := elasticRun(seed+7001, nyms, hosts, true, hostCfg, res)
	if err != nil {
		return nil, fmt.Errorf("elastic scale-up: %w", err)
	}
	res.Rows = append(fixed, elastic...)
	return res, nil
}

// memberStat is one launch's admission outcome, snapshotted before
// drain-phase migrations reshuffle members across hosts.
type memberStat struct {
	class     string
	admitted  bool
	preempted bool
	wait      time.Duration
}

func elasticRun(seed uint64, nyms, hosts int, elastic bool, hostCfg hypervisor.Config, res *ElasticResult) ([]ElasticClassRow, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	cfg := ElasticClusterConfig(hosts, elastic)
	if hostCfg.RAMBytes != 0 || hostCfg.CPU.Cores != 0 {
		cfg.HostConfig = hostCfg
	}
	c, err := cluster.New(eng, world, cfg)
	if err != nil {
		return nil, err
	}
	specs := ElasticSpecs(nyms)
	stats := make(map[string]*memberStat, nyms)
	for _, s := range specs {
		stats[s.Name] = &memberStat{class: s.EffectivePriority().String()}
	}
	mode := "fixed"
	if elastic {
		mode = "elastic"
	}

	err = eng.RunProc("elastic-"+mode, func(p *sim.Proc) error {
		// Phase 1: the burst. Settled means every launch was admitted,
		// preempted after admission, or (fixed mode) stalled for good.
		t0 := p.Now()
		if err := c.LaunchAll(specs); err != nil {
			return err
		}
		c.AwaitSettled(p)
		burst := p.Now() - t0
		collectElasticStats(c, stats)
		if elastic {
			res.BurstToAdmitted = burst
			res.HostsPeak = c.ActiveHosts()
			if queued := c.QueuedClusterWide(); queued != 0 {
				return fmt.Errorf("elastic pool left %d launches queued after settling", queued)
			}
		} else {
			res.FixedStalled = c.QueuedClusterWide()
			return nil // the fixed pool's story ends stalled
		}

		// Phase 2: quiesce. The ephemeral wave ends; the fleet's
		// teardown fans out per host.
		preDrainMoves := c.Migrations()
		preDrainWire := c.MigrationWireBytes()
		var stops []*sim.Future[struct{}]
		for _, h := range c.Hosts() {
			h := h
			for _, m := range h.Fleet().Members() {
				if m.State() != fleet.StateRunning || m.Priority() != fleet.PriorityEphemeral {
					continue
				}
				name := m.Name()
				stops = append(stops, eng.Go("quiesce-"+name, func(sp *sim.Proc) {
					h.Fleet().Stop(sp, name)
				}))
			}
		}
		for _, f := range stops {
			sim.Await(p, f)
		}

		// Phase 3: drain toward the floor. AwaitSettled covers the
		// shrink dwells and the in-flight drains, so when it returns the
		// autoscaler has converged: either the floor was reached or the
		// survivors' load sits above the shrink watermark.
		t1 := p.Now()
		c.AwaitSettled(p)
		res.DrainElapsed = p.Now() - t1
		res.DrainMoves = c.Migrations() - preDrainMoves
		res.DrainWireMB = float64(c.MigrationWireBytes()-preDrainWire) / (1 << 20)
		res.HostsEnd = c.ActiveHosts()
		res.LeakedBytes = elasticLeakedBytes(c)
		st := c.Snapshot()
		res.GrowEvents = st.GrowEvents
		res.ShrinkEvents = st.ShrinkEvents
		res.ScaleLog = c.ScaleLog()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return elasticClassRows(mode, stats), nil
}

// collectElasticStats snapshots every launch's admission outcome from
// the live pool (pre-drain, so no member has been detached by a
// migration yet).
func collectElasticStats(c *cluster.Cluster, stats map[string]*memberStat) {
	for _, h := range c.Hosts() {
		for _, m := range h.Fleet().Members() {
			st := stats[m.Name()]
			if st == nil {
				continue
			}
			if m.RunningAt() > 0 {
				st.admitted = true
				if at, ok := c.LaunchedAt(m.Name()); ok {
					st.wait = m.RunningAt() - at
				}
			}
			if m.State() == fleet.StatePreempted {
				st.preempted = true
			}
		}
	}
}

// elasticLeakedBytes cross-checks reservation accounting after the
// drain: active hosts must hold exactly their Running members'
// footprints, retired hosts nothing.
func elasticLeakedBytes(c *cluster.Cluster) int64 {
	var leaked int64
	for _, h := range c.Hosts() {
		var want int64
		for _, m := range h.Fleet().Members() {
			if m.State() == fleet.StateRunning {
				want += m.Footprint()
			}
		}
		leaked += h.Fleet().ReservedBytes() - want
	}
	for _, h := range c.RetiredHosts() {
		leaked += h.Fleet().ReservedBytes()
	}
	return leaked
}

func elasticClassRows(mode string, stats map[string]*memberStat) []ElasticClassRow {
	byClass := map[string]*ElasticClassRow{}
	waits := map[string][]time.Duration{}
	for _, st := range stats {
		row := byClass[st.class]
		if row == nil {
			row = &ElasticClassRow{Mode: mode, Class: st.class}
			byClass[st.class] = row
		}
		row.Launched++
		switch {
		case st.admitted:
			row.Admitted++
			waits[st.class] = append(waits[st.class], st.wait)
		default:
			row.Stalled++
		}
		if st.preempted {
			row.Preempted++
		}
	}
	var out []ElasticClassRow
	for _, class := range []string{"system", "persistent", "ephemeral"} {
		row := byClass[class]
		if row == nil {
			continue
		}
		wait := fleet.SpreadOf(waits[class])
		row.P50, row.P95 = wait.P50, wait.P95
		out = append(out, *row)
	}
	return out
}

// RenderElastic prints the experiment.
func RenderElastic(res *ElasticResult) string {
	var t table
	t.row(fmt.Sprintf("# Elastic cluster: %d-nym burst on an initial pool of %d hosts (floor %d, ceiling %d) vs the same burst on a fixed %d-host pool",
		res.Nyms, res.InitialHosts, res.FloorHosts, res.MaxHosts, res.InitialHosts))
	t.row("mode", "class", "launched", "admitted", "stalled", "preempted", "p50-admit-s", "p95-admit-s")
	for _, r := range res.Rows {
		t.row(r.Mode, r.Class, fmt.Sprint(r.Launched), fmt.Sprint(r.Admitted),
			fmt.Sprint(r.Stalled), fmt.Sprint(r.Preempted),
			f1(r.P50.Seconds()), f1(r.P95.Seconds()))
	}
	t.row(fmt.Sprintf("# fixed: %d launches never admitted (pool saturated; preemption admits only higher classes)",
		res.FixedStalled))
	t.row(fmt.Sprintf("# elastic: %d grow(s) to %d hosts admitted the whole burst in %.0fs; quiesce drained %d host(s) back to %d in %.0fs (%d migrations, %.1f MB vault wire, %d bytes leaked)",
		res.GrowEvents, res.HostsPeak, res.BurstToAdmitted.Seconds(),
		res.ShrinkEvents, res.HostsEnd, res.DrainElapsed.Seconds(),
		res.DrainMoves, res.DrainWireMB, res.LeakedBytes))
	if len(res.ScaleLog) > 0 {
		line := "# hosts over time:"
		for _, ev := range res.ScaleLog {
			line += fmt.Sprintf(" [%.0fs %s->%d]", ev.At.Seconds(), ev.Kind, ev.Active)
		}
		t.row(line)
	}
	return t.String()
}
