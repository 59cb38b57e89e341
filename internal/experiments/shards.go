package experiments

import (
	"fmt"
	"time"

	"nymix/internal/cluster"
	"nymix/internal/hypervisor"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// ShardScale is one row of the fleet-sharding experiment: a placement
// policy ramping N nyms across H hosts, with the rebalancer armed.
type ShardScale struct {
	Policy          string
	Nyms            int
	Hosts           int
	TimeToRunning   time.Duration // ramp start -> N running cluster-wide
	PeakQueued      int           // cluster-wide queue high-water mark
	Migrations      int           // rebalancer moves until convergence
	MigrationWireMB float64       // cross-host vault wire (saves + restores)
	PerHost         []int         // final running count per host
	MaxShare        float64       // hottest host's reserved share after settling
	MinShare        float64       // coldest host's reserved share after settling
	PeakRAMGiB      float64       // highest per-host physical peak
	Restarts        int
}

// ShardDefaults is the production scenario the issue names: 1024 nyms
// over four 64 GiB hosts.
const (
	ShardDefaultNyms  = 1024
	ShardDefaultHosts = 4
)

// FleetShards ramps nyms over hosts once per placement policy
// (least-reserved, then pack-first) with the hot-host rebalancer
// armed. Least-reserved should land balanced and migrate nothing;
// pack-first lands skewed and the rebalancer pays cross-host vault
// wire to spread it back out. Zero nyms/hosts take the defaults.
func FleetShards(seed uint64, nyms, hosts int) ([]ShardScale, error) {
	return FleetShardsOn(seed, nyms, hosts, hypervisor.Config{})
}

// FleetShardsOn runs the sharding experiment on explicitly sized
// hosts (zero config = the 64 GiB production profile). Tests use
// small hosts so the rebalancer trips at a handful of nyms.
func FleetShardsOn(seed uint64, nyms, hosts int, hostCfg hypervisor.Config) ([]ShardScale, error) {
	if nyms <= 0 {
		nyms = ShardDefaultNyms
	}
	if hosts <= 0 {
		hosts = ShardDefaultHosts
	}
	var out []ShardScale
	for i, policy := range []cluster.Policy{cluster.LeastReserved{}, cluster.PackFirst{}} {
		row, err := shardRampOne(seed+uint64(2000+i), nyms, hosts, policy, hostCfg)
		if err != nil {
			return nil, fmt.Errorf("shards %s: %w", policy.Name(), err)
		}
		out = append(out, row)
	}
	return out, nil
}

func shardRampOne(seed uint64, nyms, hosts int, policy cluster.Policy, hostCfg hypervisor.Config) (ShardScale, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	cfg := ShardClusterConfig(hosts, policy)
	if hostCfg.RAMBytes != 0 || hostCfg.CPU.Cores != 0 {
		cfg.HostConfig = hostCfg
	}
	c, err := cluster.New(eng, world, cfg)
	if err != nil {
		return ShardScale{}, err
	}
	row := ShardScale{Policy: policy.Name(), Nyms: nyms, Hosts: hosts}
	err = eng.RunProc("shard-ramp", func(p *sim.Proc) error {
		t0 := p.Now()
		if err := c.LaunchAll(FleetSpecs(nyms)); err != nil {
			return err
		}
		if err := c.AwaitRunning(p, nyms); err != nil {
			return err
		}
		row.TimeToRunning = p.Now() - t0
		return nil
	})
	if err != nil {
		return ShardScale{}, err
	}
	// RunProc drains the engine, so the rebalancer has converged (no
	// hot host with a cold destination remains) before stats are read.
	st := c.Snapshot()
	row.PeakQueued = st.PeakQueued
	row.Migrations = st.Migrations
	row.MigrationWireMB = float64(st.MigrationWireBytes) / (1 << 20)
	row.PerHost = st.PerHostRunning
	row.PeakRAMGiB = float64(st.PeakRAMBytes) / (1 << 30)
	for i, share := range st.PerHostShare {
		if i == 0 || share > row.MaxShare {
			row.MaxShare = share
		}
		if i == 0 || share < row.MinShare {
			row.MinShare = share
		}
	}
	for _, h := range c.Hosts() {
		for _, m := range h.Fleet().Members() {
			row.Restarts += m.Restarts()
		}
	}
	return row, nil
}

// ShardClusterConfig is the cluster the sharding experiment (and the
// nymixctl demo) runs: 64 GiB / 16-core hosts, density-tuned nymboxes
// (FleetNymOptions), and the rebalancer armed (it wakes when any
// host's reserved share passes 85%).
func ShardClusterConfig(hosts int, policy cluster.Policy) cluster.Config {
	return cluster.Config{
		Hosts:     hosts,
		Policy:    policy,
		Rebalance: true,
	}
}

// RenderFleetShards prints the experiment.
func RenderFleetShards(rows []ShardScale) string {
	var t table
	if len(rows) > 0 {
		t.row(fmt.Sprintf("# Fleet sharding: %d nyms over %d hosts, per placement policy (rebalancer armed)",
			rows[0].Nyms, rows[0].Hosts))
	}
	t.row("policy", "ramp-s", "peak-queue", "migrations", "mig-wire-MB", "per-host", "share-spread", "peakRAM-GiB", "restarts")
	for _, r := range rows {
		t.row(r.Policy, f1(r.TimeToRunning.Seconds()), fmt.Sprint(r.PeakQueued),
			fmt.Sprint(r.Migrations), f1(r.MigrationWireMB), fmt.Sprint(r.PerHost),
			fmt.Sprintf("%.2f-%.2f", r.MinShare, r.MaxShare),
			f1(r.PeakRAMGiB), fmt.Sprint(r.Restarts))
	}
	if len(rows) == 2 {
		t.row(fmt.Sprintf("# pack-first needed %d vault migrations (%.1f MB cross-host) to spread what least-reserved placed evenly for free",
			rows[1].Migrations, rows[1].MigrationWireMB))
	}
	return t.String()
}
