package experiments

import (
	"fmt"
	"time"

	"nymix/internal/cluster"
	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/slo"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// The partition experiment: a two-region cluster (east/west hosting
// regions uplinked to the backbone's core region) rides out a
// scripted fault schedule — an asymmetric peer partition, a
// region-severing provider partition on each side — while MigrateNym
// and the sweep coordinator keep working. It proves the paper's
// deployment story under hostile networks rather than process death:
// migrations cross severed peer boundaries untouched (the vault is
// the channel), a provider partition on the source falls back to the
// last checkpoint, every failure classifies under a registered code,
// and no host leaks a reservation. Ground truth comes from the
// fabric itself: per-host uplink WireTaps whose byte totals must
// equal the links' flow-detach ledgers.

// PartitionHostTap is one host uplink's wire accounting.
type PartitionHostTap struct {
	Host     string  `json:"host"`
	Region   string  `json:"region"`
	TxMB     float64 `json:"tx_mb"`     // host -> region gateway
	RxMB     float64 `json:"rx_mb"`     // region gateway -> host
	TapMB    float64 `json:"tap_mb"`    // tap total (tx+rx)
	LedgerMB float64 `json:"ledger_mb"` // per-flow detach ledger on the same link
	Match    bool    `json:"match"`     // |tap-ledger| <= 1 byte
}

// PartitionResult is the experiment's machine-readable record.
type PartitionResult struct {
	Seed        uint64   `json:"seed"`
	Nyms        int      `json:"nyms"`
	Hosts       int      `json:"hosts"`
	Regions     []string `json:"regions"`
	RampSeconds float64  `json:"ramp_seconds"`

	// Phase A: asymmetric peer partition (east->west severed one way)
	// during a migration. The vault is the migration channel, so the
	// move must succeed without a retry.
	AsymmetryObserved bool   `json:"asymmetry_observed"` // east->west dark, west->east routed
	PeerMigrationOK   bool   `json:"peer_migration_ok"`
	PeerMigrationNym  string `json:"peer_migration_nym"`

	// Phase B: the source region severed from the core (providers
	// unreachable) during a migration. The fresh save fails typed and
	// the move falls back to the last sweep checkpoint.
	FallbackMigrationOK  bool    `json:"fallback_migration_ok"`
	FallbackRetried      bool    `json:"fallback_retried"`
	FallbackMigrationNym string  `json:"fallback_migration_nym"`
	FallbackDoneSeconds  float64 `json:"fallback_done_seconds"` // offset from schedule start when the move landed

	// Phase C: the west region severed from the core during a sweep
	// round. Sweep errors must all carry registered codes.
	SweepErrors             int `json:"sweep_errors"`
	SweepErrorsUnclassified int `json:"sweep_errors_unclassified"`

	// SLO over the whole run.
	TotalFailures  int            `json:"total_failures"`
	Unclassified   int            `json:"unclassified"`
	FailuresByCode map[string]int `json:"failures_by_code"`

	// Zero-leak check after StopAll.
	LeakedReservationBytes int64 `json:"leaked_reservation_bytes"`

	// Wire accounting.
	Taps          []PartitionHostTap `json:"taps"`
	TapTotalMB    float64            `json:"tap_total_mb"`
	LedgerTotalMB float64            `json:"ledger_total_mb"`
	TapsMatch     bool               `json:"taps_match"`

	FaultLog []string `json:"fault_log"`
}

// Partition sizing: big enough that both regions host persistent
// nyms, small enough to stay a smoke-testable experiment.
const (
	partitionNyms  = 24
	partitionHosts = 4
)

// partitionRegions maps host index to hosting region: even hosts
// east, odd hosts west.
func partitionRegions(i int) string {
	if i%2 == 0 {
		return "east"
	}
	return "west"
}

// partitionSpecs is the fleet profile with persistent nyms every 3rd
// slot instead of FleetSpecs' every 4th: with a 4-host round-robin
// placement, a stride-4 cadence would pile every persistent nym onto
// one host, and this experiment needs checkpointed state in both
// regions.
func partitionSpecs(n int) []fleet.Spec {
	specs := make([]fleet.Spec, n)
	for i := range specs {
		name := fmt.Sprintf("fleet%03d", i)
		opts := FleetNymOptions(name, 1) // density sizing, ephemeral base
		if i%3 == 0 {
			opts.Model = core.ModelPersistent
			opts.GuardSeed = name
		}
		specs[i] = fleet.Spec{Name: name, Opts: opts}
	}
	return specs
}

// Partition runs the two-region fault-schedule experiment.
func Partition(seed uint64) (*PartitionResult, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	net := world.Net()
	c, err := cluster.New(eng, world, cluster.Config{
		Hosts:     partitionHosts,
		RegionFor: partitionRegions,
	})
	if err != nil {
		return nil, err
	}
	res := &PartitionResult{
		Seed:    seed,
		Nyms:    partitionNyms,
		Hosts:   partitionHosts,
		Regions: []string{"east", "west"},
	}

	// Ground-truth taps on every host uplink, attached before any
	// traffic so tap totals are comparable to the links' ledgers.
	type hostTap struct {
		host   *cluster.Host
		region string
		link   *vnet.Link
		tap    *vnet.WireTap
	}
	var taps []hostTap
	for i, h := range c.Hosts() {
		up := h.Manager().Host().Uplink()
		taps = append(taps, hostTap{
			host:   h,
			region: partitionRegions(i),
			link:   up,
			tap:    up.NICFor(h.Manager().Host().Node()).WireTap(),
		})
	}

	var migErr error
	err = runProc(eng, "partition", func(p *sim.Proc) error {
		t0 := p.Now()
		if err := c.LaunchAll(partitionSpecs(partitionNyms)); err != nil {
			return err
		}
		if err := c.AwaitRunning(p, partitionNyms); err != nil {
			return err
		}
		res.RampSeconds = (p.Now() - t0).Seconds()

		// Sweeps give every persistent nym a vault checkpoint — the
		// state the fallback migration later leans on. CadenceAll keeps
		// every round on the providers (dirty-skip would otherwise let
		// the severed-window rounds pass without touching the wire).
		if err := c.StartSweeps(cluster.SweepConfig{Interval: 20 * time.Second, Tokens: 2, Cadence: fleet.Cadence{Mode: fleet.CadenceAll}}); err != nil {
			return err
		}

		// The scripted schedule. Offsets are from this instant; the
		// phases below sleep to known points inside each window.
		net.Play(
			vnet.SeverOneWayFault(45*time.Second, "east", "west"),
			vnet.HealFault(60*time.Second, "east", "west"),
			vnet.SeverFault(65*time.Second, "east", webworld.CoreRegion),
			vnet.HealFault(85*time.Second, "east", webworld.CoreRegion),
			vnet.SeverFault(130*time.Second, "west", webworld.CoreRegion),
			vnet.HealFault(155*time.Second, "west", webworld.CoreRegion),
		)
		start := p.Now()
		at := func(offset time.Duration) {
			if target := start + sim.Time(offset); target > p.Now() {
				p.Sleep(target - p.Now())
			}
		}

		eastNyms := persistentOn(c, "east")
		if len(eastNyms) < 2 {
			return fmt.Errorf("partition: want 2 persistent nyms on east hosts, have %d", len(eastNyms))
		}
		westHost := hostIn(c, "west")

		// Phase A: migrate across the severed peer boundary.
		at(50 * time.Second)
		eastHost := c.HostOf(eastNyms[0]).Name()
		res.AsymmetryObserved = !net.CanReach(eastHost, westHost, "probe") &&
			net.CanReach(westHost, eastHost, "probe")
		res.PeerMigrationNym = eastNyms[0]
		repA, errA := c.MigrateNym(p, eastNyms[0], westHost)
		res.PeerMigrationOK = errA == nil && !repA.Retried
		if errA != nil {
			migErr = fmt.Errorf("peer-partition migration: %w", errA)
		}

		// Phase B: migrate while the source region cannot reach the
		// providers. The fresh save fails typed; the carried state is
		// the last sweep checkpoint.
		at(70 * time.Second)
		res.FallbackMigrationNym = eastNyms[1]
		repB, errB := c.MigrateNym(p, eastNyms[1], westHost)
		res.FallbackMigrationOK = errB == nil
		res.FallbackRetried = repB.Retried
		res.FallbackDoneSeconds = (p.Now() - start).Seconds()
		if errB != nil && migErr == nil {
			migErr = fmt.Errorf("fallback migration: %w", errB)
		}

		// Phase C: let the sweep round scheduled inside the west/core
		// window fail typed, then heal and drain.
		at(165 * time.Second)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		c.AwaitSettled(p)
		return c.StopAll(p)
	})
	if err != nil {
		return nil, err
	}
	if migErr != nil {
		return nil, migErr
	}

	for _, e := range c.SweepErrors() {
		res.SweepErrors++
		if nymerr.Classify(e) == "" {
			res.SweepErrorsUnclassified++
		}
	}
	rep := slo.FromCluster(c)
	res.TotalFailures = rep.TotalFailures
	res.Unclassified = rep.Unclassified
	res.FailuresByCode = make(map[string]int, len(rep.FailuresByCode))
	for _, fc := range rep.FailuresByCode {
		res.FailuresByCode[string(fc.Code)] = fc.Count
	}
	for _, h := range c.Hosts() {
		res.LeakedReservationBytes += h.Fleet().ReservedBytes()
	}

	const mb = 1 << 20
	res.TapsMatch = true
	for _, ht := range taps {
		tapB := ht.tap.Bytes()
		ledgerB := ht.link.LedgerBytesTotal()
		match := diff64(tapB, ledgerB) <= 1 && diff64(tapB, ht.link.WireBytesTotal()) <= 1
		res.Taps = append(res.Taps, PartitionHostTap{
			Host:     ht.host.Name(),
			Region:   ht.region,
			TxMB:     float64(ht.tap.TxBytes()) / mb,
			RxMB:     float64(ht.tap.RxBytes()) / mb,
			TapMB:    float64(tapB) / mb,
			LedgerMB: float64(ledgerB) / mb,
			Match:    match,
		})
		res.TapTotalMB += float64(tapB) / mb
		res.LedgerTotalMB += float64(ledgerB) / mb
		if !match {
			res.TapsMatch = false
		}
	}
	for _, f := range net.FaultLog() {
		res.FaultLog = append(res.FaultLog, fmt.Sprintf("t=%s %s", f.At, f.Label))
	}
	return res, nil
}

// persistentOn lists the persistent fleet nyms currently placed on
// hosts in the given region, in spec order.
func persistentOn(c *cluster.Cluster, region string) []string {
	var out []string
	for i := 0; i < partitionNyms; i += 3 { // every 3rd nym is persistent (partitionSpecs)
		name := fmt.Sprintf("fleet%03d", i)
		h := c.HostOf(name)
		if h == nil {
			continue
		}
		if regionOfHost(c, h) == region {
			out = append(out, name)
		}
	}
	return out
}

// hostIn returns the name of the first host in the region.
func hostIn(c *cluster.Cluster, region string) string {
	for i, h := range c.Hosts() {
		if partitionRegions(i) == region {
			return h.Name()
		}
	}
	return ""
}

func regionOfHost(c *cluster.Cluster, h *cluster.Host) string {
	for i, hh := range c.Hosts() {
		if hh == h {
			return partitionRegions(i)
		}
	}
	return ""
}

func diff64(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// RenderPartition prints the experiment.
func RenderPartition(r *PartitionResult) string {
	var t table
	t.row(fmt.Sprintf("# Partition: %d nyms over %d hosts in regions %v (+ core backbone), scripted fault schedule",
		r.Nyms, r.Hosts, r.Regions))
	t.row(fmt.Sprintf("ramp %.1fs; faults applied: %d", r.RampSeconds, len(r.FaultLog)))
	for _, f := range r.FaultLog {
		t.row("  " + f)
	}
	t.row(fmt.Sprintf("peer partition:     asymmetry observed=%v, migration of %s ok=%v (vault channel crosses the sever)",
		r.AsymmetryObserved, r.PeerMigrationNym, r.PeerMigrationOK))
	t.row(fmt.Sprintf("provider partition: migration of %s ok=%v retried=%v (fell back to the last sweep checkpoint)",
		r.FallbackMigrationNym, r.FallbackMigrationOK, r.FallbackRetried))
	t.row(fmt.Sprintf("sweep errors: %d (%d unclassified); failures: %d (%d unclassified); leaked reservation bytes: %d",
		r.SweepErrors, r.SweepErrorsUnclassified, r.TotalFailures, r.Unclassified, r.LeakedReservationBytes))
	for _, kv := range sortedCodeCountList(r.FailuresByCode) {
		t.row(fmt.Sprintf("  %-36s %d", kv.code, kv.n))
	}
	t.row("host uplink taps (tap == ledger is the fabric's double-entry check):")
	t.row("host", "region", "tx-MB", "rx-MB", "tap-MB", "ledger-MB", "match")
	for _, ht := range r.Taps {
		t.row(ht.Host, ht.Region, f1(ht.TxMB), f1(ht.RxMB), f1(ht.TapMB), f1(ht.LedgerMB), fmt.Sprint(ht.Match))
	}
	t.row(fmt.Sprintf("tap total %.1f MB vs ledger total %.1f MB, match=%v", r.TapTotalMB, r.LedgerTotalMB, r.TapsMatch))
	return t.String()
}

type codeCount struct {
	code string
	n    int
}

func sortedCodeCountList(m map[string]int) []codeCount {
	out := make([]codeCount, 0, len(m))
	for c, n := range m {
		out = append(out, codeCount{c, n})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].code < out[j-1].code; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
