package experiments

// The checkpoint-economy experiment: does the self-tuning cadence
// (churn-adaptive sweeps bounded by a per-member RPO, idle-slot GC)
// actually beat classic fixed-interval checkpointing on BOTH axes —
// total checkpoint wire AND per-save staleness — on the same seed?
//
// The workload is Zipf-skewed, the regime the paper's fleet section
// motivates: a handful of hot nyms rewrite real state every interval,
// a warm band trickles small writes, a thin band dirties in periodic
// bursts, and the long tail sits idle after boot. The pool's
// provider-facing uplink is budgeted per nym (EconomyUplinkPerNym),
// so at any scale the fixed-interval mode — which pays a full login
// exchange for every member every round, idle or not — oversubscribes
// the serialized token window by ~5x. Its rounds skip, its effective
// cadence stretches, and every member's staleness balloons with it.
// The adaptive mode spends the same budget where the churn is: hot
// members every round, warm on their delta target, bursty members
// just inside their RPO deadline, the idle tail never — and the
// leftover idle slots absorb opportunistic vault GC.
import (
	"fmt"
	"time"

	"nymix/internal/cluster"
	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/guestos"
	"nymix/internal/sim"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// EconomyMode is the telemetry of one run of the identical workload
// under one sweep policy.
type EconomyMode struct {
	Mode          string // "fixed", "dirty" or "adaptive"
	Rounds        int    // coordinator rounds completed
	RoundsSkipped int    // ticks sat out behind an overrunning pass
	Saves         int
	Skips         int
	Deferred      int
	Errors        int
	UploadMB      float64
	LoginMB       float64
	WireMB        float64 // upload + login: checkpoint wire
	GCRuns        int
	GCReclaimedMB float64
	GCWireMB      float64
	MovesPlanned  int
	MovesExecuted int
	MigrationMB   float64
	TotalWireMB   float64 // checkpoint + GC probes + migrations
	// StaleP50/P95/Max are percentiles over steady-state per-save
	// checkpoint staleness (the cold save's samples are excluded —
	// identical in every mode and dominated by ramp time).
	StaleP50 time.Duration
	StaleP95 time.Duration
	StaleMax time.Duration
}

// EconomyResult compares the three policies on one seeded workload.
type EconomyResult struct {
	Nyms, Hosts  int
	Rounds       int // churn rounds (plus EconomyDrainRounds quiet ones)
	Interval     time.Duration
	RPO          time.Duration
	UplinkBps    float64
	ColdSaveMB   float64 // identical initial full checkpoint
	Fixed        EconomyMode
	Dirty        EconomyMode
	Adaptive     EconomyMode
	WireFrac     float64 // Adaptive.TotalWireMB / Fixed.TotalWireMB
	StaleP95Frac float64 // Adaptive.StaleP95 / Fixed.StaleP95
}

// Gate enforces the economy's acceptance bar: the adaptive cadence
// must strictly beat fixed-interval checkpointing on total wire while
// holding per-save staleness p95 no worse, and must actually have
// exercised the adaptive machinery (deferrals and idle-slot GC).
func (r *EconomyResult) Gate() error {
	if r.Adaptive.TotalWireMB >= r.Fixed.TotalWireMB {
		return fmt.Errorf("economy gate: adaptive wire %.1f MB not strictly under fixed %.1f MB",
			r.Adaptive.TotalWireMB, r.Fixed.TotalWireMB)
	}
	if r.Adaptive.StaleP95 > r.Fixed.StaleP95 {
		return fmt.Errorf("economy gate: adaptive staleness p95 %v worse than fixed %v",
			r.Adaptive.StaleP95, r.Fixed.StaleP95)
	}
	if r.Adaptive.Deferred == 0 {
		return fmt.Errorf("economy gate: adaptive run deferred nothing; cadence never engaged")
	}
	if r.Adaptive.StaleMax > r.RPO+r.Interval {
		return fmt.Errorf("economy gate: adaptive staleness max %v blew the RPO ceiling %v",
			r.Adaptive.StaleMax, r.RPO)
	}
	return nil
}

// Economy defaults and workload shape.
const (
	EconomyInterval    = 30 * time.Second
	EconomyRPO         = 4 * time.Minute // warm/burst/idle staleness ceiling
	EconomyHotRPO      = time.Minute     // hot nyms carry the freshest state
	EconomyTargetDelta = 32 << 10        // dirty bytes worth a save
	// EconomyUplinkPerNym budgets the pool's provider-facing uplink:
	// bytes per second per member, independent of scale. One login
	// exchange per member per interval alone needs ~3.4 KB/s-nym, so
	// fixed-interval sweeps oversubscribe this ~5x by construction.
	EconomyUplinkPerNym = 640.0
	// EconomyDrainRounds quiet rounds run after the churn stops, so
	// the adaptive run's idle slots surface (batched moves drain,
	// opportunistic GC reclaims the churn's dead chunks).
	EconomyDrainRounds = 4

	econHotBytes    = 64 << 10
	econWarmBytes   = 8 << 10
	econBurstBytes  = 2 << 10
	econBurstEvery  = 4 // rounds between one burst member's writes
	EconomyDefaults = 0 // sentinel: Economy(seed, 0, 0, 0) takes defaults
)

// econBands returns the Zipf-skewed churn ladder's band ends for n
// members: indices below hot are hot, below warm warm, below burst
// bursty, and the rest idle. With n=1024: 16 hot, 112 warm, 128
// bursty, 768 idle.
func econBands(n int) (hot, warm, burst int) {
	return max(1, n/64), max(2, n/8), max(3, n/4)
}

// econClass maps a member index onto the churn ladder.
func econClass(i, n int) string {
	hot, warm, burst := econBands(n)
	switch {
	case i < hot:
		return "hot"
	case i < warm:
		return "warm"
	case i < burst:
		return "burst"
	default:
		return "idle"
	}
}

// EconomySpecs builds the all-persistent economy fleet: every member
// durable, so every member is sweep-eligible every round.
func EconomySpecs(n int) []fleet.Spec {
	specs := make([]fleet.Spec, n)
	for i := range specs {
		name := fmt.Sprintf("econ%04d", i)
		specs[i] = fleet.Spec{Name: name, Opts: core.Options{
			Model:     core.ModelPersistent,
			GuardSeed: name,
			AnonRAM:   96 * guestos.MiB,
			AnonDisk:  32 * guestos.MiB,
			CommRAM:   48 * guestos.MiB,
			CommDisk:  8 * guestos.MiB,
		}}
	}
	return specs
}

// econIndex recovers the spec index from a member name.
func econIndex(name string) int {
	var i int
	if _, err := fmt.Sscanf(name, "econ%d", &i); err != nil {
		return -1
	}
	return i
}

// econChurn applies round r's writes to one member per its class:
// same paths every round, fresh content every write, so deferral
// genuinely consolidates intermediate states instead of accumulating
// them. Returns false when the member was not churned this round.
func econChurn(m *fleet.Member, r, n int) (bool, error) {
	if m.Nym() == nil {
		return false, nil
	}
	i := econIndex(m.Name())
	if i < 0 {
		return false, nil
	}
	var path string
	var size int
	switch econClass(i, n) {
	case "hot":
		path, size = "/var/hot-state", econHotBytes
	case "warm":
		path, size = "/var/warm-cache", econWarmBytes
	case "burst":
		if (r+i)%econBurstEvery != 0 {
			return false, nil
		}
		path, size = "/var/burst-log", econBurstBytes
	default:
		return false, nil // idle tail: boot dirt only, then silence
	}
	data := make([]byte, size)
	for j := range data {
		data[j] = byte((i*31 + r*7 + j) % 251)
	}
	return true, m.Nym().CommVM().Disk().WriteFile(path, data)
}

// Economy runs the checkpoint-economy experiment: the identical
// Zipf-churn workload from the identical seed under fixed-interval
// (save-everything) sweeps, plain dirty-skip sweeps, and the full
// adaptive economy. Zero arguments take the production defaults
// (1024 nyms over 4 hosts, 16 churn rounds).
func Economy(seed uint64, nyms, hosts, rounds int) (*EconomyResult, error) {
	if nyms <= 0 {
		nyms = ShardDefaultNyms
	}
	if hosts <= 0 {
		hosts = ShardDefaultHosts
	}
	if rounds <= 0 {
		rounds = 16
	}
	res := &EconomyResult{
		Nyms: nyms, Hosts: hosts, Rounds: rounds,
		Interval:  EconomyInterval,
		RPO:       EconomyRPO,
		UplinkBps: EconomyUplinkPerNym * float64(nyms),
	}
	modes := []struct {
		name string
		out  *EconomyMode
	}{
		{"fixed", &res.Fixed},
		{"dirty", &res.Dirty},
		{"adaptive", &res.Adaptive},
	}
	for _, md := range modes {
		cold, err := economyRun(seed, nyms, hosts, rounds, md.name, md.out)
		if err != nil {
			return nil, fmt.Errorf("economy %s run: %w", md.name, err)
		}
		res.ColdSaveMB = cold
	}
	if res.Fixed.TotalWireMB > 0 {
		res.WireFrac = res.Adaptive.TotalWireMB / res.Fixed.TotalWireMB
	}
	if res.Fixed.StaleP95 > 0 {
		res.StaleP95Frac = float64(res.Adaptive.StaleP95) / float64(res.Fixed.StaleP95)
	}
	return res, nil
}

// economySweepConfig builds the coordinator config for one mode.
func economySweepConfig(mode string, nyms int) cluster.SweepConfig {
	cfg := cluster.SweepConfig{Interval: EconomyInterval}
	switch mode {
	case "fixed":
		cfg.Cadence.Mode = fleet.CadenceAll
	case "adaptive":
		cfg.Cadence = fleet.Cadence{
			Mode:             fleet.CadenceAdaptive,
			RPO:              EconomyRPO,
			TargetDeltaBytes: EconomyTargetDelta,
			RPOFor: func(m *fleet.Member) time.Duration {
				if econClass(econIndex(m.Name()), nyms) == "hot" {
					return EconomyHotRPO
				}
				return EconomyRPO
			},
		}
	}
	return cfg
}

// economyRun executes one mode: ramp, cold save, churn rounds under
// the coordinator, quiet drain rounds, then settle and bill.
func economyRun(seed uint64, nyms, hosts, rounds int, mode string, out *EconomyMode) (float64, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	// The provider-facing uplink is budgeted per nym and rides one
	// serialized token, so the pool's effective throughput is a
	// single host link no matter the host count.
	uplink := vnet.LinkConfig{
		Latency:  time.Millisecond,
		Capacity: EconomyUplinkPerNym * float64(nyms),
	}
	destFor := func(name string) core.VaultDest {
		return core.VaultDest{
			Providers:       []string{"dropbin"},
			Account:         "acct-" + name,
			AccountPassword: "cloud-pw",
		}
	}
	c, err := cluster.New(eng, world, cluster.Config{
		Hosts:         hosts,
		Uplink:        &uplink,
		VaultPassword: "econ-pw",
		DestFor:       destFor,
		Rebalance:     true,
	})
	if err != nil {
		return 0, err
	}
	out.Mode = mode
	var coldMB float64
	err = eng.RunProc("economy-"+mode, func(p *sim.Proc) error {
		if err := c.LaunchAll(EconomySpecs(nyms)); err != nil {
			return err
		}
		if err := c.AwaitRunning(p, nyms); err != nil {
			return err
		}
		// Cold-save every host directly (identical in every mode). The
		// coordinator's report below covers only its own slot passes, so
		// the steady-state percentiles carry no ramp-age samples.
		var coldBytes int64
		for _, h := range c.Hosts() {
			st, err := h.Fleet().SaveSweep(p, "econ-pw", func(m *fleet.Member) core.VaultDest {
				return destFor(m.Name())
			})
			if err != nil {
				return err
			}
			coldBytes += st.UploadedBytes
		}
		coldMB = float64(coldBytes) / float64(guestos.MiB)
		// The serialized cold save skews hosts' staleness anchors by
		// hours on the budgeted uplink (host 0 finishes long before the
		// last host). One dirty-skip pass per host observes every
		// member clean — shipping nothing — so steady-state staleness
		// below measures churn age, not cold-save completion order.
		for _, h := range c.Hosts() {
			if _, err := h.Fleet().SweepOnce(p, fleet.SweepConfig{
				Password: "econ-pw",
				DestFor: func(m *fleet.Member) core.VaultDest {
					return destFor(m.Name())
				},
			}); err != nil {
				return err
			}
		}
		if err := c.StartSweeps(economySweepConfig(mode, nyms)); err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			for _, h := range c.Hosts() {
				for _, m := range h.Fleet().Members() {
					if _, err := econChurn(m, r, nyms); err != nil {
						return err
					}
				}
			}
			p.Sleep(EconomyInterval)
		}
		for r := 0; r < EconomyDrainRounds; r++ {
			p.Sleep(EconomyInterval)
		}
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		return nil
	})
	if err != nil {
		return 0, err
	}
	rep := c.SweepReport()
	out.Rounds = rep.Rounds
	out.RoundsSkipped = rep.RoundsSkipped
	out.Saves = rep.Saves
	out.Skips = rep.Skipped
	out.Deferred = rep.Deferred
	out.Errors = rep.Errors
	out.UploadMB = float64(rep.UploadedBytes) / float64(guestos.MiB)
	out.LoginMB = float64(rep.LoginBytes) / float64(guestos.MiB)
	out.WireMB = float64(rep.WireBytes()) / float64(guestos.MiB)
	out.GCRuns = rep.GCRuns
	out.GCReclaimedMB = float64(rep.GCReclaimedBytes) / float64(guestos.MiB)
	out.GCWireMB = float64(rep.GCWireBytes) / float64(guestos.MiB)
	out.MovesPlanned = rep.MovesPlanned
	out.MovesExecuted = rep.MovesExecuted
	out.MigrationMB = float64(c.MigrationWireBytes()) / float64(guestos.MiB)
	out.TotalWireMB = out.WireMB + out.GCWireMB + out.MigrationMB
	out.StaleP50, out.StaleP95, out.StaleMax = rep.Staleness.P50, rep.Staleness.P95, rep.Staleness.Max
	return coldMB, nil
}

// RenderEconomy prints the experiment.
func RenderEconomy(r *EconomyResult) string {
	var t table
	hot, warm, burst := econBands(r.Nyms)
	t.row(fmt.Sprintf("# Checkpoint economy: %d nyms / %d hosts, %d churn rounds at %s (uplink %.0f KB/s, RPO %s)",
		r.Nyms, r.Hosts, r.Rounds, r.Interval, r.UplinkBps/1e3, r.RPO))
	t.row(fmt.Sprintf("# cold save %.1f MB (identical per mode); Zipf churn: %d hot / %d warm / %d burst, rest idle",
		r.ColdSaveMB, hot, warm-hot, burst-warm))
	t.row("mode", "rounds", "skipped", "saves", "defer", "wireMB", "gcMB", "totalMB", "staleP50", "staleP95", "staleMax")
	for _, m := range []EconomyMode{r.Fixed, r.Dirty, r.Adaptive} {
		t.row(m.Mode,
			fmt.Sprint(m.Rounds), fmt.Sprint(m.RoundsSkipped),
			fmt.Sprint(m.Saves), fmt.Sprint(m.Deferred),
			f1(m.WireMB), f1(m.GCWireMB), f1(m.TotalWireMB),
			m.StaleP50.Truncate(time.Second).String(),
			m.StaleP95.Truncate(time.Second).String(),
			m.StaleMax.Truncate(time.Second).String())
	}
	t.row(fmt.Sprintf("# adaptive ships %.0f%% of fixed's wire at %.0f%% of its staleness p95 (gc reclaimed %.1f MB in %d runs)",
		100*r.WireFrac, 100*r.StaleP95Frac, r.Adaptive.GCReclaimedMB, r.Adaptive.GCRuns))
	return t.String()
}
