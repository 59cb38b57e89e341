package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nymix/internal/core"
	"nymix/internal/cpusched"
	"nymix/internal/hypervisor"
)

// The tests here assert the DESIGN.md shape criteria: the qualitative
// claims each paper figure makes must hold in the reproduction.

func TestFigure3Shape(t *testing.T) {
	rows := ciResult[[]Figure3Row](t, "fig3")
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Slope: marginal cost per nymbox lands near the ~600 MB claim.
	slope := (rows[7].UsedAfterMB - rows[0].UsedAfterMB) / 7
	if slope < 450 || slope > 700 {
		t.Fatalf("per-nymbox slope = %.0f MB, want ~600", slope)
	}
	// Used memory stays at or below the expected dashed line (KSM can
	// only help).
	for _, r := range rows {
		if r.UsedAfterMB > r.ExpectedMB*1.02 {
			t.Fatalf("nyms=%d used %.0f exceeds expected %.0f", r.Nyms, r.UsedAfterMB, r.ExpectedMB)
		}
	}
	// Shared pages grow monotonically with more identical VMs.
	for i := 1; i < len(rows); i++ {
		if rows[i].SharedAfter < rows[i-1].SharedAfter {
			t.Fatalf("shared pages shrank at %d nyms", rows[i].Nyms)
		}
	}
	// "KSM manages to reduce overall memory usage resulting in over 5%
	// saving at 8 nyms."
	last := rows[7]
	saving := last.SavedMB / (last.UsedAfterMB + last.SavedMB)
	if saving < 0.05 {
		t.Fatalf("KSM saving at 8 nyms = %.1f%%, want > 5%%", 100*saving)
	}
	// Most memory is claimed at initialization, not during interaction.
	for _, r := range rows {
		init := r.UsedBeforeMB
		growth := r.UsedAfterMB - r.UsedBeforeMB
		if growth > init {
			t.Fatalf("nyms=%d interaction growth %.0f exceeds init %.0f", r.Nyms, growth, init)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	rows, err := Figure4(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	native := rows[0].Accumulated
	single := rows[1].Accumulated
	// ~20% virtualization overhead.
	overhead := 1 - single/native
	if overhead < 0.15 || overhead > 0.25 {
		t.Fatalf("virtualization overhead = %.1f%%, want ~20%%", 100*overhead)
	}
	// Accumulated throughput is non-decreasing in k.
	for k := 2; k <= 8; k++ {
		if rows[k].Accumulated < rows[k-1].Accumulated*0.99 {
			t.Fatalf("accumulated fell at k=%d", k)
		}
	}
	// Beyond the core count, actual outperforms the no-SMT expectation.
	for k := 5; k <= 8; k++ {
		if rows[k].Accumulated <= rows[k].Expected {
			t.Fatalf("k=%d: actual %.0f <= expected %.0f (SMT bonus missing)",
				k, rows[k].Accumulated, rows[k].Expected)
		}
	}
	// Within the core count, actual tracks expected.
	for k := 1; k <= 4; k++ {
		if math.Abs(rows[k].Accumulated-rows[k].Expected)/rows[k].Expected > 0.05 {
			t.Fatalf("k=%d: actual %.0f deviates from expected %.0f",
				k, rows[k].Accumulated, rows[k].Expected)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Fixed Tor overhead ~12%.
	oh := TorFixedOverhead(rows)
	if oh < 0.10 || oh > 0.20 {
		t.Fatalf("Tor overhead = %.1f%%, want ~12%%", 100*oh)
	}
	// Near-linear scaling: actual within 15% of ideal at every k.
	for _, r := range rows {
		if math.Abs(r.ActualSec-r.IdealSec)/r.IdealSec > 0.15 {
			t.Fatalf("k=%d: actual %.0fs vs ideal %.0fs", r.Nyms, r.ActualSec, r.IdealSec)
		}
	}
	// Actual is never faster than ideal (shared bottleneck).
	for _, r := range rows[1:] {
		if r.ActualSec < r.IdealSec*0.98 {
			t.Fatalf("k=%d beat the ideal: %.0f < %.0f", r.Nyms, r.ActualSec, r.IdealSec)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	series := ciResult[[]Figure6Series](t, "fig6")
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	bySite := map[string]Figure6Series{}
	for _, s := range series {
		if len(s.SizesMB) != 10 {
			t.Fatalf("%s has %d cycles", s.Site, len(s.SizesMB))
		}
		bySite[s.Site] = s
		// Monotone growth for persistent nyms.
		for c := 1; c < len(s.SizesMB); c++ {
			if s.SizesMB[c] < s.SizesMB[c-1]*0.99 {
				t.Fatalf("%s shrank at cycle %d", s.Site, c+1)
			}
		}
		// AnonVM dominates the archive (~85% in the paper).
		if s.AnonShare < 0.7 {
			t.Fatalf("%s AnonVM share = %.0f%%, want dominant", s.Site, 100*s.AnonShare)
		}
		// Sizes plot within the figure's 0-60 MB axis.
		final := s.SizesMB[9]
		if final <= 0 || final > 60 {
			t.Fatalf("%s final size = %.1f MB", s.Site, final)
		}
	}
	// Site ordering: Facebook heaviest, Tor Blog lightest.
	if !(bySite["facebook.com"].SizesMB[9] > bySite["gmail.com"].SizesMB[9]) {
		t.Fatal("facebook should out-grow gmail")
	}
	if !(bySite["twitter.com"].SizesMB[9] > bySite["blog.torproject.org"].SizesMB[9]) {
		t.Fatal("twitter should out-grow the tor blog")
	}
	// First save is the smallest — "a single save cycle represents
	// usage similar to a pre-configured nym, which tends to be small";
	// heavy sites grow substantially past it.
	for _, s := range series {
		if s.SizesMB[0] >= s.SizesMB[9]*0.85 {
			t.Fatalf("%s first save %.1f not smaller than final %.1f", s.Site, s.SizesMB[0], s.SizesMB[9])
		}
	}
	if fb := bySite["facebook.com"]; fb.SizesMB[0] > fb.SizesMB[9]/2 {
		t.Fatalf("facebook first save %.1f should be under half of final %.1f", fb.SizesMB[0], fb.SizesMB[9])
	}
}

func TestFigure7Shape(t *testing.T) {
	rows := ciResult[[]Figure7Row](t, "fig7")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byConfig := map[string]Figure7Row{}
	for _, r := range rows {
		byConfig[r.Config] = r
	}
	fresh, pre, per := byConfig["fresh"], byConfig["pre-configured"], byConfig["persisted"]
	// Quasi-persistent nyms outperform ephemeral on Tor startup thanks
	// to stored guard + consensus state.
	if pre.StartTor >= fresh.StartTor {
		t.Fatalf("pre-configured Tor start %v !< fresh %v", pre.StartTor, fresh.StartTor)
	}
	if per.StartTor >= fresh.StartTor {
		t.Fatalf("persisted Tor start %v !< fresh %v", per.StartTor, fresh.StartTor)
	}
	// But they pay for the one-time ephemeral download nym.
	if pre.EphemeralNym <= 0 || per.EphemeralNym <= 0 {
		t.Fatal("quasi-persistent configs missing the ephemeral phase")
	}
	if fresh.EphemeralNym != 0 {
		t.Fatal("fresh config has an ephemeral phase")
	}
	// Abstract: nymboxes load within 15-25 seconds (fresh total).
	if total := fresh.Total().Seconds(); total < 15 || total > 25 {
		t.Fatalf("fresh total = %.1fs, want 15-25s", total)
	}
}

func TestTable1Shape(t *testing.T) {
	rows := ciResult[[]Table1Row](t, "table1")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[string][3]float64{
		"Windows Vista": {133.7, 37.7, 4.9},
		"Windows 7":     {129.3, 34.3, 4.5},
		"Windows 8":     {157.0, 58.7, 14},
	}
	for _, r := range rows {
		w, ok := want[r.Version]
		if !ok {
			t.Fatalf("unexpected version %q", r.Version)
		}
		if math.Abs(r.RepairS-w[0])/w[0] > 0.10 {
			t.Errorf("%s repair %.1f vs paper %.1f", r.Version, r.RepairS, w[0])
		}
		if math.Abs(r.BootS-w[1])/w[1] > 0.10 {
			t.Errorf("%s boot %.1f vs paper %.1f", r.Version, r.BootS, w[1])
		}
		if math.Abs(r.SizeMB-w[2])/w[2] > 0.20 {
			t.Errorf("%s size %.1f vs paper %.1f", r.Version, r.SizeMB, w[2])
		}
	}
}

func TestValidationPasses(t *testing.T) {
	report, err := Validation(7)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Passed() {
		t.Fatalf("validation failed:\n%s", RenderValidation(report))
	}
	for _, proto := range report.UplinkProtos {
		if proto != "dhcp" && proto != "tor" {
			t.Fatalf("uplink protocols = %v", report.UplinkProtos)
		}
	}
}

// ablation is one arm of the registry's combined ablations result,
// run at AblationGuardExposure's 5% malicious fraction and
// AblationBuddies' floor of 4 over 12 rounds.
func ablation[R any](t *testing.T, arm string) R {
	t.Helper()
	rows, ok := ciResult[map[string]any](t, "ablations")[arm].(R)
	if !ok {
		t.Fatalf("ablations has no %T arm %q", rows, arm)
	}
	return rows
}

func TestAblationGuardExposureShape(t *testing.T) {
	rows := ablation[[]GuardExposureRow](t, "guard_exposure")
	for _, r := range rows {
		if r.Persistent != 0.05 {
			t.Fatalf("persistent exposure = %v", r.Persistent)
		}
		if r.Sessions > 1 && r.Rotating <= r.Persistent {
			t.Fatalf("sessions=%d rotating %v !> persistent %v", r.Sessions, r.Rotating, r.Persistent)
		}
		if math.Abs(r.MonteCarlo-r.Rotating) > 0.03 {
			t.Fatalf("MC %v deviates from analytic %v", r.MonteCarlo, r.Rotating)
		}
	}
}

func TestAblationStainingShape(t *testing.T) {
	rows := ablation[[]StainRow](t, "staining")
	byModel := map[core.UsageModel]StainRow{}
	for _, r := range rows {
		byModel[r.Model] = r
	}
	if byModel[core.ModelEphemeral].StainSurvives {
		t.Fatal("stain survived an ephemeral nym")
	}
	if byModel[core.ModelPreconfigured].StainSurvives {
		t.Fatal("stain survived the pre-configured golden snapshot")
	}
	if !byModel[core.ModelPersistent].StainSurvives {
		t.Fatal("stain should survive in persistent mode")
	}
	if !byModel[core.ModelPersistent].SessionsLinked {
		t.Fatal("persistent stained sessions should be linkable")
	}
	if byModel[core.ModelEphemeral].SessionsLinked {
		t.Fatal("ephemeral sessions linked")
	}
}

func TestAblationLinkageShape(t *testing.T) {
	rows := ablation[[]LinkageRow](t, "linkage")
	for _, r := range rows {
		switch r.Strategy {
		case "nymix-per-role-nyms":
			if r.LargestCluster != 1 {
				t.Fatalf("nymix roles linked: cluster %d", r.LargestCluster)
			}
		case "single-browser-baseline":
			if r.LargestCluster < 3 {
				t.Fatalf("baseline roles not linked: cluster %d", r.LargestCluster)
			}
		}
	}
}

func TestAblationBuddiesShape(t *testing.T) {
	const floor = 4
	rows := ablation[[]BuddiesRow](t, "buddies")
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	suppressedAny := false
	for i, r := range rows {
		// The gated set never falls below the floor.
		if r.GatedCandidates != 0 && r.GatedCandidates < floor {
			t.Fatalf("round %d: gated set %d < floor", r.Round, r.GatedCandidates)
		}
		// Both sets are non-increasing.
		if i > 0 {
			if r.UngatedCandidates > rows[i-1].UngatedCandidates {
				t.Fatalf("ungated set grew at round %d", r.Round)
			}
			if r.GatedCandidates > rows[i-1].GatedCandidates {
				t.Fatalf("gated set grew at round %d", r.Round)
			}
		}
		suppressedAny = suppressedAny || r.GatedSuppressed
	}
	last := rows[len(rows)-1]
	// Without Buddies the victim ends up nearly identified; with it the
	// floor holds and some posts were suppressed to pay for it.
	if last.UngatedCandidates >= floor {
		t.Fatalf("ungated set = %d, expected collapse below %d", last.UngatedCandidates, floor)
	}
	if last.GatedCandidates < floor {
		t.Fatalf("gated set = %d", last.GatedCandidates)
	}
	if !suppressedAny {
		t.Fatal("no posts suppressed despite shrinking population")
	}
}

// TestExperimentsDeterministic owns seed sensitivity: distinct seeds
// must move the measurements. (Same-seed reproduction is the registry
// pair in TestGoldenExperiments.)
func TestExperimentsDeterministic(t *testing.T) {
	// Table 1 carries measurement jitter. (Figure 5 is legitimately
	// seed-insensitive: fluid rates have no randomness.)
	t1a, err := Table1(99)
	if err != nil {
		t.Fatal(err)
	}
	t1b, err := Table1(100)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range t1a {
		if t1a[i] != t1b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical Table 1 — jitter is dead")
	}
	// The fleet stack's seed reaches its measurements.
	a, err := FleetRampUp(77, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FleetRampUp(78, 12)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) {
		t.Fatal("different seeds produced identical fleet ramps — jitter is dead")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	f3, err := Figure3(1)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Table1(6)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Validation(7)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"fig3":  RenderFigure3(f3),
		"tab1":  RenderTable1(t1),
		"valid": RenderValidation(v),
	} {
		if !strings.Contains(out, "#") || len(out) < 50 {
			t.Fatalf("%s render too small:\n%s", name, out)
		}
	}
}

func TestFleetShardsShape(t *testing.T) {
	// Small hosts so the rebalancer trips at test scale: a 6 GiB host
	// holds ~25 density-tuned nymboxes, so 24 nyms pack one host past
	// the 85% watermark while the other idles.
	rows, err := FleetShardsOn(5, 24, 2, hypervisor.Config{
		RAMBytes: 6 << 30,
		CPU:      cpusched.Config{Cores: 8, SMTFactor: 1.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	least, pack := rows[0], rows[1]
	if least.Policy != "least-reserved" || pack.Policy != "pack-first" {
		t.Fatalf("policies = %q/%q", least.Policy, pack.Policy)
	}
	for _, r := range rows {
		total := 0
		for _, n := range r.PerHost {
			total += n
		}
		if total != r.Nyms {
			t.Errorf("%s: %d of %d nyms running (%v)", r.Policy, total, r.Nyms, r.PerHost)
		}
		if r.Restarts != 0 {
			t.Errorf("%s: %d restarts", r.Policy, r.Restarts)
		}
		// The rebalancer converged: no host ends above the watermark.
		if r.MaxShare > 0.85+1e-9 {
			t.Errorf("%s: hottest host still at %.2f after rebalance", r.Policy, r.MaxShare)
		}
	}
	// Least-reserved spreads for free: even split, no migrations.
	if least.Migrations != 0 {
		t.Errorf("least-reserved migrated %d nyms", least.Migrations)
	}
	for i, n := range least.PerHost {
		if n != least.Nyms/least.Hosts {
			t.Errorf("least-reserved host %d runs %d, want even %v", i, n, least.PerHost)
		}
	}
	// Pack-first lands hot and pays vault wire to cool down.
	if pack.Migrations == 0 {
		t.Error("pack-first never triggered the rebalancer")
	}
	if pack.MigrationWireMB <= 0 {
		t.Error("migrations shipped no cross-host wire")
	}
	if pack.PerHost[0] <= pack.PerHost[1] {
		t.Errorf("pack-first placement not skewed: %v", pack.PerHost)
	}
	checkGolden(t, "shards_small.json", rows)
}

func TestFleetRampUpShape(t *testing.T) {
	rows, err := FleetRampUp(5, 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Every nym reached Running with no restart-policy activity.
		if r.Restarts != 0 {
			t.Errorf("nyms=%d restarts = %d", r.Nyms, r.Restarts)
		}
		// Parallel pipelines beat the serial estimate comfortably.
		if r.TimeToRunning >= r.SerialEst/2 {
			t.Errorf("nyms=%d ramp %v vs serial %v: pipelines not overlapping",
				r.Nyms, r.TimeToRunning, r.SerialEst)
		}
		// Admission control held the host: the physical peak stays
		// under capacity and the reservation budget.
		if r.PeakRAMGiB > 64 {
			t.Errorf("nyms=%d peak RAM %.1f GiB exceeds the host", r.Nyms, r.PeakRAMGiB)
		}
		// Steady-state sweeps are deltas: a small fraction of what
		// monolithic re-uploads would ship.
		if r.SteadySaveMB > r.SaveBaseMB/4 {
			t.Errorf("nyms=%d steady sweep %.1f MB vs monolithic %.1f: dedup not engaged",
				r.Nyms, r.SteadySaveMB, r.SaveBaseMB)
		}
		if r.ColdSaveMB <= 0 || r.PeakCPUTasks <= 0 {
			t.Errorf("nyms=%d missing metrics: %+v", r.Nyms, r)
		}
	}
	// Tripling the fleet must not triple the ramp: admission pipelines
	// amortize startup.
	if rows[1].TimeToRunning >= 3*rows[0].TimeToRunning {
		t.Errorf("ramp scaled superlinearly: %v @8 vs %v @24",
			rows[0].TimeToRunning, rows[1].TimeToRunning)
	}
}

// TestFleetRampUpDeterministic pins the seed-77 fleet ramp: two runs
// at the same seed must agree, and any map-order or scheduling
// nondeterminism in the fleet/vault/cloud layers would also show as a
// diff from the golden. (Seed sensitivity is TestExperimentsDeterministic.)
func TestFleetRampUpDeterministic(t *testing.T) {
	a, err := FleetRampUp(77, 12)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet_ramp_77.json", a)
	b, err := FleetRampUp(77, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%#v", b), fmt.Sprintf("%#v", a); got != want {
		t.Fatalf("same seed diverged:\nrun A: %s\nrun B: %s", want, got)
	}
}

func TestElasticShape(t *testing.T) {
	// Small hosts so the pool scales at test size: a 2 GiB host holds
	// ~6 density-tuned nymboxes, so a 16-nym burst on an initial pool
	// of one forces two grows, and the quiesce leaves 4 high-priority
	// nyms to drain back to the floor.
	res, err := ElasticOn(5, 16, 1, hypervisor.Config{
		RAMBytes: 2 << 30,
		CPU:      cpusched.Config{Cores: 4, SMTFactor: 1.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "elastic_small.json", res)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 classes x 2 modes", len(res.Rows))
	}
	byMode := map[string]map[string]ElasticClassRow{"fixed": {}, "elastic": {}}
	for _, r := range res.Rows {
		byMode[r.Mode][r.Class] = r
	}
	// The elastic pool admits the entire burst; the fixed pool strands
	// the ephemeral tail.
	for class, r := range byMode["elastic"] {
		if r.Stalled != 0 {
			t.Errorf("elastic %s: %d launches stalled", class, r.Stalled)
		}
	}
	if res.FixedStalled == 0 {
		t.Error("fixed pool stranded nothing — the burst never saturated it")
	}
	if got := byMode["fixed"]["ephemeral"].Stalled; got != res.FixedStalled {
		t.Errorf("fixed stalls = %d, want all %d in the ephemeral class", got, res.FixedStalled)
	}
	// Priority admission on the fixed pool: the system class always
	// lands (preemption makes room).
	if r := byMode["fixed"]["system"]; r.Admitted != r.Launched {
		t.Errorf("fixed system class admitted %d of %d", r.Admitted, r.Launched)
	}
	// Scale-up happened and the drain returned to the floor with
	// nothing leaked.
	if res.GrowEvents == 0 {
		t.Error("no grow events despite a persisted queue")
	}
	if res.HostsPeak <= 1 {
		t.Errorf("hosts peak = %d, want growth past the initial pool", res.HostsPeak)
	}
	if res.HostsEnd != res.FloorHosts {
		t.Errorf("pool ended at %d hosts, want the floor %d", res.HostsEnd, res.FloorHosts)
	}
	if res.ShrinkEvents == 0 {
		t.Error("no shrink events despite the quiesce")
	}
	if res.DrainMoves == 0 {
		t.Error("drain migrated nothing — the retired hosts were already empty")
	}
	if res.DrainWireMB <= 0 {
		t.Error("drain migrations shipped no vault wire")
	}
	if res.LeakedBytes != 0 {
		t.Errorf("drain leaked %d reservation bytes", res.LeakedBytes)
	}
}

// TestSweepSteadyStateShape sanity-checks the sweep experiment at a
// small size: the scheduled mode must skip most member-passes, ship
// strictly less wire than the naive mode, and report coherent latency
// percentiles.
func TestSweepSteadyStateShape(t *testing.T) {
	res, err := SweepSteadyState(5, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled.Sweeps == 0 || res.Naive.Sweeps == 0 {
		t.Fatalf("no sweeps completed: %+v", res)
	}
	if res.Scheduled.DirtySkipRatio < 0.8 {
		t.Errorf("dirty-skip ratio = %.3f, want > 0.8 on a mostly idle fleet", res.Scheduled.DirtySkipRatio)
	}
	if res.Naive.DirtySkipRatio != 0 {
		t.Errorf("naive mode skipped members: ratio %.3f", res.Naive.DirtySkipRatio)
	}
	if res.Scheduled.WireMB >= res.Naive.WireMB {
		t.Errorf("scheduled wire %.2f MB not below naive %.2f MB", res.Scheduled.WireMB, res.Naive.WireMB)
	}
	if res.WireFrac <= 0 || res.WireFrac >= 1 {
		t.Errorf("wire frac = %.3f, want in (0,1)", res.WireFrac)
	}
	if res.Naive.LatencyP95 < res.Naive.LatencyP50 || res.Naive.LatencyP50 <= 0 {
		t.Errorf("incoherent naive latency percentiles: p50=%v p95=%v", res.Naive.LatencyP50, res.Naive.LatencyP95)
	}
	out := RenderSweepSteadyState(res)
	if !strings.Contains(out, "skip-ratio") || !strings.Contains(out, "% of the naive wire") {
		t.Errorf("render missing headline fields:\n%s", out)
	}
}

// TestSweepSteadyStateWireBound holds the default-size sweep run (the
// one nymbench -run sweeps prints) to DESIGN.md's bound: steady-state
// scheduled sweeps ship at most 25% of the save-everything wire.
func TestSweepSteadyStateWireBound(t *testing.T) {
	res, err := SweepSteadyState(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WireFrac > 0.25 {
		t.Fatalf("scheduled sweeps shipped %.1f%% of the naive wire; want <= 25%%", 100*res.WireFrac)
	}
}

// TestRegistryNames checks every registered experiment is reachable
// by a distinct nymbench -run name.
func TestRegistryNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		switch {
		case e.Name == "" || e.Name == "all":
			t.Errorf("registry entry named %q", e.Name)
		case seen[e.Name]:
			t.Errorf("registry name %q appears twice", e.Name)
		}
		seen[e.Name] = true
	}
}
