package experiments

import (
	"strings"
	"testing"
)

// TestEconomyShape runs the checkpoint-economy experiment at a
// CI-sized scale and holds it to the same acceptance gate the bench
// enforces at production scale: the adaptive cadence must strictly
// beat fixed-interval sweeps on total wire with per-save staleness
// p95 no worse, on the same seed — while the fixed mode genuinely
// overloads (rounds skipped) and the adaptive machinery genuinely
// engages (deferrals, idle-slot GC probes).
func TestEconomyShape(t *testing.T) {
	res := ciResult[*EconomyResult](t, "economy")
	if err := res.Gate(); err != nil {
		t.Fatal(err)
	}
	if res.Fixed.RoundsSkipped == 0 {
		t.Fatal("fixed-interval mode never overran a round; the workload is not oversubscribing the uplink budget")
	}
	if res.Fixed.Saves <= res.Adaptive.Saves {
		t.Fatalf("fixed saved %d <= adaptive %d; save-everything is not paying its overhead", res.Fixed.Saves, res.Adaptive.Saves)
	}
	// The middle point of the frontier: plain dirty-skip holds the
	// best staleness at a wire bill between the other two.
	if res.Dirty.StaleP95 > res.Adaptive.StaleP95 || res.Dirty.StaleP95 > res.Fixed.StaleP95 {
		t.Fatalf("dirty-skip staleness p95 %v not the frontier minimum (fixed %v, adaptive %v)",
			res.Dirty.StaleP95, res.Fixed.StaleP95, res.Adaptive.StaleP95)
	}
	if res.Dirty.TotalWireMB >= res.Fixed.TotalWireMB {
		t.Fatalf("dirty-skip wire %.1f MB >= fixed %.1f MB", res.Dirty.TotalWireMB, res.Fixed.TotalWireMB)
	}
	if res.Adaptive.GCRuns == 0 {
		t.Fatal("adaptive run's idle slots never ran opportunistic GC")
	}
	if res.Adaptive.Errors != 0 || res.Fixed.Errors != 0 || res.Dirty.Errors != 0 {
		t.Fatalf("sweep errors: fixed %d dirty %d adaptive %d", res.Fixed.Errors, res.Dirty.Errors, res.Adaptive.Errors)
	}
	out := RenderEconomy(res)
	for _, want := range []string{"fixed", "dirty", "adaptive", "staleP95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestEconomyChurnClasses pins the Zipf ladder so workload edits are
// deliberate: class boundaries, and that only the intended classes
// write in a given round.
func TestEconomyChurnClasses(t *testing.T) {
	n := 1024
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[econClass(i, n)]++
	}
	if counts["hot"] != 16 || counts["warm"] != 112 || counts["burst"] != 128 || counts["idle"] != 768 {
		t.Fatalf("class ladder = %v, want 16/112/128/768", counts)
	}
	if got := econIndex("econ0042"); got != 42 {
		t.Fatalf("econIndex(econ0042) = %d", got)
	}
	if got := econIndex("fleet003"); got != -1 {
		t.Fatalf("econIndex on a foreign name = %d, want -1", got)
	}
}
