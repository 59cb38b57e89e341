package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestQuickWorkloads runs every workload twice at the quick size, the
// second time traced, in this process. Both runs must reproduce one
// digest, pass every invariant, and emit exactly the metrics
// BENCHMARK.json declares.
func TestQuickWorkloads(t *testing.T) {
	declared := declaredMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runRep(w, 1, quickSize, false, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(w, 1, quickSize, true, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			plain.RefS, traced.RefS = refKernel(), refKernel() // the parent's job

			st := &wstate{w: w, untraced: []*repResult{plain}, traced: []*repResult{traced}}
			if v := st.verdict(1, true, nil); v.failed != 0 {
				t.Errorf("%d of %d operations failed: %v", v.failed, v.attempted, v.problems)
			}
			if plain.Digest != traced.Digest {
				t.Errorf("digest changed between runs: %s then %s", plain.Digest, traced.Digest)
			}
			profiled := 0.0
			for _, s := range traced.CPUByBucket {
				profiled += s
			}
			if profiled == 0 {
				t.Error("traced run decoded no CPU samples")
			}
			for mode, want := range map[bool][]string{false: declared["end_to_end"], true: declared["per_layer"]} {
				var got []string
				for name, m := range st.metrics(mode) {
					got = append(got, name+" "+m.Unit)
				}
				sort.Strings(got)
				if !slices.Equal(got, want) {
					t.Errorf("trace=%v emits %v, BENCHMARK.json declares %v", mode, got, want)
				}
			}
		})
	}
}

// declaredMetrics reads BENCHMARK.json's metric lists as sorted
// "name unit" strings.
func declaredMetrics(t *testing.T) map[string][]string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, key := range []string{"end_to_end", "per_layer"} {
		var ms []struct{ Name, Unit string }
		if err := json.Unmarshal(spec[key], &ms); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		for _, m := range ms {
			out[key] = append(out[key], m.Name+" "+m.Unit)
		}
		sort.Strings(out[key])
	}
	return out
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4), which judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
