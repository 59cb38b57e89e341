package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// update rewrites the golden files from the current code instead of
// comparing against them: go test ./internal/experiments -run Golden -update
// (the tests that pin custom-size runs write theirs the same way).
var update = flag.Bool("update", false, "rewrite testdata golden files")

// ciSize is the size each registry entry runs at in the tests; an
// entry not listed runs at its default. These three default to
// production-scale pools that take seconds to minutes.
var ciSize = map[string]Size{
	"shards":  {Nyms: 64, Hosts: 2},
	"sweeps":  {Nyms: 8, Rounds: 4},
	"economy": {Nyms: 64, Hosts: 2, Rounds: 8},
}

// registryRun is one registry entry run at seed 1 and its CI size,
// twice at once on two goroutines with separate engines. result is
// the first run's; diverged is set when the two runs' JSON differs.
type registryRun struct {
	exp      Experiment
	once     sync.Once
	result   any
	diverged string
	err      error
}

func (r *registryRun) run() {
	var (
		wg      sync.WaitGroup
		results [2]any
		errs    [2]error
	)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, results[i], errs[i] = r.exp.Run(1, ciSize[r.exp.Name])
		}()
	}
	wg.Wait()
	if r.err = errors.Join(errs[:]...); r.err != nil {
		return
	}
	a, errA := json.MarshalIndent(results[0], "", "  ")
	b, errB := json.MarshalIndent(results[1], "", "  ")
	r.result, r.err = results[0], errors.Join(errA, errB)
	if !bytes.Equal(a, b) {
		r.diverged = "--- run A ---\n" + string(a) + "\n--- run B ---\n" + string(b)
	}
}

// registryRuns memoizes every entry, so the golden loop and the shape
// tests that share its seed and size run each experiment once (as a
// concurrent pair) per test binary.
var registryRuns = func() map[string]*registryRun {
	m := make(map[string]*registryRun, len(Registry))
	for _, e := range Registry {
		m[e.Name] = &registryRun{exp: e}
	}
	return m
}()

// ciRun returns the named entry's memoized run, running it on first
// use.
func ciRun(t *testing.T, name string) *registryRun {
	t.Helper()
	r, ok := registryRuns[name]
	if !ok {
		t.Fatalf("no registry entry %q", name)
	}
	r.once.Do(r.run)
	if r.err != nil {
		t.Fatalf("%s: %v", name, r.err)
	}
	return r
}

// ciResult is ciRun's result as the type the entry's generator returns.
func ciResult[R any](t *testing.T, name string) R {
	t.Helper()
	v := ciRun(t, name).result
	res, ok := v.(R)
	if !ok {
		t.Fatalf("%s result is %T, not %T", name, v, res)
	}
	return res
}

// checkGolden compares v's indented JSON to testdata/name. Every field
// the experiments record is simulated time or a simulated quantity, so
// the same seed must reproduce the file byte for byte; a refactor of
// the sweep path that changes any figure fails here.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenExperiments is the registry check: every entry, at seed 1
// and its CI size, must reproduce testdata/<name>.json (what nymbench
// -json records as the run's result), and its two concurrent runs on
// separate engines must agree byte for byte.
func TestGoldenExperiments(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.Name, func(t *testing.T) {
			r := ciRun(t, e.Name)
			if r.diverged != "" {
				t.Fatalf("two seed-1 runs diverged:\n%s", r.diverged)
			}
			checkGolden(t, e.Name+".json", r.result)
		})
	}
}
