package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files from the current code instead of
// comparing against them: go test ./internal/experiments -run Golden -update
// (TestEconomyShape writes economy.json the same way).
var update = flag.Bool("update", false, "rewrite testdata golden files")

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

// TestGoldenSweepSteadyState pins the scheduled-vs-naive sweep
// experiment: fleet.SweepConfig's dirty and save-everything modes.
func TestGoldenSweepSteadyState(t *testing.T) {
	res, err := SweepSteadyState(1, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweeps.json", res)
}

// TestGoldenPartition pins the fault-schedule experiment, whose
// coordinator sweeps fail typed under a provider partition.
func TestGoldenPartition(t *testing.T) {
	res, err := Partition(1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "partition.json", res)
}
