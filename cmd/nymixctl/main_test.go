package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// update rewrites the golden transcripts from the current code instead
// of comparing against them: go test ./cmd/nymixctl -update
var update = flag.Bool("update", false, "rewrite testdata golden transcripts")

// runMainEnv, when set, makes the test binary behave as nymixctl: the
// golden test re-executes itself with this variable and nymixctl's
// arguments, so main parses them and exits exactly as the command does.
const runMainEnv = "NYMIXCTL_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenTranscripts pins each scripted command's stdout. The
// narration is simulated-time output from a fixed seed, so it must
// reproduce testdata/<command>.txt word for word.
func TestGoldenTranscripts(t *testing.T) {
	for _, cmd := range []string{"demo", "fleet", "cluster", "elastic", "sweeps", "status"} {
		t.Run(cmd, func(t *testing.T) {
			c := exec.Command(os.Args[0], "-seed", "1", "-nyms", "8", cmd)
			c.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr bytes.Buffer
			c.Stdout, c.Stderr = &stdout, &stderr
			if err := c.Run(); err != nil {
				t.Fatalf("nymixctl %s: %v\n%s", cmd, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", cmd+".txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create it): %v", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("nymixctl %s drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", cmd, path, stdout.Bytes(), want)
			}
		})
	}
}
