package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary behave as nymbench: the
// test re-executes itself with this variable and nymbench's arguments,
// so main parses them and exits exactly as the command does.
const runMainEnv = "NYMBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCPUProfileWrittenOnFailure runs an economy size too small for
// its gate, so the experiment fails. nymbench must still exit non-zero
// and flush the CPU profile of that failing run.
func TestCPUProfileWrittenOnFailure(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	c := exec.Command(os.Args[0], "-run", "economy", "-nyms", "8", "-hosts", "1", "-rounds", "2", "-cpuprofile", prof)
	c.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	c.Stderr = &stderr
	var exit *exec.ExitError
	if err := c.Run(); !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("nymbench exited with %v, want a failed economy gate\n%s", err, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "economy gate") {
		t.Fatalf("stderr does not name the economy gate:\n%s", stderr.Bytes())
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// pprof writes a gzip-compressed protobuf; an unflushed profile is
	// an empty file.
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(zr); err != nil {
		t.Fatalf("read profile: %v", err)
	}
	if body.Len() == 0 {
		t.Fatal("profile is empty")
	}
}
