package slo

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nymix/internal/cluster"
	"nymix/internal/core"
	"nymix/internal/cpusched"
	"nymix/internal/fleet"
	"nymix/internal/guestos"
	"nymix/internal/hypervisor"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

func smallOpts(model core.UsageModel) core.Options {
	return core.Options{
		Model:    model,
		AnonRAM:  256 * guestos.MiB,
		AnonDisk: 64 * guestos.MiB,
		CommRAM:  64 * guestos.MiB,
		CommDisk: 16 * guestos.MiB,
	}
}

func run(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	eng.Go("test", fn)
	eng.Run()
}

// A one-host pool: the report a single orchestrator used to get.
func TestFromFleetBucketsInjectedFailures(t *testing.T) {
	eng := sim.NewEngine(11)
	_, world := webworld.BuildDefault(eng)
	c, err := cluster.New(eng, world, cluster.Config{
		Hosts:      1,
		HostConfig: hypervisor.Config{RAMBytes: 8 << 30, CPU: cpusched.DefaultConfig()},
		Fleet:      fleet.Config{Restart: fleet.RestartPolicy{MaxRestarts: 1, Backoff: time.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	run(t, eng, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("nym%02d", i)
			if err := c.Launch(fleet.Spec{Name: name, Opts: smallOpts(core.ModelEphemeral)}); err != nil {
				t.Errorf("launch %s: %v", name, err)
			}
		}
		if err := c.AwaitRunning(p, 3); err != nil {
			t.Errorf("await: %v", err)
		}
		if err := c.HostOf("nym01").Fleet().FailNym(p, "nym01", nil); err != nil {
			t.Errorf("fail: %v", err)
		}
		if err := c.AwaitRunning(p, 3); err != nil {
			t.Errorf("await after crash: %v", err)
		}
	})
	rep := FromCluster(c)
	if rep.Members != 3 || rep.Running != 3 {
		t.Fatalf("members/running = %d/%d, want 3/3", rep.Members, rep.Running)
	}
	if rep.TotalFailures == 0 {
		t.Fatal("no failures recorded for the injected crash")
	}
	if rep.Unclassified != 0 {
		t.Fatalf("%d unclassified failures", rep.Unclassified)
	}
	found := false
	for _, fc := range rep.FailuresByCode {
		if fc.Code == fleet.CodeCrashInjected {
			found = true
		}
	}
	if !found {
		t.Fatalf("fleet.crash_injected missing from taxonomy: %+v", rep.FailuresByCode)
	}
	if len(rep.MemberHealth) != 1 || rep.MemberHealth[0].Member != "nym01" {
		t.Fatalf("member health = %+v, want only nym01", rep.MemberHealth)
	}
	if rep.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rep.Restarts)
	}
	if rep.Ramp.P50 <= 0 || rep.Ramp.P95 < rep.Ramp.P50 || rep.Ramp.Max < rep.Ramp.P95 {
		t.Fatalf("ramp percentiles out of order: p50=%v p95=%v max=%v",
			rep.Ramp.P50, rep.Ramp.P95, rep.Ramp.Max)
	}
	if rep.RestartRate <= 0 {
		t.Fatalf("restart rate = %v, want > 0", rep.RestartRate)
	}
}

// newSweepCluster builds a two-host pool and returns it with a proc
// body prefix that launches four persistent nyms and waits for them.
// A nil destFor keeps the cluster's default vault destination.
func newSweepCluster(t *testing.T, seed uint64, destFor func(name string) core.VaultDest) (*sim.Engine, *cluster.Cluster, func(p *sim.Proc)) {
	t.Helper()
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	c, err := cluster.New(eng, world, cluster.Config{
		Hosts:      2,
		HostConfig: hypervisor.Config{RAMBytes: 8 << 30, CPU: cpusched.DefaultConfig()},
		Fleet:      fleet.Config{Restart: fleet.DefaultRestartPolicy()},
		DestFor:    destFor,
	})
	if err != nil {
		t.Fatal(err)
	}
	ramp := func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("nym%02d", i)
			opts := smallOpts(core.ModelPersistent)
			opts.GuardSeed = name
			if err := c.Launch(fleet.Spec{Name: name, Opts: opts}); err != nil {
				t.Errorf("launch %s: %v", name, err)
			}
		}
		if err := c.AwaitRunning(p, 4); err != nil {
			t.Errorf("await: %v", err)
		}
	}
	return eng, c, ramp
}

func TestFromClusterAggregatesSweepsAndRender(t *testing.T) {
	eng, c, ramp := newSweepCluster(t, 12, nil)
	run(t, eng, func(p *sim.Proc) {
		ramp(p)
		if err := c.StartSweeps(cluster.SweepConfig{Interval: 20 * time.Second}); err != nil {
			t.Errorf("sweeps: %v", err)
		}
		p.Sleep(45 * time.Second)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		host := c.HostOf("nym02")
		if err := host.Fleet().FailNym(p, "nym02", nil); err != nil {
			t.Errorf("fail: %v", err)
		}
		if err := c.AwaitRunning(p, 4); err != nil {
			t.Errorf("await after crash: %v", err)
		}
		if err := c.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	rep := FromCluster(c)
	if rep.Hosts != 2 || rep.Members != 4 {
		t.Fatalf("hosts/members = %d/%d, want 2/4", rep.Hosts, rep.Members)
	}
	if rep.Unclassified != 0 {
		t.Fatalf("%d unclassified failures: %+v", rep.Unclassified, rep.FailuresByCode)
	}
	if rep.Sweeps == 0 {
		t.Fatal("no sweep passes aggregated")
	}
	if rep.CheckpointWireBytes <= 0 {
		t.Fatal("no checkpoint wire accounted")
	}
	if len(rep.MemberHealth) == 0 || rep.MemberHealth[0].Host == "" {
		t.Fatalf("member health lacks host attribution: %+v", rep.MemberHealth)
	}
	out := rep.Render()
	for _, want := range []string{
		"SLO report", "pool:", "ramp:", "sweeps:", "ckpt wire:",
		"failures:", string(fleet.CodeCrashInjected),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() missing %q:\n%s", want, out)
		}
	}
}

// Regression: every failed slot save is already in its host's sweep
// record; the coordinator's error log wraps the same failures once per
// slot, so adding both counted each failed save twice.
func TestFromClusterCountsEachFailedSaveOnce(t *testing.T) {
	eng, c, ramp := newSweepCluster(t, 13, func(name string) core.VaultDest {
		return core.VaultDest{Providers: []string{"nowhere"}, Account: name, AccountPassword: "p"}
	})
	run(t, eng, func(p *sim.Proc) {
		ramp(p)
		if err := c.StartSweeps(cluster.SweepConfig{
			Interval: 10 * time.Second, Cadence: fleet.Cadence{Mode: fleet.CadenceAll},
		}); err != nil {
			t.Errorf("sweeps: %v", err)
		}
		p.Sleep(25 * time.Second)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
	})
	want := c.SweepReport().Errors
	if want == 0 {
		t.Fatal("no slot save failed against an unreachable provider")
	}
	if got := FromCluster(c).SweepErrors; got != want {
		t.Fatalf("SLO sweep errors = %d, want %d failed saves", got, want)
	}
}

// Regression: pass-gap staleness is the gap between one host's
// consecutive passes. Pooling every host's pass starts into one list
// measured the slot spacing (Interval/hosts) instead.
func TestFromClusterStalenessIsPerHostPassGap(t *testing.T) {
	const interval = 20 * time.Second
	eng, c, ramp := newSweepCluster(t, 14, nil)
	run(t, eng, func(p *sim.Proc) {
		ramp(p)
		if err := c.StartSweeps(cluster.SweepConfig{Interval: interval}); err != nil {
			t.Errorf("sweeps: %v", err)
		}
		p.Sleep(75 * time.Second)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
	})
	rep := FromCluster(c)
	if rep.Staleness.P50 != interval {
		t.Fatalf("pass-gap staleness p50 = %v, want the %v interval", rep.Staleness.P50, interval)
	}
}
