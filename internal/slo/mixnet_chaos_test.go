package slo

import (
	"testing"
	"time"

	"nymix/internal/cluster"
	"nymix/internal/core"
	"nymix/internal/cpusched"
	"nymix/internal/fleet"
	"nymix/internal/hypervisor"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// coverBytes reads a member's self-reported cover-traffic counter (0
// for demand-driven transports).
func coverBytes(m *fleet.Member) int64 {
	nym := m.Nym()
	if nym == nil {
		return 0
	}
	if cov, ok := nym.Anonymizer().(interface{ CoverWireBytes() int64 }); ok {
		return cov.CoverWireBytes()
	}
	return 0
}

// TestMixCascadeSeverClassifiesAndCoverSurvives is the mixnet chaos
// drill: two mixnet nyms in different hosting regions, and the mix
// cascade's enclave is severed from one region mid-fetch. The caught
// fetch must fail with vnet.partitioned in its chain, the injected
// failure and every restart attempt must classify (zero unclassified
// in the SLO report), the fleet sweep must keep completing, and the
// unaffected nym's cover traffic must keep flowing throughout.
func TestMixCascadeSeverClassifiesAndCoverSurvives(t *testing.T) {
	eng := sim.NewEngine(21)
	_, world := webworld.BuildDefault(eng)
	c, err := cluster.New(eng, world, cluster.Config{
		Hosts:      2,
		HostConfig: hypervisor.Config{RAMBytes: 8 << 30, CPU: cpusched.DefaultConfig()},
		Fleet:      fleet.Config{Restart: fleet.RestartPolicy{MaxRestarts: 1, Backoff: 2 * time.Second}},
		RegionFor: func(i int) string {
			if i == 0 {
				return "east"
			}
			return "west"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := world.Net()
	var rep Report
	run(t, eng, func(p *sim.Proc) {
		for _, name := range []string{"amy", "ben"} {
			opts := smallOpts(core.ModelPersistent)
			opts.GuardSeed = name
			opts.Anonymizer = "mixnet"
			if err := c.Launch(fleet.Spec{Name: name, Opts: opts}); err != nil {
				t.Errorf("launch %s: %v", name, err)
				return
			}
		}
		if err := c.AwaitRunning(p, 2); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		var eastNym, westNym string
		for _, name := range []string{"amy", "ben"} {
			if c.HostOf(name).Manager().Host().Node().Region() == "east" {
				eastNym = name
			} else {
				westNym = name
			}
		}
		if eastNym == "" || westNym == "" {
			t.Errorf("nyms not spread across regions: east=%q west=%q", eastNym, westNym)
			return
		}

		// A fetch is mid-flight on the east nym when the cascade enclave
		// goes dark for its region.
		visitFut := sim.NewFuture[struct{}](eng)
		victim := c.Member(eastNym).Nym()
		eng.Go("visit", func(vp *sim.Proc) {
			_, err := victim.Visit(vp, "bbc.co.uk")
			visitFut.Complete(struct{}{}, err)
		})
		p.Sleep(400 * time.Millisecond)
		net.SeverRegions("east", webworld.MixRegion)
		_, verr := sim.Await(p, visitFut)
		if verr == nil {
			t.Error("fetch survived a severed mix cascade")
			return
		}
		if !nymerr.HasCode(verr, vnet.CodePartitioned) {
			t.Errorf("fetch failure chain lacks %s: %v", vnet.CodePartitioned, verr)
		}
		if err := c.HostOf(eastNym).Fleet().FailNym(p, eastNym, verr); err != nil {
			t.Errorf("fail %s: %v", eastNym, err)
		}

		// The sweep keeps saving what still runs, and the unaffected
		// nym's cover clock never misses a beat.
		westCover := coverBytes(c.Member(westNym))
		if err := c.StartSweeps(cluster.SweepConfig{Interval: 15 * time.Second, Tokens: 1, Cadence: fleet.Cadence{Mode: fleet.CadenceAll}}); err != nil {
			t.Errorf("sweeps: %v", err)
			return
		}
		p.Sleep(50 * time.Second)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		if errs := c.SweepErrors(); len(errs) != 0 {
			t.Errorf("sweeps failed during the cascade partition: %v", errs)
		}
		if delta := coverBytes(c.Member(westNym)) - westCover; delta <= 0 {
			t.Errorf("cover traffic stalled on the unaffected nym (delta %d)", delta)
		}

		// Snapshot the SLO view while members are still live, then heal
		// and tear down.
		rep = FromCluster(c)
		net.HealRegions("east", webworld.MixRegion)
		if err := c.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})

	if rep.Unclassified != 0 {
		t.Fatalf("%d unclassified failures: %+v", rep.Unclassified, rep.FailuresByCode)
	}
	if rep.TotalFailures == 0 {
		t.Fatal("no failures recorded for the severed cascade")
	}
	var sawCrash bool
	for _, fc := range rep.FailuresByCode {
		if fc.Code == fleet.CodeCrashInjected {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatalf("injected crash missing from taxonomy: %+v", rep.FailuresByCode)
	}
	// The taxonomy buckets by outermost code (the crash injection, the
	// stalled launch); the partition that caused them must still be
	// findable in the recorded chains.
	var sawPartition bool
	for _, h := range c.Hosts() {
		for _, f := range h.Fleet().Failures() {
			if nymerr.HasCode(f.Err, vnet.CodePartitioned) {
				sawPartition = true
			}
		}
	}
	if !sawPartition {
		t.Fatal("no recorded failure chain carries vnet.partitioned")
	}
	if rep.CoverWireBytes <= 0 {
		t.Fatalf("SLO report saw no cover wire from a running mixnet fleet: %d", rep.CoverWireBytes)
	}
}
