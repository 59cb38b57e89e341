package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vm"
)

// TestClusterSweepSlotsNeverOverlap: with a single provider token, no
// two hosts are ever on the shared providers at once — even when the
// sweep interval is short enough that a host's sweep overruns its
// stagger slot.
func TestClusterSweepSlotsNeverOverlap(t *testing.T) {
	eng, c := newCluster(t, 21, 3, 4<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(9, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := c.AwaitRunning(p, 9); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		// CadenceAll with a deliberately tight interval: per-host sweeps
		// take seconds, stagger slots only ~4s apart — without the
		// token, windows would collide.
		if err := c.StartSweeps(SweepConfig{
			Interval: 12 * time.Second, Tokens: 1, Cadence: fleet.Cadence{Mode: fleet.CadenceAll},
		}); err != nil {
			t.Errorf("start sweeps: %v", err)
			return
		}
		p.Sleep(40 * time.Second)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)

		slots := c.SweepSlots()
		var active []SweepSlot
		for _, s := range slots {
			if !s.Paused {
				active = append(active, s)
			}
		}
		if len(active) < 6 {
			t.Errorf("only %d host sweeps completed, want >= 6", len(active))
		}
		hosts := map[string]bool{}
		for _, s := range active {
			hosts[s.Host] = true
			if s.End <= s.Start {
				t.Errorf("round %d %s: empty sweep window [%v,%v] under CadenceAll", s.Round, s.Host, s.Start, s.End)
			}
		}
		if len(hosts) != 3 {
			t.Errorf("sweeps covered %d hosts, want 3", len(hosts))
		}
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				a, b := active[i], active[j]
				if a.Host == b.Host {
					continue
				}
				if a.Start < b.End && b.Start < a.End {
					t.Errorf("hosts %s and %s swept the providers concurrently: [%v,%v] overlaps [%v,%v]",
						a.Host, b.Host, a.Start, a.End, b.Start, b.End)
				}
			}
		}
		if err := c.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
}

// TestClusterSweepPausesCordonedHost: a host out of Active duty is
// skipped by the coordinator — its slots are recorded as paused and
// nothing of its state moves to the providers.
func TestClusterSweepPausesCordonedHost(t *testing.T) {
	eng, c := newCluster(t, 22, 2, 4<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(4, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := c.AwaitRunning(p, 4); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		// Cordon the way the autoscaler's drain does: the host stays
		// in the pool but leaves Active duty.
		h := c.Hosts()[0]
		h.state = HostCordoned
		cordoned := h.Name()
		if err := c.StartSweeps(SweepConfig{
			Interval: 10 * time.Second, Cadence: fleet.Cadence{Mode: fleet.CadenceAll},
		}); err != nil {
			t.Errorf("start sweeps: %v", err)
			return
		}
		p.Sleep(25 * time.Second)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)

		var paused, swept int
		for _, s := range c.SweepSlots() {
			if s.Host == cordoned {
				if !s.Paused {
					t.Errorf("cordoned host %s swept in round %d", s.Host, s.Round)
				}
				paused++
			} else if !s.Paused {
				swept++
			}
		}
		if paused == 0 || swept == 0 {
			t.Errorf("paused=%d swept=%d, want both > 0", paused, swept)
		}
		if err := c.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
}

// Regression: a slot pass whose saves all fail used to vanish — the
// coordinator dropped SweepOnce's error on the floor, so a dead
// provider read as a healthy round with a low save count. The
// coordinator now keeps every slot failure, typed.
func TestClusterSweepSlotRecordsSaveFailures(t *testing.T) {
	// Point every save at a provider that doesn't exist: each host's
	// pass fails wholesale.
	eng, c := newCluster(t, 29, 2, 4<<30, Config{
		DestFor: func(name string) core.VaultDest {
			return core.VaultDest{Providers: []string{"nowhere"}, Account: name, AccountPassword: "p"}
		},
	})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(4, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := c.AwaitRunning(p, 4); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		if err := c.StartSweeps(SweepConfig{
			Interval: 10 * time.Second, Cadence: fleet.Cadence{Mode: fleet.CadenceAll},
		}); err != nil {
			t.Errorf("start sweeps: %v", err)
			return
		}
		p.Sleep(25 * time.Second)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		if err := c.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	errs := c.SweepErrors()
	if len(errs) == 0 {
		t.Fatal("coordinator swallowed the failed slot passes")
	}
	for _, err := range errs {
		if !errors.Is(err, core.ErrNoProvider) {
			t.Errorf("slot error lost its cause: %v", err)
		}
		if nymerr.Classify(err) != core.CodeUnknownProvider {
			t.Errorf("slot error classified %q, want %s: %v", nymerr.Classify(err), core.CodeUnknownProvider, err)
		}
	}
	if rep := c.SweepReport(); rep.Errors == 0 {
		t.Errorf("report errors = 0 despite %d failed slots", len(errs))
	}
}

// TestSweepsInterleaveCrashMigrationPreemption is the hardening pass:
// the sweep coordinator runs on a short interval while the test
// injects a nymbox crash, live-migrates a nym between hosts, and
// forces a cluster preemption with a System-class launch. Afterwards:
// no sweep ever drove a nymbox into an illegal lifecycle state (the
// double-checkpoint failure mode), no host leaks a reservation, and
// every nym's checkpoint generation is monotonic.
func TestSweepsInterleaveCrashMigrationPreemption(t *testing.T) {
	eng, c := newCluster(t, 23, 2, 4<<30, Config{
		PreemptDwell: 2 * time.Second,
	})
	gens := map[string]int{}
	names := []string{"nym00", "nym01", "nym02", "nym03", "nym04", "nym05"}
	sampleGens := func() {
		for _, name := range names {
			m := c.Member(name)
			if m == nil || m.Nym() == nil {
				continue
			}
			gen := m.Nym().CheckpointGen()
			if gen < gens[name] {
				t.Errorf("%s checkpoint generation went backwards: %d -> %d", name, gens[name], gen)
			}
			gens[name] = gen
		}
	}
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(6, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := c.AwaitRunning(p, 6); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		if err := c.StartSweeps(SweepConfig{Interval: 5 * time.Second}); err != nil {
			t.Errorf("start sweeps: %v", err)
			return
		}
		for round := 0; round < 6; round++ {
			// Keep some state churn flowing so sweeps have real work.
			m := c.Member(names[round%len(names)])
			if m != nil && m.State() == fleet.StateRunning && m.Nym() != nil {
				if _, err := m.Nym().Visit(p, "twitter.com"); err != nil {
					t.Errorf("round %d visit: %v", round, err)
				}
			}
			switch round {
			case 1:
				// Crash a running nym out from under the sweeps.
				for _, name := range names {
					mm := c.Member(name)
					if mm != nil && mm.State() == fleet.StateRunning {
						h := c.HostOf(name)
						if err := h.Fleet().FailNym(p, name, nil); err != nil {
							t.Errorf("fail %s: %v", name, err)
						}
						break
					}
				}
			case 3:
				// Live-migrate a running nym while sweeps fire.
				for _, name := range names {
					mm := c.Member(name)
					if mm == nil || mm.State() != fleet.StateRunning {
						continue
					}
					src := c.HostOf(name)
					var dst *Host
					for _, h := range c.Hosts() {
						if h != src {
							dst = h
						}
					}
					if _, err := c.MigrateNym(p, name, dst.Name()); err != nil {
						t.Errorf("migrate %s: %v", name, err)
					}
					break
				}
			case 4:
				// A System-class burst big enough to overflow both
				// hosts' headroom: the cluster queue preempts persistent
				// victims (vaulted, then evicted) while sweeps are
				// running.
				vips := make([]fleet.Spec, 12)
				for i := range vips {
					vips[i] = fleet.Spec{
						Name:     fmt.Sprintf("vip%02d", i),
						Opts:     smallOpts(core.ModelEphemeral),
						Priority: fleet.PrioritySystem,
					}
				}
				if err := c.LaunchAll(vips); err != nil {
					t.Errorf("vip launch: %v", err)
				}
			}
			p.Sleep(5 * time.Second)
			sampleGens()
		}
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		c.AwaitSettled(p)
		sampleGens()

		preempted := 0
		for _, h := range c.Hosts() {
			preempted += h.Fleet().Preemptions().Total()
		}
		if preempted == 0 {
			t.Error("System burst preempted nothing; the interleaving never exercised eviction")
		}
		for _, h := range c.Hosts() {
			for _, err := range h.Fleet().SweepErrors() {
				if errors.Is(err, vm.ErrBadState) {
					t.Errorf("host %s sweep drove a nymbox into an illegal state: %v", h.Name(), err)
				}
			}
			var want int64
			for _, m := range h.Fleet().Members() {
				switch m.State() {
				case fleet.StateRunning, fleet.StateStarting, fleet.StateQueued, fleet.StateRestarting:
					want += m.Footprint()
				}
			}
			if got := h.Fleet().ReservedBytes(); got != want {
				t.Errorf("host %s leaked reservations: reserved %d bytes, members account for %d", h.Name(), got, want)
			}
		}
		if err := c.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})

	// Every failure the chaos run recorded — crash, sweep, eviction,
	// stop — must classify to a registered code: the SLO taxonomy's
	// zero-unclassified invariant.
	recorded := 0
	for _, h := range append(c.Hosts(), c.RetiredHosts()...) {
		for _, rec := range h.Fleet().Failures() {
			recorded++
			if rec.Code == "" || !nymerr.Registered(rec.Code) {
				t.Errorf("host %s: unclassified failure (member %s, op %s): %v",
					h.Name(), rec.Member, rec.Op, rec.Err)
			}
		}
	}
	if recorded == 0 {
		t.Error("chaos run recorded no failures; the crash injection never landed")
	}
	for _, err := range c.SweepErrors() {
		if nymerr.Classify(err) == "" {
			t.Errorf("untyped cluster sweep error: %v", err)
		}
	}
}
