package cluster

import (
	"testing"
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/sim"
)

func TestAutoscalerGrowsOnPersistentQueue(t *testing.T) {
	// One 2-slot host, seven launches: the queue persists past
	// growDwell, so the autoscaler provisions hosts until six are
	// admitted — on a fixed pool they would stall forever. The seventh
	// stays queued: MaxHosts=3 is a ceiling, not a target.
	eng, c := newCluster(t, 51, 1, 2<<30, Config{MinHosts: 1, MaxHosts: 3})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(7, core.ModelEphemeral)); err != nil {
			t.Fatalf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, 6); err != nil {
			t.Fatalf("await across scale-up: %v", err)
		}
	})
	st := c.Snapshot()
	if st.ActiveHosts != 3 {
		t.Fatalf("active hosts = %d, want 3", st.ActiveHosts)
	}
	if st.GrowEvents != 2 {
		t.Fatalf("grow events = %d, want 2", st.GrowEvents)
	}
	if st.Running != 6 || st.QueuedClusterWide != 1 {
		t.Fatalf("running=%d queued=%d after scale-up", st.Running, st.QueuedClusterWide)
	}
	for _, ev := range c.ScaleLog() {
		if ev.Kind != "grow" {
			t.Fatalf("unexpected scale event %+v", ev)
		}
	}
}

func TestAutoscalerDrainsToFloor(t *testing.T) {
	// Three 16 GiB hosts holding two persistent nyms: the cluster share
	// sits far under the watermark, so the autoscaler drains and
	// retires hosts down to MinHosts=1, migrating both nyms onto the
	// survivor with no reservation leaked anywhere.
	eng, c := newCluster(t, 53, 3, 16<<30, Config{MinHosts: 1, MaxHosts: 3})
	fp := smallOpts(core.ModelPersistent).Footprint()
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(2, core.ModelPersistent)); err != nil {
			t.Fatalf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await: %v", err)
		}
	})
	// Engine drained: every dwell fired, every drain completed, and the
	// daemons disarmed (nothing left to shrink).
	st := c.Snapshot()
	if st.ActiveHosts != 1 || st.Hosts != 1 {
		t.Fatalf("hosts = %d active / %d pool, want 1/1 after drain-to-floor", st.ActiveHosts, st.Hosts)
	}
	if st.ShrinkEvents != 2 || st.RetiredHosts != 2 {
		t.Fatalf("shrink events = %d, retired = %d, want 2/2", st.ShrinkEvents, st.RetiredHosts)
	}
	if st.Running != 2 {
		t.Fatalf("running = %d after drain, want 2", st.Running)
	}
	// Zero leaked reservations: retired hosts hold nothing, the
	// survivor holds exactly the two footprints.
	for _, h := range c.RetiredHosts() {
		if got := h.Fleet().ReservedBytes(); got != 0 {
			t.Fatalf("retired host %s leaks %d reserved bytes", h.Name(), got)
		}
		if got := h.Manager().Host().VMCount(); got != 0 {
			t.Fatalf("retired host %s still holds %d VMs", h.Name(), got)
		}
		if h.State() != HostRetired {
			t.Fatalf("retired host %s state = %v", h.Name(), h.State())
		}
	}
	if got := c.Hosts()[0].Fleet().ReservedBytes(); got != 2*fp {
		t.Fatalf("survivor reserved = %d, want %d", got, 2*fp)
	}
	// Every drained nym restored from its vault checkpoint rather than
	// booting blank: one save/load cycle per completed migration. (A
	// nym that already sat on the surviving host never moves and keeps
	// zero cycles.)
	if c.Migrations() < 1 {
		t.Fatalf("migrations = %d, want at least one drain move", c.Migrations())
	}
	moved := 0
	for _, name := range []string{"nym00", "nym01"} {
		m := c.Member(name)
		if m == nil || m.State() != fleet.StateRunning {
			t.Fatalf("%s not running after drain", name)
		}
		if m.Nym().Cycles() > 0 {
			moved++
		}
	}
	if moved != c.Migrations() {
		t.Fatalf("%d nyms carry restore cycles but %d migrations completed", moved, c.Migrations())
	}
}

// TestDrainCrashRetriesFromCheckpoint is the drain half of the
// migration crash regression: a nym dies (FailNym) while the drain's
// source-side save is in flight. The drain must fall back to the last
// recorded vault checkpoint, land the nym on the surviving host, and
// retire the drained host with zero leaked reservations.
func TestDrainCrashRetriesFromCheckpoint(t *testing.T) {
	eng, c := newCluster(t, 57, 2, 16<<30, Config{
		Fleet: fleet.Config{Restart: fleet.RestartPolicy{MaxRestarts: 0}},
	})
	fp := smallOpts(core.ModelPersistent).Footprint()
	run(t, eng, func(p *sim.Proc) {
		opts := smallOpts(core.ModelPersistent)
		opts.GuardSeed = "drainee"
		if err := c.Launch(fleet.Spec{Name: "drainee", Opts: opts}); err != nil {
			t.Fatalf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, 1); err != nil {
			t.Fatalf("await: %v", err)
		}
		src := c.HostOf("drainee")
		// A durable checkpoint exists from before the crash.
		if _, err := src.Fleet().CheckpointNym(p, "drainee", "cluster-pw", core.VaultDest{
			Providers: []string{"dropbin"}, Account: "acct-drainee", AccountPassword: "cloud-pw",
		}); err != nil {
			t.Fatalf("pre-checkpoint: %v", err)
		}
		// Retire the nym's host on its own process; crash the nym while
		// the drain's fresh save is still in flight.
		var retired bool
		done := eng.Go("retire", func(rp *sim.Proc) {
			retired = c.retireHost(rp, src)
		})
		p.Sleep(200 * time.Millisecond)
		if err := src.Fleet().FailNym(p, "drainee", nil); err != nil {
			t.Fatalf("inject crash: %v", err)
		}
		sim.Await(p, done)
		if !retired {
			t.Fatal("drain did not recover from the crash")
		}
		m := c.Member("drainee")
		if m == nil || m.State() != fleet.StateRunning {
			t.Fatal("drainee not running on the surviving host")
		}
		if m.Nym().Cycles() == 0 {
			t.Error("drainee restored blank instead of from the vault checkpoint")
		}
		if src.State() != HostRetired {
			t.Errorf("source host state = %v, want retired", src.State())
		}
		if got := src.Fleet().ReservedBytes(); got != 0 {
			t.Errorf("retired host leaks %d reserved bytes", got)
		}
		if got := src.Manager().Host().VMCount(); got != 0 {
			t.Errorf("retired host still holds %d VMs", got)
		}
		if got := c.HostOf("drainee").Fleet().ReservedBytes(); got != fp {
			t.Errorf("survivor reserved = %d, want %d", got, fp)
		}
	})
}

// TestClusterPreemptionAdmitsSystemLaunch: with the pool saturated by
// ephemeral nyms and no autoscaler, a System-class launch parked in
// the cluster-wide queue triggers a preemption pass after its dwell:
// one ephemeral dies, the System nym places on the freed capacity.
func TestClusterPreemptionAdmitsSystemLaunch(t *testing.T) {
	eng, c := newCluster(t, 59, 1, 2<<30, Config{
		PreemptDwell: 2 * time.Second,
	})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(2, core.ModelEphemeral)); err != nil {
			t.Fatalf("launch filler: %v", err)
		}
		if err := c.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await filler: %v", err)
		}
		if err := c.Launch(fleet.Spec{
			Name: "sysnym", Opts: smallOpts(core.ModelEphemeral), Priority: fleet.PrioritySystem,
		}); err != nil {
			t.Fatalf("launch system: %v", err)
		}
		for {
			m := c.Member("sysnym")
			if m != nil && (m.State() == fleet.StateRunning || m.State() == fleet.StateFailed) {
				if m.State() != fleet.StateRunning {
					t.Fatalf("system nym %v, want running", m.State())
				}
				break
			}
			c.parkOnChange(p)
		}
	})
	st := c.Snapshot()
	if st.Preempted.Terminated != 1 || st.Preempted.Evicted != 0 {
		t.Fatalf("preempted = %+v, want one terminated ephemeral", st.Preempted)
	}
}

// TestClusterQueuePriorityOrder: the cluster-wide queue dispatches by
// class, not arrival: a persistent launch queued after two ephemeral
// ones is admitted first when capacity frees, and the ephemerals keep
// their relative order behind it.
func TestClusterQueuePriorityOrder(t *testing.T) {
	eng, c := newCluster(t, 61, 1, 2<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(2, core.ModelEphemeral)); err != nil {
			t.Fatalf("launch filler: %v", err)
		}
		if err := c.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await filler: %v", err)
		}
		// Three queued launches: two ephemeral, then one persistent.
		for _, name := range []string{"eph-a", "eph-b"} {
			if err := c.Launch(fleet.Spec{Name: name, Opts: smallOpts(core.ModelEphemeral)}); err != nil {
				t.Fatalf("launch %s: %v", name, err)
			}
		}
		per := smallOpts(core.ModelPersistent)
		per.GuardSeed = "per-c"
		if err := c.Launch(fleet.Spec{Name: "per-c", Opts: per}); err != nil {
			t.Fatalf("launch per-c: %v", err)
		}
		if got := c.QueuedClusterWide(); got != 3 {
			t.Fatalf("queued = %d, want 3", got)
		}
		// Free one slot: the persistent head must take it.
		if err := c.Hosts()[0].Fleet().Stop(p, "nym00"); err != nil {
			t.Fatalf("stop: %v", err)
		}
		for c.Member("per-c") == nil || c.Member("per-c").State() != fleet.StateRunning {
			c.parkOnChange(p)
		}
		if got := c.QueuedClusterWide(); got != 2 {
			t.Fatalf("queued = %d after priority dispatch, want the two ephemerals", got)
		}
		// Free another: FIFO among equals — eph-a before eph-b.
		if err := c.Hosts()[0].Fleet().Stop(p, "nym01"); err != nil {
			t.Fatalf("stop: %v", err)
		}
		for c.Member("eph-a") == nil || c.Member("eph-a").State() != fleet.StateRunning {
			c.parkOnChange(p)
		}
		if got := c.QueuedClusterWide(); got != 1 {
			t.Fatalf("queued = %d, want eph-b still parked", got)
		}
	})
}
