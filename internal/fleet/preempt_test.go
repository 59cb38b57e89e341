package fleet

import (
	"testing"

	"nymix/internal/core"
	"nymix/internal/sim"
)

// testVaultDest maps a member to one pseudonymous account per nym,
// mirroring the experiments' convention.
func testVaultDest(m *Member) core.VaultDest {
	return core.VaultDest{
		Providers:       []string{"dropbin"},
		Account:         "acct-" + m.Name(),
		AccountPassword: "cloud-pw",
	}
}

// preemptOne sacrifices one victim below pri, evicting a durable one
// through the test vault channel.
func preemptOne(p *sim.Proc, o *Orchestrator, pri Priority) int64 {
	return o.PreemptOne(p, pri, "fleet-pw", testVaultDest)
}

// A 2 GiB host admits two 400 MiB nymboxes (0.9 headroom minus the
// ~715 MiB hypervisor baseline), so a third launch queues — the
// pressure every preemption test builds on.

// fill launches specs and waits until all of them run.
func fill(t *testing.T, p *sim.Proc, o *Orchestrator, sp []Spec) {
	t.Helper()
	if _, err := o.LaunchAll(sp); err != nil {
		t.Fatalf("launch filler: %v", err)
	}
	if err := o.AwaitRunning(p, len(sp)); err != nil {
		t.Fatalf("await filler: %v", err)
	}
}

// queueSystem launches a System-class nym on the full host and checks
// that it queues rather than admits.
func queueSystem(t *testing.T, o *Orchestrator) *Member {
	t.Helper()
	m, err := o.Launch(Spec{Name: "sysnym", Opts: smallOpts(core.ModelEphemeral), Priority: PrioritySystem})
	if err != nil {
		t.Fatalf("launch system: %v", err)
	}
	if m.State() != StateQueued || o.QueuedLaunches() != 1 {
		t.Fatalf("system nym %v with %d queued, want it parked in admission", m.State(), o.QueuedLaunches())
	}
	return m
}

// preemptForSystem queues a System-class launch, sacrifices one victim
// for it, and waits until the launch runs.
func preemptForSystem(t *testing.T, p *sim.Proc, o *Orchestrator) {
	t.Helper()
	m := queueSystem(t, o)
	if freed := preemptOne(p, o, PrioritySystem); freed != m.Footprint() {
		t.Fatalf("PreemptOne freed %d bytes, want one %d-byte victim", freed, m.Footprint())
	}
	for m.State() != StateRunning && m.State() != StateFailed {
		sim.Await(p, o.ChangeFuture())
	}
	if m.State() != StateRunning {
		t.Fatalf("system nym %v (%v), want running after the preemption", m.State(), m.LastErr())
	}
}

func TestPreemptionAdmitsHigherClass(t *testing.T) {
	eng, o := newFleet(t, 31, 2<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		fill(t, p, o, specs(2, core.ModelEphemeral))
		preemptForSystem(t, p, o)
	})
	st := o.Preemptions()
	if st.Terminated != 1 || st.Evicted != 0 {
		t.Fatalf("preemptions = %+v, want exactly one terminated ephemeral", st)
	}
	if got := o.CountState(StatePreempted); got != 1 {
		t.Fatalf("preempted members = %d, want 1", got)
	}
	// The victim's reservation was released: exactly two footprints
	// (one survivor + the system nym) remain reserved.
	want := 2 * smallOpts(core.ModelEphemeral).Footprint()
	if got := o.ReservedBytes(); got != want {
		t.Fatalf("reserved = %d, want %d", got, want)
	}
}

// TestPreemptionOrderEphemeralBeforePersistent is the ordering
// regression: even when the persistent member is the colder victim,
// the ephemeral one dies first — persistent nyms rank above ephemeral
// in the class ladder.
func TestPreemptionOrderEphemeralBeforePersistent(t *testing.T) {
	eng, o := newFleet(t, 33, 2<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		// The persistent member launches (and runs) first, making it
		// the coldest; the ephemeral follows.
		per := smallOpts(core.ModelPersistent)
		per.GuardSeed = "oldtimer"
		fill(t, p, o, []Spec{{Name: "oldtimer", Opts: per}})
		if _, err := o.Launch(Spec{Name: "drifter", Opts: smallOpts(core.ModelEphemeral)}); err != nil {
			t.Fatalf("launch ephemeral: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await both: %v", err)
		}
		preemptForSystem(t, p, o)
	})
	if st := o.Preemptions(); st.Terminated != 1 || st.Evicted != 0 {
		t.Fatalf("preemptions = %+v, want the ephemeral terminated and the persistent spared", st)
	}
	if got := o.Member("drifter").State(); got != StatePreempted {
		t.Fatalf("ephemeral member = %v, want preempted", got)
	}
	if got := o.Member("oldtimer").State(); got != StateRunning {
		t.Fatalf("persistent member = %v, want still running", got)
	}
}

// evictAndRestore fills the host with two durable members, evicts one
// for a System launch, then frees the room again and relaunches the
// victim from its eviction checkpoint.
func evictAndRestore(t *testing.T, seed uint64, model core.UsageModel) {
	t.Helper()
	eng, o := newFleet(t, seed, 2<<30, Config{})
	var victim *Member
	run(t, eng, func(p *sim.Proc) {
		fill(t, p, o, specs(2, model))
		preemptForSystem(t, p, o)
		for _, m := range o.Members() {
			if m.State() == StatePreempted {
				victim = m
			}
		}
		if victim == nil {
			t.Fatal("no member ended preempted")
		}
		cp, ok := victim.Checkpoint()
		if !ok {
			t.Fatalf("evicted member %s has no vault checkpoint", victim.Name())
		}
		// The checkpoint is restorable: with the system nym gone, the
		// victim boots again from the vault.
		if err := o.Stop(p, "sysnym"); err != nil {
			t.Fatalf("stop system: %v", err)
		}
		if err := o.Detach(victim.Name()); err != nil {
			t.Fatalf("detach victim: %v", err)
		}
		back, err := o.LaunchRestored(victim.Spec(), cp)
		if err != nil {
			t.Fatalf("relaunch victim: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await restored victim: %v", err)
		}
		if back.State() != StateRunning || back.Nym().Model() != model {
			t.Fatalf("restored victim %v, want a running %v nym", back.State(), model)
		}
	})
	if st := o.Preemptions(); st.Terminated != 0 || st.Evicted != 1 {
		t.Fatalf("preemptions = %+v, want exactly one vaulted eviction", st)
	}
}

// TestPreemptionEvictsPersistentThroughVault: when only persistent
// members stand below a System launch, the victim is checkpointed to
// the NymVault before its nymbox dies, so its durable identity
// survives the eviction.
func TestPreemptionEvictsPersistentThroughVault(t *testing.T) {
	evictAndRestore(t, 35, core.ModelPersistent)
}

// TestPreemptionEvictsPreconfiguredThroughVault is the regression for
// the durable-model gate: pre-configured nyms rank PriorityPersistent
// and carry durable identity, so a preempted one must be vaulted and
// counted as evicted — never terminated like an ephemeral.
func TestPreemptionEvictsPreconfiguredThroughVault(t *testing.T) {
	evictAndRestore(t, 39, core.ModelPreconfigured)
}

// TestNoPreemptionWithoutVictims: a System launch queued above only
// same-or-higher classes has no one to sacrifice. PreemptOne frees
// nothing and kills nothing; the queue stalls honestly and
// AwaitRunning errors instead of parking forever.
func TestNoPreemptionWithoutVictims(t *testing.T) {
	eng, o := newFleet(t, 37, 2<<30, Config{})
	var awaitErr error
	run(t, eng, func(p *sim.Proc) {
		fillers := specs(2, core.ModelEphemeral)
		for i := range fillers {
			fillers[i].Priority = PrioritySystem
		}
		fill(t, p, o, fillers)
		queueSystem(t, o)
		if got := o.PreemptibleBytes(PrioritySystem); got != 0 {
			t.Errorf("preemptible = %d bytes, want 0", got)
		}
		if freed := preemptOne(p, o, PrioritySystem); freed != 0 {
			t.Errorf("PreemptOne freed %d bytes with no lower-class victim", freed)
		}
		awaitErr = o.AwaitRunning(p, 3)
	})
	if awaitErr == nil {
		t.Fatal("AwaitRunning(3) returned nil on a 2-slot host with no victims")
	}
	if st := o.Preemptions(); st.Total() != 0 {
		t.Fatalf("preemptions = %+v, want none", st)
	}
	if o.Running() != 2 {
		t.Fatalf("running = %d, want both fillers untouched", o.Running())
	}
}

// TestPreemptibleBytesCountsDurableMembers: durable members are
// always evictable through the vault channel PreemptOne is given, so
// they count toward PreemptibleBytes beside ephemeral ones.
func TestPreemptibleBytesCountsDurableMembers(t *testing.T) {
	fp := smallOpts(core.ModelEphemeral).Footprint()
	eng, o := newFleet(t, 41, 2<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		sp := specs(2, core.ModelEphemeral)
		sp[0].Opts.Model = core.ModelPersistent
		fill(t, p, o, sp)
		if got := o.PreemptibleBytes(PrioritySystem); got != 2*fp {
			t.Errorf("preemptible = %d bytes, want %d", got, 2*fp)
		}
		// Nothing ranks below the ephemeral class.
		if got := o.PreemptibleBytes(PriorityEphemeral); got != 0 {
			t.Errorf("preemptible below ephemeral = %d bytes, want 0", got)
		}
	})
}
