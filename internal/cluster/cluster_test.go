package cluster

import (
	"fmt"
	"testing"
	"time"

	"nymix/internal/core"
	"nymix/internal/cpusched"
	"nymix/internal/fleet"
	"nymix/internal/guestos"
	"nymix/internal/hypervisor"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// smallOpts is the 400 MiB test nymbox.
func smallOpts(model core.UsageModel) core.Options {
	return core.Options{
		Model:    model,
		AnonRAM:  256 * guestos.MiB,
		AnonDisk: 64 * guestos.MiB,
		CommRAM:  64 * guestos.MiB,
		CommDisk: 16 * guestos.MiB,
	}
}

func specs(n int, model core.UsageModel) []fleet.Spec {
	out := make([]fleet.Spec, n)
	for i := range out {
		name := fmt.Sprintf("nym%02d", i)
		opts := smallOpts(model)
		if model == core.ModelPersistent {
			opts.GuardSeed = name
		}
		out[i] = fleet.Spec{Name: name, Opts: opts}
	}
	return out
}

// newCluster builds a pool of small hosts (hostRAM each, 4 cores).
func newCluster(t *testing.T, seed uint64, hosts int, hostRAM int64, cfg Config) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	cfg.Hosts = hosts
	cfg.HostConfig = hypervisor.Config{RAMBytes: hostRAM, CPU: cpusched.DefaultConfig()}
	c, err := New(eng, world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func run(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	eng.Go("test", fn)
	eng.Run()
}

func TestLeastReservedSpreadsAcrossHosts(t *testing.T) {
	eng, c := newCluster(t, 3, 2, 16<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(6, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, 6); err != nil {
			t.Errorf("await: %v", err)
		}
	})
	st := c.Snapshot()
	if st.Running != 6 {
		t.Fatalf("running = %d", st.Running)
	}
	for i, n := range st.PerHostRunning {
		if n != 3 {
			t.Fatalf("host %d runs %d nyms, want an even 3/3 split (%v)", i, n, st.PerHostRunning)
		}
	}
}

func TestPackFirstFillsHostsInOrder(t *testing.T) {
	// A 2 GiB host admits two 400 MiB nymboxes (0.9 headroom minus the
	// ~715 MiB hypervisor baseline).
	eng, c := newCluster(t, 5, 2, 2<<30, Config{Policy: PackFirst{}})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(3, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, 3); err != nil {
			t.Errorf("await: %v", err)
		}
	})
	st := c.Snapshot()
	if st.PerHostRunning[0] != 2 || st.PerHostRunning[1] != 1 {
		t.Fatalf("pack-first placement = %v, want [2 1]", st.PerHostRunning)
	}
}

func TestClusterWideQueueDispatchesWhenCapacityFrees(t *testing.T) {
	// Two 2-nym hosts, six launches: four place, two queue cluster-wide.
	eng, c := newCluster(t, 7, 2, 2<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(6, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, 4); err != nil {
			t.Errorf("await 4: %v", err)
		}
		if got := c.QueuedClusterWide(); got != 2 {
			t.Errorf("cluster queue = %d, want 2", got)
		}
		// No host-local queueing: the placement layer holds the overflow.
		for _, h := range c.Hosts() {
			if q := h.Fleet().QueuedLaunches(); q != 0 {
				t.Errorf("%s has %d host-local queued launches", h.Name(), q)
			}
		}
		// Freeing one host dispatches the queue without new Launch calls.
		if err := c.Hosts()[0].Fleet().StopAll(p); err != nil {
			t.Errorf("stop host0: %v", err)
		}
		if err := c.AwaitRunning(p, 4); err != nil {
			t.Errorf("await redispatch: %v", err)
		}
	})
	if got := c.QueuedClusterWide(); got != 0 {
		t.Fatalf("cluster queue = %d after capacity freed", got)
	}
	if got := c.PeakQueued(); got != 2 {
		t.Fatalf("peak queued = %d, want 2", got)
	}
	if got := c.Running(); got != 4 {
		t.Fatalf("running = %d, want 4 (2 stopped + 2 dispatched)", got)
	}
}

func TestAwaitRunningErrorsWhenNothingPending(t *testing.T) {
	eng, c := newCluster(t, 9, 2, 2<<30, Config{})
	var awaitErr error
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(6, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, 4); err != nil {
			t.Errorf("await 4: %v", err)
		}
		// Six can never run at once on four slots; with nothing in
		// flight the wait must error, not park forever.
		awaitErr = c.AwaitRunning(p, 6)
	})
	if awaitErr == nil {
		t.Fatal("AwaitRunning(6) on a 4-slot pool returned nil")
	}
}

func TestLaunchRejectsImpossibleFootprint(t *testing.T) {
	eng, c := newCluster(t, 11, 2, 2<<30, Config{})
	opts := smallOpts(core.ModelEphemeral)
	opts.AnonRAM = 8 << 30
	err := c.Launch(fleet.Spec{Name: "whale", Opts: opts})
	if err == nil {
		t.Fatal("launch of an unplaceable footprint succeeded")
	}
	eng.Run()
	if c.QueuedClusterWide() != 0 {
		t.Fatal("unplaceable launch left a queue entry")
	}
}

func TestMigratePreservesIdentityAcrossHosts(t *testing.T) {
	eng, c := newCluster(t, 13, 2, 16<<30, Config{})
	world := c.Hosts()[0].Manager().World()
	var rep MigrationReport
	var fp int64
	run(t, eng, func(p *sim.Proc) {
		opts := smallOpts(core.ModelPersistent)
		opts.GuardSeed = "alice"
		if err := c.Launch(fleet.Spec{Name: "alice", Opts: opts}); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		fp = opts.Footprint()
		if err := c.AwaitRunning(p, 1); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		src := c.HostOf("alice")
		if _, err := c.Member("alice").Nym().Browser().Login(p, "twitter.com", "alice-handle", "pw"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		dst := c.Hosts()[1]
		if src == dst {
			dst = c.Hosts()[0]
		}
		var err error
		rep, err = c.MigrateNym(p, "alice", dst.Name())
		if err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		// The source kept nothing: no nyms, no VMs, no reservation.
		if got := src.Manager().RunningNyms(); got != 0 {
			t.Errorf("source running nyms = %d", got)
		}
		if got := src.Manager().Host().VMCount(); got != 0 {
			t.Errorf("source VMs = %d", got)
		}
		if got := src.Fleet().ReservedBytes(); got != 0 {
			t.Errorf("source reservation = %d bytes leaked", got)
		}
		if got := dst.Fleet().ReservedBytes(); got != fp {
			t.Errorf("destination reservation = %d, want %d", got, fp)
		}
		if c.HostOf("alice") != dst {
			t.Error("placement not updated")
		}
		m := c.Member("alice")
		if m == nil || m.State() != fleet.StateRunning {
			t.Fatalf("alice not running on destination")
		}
		if m.Nym().Cycles() == 0 {
			t.Error("restored nym carries no save cycle — booted blank?")
		}
		// Tracker-visible identity survives the move: the site sees the
		// same cookie from the new host.
		if _, err := m.Nym().Visit(p, "twitter.com"); err != nil {
			t.Errorf("revisit: %v", err)
			return
		}
		visits := world.Site("twitter.com").Visits()
		if first, last := visits[0], visits[len(visits)-1]; first.CookieID != last.CookieID {
			t.Errorf("cookie changed across migration: %q -> %q", first.CookieID, last.CookieID)
		}
		if cred, ok := m.Nym().Browser().Credentials("twitter.com"); !ok || cred.Account != "alice-handle" {
			t.Errorf("credentials lost in flight: %+v %v", cred, ok)
		}
	})
	if rep.WireBytes <= 0 {
		t.Fatalf("migration wire bytes = %d", rep.WireBytes)
	}
	if c.Migrations() != 1 || c.MigrationWireBytes() != rep.WireBytes {
		t.Fatalf("migration accounting: %d moves, %d bytes", c.Migrations(), c.MigrationWireBytes())
	}
	if rep.Retried {
		t.Fatal("clean migration reported a retry")
	}
}

// TestCrashDuringMigrationRetriesFromCheckpoint is the regression for
// the migration crash window: the nym dies (FailNym) while the
// source-side save is in flight, so the fresh checkpoint fails — the
// cluster must fall back to the last recorded vault checkpoint,
// restore on the destination, and leak a reservation on neither host.
func TestCrashDuringMigrationRetriesFromCheckpoint(t *testing.T) {
	eng, c := newCluster(t, 17, 2, 16<<30, Config{
		Fleet: fleet.Config{Restart: fleet.RestartPolicy{MaxRestarts: 0}},
	})
	var rep MigrationReport
	var migErr error
	var fp int64
	run(t, eng, func(p *sim.Proc) {
		opts := smallOpts(core.ModelPersistent)
		opts.GuardSeed = "bob"
		if err := c.Launch(fleet.Spec{Name: "bob", Opts: opts}); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		fp = opts.Footprint()
		if err := c.AwaitRunning(p, 1); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		src := c.HostOf("bob")
		dst := c.Hosts()[1]
		if src == dst {
			dst = c.Hosts()[0]
		}
		// A durable checkpoint exists from before the crash.
		if _, err := src.Fleet().CheckpointNym(p, "bob", "cluster-pw", core.VaultDest{
			Providers: []string{"dropbin"}, Account: "acct-bob", AccountPassword: "cloud-pw",
		}); err != nil {
			t.Errorf("pre-checkpoint: %v", err)
			return
		}
		// Start the migration on its own process, then crash the nym
		// while the migration's fresh save is still in flight.
		done := eng.Go("migrate", func(mp *sim.Proc) {
			rep, migErr = c.MigrateNym(mp, "bob", dst.Name())
		})
		p.Sleep(200 * time.Millisecond)
		if err := src.Fleet().FailNym(p, "bob", nil); err != nil {
			t.Errorf("inject crash: %v", err)
		}
		sim.Await(p, done)
		if migErr != nil {
			t.Errorf("migration did not recover from the crash: %v", migErr)
			return
		}
		if !rep.Retried {
			t.Error("migration did not report the checkpoint retry")
		}
		m := c.Member("bob")
		if m == nil || m.State() != fleet.StateRunning {
			t.Fatal("bob not running on the destination after the crash")
		}
		if c.HostOf("bob") != dst {
			t.Error("placement not moved to the destination")
		}
		// The restored state is the pre-crash checkpoint, not a blank boot.
		if m.Nym().Cycles() == 0 {
			t.Error("bob restored blank instead of from the vault checkpoint")
		}
		// Neither host leaks a reservation: the crash released the
		// source's, the destination holds exactly one footprint.
		if got := src.Fleet().ReservedBytes(); got != 0 {
			t.Errorf("source reservation leaked: %d bytes", got)
		}
		if got := dst.Fleet().ReservedBytes(); got != fp {
			t.Errorf("destination reservation = %d, want %d", got, fp)
		}
		if got := src.Manager().Host().VMCount(); got != 0 {
			t.Errorf("source VMs = %d after crash + migration", got)
		}
	})
}

// Regression: two concurrent migrations of one nym (a user move
// racing a rebalance pass) must resolve to one winner — the loser
// errors immediately instead of parking forever on a member the
// winner already detached.
func TestConcurrentMigrationsResolveToOneWinner(t *testing.T) {
	eng, c := newCluster(t, 29, 2, 16<<30, Config{})
	var err1, err2 error
	run(t, eng, func(p *sim.Proc) {
		opts := smallOpts(core.ModelPersistent)
		opts.GuardSeed = "carol"
		if err := c.Launch(fleet.Spec{Name: "carol", Opts: opts}); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := c.AwaitRunning(p, 1); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		src := c.HostOf("carol")
		dst := c.Hosts()[1]
		if src == dst {
			dst = c.Hosts()[0]
		}
		d1 := eng.Go("mig1", func(mp *sim.Proc) { _, err1 = c.MigrateNym(mp, "carol", dst.Name()) })
		d2 := eng.Go("mig2", func(mp *sim.Proc) { _, err2 = c.MigrateNym(mp, "carol", dst.Name()) })
		sim.Await(p, d1)
		sim.Await(p, d2)
	})
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("want exactly one migration winner: err1=%v err2=%v", err1, err2)
	}
	if c.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", c.Migrations())
	}
	m := c.Member("carol")
	if m == nil || m.State() != fleet.StateRunning {
		t.Fatal("carol not running after the race")
	}
	total := int64(0)
	for _, h := range c.Hosts() {
		total += h.Fleet().ReservedBytes()
	}
	if total != m.Footprint() {
		t.Fatalf("reserved across pool = %d, want exactly one footprint %d", total, m.Footprint())
	}
}

func TestRebalancerDrainsHotHost(t *testing.T) {
	// Pack-first piles every nym on host 0 past hotShare; the
	// rebalancer must notice the hot host and migrate persistent nyms
	// toward the idle one.
	eng, c := newCluster(t, 19, 2, rebalHostRAM, Config{
		Policy:    PackFirst{},
		Rebalance: true,
	})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(rebalNyms, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, rebalNyms); err != nil {
			t.Errorf("await: %v", err)
		}
		if got := c.Hosts()[0].Fleet().Running(); got != rebalNyms {
			t.Errorf("pack-first put %d on host0, want %d", got, rebalNyms)
		}
	})
	// Engine.Run drained: the rebalancer has converged and disarmed.
	if c.Migrations() == 0 {
		t.Fatal("rebalancer moved nothing off the hot host")
	}
	st := c.Snapshot()
	if st.Running != rebalNyms {
		t.Fatalf("running = %d after rebalance", st.Running)
	}
	for i, share := range st.PerHostShare {
		if share > hotShare {
			t.Fatalf("host %d still hot after rebalance: share %.2f (%v)", i, share, st.PerHostShare)
		}
	}
	if st.MigrationWireBytes <= 0 {
		t.Fatal("no cross-host wire accounted")
	}
}

func TestClusterDeterministic(t *testing.T) {
	sample := func() (time.Duration, int, int64) {
		eng, c := newCluster(t, 23, 2, 4<<30, Config{})
		var done time.Duration
		run(t, eng, func(p *sim.Proc) {
			c.LaunchAll(specs(8, core.ModelEphemeral))
			if err := c.AwaitRunning(p, 8); err != nil {
				t.Errorf("await: %v", err)
			}
			done = p.Now()
		})
		st := c.Snapshot()
		return done, st.PeakQueued, st.PeakRAMBytes
	}
	d1, q1, r1 := sample()
	d2, q2, r2 := sample()
	if d1 != d2 || q1 != q2 || r1 != r2 {
		t.Fatalf("cluster not reproducible: %v/%d/%d vs %v/%d/%d", d1, q1, r1, d2, q2, r2)
	}
}
