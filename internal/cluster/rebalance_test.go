package cluster

import (
	"testing"
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/sim"
)

// A 3 GiB test host admits about five 400 MiB nymboxes, so five
// pack-first nyms put it past hotShare (0.85) while its empty partner
// sits under coldShare (0.6); moving one member cools it again.
const (
	rebalHostRAM = 3 << 30
	rebalNyms    = 5
)

// launchSerially places specs one at a time so RunningAt order — and
// therefore the rebalancer's coldest-victim order — is deterministic.
func launchSerially(t *testing.T, p *sim.Proc, c *Cluster, n int) {
	t.Helper()
	sp := specs(n, core.ModelPersistent)
	for i, s := range sp {
		if err := c.Launch(s); err != nil {
			t.Fatalf("launch %s: %v", s.Name, err)
		}
		if err := c.AwaitRunning(p, i+1); err != nil {
			t.Fatalf("await %d: %v", i+1, err)
		}
	}
}

// TestRebalancePassSkipsFailedVictim is the same-victim regression:
// when a move fails with the victim still running (here its vault
// destination never resolves, so every source save dies), the pass
// must spend its remaining budget on OTHER members instead of
// re-planning the identical victim maxMovesPerPass times and moving
// nothing.
func TestRebalancePassSkipsFailedVictim(t *testing.T) {
	eng, c := newCluster(t, 21, 2, rebalHostRAM, Config{
		Policy: PackFirst{},
		// nym00's checkpoints have nowhere to go: every migration save
		// for it fails, with the member still healthy on its host.
		DestFor: func(name string) core.VaultDest {
			providers := []string{"dropbin"}
			if name == "nym00" {
				providers = []string{"no-such-provider"}
			}
			return core.VaultDest{
				Providers:       providers,
				Account:         "acct-" + name,
				AccountPassword: "cloud-pw",
			}
		},
	})
	run(t, eng, func(p *sim.Proc) {
		launchSerially(t, p, c, rebalNyms)
		c.cfg.Rebalance = true // armed after placement; the pass is driven by hand
		victim, dst := c.planMove(nil)
		if victim == nil || victim.Name() != "nym00" || dst == nil {
			t.Fatalf("precondition: planned victim %v, want nym00 with a destination", victim)
		}
		c.rebalancePass(p)
		if got := c.Migrations(); got != 1 {
			t.Fatalf("pass completed %d migrations, want 1 (budget burned on the failing victim)", got)
		}
		moved := c.Hosts()[1].Fleet().Members()
		if len(moved) != 1 || moved[0].Name() == "nym00" {
			t.Fatalf("cold host holds %v, want exactly one member other than nym00", moved)
		}
		if h := c.HostOf("nym00"); h == nil || h.Name() != c.Hosts()[0].Name() {
			t.Fatalf("nym00 placed on %v, want left on the hot host after its failed move", h)
		}
	})
}

// TestRebalancePassAbsorbsCrashMidSave: FailNym kills the planned
// victim in the middle of its migration checkpoint. The pass must
// absorb the failure — the remaining budget moves another member —
// and the crashed nym restarts without wedging the cluster.
func TestRebalancePassAbsorbsCrashMidSave(t *testing.T) {
	eng, c := newCluster(t, 22, 2, rebalHostRAM, Config{Policy: PackFirst{}})
	eng.Go("chaos", func(p *sim.Proc) {
		// Wait for the pass's first migration to enter its source save,
		// then crash the victim under it.
		for i := 0; i < 20000; i++ {
			if c.migrating["nym00"] {
				src := c.HostOf("nym00")
				if src != nil {
					src.Fleet().FailNym(p, "nym00", nil)
				}
				return
			}
			p.Sleep(20 * time.Millisecond)
		}
	})
	run(t, eng, func(p *sim.Proc) {
		launchSerially(t, p, c, rebalNyms)
		c.cfg.Rebalance = true // armed after placement; the pass is driven by hand
		c.rebalancePass(p)
		if got := c.Migrations(); got < 1 {
			t.Fatalf("pass completed %d migrations, want >= 1 despite the crashed victim", got)
		}
		for _, m := range c.Hosts()[1].Fleet().Members() {
			if m.Name() == "nym00" {
				t.Fatal("crashed victim migrated anyway; its save should have died with it")
			}
		}
	})
}

// TestCostAwareVictimPricing: the cost-aware planner prefers the
// member whose vault is already warm (restore priced from the chunk
// index, nothing dirty to ship) over members that were never saved —
// a cold index prices as a full-footprint restore, the most expensive
// move on the host.
func TestCostAwareVictimPricing(t *testing.T) {
	eng, c := newCluster(t, 23, 2, 4<<30, Config{Policy: PackFirst{}})
	run(t, eng, func(p *sim.Proc) {
		launchSerially(t, p, c, 3)
		h0 := c.Hosts()[0]
		// Only nym01 has a checkpoint: its chunk index is warm and its
		// dirty delta zero, so its priced move wire is a fraction of
		// the full-footprint fallback the others get.
		if _, err := h0.Fleet().CheckpointNym(p, "nym01", c.cfg.VaultPassword, c.cfg.DestFor("nym01")); err != nil {
			t.Fatalf("checkpoint nym01: %v", err)
		}
		got := c.cheapestVictim(h0, nil)
		if got == nil || got.Name() != "nym01" {
			t.Fatalf("cheapest victim = %v, want nym01 (warm vault, clean)", got)
		}
		cost := h0.Manager().MigrationCost(got.Nym(), c.cfg.DestFor(got.Name()))
		if cost.RestoreBytes <= 0 {
			t.Fatalf("priced restore = %d bytes, want > 0 from the warm chunk index", cost.RestoreBytes)
		}
		if cost.Wire() >= got.Footprint() {
			t.Fatalf("warm move priced %d >= footprint %d; index pricing is not engaged", cost.Wire(), got.Footprint())
		}
		// With the warm member excluded, the planner falls back to a
		// cold-index member rather than returning nothing.
		if alt := c.cheapestVictim(h0, map[string]bool{"nym01": true}); alt == nil || alt.Name() == "nym01" {
			t.Fatalf("skip map ignored: got %v", alt)
		}
	})
}

// TestBatchedMovesExecuteInIdleSweepSlots pins both sides of the
// adaptive-cadence rule on one hot pool. Under an adaptive coordinator
// the rebalancer prices its victim (the warm-vault nym03, not the
// coldest nym00), its timer only plans, and the migration runs inside
// a sweep slot that held the provider token with nothing dirty to
// save. Under any other cadence the victim is the coldest member,
// nothing queues, and the pass migrates directly.
func TestBatchedMovesExecuteInIdleSweepSlots(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    fleet.CadenceMode
		victim  string
		batched bool
	}{
		{name: "adaptive", mode: fleet.CadenceAdaptive, victim: "nym03", batched: true},
		{name: "all", mode: fleet.CadenceAll, victim: "nym00", batched: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, c := newCluster(t, 24, 2, rebalHostRAM, Config{Policy: PackFirst{}})
			// Failures inside the sim proc use Errorf and return: a
			// Fatalf there would strand the engine instead of failing.
			run(t, eng, func(p *sim.Proc) {
				launchSerially(t, p, c, rebalNyms)
				if _, err := c.Hosts()[0].Fleet().CheckpointNym(p, "nym03", c.cfg.VaultPassword, c.cfg.DestFor("nym03")); err != nil {
					t.Errorf("checkpoint nym03: %v", err)
					return
				}
				if err := c.StartSweeps(SweepConfig{Interval: 20 * time.Second, Cadence: fleet.Cadence{Mode: tc.mode}}); err != nil {
					t.Errorf("start sweeps: %v", err)
					return
				}
				// Arm the rebalancer only now, so its first pass plans
				// under the installed coordinator.
				c.cfg.Rebalance = true
				if v, _ := c.planMove(nil); v == nil || v.Name() != tc.victim {
					t.Errorf("planned victim %v, want %s", v, tc.victim)
				}
				c.onChange()
				p.Sleep(4 * time.Minute)
				c.StopSweeps()
				c.AwaitSweepsIdle(p)
			})
			rep := c.SweepReport()
			if rep.MovesPlanned < 1 {
				t.Fatalf("rebalancer planned %d moves, want >= 1", rep.MovesPlanned)
			}
			if c.Migrations() < 1 {
				t.Fatal("no migration completed")
			}
			if got := c.Hosts()[1].Fleet().Running(); got < 1 {
				t.Fatalf("cold host runs %d members after rebalance, want >= 1", got)
			}
			if tc.batched {
				if rep.IdleSlots == 0 {
					t.Fatal("no idle slots over 4 minutes of a settling pool")
				}
				if rep.MovesExecuted < 1 {
					t.Fatalf("idle slots executed %d batched moves, want >= 1 (planned %d, dropped %d)",
						rep.MovesExecuted, rep.MovesPlanned, rep.MovesDropped)
				}
			} else if rep.MovesExecuted != 0 || rep.MovesDropped != 0 {
				t.Fatalf("sweep slots executed %d and dropped %d moves, want none outside the adaptive cadence",
					rep.MovesExecuted, rep.MovesDropped)
			}
			// The move path must not leave ghosts: nothing queued once
			// the pool settled, nothing stuck mid-migration.
			if len(c.migrating) != 0 {
				t.Fatalf("migrating guard not empty after settle: %v", c.migrating)
			}
			if len(c.pendingMoves) != 0 || len(c.moveQueued) != 0 {
				t.Fatalf("moves still queued after settle: %v", c.pendingMoves)
			}
		})
	}
}
