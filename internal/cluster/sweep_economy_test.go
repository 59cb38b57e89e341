package cluster

import (
	"fmt"
	"testing"
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/sim"
)

// clusterChurn rewrites path on the member's comm disk with n bytes
// of round-varying content.
func clusterChurn(t *testing.T, m *fleet.Member, path string, round, n int) {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte((round*17 + i) % 251)
	}
	if err := m.Nym().CommVM().Disk().WriteFile(path, data); err != nil {
		t.Fatalf("churn %s: %v", m.Name(), err)
	}
}

// TestOpportunisticGCReclaimsInIdleSlots: once a member's blob has
// been rewritten across two checkpoints, the superseded chunks sit
// dead at the provider. An adaptive-cadence coordinator must reclaim
// them from idle slots — provider token held, nothing dirty to save —
// and bill the probe wire it spent doing so.
func TestOpportunisticGCReclaimsInIdleSlots(t *testing.T) {
	eng, c := newCluster(t, 31, 2, 4<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(2, core.ModelPersistent)); err != nil {
			t.Fatalf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await: %v", err)
		}
		// Two checkpoints with a full rewrite in between: v1's blob
		// chunks are garbage the moment v2's manifest lands.
		for gen := 0; gen < 2; gen++ {
			for _, h := range c.Hosts() {
				for _, m := range h.Fleet().Members() {
					clusterChurn(t, m, "/var/blob", gen, 128<<10)
					if _, err := h.Fleet().CheckpointNym(p, m.Name(), c.cfg.VaultPassword, c.cfg.DestFor(m.Name())); err != nil {
						t.Fatalf("checkpoint %s gen %d: %v", m.Name(), gen, err)
					}
				}
			}
		}
		if err := c.StartSweeps(SweepConfig{Interval: 20 * time.Second, Cadence: fleet.Cadence{Mode: fleet.CadenceAdaptive}}); err != nil {
			t.Fatalf("start sweeps: %v", err)
		}
		p.Sleep(2 * time.Minute)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		rep := c.SweepReport()
		if rep.IdleSlots == 0 {
			t.Fatal("a clean pool produced no idle slots")
		}
		if rep.GCRuns < 2 {
			t.Fatalf("idle slots ran GC %d times, want >= 2 (cursor should rotate both members)", rep.GCRuns)
		}
		if rep.GCReclaimedBytes <= 0 {
			t.Fatalf("GC reclaimed %d bytes, want > 0 from the superseded rewrite", rep.GCReclaimedBytes)
		}
		if rep.GCWireBytes <= 0 {
			t.Fatal("GC billed no probe wire; reclaim is not free")
		}
		for _, err := range c.SweepErrors() {
			t.Errorf("sweep error: %v", err)
		}
	})
}

// TestClusterAdaptiveSweepDefersUnderRPO: the coordinator's adaptive
// mode defers a trickle-dirty member (under the delta target, RPO
// headroom) while still saving it before the ceiling, and the
// cluster report carries the deferral and pooled staleness telemetry.
func TestClusterAdaptiveSweepDefersUnderRPO(t *testing.T) {
	const (
		interval = 10 * time.Second
		rpo      = 100 * time.Second
	)
	eng, c := newCluster(t, 32, 2, 4<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(4, core.ModelPersistent)); err != nil {
			t.Fatalf("launch: %v", err)
		}
		if err := c.AwaitRunning(p, 4); err != nil {
			t.Fatalf("await: %v", err)
		}
		// Baseline checkpoints so the steady state measures deltas.
		for _, h := range c.Hosts() {
			if _, err := h.Fleet().SaveSweep(p, c.cfg.VaultPassword, func(m *fleet.Member) core.VaultDest {
				return c.cfg.DestFor(m.Name())
			}); err != nil {
				t.Fatalf("cold save: %v", err)
			}
		}
		if err := c.StartSweeps(SweepConfig{
			Interval: interval,
			Cadence:  fleet.Cadence{Mode: fleet.CadenceAdaptive, RPO: rpo, TargetDeltaBytes: 64 << 10},
		}); err != nil {
			t.Fatalf("start sweeps: %v", err)
		}
		// One member trickles 1 KiB per interval — far under the 64 KiB
		// target, so only the RPO deadline can force its save.
		trickle := c.Hosts()[0].Fleet().Members()[0]
		for r := 0; r < 30; r++ {
			clusterChurn(t, trickle, fmt.Sprintf("/var/trickle-%d", r%3), r, 1<<10)
			p.Sleep(interval)
		}
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		rep := c.SweepReport()
		if rep.Deferred == 0 {
			t.Fatal("adaptive coordinator deferred nothing for a trickle-dirty member")
		}
		if rep.Saves == 0 {
			t.Fatal("trickle member was never saved; RPO deadline never fired")
		}
		if rep.Staleness.Max <= interval {
			t.Fatalf("staleness max %v <= interval; deferral never stretched a save", rep.Staleness.Max)
		}
		// The coordinator hands each host a two-Interval horizon, so a
		// deadline-forced save must land within RPO plus one slot.
		if limit := rpo + interval; rep.Staleness.Max > limit {
			t.Fatalf("staleness max %v blew the RPO ceiling %v", rep.Staleness.Max, limit)
		}
		if rep.Staleness.P95 < rep.Staleness.P50 || rep.Staleness.P50 <= 0 {
			t.Fatalf("staleness percentiles p50=%v p95=%v malformed", rep.Staleness.P50, rep.Staleness.P95)
		}
		if rep.TotalChunks < rep.NewChunks || rep.TotalChunks == 0 {
			t.Fatalf("chunk accounting new=%d total=%d malformed", rep.NewChunks, rep.TotalChunks)
		}
		for _, err := range c.SweepErrors() {
			t.Errorf("sweep error: %v", err)
		}
	})
}
