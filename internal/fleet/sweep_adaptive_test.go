package fleet

import (
	"fmt"
	"testing"
	"time"

	"nymix/internal/core"
	"nymix/internal/sim"
)

// churnDisk rewrites one of four rotating files on the member's comm
// disk with round-varying content: n bytes of genuinely new data on
// the dirty ladder every call, so the member's disk byte-rate is
// n per call interval.
func churnDisk(t *testing.T, m *Member, round, n int) {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte((round + i) % 251)
	}
	path := fmt.Sprintf("/var/churn-%d", round%4)
	if err := m.Nym().CommVM().Disk().WriteFile(path, data); err != nil {
		t.Fatalf("churn %s: %v", m.Name(), err)
	}
}

// TestSweepReportAggregatesTotalChunks is the regression test for the
// aggregation bug where SweepReport dropped SweepRecord.TotalChunks:
// per-pass records carried the dedup denominator but the fleet-level
// report always read 0, so NewChunks/TotalChunks ratios computed from
// the report were meaningless.
func TestSweepReportAggregatesTotalChunks(t *testing.T) {
	eng, o := newFleet(t, 14, 16<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(3, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 3); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		if _, err := o.SaveSweep(p, "pw", sweepDest); err != nil {
			t.Errorf("cold sweep: %v", err)
			return
		}
		churnDisk(t, o.Members()[1], 0, 64<<10)
		rec, err := o.SweepOnce(p, SweepConfig{Password: "pw", DestFor: sweepDest})
		if err != nil {
			t.Errorf("sweep: %v", err)
			return
		}
		if rec.TotalChunks <= 0 {
			t.Fatalf("pass record TotalChunks = %d, want > 0", rec.TotalChunks)
		}
		rep := o.SweepReport()
		var want int
		for _, r := range rep.Records {
			want += r.TotalChunks
		}
		if want <= 0 {
			t.Fatalf("no record carried TotalChunks; records: %+v", rep.Records)
		}
		if rep.TotalChunks != want {
			t.Errorf("report TotalChunks = %d, want %d (sum over pass records)",
				rep.TotalChunks, want)
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
}

// TestAdaptiveCadenceDefersColdMembers: under Adaptive sweeps a
// high-churn member is saved every pass (its dirty delta crosses
// TargetDeltaBytes) while a trickle-dirty member is deferred pass
// after pass — until the RPO horizon forces its save. Staleness never
// exceeds the ceiling.
func TestAdaptiveCadenceDefersColdMembers(t *testing.T) {
	eng, o := newFleet(t, 15, 16<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(2, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		if _, err := o.SaveSweep(p, "pw", sweepDest); err != nil {
			t.Errorf("cold sweep: %v", err)
			return
		}
		hot, cold := o.Members()[0], o.Members()[1]
		coldGen := cold.Nym().CheckpointGen()
		cfg := SweepConfig{
			Password: "pw", DestFor: sweepDest,
			Interval:   10 * time.Second,
			NextPassIn: 10 * time.Second,
			Cadence:    Cadence{Mode: CadenceAdaptive, RPO: 80 * time.Second, TargetDeltaBytes: 64 << 10},
		}
		var saves, deferred int
		for round := 0; round < 8; round++ {
			// 128 KiB of fresh disk churn: over target, due every pass.
			churnDisk(t, hot, round, 128<<10)
			// One dirty RAM page: dirty, but zero disk rate.
			if err := cold.Nym().AnonVM().DirtyPages(1); err != nil {
				t.Errorf("dirty cold: %v", err)
				return
			}
			rec, err := o.SweepOnce(p, cfg)
			if err != nil {
				t.Errorf("round %d: %v", round, err)
				return
			}
			if rec.Saves < 1 {
				t.Errorf("round %d: hot member not saved (saves=%d)", round, rec.Saves)
			}
			saves += rec.Saves
			deferred += rec.Deferred
			p.Sleep(10 * time.Second)
		}
		// Hot saved all 8 rounds; cold exactly once (RPO-forced around
		// round 6) or twice with scheduling drift.
		if saves < 9 || saves > 10 {
			t.Errorf("total saves = %d, want 9 or 10 (hot every round, cold once)", saves)
		}
		gotCold := cold.Nym().CheckpointGen() - coldGen
		if gotCold < 1 || gotCold > 2 {
			t.Errorf("cold member saved %d times, want 1 or 2 (RPO-forced)", gotCold)
		}
		if deferred < 5 {
			t.Errorf("cold member deferred %d times, want >= 5", deferred)
		}
		rep := o.SweepReport()
		if rep.Deferred != deferred {
			t.Errorf("report Deferred = %d, want %d", rep.Deferred, deferred)
		}
		if rep.Staleness.Max <= 0 || rep.Staleness.Max > cfg.Cadence.RPO {
			t.Errorf("staleness max = %v, want in (0, %v]", rep.Staleness.Max, cfg.Cadence.RPO)
		}
		// The forced cold save must show real deferral: its staleness
		// spans several passes, not one.
		if rep.Staleness.Max < 40*time.Second {
			t.Errorf("staleness max = %v, want >= 40s (cold save was not deferred)",
				rep.Staleness.Max)
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
}

// TestAdaptiveCadenceHonorsRPOUnderPressure is the safety property:
// with sustained admission pressure backing the scheduler off to its
// saturated backoff cadence AND TargetDeltaBytes set far beyond reach (so
// only the RPO horizon can force a save), every member keeps getting
// checkpointed and no staleness sample ever exceeds the RPO ceiling.
func TestAdaptiveCadenceHonorsRPOUnderPressure(t *testing.T) {
	// 2 GiB host: admits two 400 MiB nymboxes, queues the third —
	// admission pressure for the whole run.
	eng, o := newFleet(t, 16, 2<<30, Config{})
	const rpo = 150 * time.Second
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(2, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		if err := o.StartSweeps(SweepConfig{
			Interval: 10 * time.Second, Password: "pw", DestFor: sweepDest,
			// An unreachable delta target: only the RPO forces saves.
			Cadence: Cadence{Mode: CadenceAdaptive, RPO: rpo, TargetDeltaBytes: 1 << 40},
		}); err != nil {
			t.Errorf("start sweeps: %v", err)
			return
		}
		running := o.Members()
		extra := Spec{Name: "extra", Opts: smallOpts(core.ModelPersistent)}
		if _, err := o.Launch(extra); err != nil {
			t.Errorf("queue extra: %v", err)
			return
		}
		// Sustained churn: every running member keeps mutating the
		// whole run (the queued extra has no VMs to dirty).
		for i := 0; i < 50; i++ {
			p.Sleep(10 * time.Second)
			for _, m := range running {
				churnDisk(t, m, i, 4<<10)
			}
		}
		o.StopSweeps()
		o.AwaitSweepsIdle(p)

		var samples []time.Duration
		for _, rec := range o.SweepRecords() {
			samples = append(samples, rec.Stale...)
		}
		if len(samples) < 4 {
			t.Fatalf("only %d staleness samples over 500s of pressured churn, want >= 4", len(samples))
		}
		for i, s := range samples {
			if s > rpo {
				t.Errorf("sample %d: staleness %v exceeds RPO %v", i, s, rpo)
			}
		}
		rep := o.SweepReport()
		if rep.Deferred < 2 {
			t.Errorf("Deferred = %d, want >= 2 (cadence never stretched)", rep.Deferred)
		}
		// Deferral must actually stretch cadence beyond the forced
		// backoff-ceiling tick gap — otherwise the RPO bound is vacuous.
		if rep.Staleness.P95 < 60*time.Second {
			t.Errorf("staleness p95 = %v, want >= 60s (saves every pass; nothing deferred)",
				rep.Staleness.P95)
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop all: %v", err)
		}
	})
}
