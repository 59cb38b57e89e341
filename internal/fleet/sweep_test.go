package fleet

import (
	"errors"
	"testing"
	"time"

	"nymix/internal/core"
	"nymix/internal/sim"
	"nymix/internal/vm"
)

// sweepDest is the per-member vault destination the sweep tests use.
func sweepDest(m *Member) core.VaultDest {
	return core.VaultDest{
		Providers:       []string{"dropbin"},
		Account:         "acct-" + m.Name(),
		AccountPassword: "cloud-pw",
	}
}

// TestSweepSkipsCleanFleetEntirely is the dirty-skip property: a
// sweep over a fleet in which no nym dirtied any pages uploads zero
// chunks and performs zero provider round trips — not a single login.
func TestSweepSkipsCleanFleetEntirely(t *testing.T) {
	eng, o := newFleet(t, 11, 16<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(6, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 6); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		if _, err := o.SaveSweep(p, "pw", sweepDest); err != nil {
			t.Errorf("cold sweep: %v", err)
			return
		}
		for _, m := range o.Members() {
			if m.Nym().StateDirty() {
				t.Errorf("%s dirty right after its cold checkpoint", m.Name())
			}
		}
		pr, err := o.Manager().Provider("dropbin")
		if err != nil {
			t.Error(err)
		}
		trips, uploads := pr.RoundTrips, pr.Uploads

		rec, err := o.SweepOnce(p, SweepConfig{Password: "pw", DestFor: sweepDest})
		if err != nil {
			t.Errorf("sweep: %v", err)
			return
		}
		if rec.Eligible != 6 || rec.Skipped != 6 || rec.Saves != 0 {
			t.Errorf("clean sweep: eligible=%d skipped=%d saves=%d, want 6/6/0",
				rec.Eligible, rec.Skipped, rec.Saves)
		}
		if rec.DirtySkipRatio() != 1.0 {
			t.Errorf("dirty-skip ratio = %v, want 1.0", rec.DirtySkipRatio())
		}
		if rec.WireBytes() != 0 {
			t.Errorf("clean sweep shipped %d wire bytes, want 0", rec.WireBytes())
		}
		if pr.RoundTrips != trips {
			t.Errorf("clean sweep made %d provider round trips, want 0", pr.RoundTrips-trips)
		}
		if pr.Uploads != uploads {
			t.Errorf("clean sweep uploaded %d blobs, want 0", pr.Uploads-uploads)
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
			return
		}
	})
}

// TestSweepSavesOnlyDirtyMembers: after one nym browses, a scheduled
// sweep saves exactly that nym, records its checkpoint, and leaves it
// clean for the next pass.
func TestSweepSavesOnlyDirtyMembers(t *testing.T) {
	eng, o := newFleet(t, 12, 16<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(4, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 4); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		if _, err := o.SaveSweep(p, "pw", sweepDest); err != nil {
			t.Errorf("cold sweep: %v", err)
			return
		}
		surfer := o.Members()[2]
		gen := surfer.Nym().CheckpointGen()
		if _, err := surfer.Nym().Visit(p, "twitter.com"); err != nil {
			t.Errorf("visit: %v", err)
			return
		}
		if !surfer.Nym().StateDirty() {
			t.Error("browsing left the nym clean")
		}
		rec, err := o.SweepOnce(p, SweepConfig{Password: "pw", DestFor: sweepDest})
		if err != nil {
			t.Errorf("sweep: %v", err)
			return
		}
		if rec.Saves != 1 || rec.Skipped != 3 {
			t.Errorf("sweep: saves=%d skipped=%d, want 1/3", rec.Saves, rec.Skipped)
		}
		if rec.UploadedBytes <= 0 {
			t.Error("dirty save shipped no bytes")
		}
		if surfer.Nym().StateDirty() {
			t.Error("nym still dirty after its sweep save")
		}
		if got := surfer.Nym().CheckpointGen(); got != gen+1 {
			t.Errorf("checkpoint generation = %d, want %d", got, gen+1)
		}
		if _, ok := surfer.Checkpoint(); !ok {
			t.Error("sweep save did not record the member checkpoint")
		}
		// A second pass over the now-clean fleet skips everyone.
		rec, err = o.SweepOnce(p, SweepConfig{Password: "pw", DestFor: sweepDest})
		if err != nil {
			t.Errorf("second sweep: %v", err)
			return
		}
		if rec.Saves != 0 || rec.Skipped != 4 {
			t.Errorf("second sweep: saves=%d skipped=%d, want 0/4", rec.Saves, rec.Skipped)
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
			return
		}
	})
}

// TestSweepSchedulerBacksOffUnderPressure: while launches queue for
// admission the scheduler skips its ticks with exponential backoff,
// and resumes sweeping once the pressure clears.
func TestSweepSchedulerBacksOffUnderPressure(t *testing.T) {
	// A 2 GiB host: the hypervisor holds ~715 MiB, so the 0.9
	// headroom budget admits two 400 MiB nymboxes and queues a third.
	eng, o := newFleet(t, 13, 2<<30, Config{})
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
		}); err != nil {
			t.Errorf("start sweeps: %v", err)
			return
		}
		// Queue a third member the budget cannot admit: admission
		// pressure from now on.
		extra := Spec{Name: "extra", Opts: smallOpts(core.ModelPersistent)}
		if _, err := o.Launch(extra); err != nil {
			t.Errorf("queue extra: %v", err)
			return
		}
		p.Sleep(35 * time.Second) // ticks at +10 and +30 both see pressure
		rep := o.SweepReport()
		if rep.Backoffs < 2 {
			t.Errorf("got %d backoffs under sustained pressure, want >= 2", rep.Backoffs)
		}
		if rep.Sweeps != 0 {
			t.Errorf("scheduler swept %d times under pressure, want 0", rep.Sweeps)
		}
		// Backed-off ticks must spread out: consecutive gaps double.
		recs := rep.Records
		if len(recs) >= 2 {
			g1 := recs[1].At - recs[0].At
			if g1 < 20*time.Second {
				t.Errorf("backoff gap %v, want >= 20s (doubled interval)", g1)
			}
		}
		// The backoff saturates rather than starves: with pressure still
		// standing, the tick after the delay hits its ceiling (4x the
		// 10s interval) sweeps anyway — the ceiling bounds staleness, it
		// is not a mute button. (The forced tick fires at +70s;
		// give its pass time to finish and record.)
		p.Sleep(85 * time.Second)
		if rep := o.SweepReport(); rep.Sweeps == 0 {
			t.Error("no forced sweep at the backoff ceiling under sustained pressure; checkpoints starved")
		}
		// Clear the pressure: stop a member so the queued launch admits.
		if err := o.Stop(p, o.Members()[0].Name()); err != nil {
			t.Errorf("stop: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await extra: %v", err)
			return
		}
		p.Sleep(90 * time.Second)
		rep = o.SweepReport()
		if rep.Sweeps == 0 {
			t.Error("scheduler never resumed after pressure cleared")
		}
		o.StopSweeps()
		o.AwaitSweepsIdle(p)
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop all: %v", err)
			return
		}
	})
}

// TestCheckpointNymWaitsForInFlightSweepSave: a migration-style
// CheckpointNym issued while the sweep scheduler is saving the same
// member waits for that save instead of double-checkpointing — the
// nymbox is never paused twice, and both checkpoints land in order.
func TestCheckpointNymWaitsForInFlightSweepSave(t *testing.T) {
	eng, o := newFleet(t, 14, 16<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(2, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		m := o.Members()[0]
		if _, err := m.Nym().Visit(p, "twitter.com"); err != nil {
			t.Errorf("visit: %v", err)
			return
		}
		gen := m.Nym().CheckpointGen()

		sweepDone := eng.Go("sweep", func(sp *sim.Proc) {
			if _, err := o.SweepOnce(sp, SweepConfig{Password: "pw", DestFor: sweepDest}); err != nil {
				t.Errorf("sweep: %v", err)
			}
		})
		// Let the sweep launch its save, then demand a checkpoint of the
		// same member mid-save.
		p.Sleep(100 * time.Millisecond)
		if m.saving == nil {
			t.Error("test setup: sweep save not in flight")
		}
		if _, err := o.CheckpointNym(p, m.Name(), "pw", sweepDest(m)); err != nil {
			t.Errorf("checkpoint during sweep save: %v", err)
			return
		}
		sim.Await(p, sweepDone)
		if got := m.Nym().CheckpointGen(); got != gen+2 {
			t.Errorf("checkpoint generation = %d, want %d (two serialized saves)", got, gen+2)
		}
		for _, err := range o.SweepErrors() {
			if errors.Is(err, vm.ErrBadState) {
				t.Errorf("sweep hit a lifecycle race: %v", err)
			}
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
			return
		}
	})
}

// Regression: SaveSweep did not count itself as an in-flight pass, so
// a scheduler tick that landed mid-SaveSweep started a second pass
// beside it, and AwaitSweepsIdle returned while SaveSweep was still
// saving.
func TestSaveSweepHoldsOffSchedulerAndAwaitIdle(t *testing.T) {
	const interval = 10 * time.Second
	eng, o := newFleet(t, 15, 16<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(6, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 6); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		if err := o.StartSweeps(SweepConfig{Interval: interval, Password: "pw", DestFor: sweepDest}); err != nil {
			t.Errorf("start sweeps: %v", err)
			return
		}
		start := p.Now()
		var idleAt sim.Time
		eng.Go("await-idle", func(ap *sim.Proc) {
			ap.Sleep(time.Second)
			o.AwaitSweepsIdle(ap)
			idleAt = ap.Now()
		})
		if _, err := o.SaveSweep(p, "pw", sweepDest); err != nil {
			t.Errorf("save sweep: %v", err)
			return
		}
		done := p.Now()
		if done-start <= interval {
			t.Errorf("test setup: SaveSweep took %v, want it to span the %v tick", done-start, interval)
		}
		if idleAt < done {
			t.Errorf("AwaitSweepsIdle returned at %v, before SaveSweep returned at %v", idleAt, done)
		}
		o.StopSweeps()
		o.AwaitSweepsIdle(p)
		for _, rec := range o.SweepReport().Records {
			if rec.At < done {
				t.Errorf("scheduled pass started at %v, before SaveSweep returned at %v", rec.At, done)
			}
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
}

// TestSaveSweepRecordStaysWithCaller is the report rule: a report
// covers exactly the passes it logs. SaveSweep's pass is not logged,
// so a cold save of dirty members leaves SweepReport empty, staleness
// included, and its samples live only on the record it returns — one
// per dirty save.
func TestSaveSweepRecordStaysWithCaller(t *testing.T) {
	eng, o := newFleet(t, 23, 16<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(4, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 4); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		dirty := 0
		for _, m := range o.Members() {
			if m.Nym().StateDirty() {
				dirty++
			}
		}
		if dirty == 0 {
			t.Error("no member dirty after boot; the cold save would sample nothing")
			return
		}
		rec, err := o.SaveSweep(p, "pw", sweepDest)
		if err != nil {
			t.Errorf("cold sweep: %v", err)
			return
		}
		if rec.Saves != 4 || len(rec.Stale) != dirty {
			t.Errorf("cold sweep: %d saves with %d staleness samples, want 4 with %d", rec.Saves, len(rec.Stale), dirty)
		}
		for i, s := range rec.Stale {
			if s < 0 {
				t.Errorf("sample %d: negative staleness %v", i, s)
			}
		}
		rep := o.SweepReport()
		if rep.Staleness != (Spread{}) || rep.Sweeps != 0 || rep.Saves != 0 || len(rep.Records) != 0 {
			t.Errorf("report after an unlogged SaveSweep: %d sweeps, %d saves, staleness %+v, %d records; want all zero",
				rep.Sweeps, rep.Saves, rep.Staleness, len(rep.Records))
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
}
