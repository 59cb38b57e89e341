package fleet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nymix/internal/core"
	"nymix/internal/cpusched"
	"nymix/internal/guestos"
	"nymix/internal/hypervisor"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// smallOpts is a compact nym sizing for admission tests: 400 MiB
// footprint per nymbox.
func smallOpts(model core.UsageModel) core.Options {
	return core.Options{
		Model:    model,
		AnonRAM:  256 * guestos.MiB,
		AnonDisk: 64 * guestos.MiB,
		CommRAM:  64 * guestos.MiB,
		CommDisk: 16 * guestos.MiB,
	}
}

// newFleet builds a manager on a host with the given RAM and an
// orchestrator over it.
func newFleet(t *testing.T, seed uint64, hostRAM int64, cfg Config) (*sim.Engine, *Orchestrator) {
	t.Helper()
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	mgr, err := core.NewManager(eng, world, hypervisor.Config{
		RAMBytes: hostRAM,
		CPU:      cpusched.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, New(mgr, cfg)
}

func run(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	eng.Go("test", fn)
	eng.Run()
}

func specs(n int, model core.UsageModel) []Spec {
	out := make([]Spec, n)
	for i := range out {
		out[i] = Spec{Name: fmt.Sprintf("nym%02d", i), Opts: smallOpts(model)}
	}
	return out
}

func TestParallelRampOverlapsStartups(t *testing.T) {
	// Serial baseline: start 4 nyms one after the other.
	engSerial := sim.NewEngine(7)
	_, world := webworld.BuildDefault(engSerial)
	mgr, err := core.NewManager(engSerial, world, hypervisor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var serial time.Duration
	engSerial.Go("serial", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if _, err := mgr.StartNym(p, fmt.Sprintf("nym%02d", i), smallOpts(core.ModelEphemeral)); err != nil {
				t.Errorf("serial start: %v", err)
			}
		}
		serial = p.Now()
	})
	engSerial.Run()

	// Fleet ramp of the same 4 nyms on an identical world.
	eng, o := newFleet(t, 7, 16<<30, Config{})
	var parallel time.Duration
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(4, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 4); err != nil {
			t.Errorf("await: %v", err)
		}
		parallel = p.Now()
	})
	if o.Running() != 4 {
		t.Fatalf("running = %d", o.Running())
	}
	if parallel >= serial {
		t.Fatalf("parallel ramp %v not faster than serial %v", parallel, serial)
	}
}

func TestAdmissionQueuesWhenOversubscribed(t *testing.T) {
	// A 2 GiB host: the hypervisor holds ~715 MiB, so the 0.9 headroom
	// budget admits two 400 MiB nymboxes and queues the rest.
	eng, o := newFleet(t, 11, 2<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(4, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await 2: %v", err)
		}
		if got := o.QueuedLaunches(); got != 2 {
			t.Errorf("queued = %d, want 2", got)
		}
		if o.Running() != 2 {
			t.Errorf("running = %d, want 2", o.Running())
		}
		// Stopping the admitted pair releases RAM; the queued pair must
		// then be admitted and come up without any new Launch call.
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await queued pair: %v", err)
		}
	})
	if got := o.CountState(StateStopped); got != 2 {
		t.Fatalf("stopped = %d, want 2", got)
	}
	if got := o.Running(); got != 2 {
		t.Fatalf("running after drain = %d, want 2", got)
	}
	// No member ever failed: oversubscription queues, it does not error.
	if got := o.CountState(StateFailed); got != 0 {
		t.Fatalf("failed = %d", got)
	}
}

func TestAdmissionRejectsImpossibleFootprint(t *testing.T) {
	eng, o := newFleet(t, 13, 2<<30, Config{})
	opts := smallOpts(core.ModelEphemeral)
	opts.AnonRAM = 8 << 30 // can never fit a 2 GiB host
	var launchErr error
	run(t, eng, func(p *sim.Proc) {
		_, launchErr = o.Launch(Spec{Name: "whale", Opts: opts})
		// A normal nym launched afterwards is unaffected.
		if _, err := o.Launch(Spec{Name: "minnow", Opts: smallOpts(core.ModelEphemeral)}); err != nil {
			t.Errorf("minnow: %v", err)
		}
		if err := o.AwaitRunning(p, 1); err != nil {
			t.Errorf("await: %v", err)
		}
	})
	if !errors.Is(launchErr, ErrNeverAdmissible) {
		t.Fatalf("launch err = %v, want ErrNeverAdmissible", launchErr)
	}
	if got := o.Member("whale").State(); got != StateFailed {
		t.Fatalf("whale state = %v", got)
	}
	if got := o.Member("minnow").State(); got != StateRunning {
		t.Fatalf("minnow state = %v", got)
	}
}

func TestRestartPolicyRevivesInjectedFailure(t *testing.T) {
	eng, o := newFleet(t, 17, 16<<30, Config{
		Restart: RestartPolicy{MaxRestarts: 2, Backoff: time.Second},
	})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(3, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 3); err != nil {
			t.Errorf("await: %v", err)
		}
		victim := o.Members()[1]
		// First crash: the member must come back on its own.
		if err := o.FailNym(p, victim.Name(), nil); err != nil {
			t.Errorf("fail: %v", err)
		}
		if victim.State() == StateRunning {
			t.Error("victim still running immediately after crash")
		}
		if err := o.AwaitRunning(p, 3); err != nil {
			t.Errorf("await revival: %v", err)
		}
		if victim.Restarts() != 1 {
			t.Errorf("restarts = %d, want 1", victim.Restarts())
		}
		// The other members never flinched.
		for _, m := range o.Members() {
			if m != victim && m.State() != StateRunning {
				t.Errorf("%s disturbed: %v", m.Name(), m.State())
			}
		}
		// Burn the rest of the budget: two more crashes exhaust it.
		for i := 0; i < 2; i++ {
			if err := o.FailNym(p, victim.Name(), nil); err != nil {
				t.Errorf("fail %d: %v", i, err)
			}
			o.AwaitSettled(p)
		}
	})
	victim := o.Members()[1]
	if victim.State() != StateFailed {
		t.Fatalf("victim state = %v, want failed after budget exhausted", victim.State())
	}
	if victim.Restarts() != 2 {
		t.Fatalf("restarts = %d, want 2", victim.Restarts())
	}
	if o.Running() != 2 {
		t.Fatalf("running = %d, want 2 survivors", o.Running())
	}
	// The failed nymbox leaked nothing: only the survivors' VM pairs
	// remain on the host.
	if got := o.Manager().Host().VMCount(); got != 4 {
		t.Fatalf("host VMs = %d, want 4", got)
	}
	// All three injected crashes are in the failure log, and every
	// record classifies to a registered code.
	recs := o.Failures()
	if len(recs) != 3 {
		t.Fatalf("failure log has %d records, want 3 injected crashes: %+v", len(recs), recs)
	}
	for _, rec := range recs {
		if rec.Code != CodeCrashInjected {
			t.Fatalf("record classified %q, want %s: %v", rec.Code, CodeCrashInjected, rec.Err)
		}
		if !nymerr.Registered(rec.Code) {
			t.Fatalf("code %q not in the registry", rec.Code)
		}
		if rec.Member != victim.Name() {
			t.Fatalf("record for %q, want %q", rec.Member, victim.Name())
		}
	}
}

func TestRestartPolicyRetriesFailedStart(t *testing.T) {
	// Tamper the base image so every launch fails integrity
	// verification; the supervisor must retry per policy and then mark
	// the member failed — without hanging the ramp.
	eng, o := newFleet(t, 19, 16<<30, Config{
		Restart: RestartPolicy{MaxRestarts: 2, Backoff: time.Second},
	})
	tampered := o.Manager().Host().BaseImage().Clone()
	tfs, err := unionfs.Stack(tampered)
	if err != nil {
		t.Fatal(err)
	}
	tfs.WriteFile("/usr/bin/keylogger", []byte("evil"))
	o.Manager().Host().ReplaceBaseImage(tampered.Seal())
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.Launch(Spec{Name: "doomed", Opts: smallOpts(core.ModelEphemeral)}); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 1); err == nil {
			t.Error("AwaitRunning succeeded against a tampered host")
		}
	})
	m := o.Member("doomed")
	if m.State() != StateFailed {
		t.Fatalf("state = %v", m.State())
	}
	if m.Restarts() != 2 {
		t.Fatalf("restarts = %d, want full budget", m.Restarts())
	}
	if !errors.Is(m.LastErr(), core.ErrHostTampered) {
		t.Fatalf("lastErr = %v", m.LastErr())
	}
	// Failed launches release their reservation.
	if o.ReservedBytes() != 0 {
		t.Fatalf("reserved = %d after total failure", o.ReservedBytes())
	}
}

func TestSaveSweepStaggersAndDeduplicates(t *testing.T) {
	eng, o := newFleet(t, 23, 16<<30, Config{})
	destFor := func(m *Member) core.VaultDest {
		return core.VaultDest{
			Providers:       []string{"dropbin"},
			Account:         "fleet-" + m.Name(),
			AccountPassword: "cpw",
		}
	}
	var first, second SweepStats
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(3, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 3); err != nil {
			t.Errorf("await: %v", err)
		}
		var err error
		first, err = o.SaveSweep(p, "pw", destFor)
		if err != nil {
			t.Errorf("first sweep: %v", err)
		}
		second, err = o.SaveSweep(p, "pw", destFor)
		if err != nil {
			t.Errorf("second sweep: %v", err)
		}
	})
	if first.Saves != 3 || second.Saves != 3 {
		t.Fatalf("saves = %d/%d, want 3/3", first.Saves, second.Saves)
	}
	if first.UploadedBytes <= 0 {
		t.Fatal("first sweep uploaded nothing")
	}
	// Nothing changed between sweeps, so the second is pure dedup: a
	// small fraction of the first (manifest and framing only).
	if second.UploadedBytes*5 > first.UploadedBytes {
		t.Fatalf("steady-state sweep %d bytes vs cold %d: dedup not engaged",
			second.UploadedBytes, first.UploadedBytes)
	}
	// Launches were spaced: three saves, two stagger gaps minimum.
	if first.Elapsed < 2*saveStagger {
		t.Fatalf("sweep elapsed %v, want >= %v of stagger", first.Elapsed, 2*saveStagger)
	}
}

func TestSaveSweepSkipsEphemeralMembers(t *testing.T) {
	eng, o := newFleet(t, 29, 16<<30, Config{})
	destFor := func(m *Member) core.VaultDest {
		return core.VaultDest{Providers: []string{"dropbin"}, Account: "a", AccountPassword: "p"}
	}
	var st SweepStats
	run(t, eng, func(p *sim.Proc) {
		sp := specs(3, core.ModelEphemeral)
		sp[1].Opts.Model = core.ModelPersistent
		if _, err := o.LaunchAll(sp); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 3); err != nil {
			t.Errorf("await: %v", err)
		}
		var err error
		st, err = o.SaveSweep(p, "pw", destFor)
		if err != nil {
			t.Errorf("sweep: %v", err)
		}
	})
	if st.Saves != 1 {
		t.Fatalf("saves = %d, want only the persistent member", st.Saves)
	}
}

func TestKSMDaemonKeepsRampUnderCapacity(t *testing.T) {
	// Ten 400 MiB nymboxes on a 6 GiB host: requested RAM (4000 MiB)
	// plus the hypervisor fits only because the merge daemon folds
	// shared base-image pages while the ramp is in flight.
	eng, o := newFleet(t, 31, 6<<30, Config{})
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(10, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 10); err != nil {
			t.Errorf("await: %v", err)
		}
	})
	if o.Running() != 10 {
		t.Fatalf("running = %d", o.Running())
	}
	if o.PeakRAMBytes() > 6<<30 {
		t.Fatalf("peak RAM %d exceeded host capacity", o.PeakRAMBytes())
	}
	if o.PeakRAMBytes() == 0 {
		t.Fatal("peak RAM never sampled")
	}
}

func TestRampIsDeterministic(t *testing.T) {
	ramp := func() (time.Duration, int64) {
		eng, o := newFleet(t, 37, 8<<30, Config{})
		var done time.Duration
		run(t, eng, func(p *sim.Proc) {
			o.LaunchAll(specs(6, core.ModelEphemeral))
			if err := o.AwaitRunning(p, 6); err != nil {
				t.Errorf("await: %v", err)
			}
			done = p.Now()
		})
		return done, o.PeakRAMBytes()
	}
	d1, ram1 := ramp()
	d2, ram2 := ramp()
	if d1 != d2 || ram1 != ram2 {
		t.Fatalf("ramp not reproducible: %v/%d vs %v/%d", d1, ram1, d2, ram2)
	}
}

// Regression: a member crashing while a save sweep is parked in its
// stagger sleep or gate wait must be skipped, not dereferenced — the
// sweep used to check the member only at loop entry and then yield
// before using its nym.
func TestSaveSweepSurvivesMidSweepCrash(t *testing.T) {
	eng, o := newFleet(t, 41, 16<<30, Config{Restart: RestartPolicy{MaxRestarts: 0}})
	destFor := func(m *Member) core.VaultDest {
		return core.VaultDest{Providers: []string{"dropbin"}, Account: "a-" + m.Name(), AccountPassword: "p"}
	}
	var st SweepStats
	var sweepErr error
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(4, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 4); err != nil {
			t.Errorf("await: %v", err)
		}
		sweepDone := eng.Go("sweep", func(sp *sim.Proc) {
			st, sweepErr = o.SaveSweep(sp, "pw", destFor)
		})
		// The sweep has launched nym00's save and is parked in the
		// stagger ahead of nym01's; crash nym01 inside that first gap.
		p.Sleep(saveStagger / 2)
		if err := o.FailNym(p, "nym01", nil); err != nil {
			t.Errorf("fail: %v", err)
		}
		sim.Await(p, sweepDone)
	})
	if sweepErr != nil {
		t.Fatalf("sweep: %v", sweepErr)
	}
	if st.Saves != 3 {
		t.Fatalf("saves = %d, want the 3 surviving members", st.Saves)
	}
	if st.Busy != 1 {
		t.Fatalf("busy = %d, want the crashed member counted once", st.Busy)
	}
	if got := o.Member("nym01").State(); got != StateFailed {
		t.Fatalf("crashed member state = %v", got)
	}
	// The crash-under-sweep interleaving left nothing unclassified.
	for _, rec := range o.Failures() {
		if nymerr.Classify(rec.Err) == "" {
			t.Fatalf("unclassified failure (member %s, op %s): %v", rec.Member, rec.Op, rec.Err)
		}
	}
}

// Regression: a fleet whose queued launches can never be admitted
// (nothing will free the RAM they wait for) must leave the engine
// drainable — the KSM daemon used to re-arm itself forever and
// Engine.Run never returned. An infeasible AwaitRunning target is a
// clean error, not an eternal park.
func TestStarvedQueueDoesNotLivelockEngine(t *testing.T) {
	eng, o := newFleet(t, 43, 2<<30, Config{})
	var infeasibleErr error
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(4, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await feasible: %v", err)
		}
		// The budget holds two 400 MiB nymboxes; four at once is
		// impossible and must be reported, not waited for.
		infeasibleErr = o.AwaitRunning(p, 4)
		// Return with two members queued forever: the engine must still
		// drain or this test times out the whole suite.
	})
	if infeasibleErr == nil {
		t.Fatal("AwaitRunning(4) on a 2-nym budget returned nil")
	}
	if o.Running() != 2 || o.QueuedLaunches() != 2 {
		t.Fatalf("running=%d queued=%d, want 2/2", o.Running(), o.QueuedLaunches())
	}
}

// Regression: FailNym transitions the member before the teardown
// yields, so a concurrent second FailNym (or sweep) cannot act on the
// half-destroyed nymbox and double-release its reservation.
func TestConcurrentFailNymResolvesToOneCrash(t *testing.T) {
	eng, o := newFleet(t, 47, 16<<30, Config{
		Restart: RestartPolicy{MaxRestarts: 3, Backoff: time.Second},
	})
	var err1, err2 error
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(2, core.ModelEphemeral)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await: %v", err)
		}
		d1 := eng.Go("crash1", func(cp *sim.Proc) { err1 = o.FailNym(cp, "nym00", nil) })
		d2 := eng.Go("crash2", func(cp *sim.Proc) { err2 = o.FailNym(cp, "nym00", nil) })
		sim.Await(p, d1)
		sim.Await(p, d2)
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await revival: %v", err)
		}
	})
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("want exactly one crash winner: err1=%v err2=%v", err1, err2)
	}
	lost := err1
	if lost == nil {
		lost = err2
	}
	if !errors.Is(lost, ErrNotRunning) {
		t.Fatalf("loser = %v, want ErrNotRunning", lost)
	}
	m := o.Member("nym00")
	if m.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1 (no double-counting)", m.Restarts())
	}
	// Reservation accounting survived: both members hold exactly one
	// footprint each.
	if got := o.ReservedBytes(); got != 2*m.Footprint() {
		t.Fatalf("reserved = %d, want %d", got, 2*m.Footprint())
	}
}

// Regression: a restarted persistent member restores its last vault
// checkpoint instead of booting blank — a crash must not cost a
// persistent nym its durable state (nor let the next sweep overwrite
// the checkpoint with empty state).
func TestRestartRestoresPersistentCheckpoint(t *testing.T) {
	eng, o := newFleet(t, 53, 16<<30, Config{
		Restart: RestartPolicy{MaxRestarts: 2, Backoff: time.Second},
	})
	destFor := func(m *Member) core.VaultDest {
		return core.VaultDest{Providers: []string{"dropbin"}, Account: "cp-" + m.Name(), AccountPassword: "p"}
	}
	var resweep SweepStats
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(1, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
		}
		if err := o.AwaitRunning(p, 1); err != nil {
			t.Errorf("await: %v", err)
		}
		if _, err := o.SaveSweep(p, "pw", destFor); err != nil {
			t.Errorf("sweep: %v", err)
		}
		if err := o.FailNym(p, "nym00", nil); err != nil {
			t.Errorf("fail: %v", err)
		}
		if err := o.AwaitRunning(p, 1); err != nil {
			t.Errorf("await revival: %v", err)
		}
		m := o.Member("nym00")
		// A restored nym carries its save cycles; a blank boot has none.
		if m.Nym() == nil || m.Nym().Cycles() == 0 {
			t.Error("revived member booted blank instead of restoring its checkpoint")
		}
		var err error
		resweep, err = o.SaveSweep(p, "pw", destFor)
		if err != nil {
			t.Errorf("re-sweep: %v", err)
		}
	})
	// The post-revival sweep is a delta of unchanged state, proving the
	// checkpoint's content survived the crash round trip.
	if resweep.Saves != 1 || resweep.NewChunks > resweep.TotalChunks/4 {
		t.Fatalf("post-revival sweep = %+v: checkpoint content did not survive", resweep)
	}
}

// Page-load render/JS now runs through cpusched instead of being
// free: an identical fleet browsing workload on an identical network
// must slow down when the chip shrinks, because concurrent renders
// contend for cores. The uplink is raised to 1 Gbit/s so the network
// leg is constant and tiny; only the chip differs between the runs.
func TestFleetBrowsingContendsOnChip(t *testing.T) {
	browse := func(cores int) (time.Duration, int) {
		eng := sim.NewEngine(61)
		_, world := webworld.BuildDefault(eng)
		fast := vnet.LinkConfig{Latency: time.Millisecond, Capacity: 1e9 / 8}
		mgr, err := core.NewManagerWith(eng, world, hypervisor.Config{
			RAMBytes: 16 << 30,
			CPU:      cpusched.Config{Cores: cores, SMTFactor: 1.3},
		}, core.ManagerConfig{Uplink: &fast})
		if err != nil {
			t.Fatal(err)
		}
		o := New(mgr, Config{})
		var elapsed time.Duration
		run(t, eng, func(p *sim.Proc) {
			if _, err := o.LaunchAll(specs(8, core.ModelEphemeral)); err != nil {
				t.Errorf("launch: %v", err)
			}
			if err := o.AwaitRunning(p, 8); err != nil {
				t.Errorf("await: %v", err)
				return
			}
			// All eight browsers load a page at the same instant.
			start := p.Now()
			var futs []*sim.Future[struct{}]
			for _, m := range o.Members() {
				nym := m.Nym()
				futs = append(futs, eng.Go("visit-"+m.Name(), func(vp *sim.Proc) {
					if _, err := nym.Visit(vp, "youtube.com"); err != nil {
						t.Errorf("visit: %v", err)
					}
				}))
			}
			for _, f := range futs {
				sim.Await(p, f)
			}
			elapsed = p.Now() - start
		})
		return elapsed, mgr.Host().CPU().PeakRunning()
	}
	narrow, narrowPeak := browse(1)
	wide, widePeak := browse(16)
	if narrowPeak < 8 || widePeak < 8 {
		t.Fatalf("render tasks never reached the chip: peaks %d/%d", narrowPeak, widePeak)
	}
	// Eight renders on one core serialize; on sixteen cores they run
	// wide open and hide behind the network. The page-load gap — well
	// over a simulated second on ~0.5 core-seconds of render per page —
	// is chip contention, since the two runs share every network
	// parameter and differ only in cores.
	if narrow < wide+time.Second {
		t.Fatalf("8-way browsing on 1 core took %v vs %v on 16 cores: renders not contending", narrow, wide)
	}
}

// Regression: smallest-first packing says two of these three nyms can
// run together, but FIFO admission parks the small one behind a big
// one that never fits — AwaitRunning must report the stall instead of
// parking its caller forever while the engine drains.
func TestAwaitRunningDetectsFIFOStall(t *testing.T) {
	eng, o := newFleet(t, 59, 2<<30, Config{})
	big := core.Options{
		AnonRAM:  980 * guestos.MiB,
		AnonDisk: 64 * guestos.MiB,
		CommRAM:  64 * guestos.MiB,
		CommDisk: 16 * guestos.MiB,
	}
	var awaitErr error
	run(t, eng, func(p *sim.Proc) {
		for _, name := range []string{"big1", "big2"} {
			if _, err := o.Launch(Spec{Name: name, Opts: big}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if _, err := o.Launch(Spec{Name: "small", Opts: smallOpts(core.ModelEphemeral)}); err != nil {
			t.Errorf("small: %v", err)
		}
		awaitErr = o.AwaitRunning(p, 2)
	})
	if awaitErr == nil {
		t.Fatal("AwaitRunning parked on a stalled FIFO queue without error")
	}
	if o.Running() != 1 {
		t.Fatalf("running = %d, want only big1", o.Running())
	}
	if o.QueuedLaunches() != 2 {
		t.Fatalf("queued = %d, want big2+small", o.QueuedLaunches())
	}
}
