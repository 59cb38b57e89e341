package experiments

import (
	"fmt"
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/guestos"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// SweepMode is the telemetry of one steady-state sweep run — the
// scheduled (dirty-skipping) checkpoint daemon or the naive
// save-everything sweep on the identical workload.
type SweepMode struct {
	Mode           string // "scheduled" or "naive"
	Sweeps         int
	Backoffs       int
	Saves          int
	Skips          int
	Errors         int
	UploadMB       float64 // vault bytes shipped
	LoginMB        float64 // per-provider session setup wire
	WireMB         float64 // upload + login: total checkpoint wire
	DirtySkipRatio float64
	LatencyP50     time.Duration // per-sweep latency percentiles
	LatencyP95     time.Duration
}

// SweepSteady is the steady-state checkpoint-sweep experiment: an
// all-persistent fleet is ramped, cold-saved, and then lives through
// `rounds` sweep intervals of light, occasional browsing while the
// sweep scheduler checkpoints on its interval. The identical workload
// is run twice from the same seed — once with dirty-skip, once saving
// everything — and the wire bills are compared. WireFrac is the
// headline: what fraction of the naive save-everything wire the
// scheduled sweeps actually shipped.
type SweepSteady struct {
	Nyms       int
	Rounds     int
	Interval   time.Duration
	ColdSaveMB float64 // the initial full checkpoint (identical in both runs)
	Scheduled  SweepMode
	Naive      SweepMode
	WireFrac   float64 // Scheduled.WireMB / Naive.WireMB
}

// SweepInterval is the scheduler period the experiment models.
const SweepInterval = 30 * time.Second

// sweepBrowseNyms is how many nyms browse in a browse round.
const sweepBrowseNyms = 1

// sweepBrowseRound reports whether steady-state round r is a browse
// round: most intervals pass with no mutation at all (a checkpoint
// cadence of tens of seconds against a user who touches a page every
// few minutes), which is exactly the regime dirty-skip exists for.
func sweepBrowseRound(r int) bool { return r%4 == 2 }

// SweepSpecs builds the all-persistent, density-tuned fleet the sweep
// experiment (and the nymixctl demo) runs: every member's state is
// durable, so every member is eligible for every sweep.
func SweepSpecs(n int) []fleet.Spec {
	specs := make([]fleet.Spec, n)
	for i := range specs {
		name := fmt.Sprintf("sweep%03d", i)
		specs[i] = fleet.Spec{Name: name, Opts: core.Options{
			Model:     core.ModelPersistent,
			GuardSeed: name,
			AnonRAM:   96 * guestos.MiB,
			AnonDisk:  32 * guestos.MiB,
			CommRAM:   48 * guestos.MiB,
			CommDisk:  8 * guestos.MiB,
		}}
	}
	return specs
}

// SweepSteadyState runs the experiment at the given fleet size and
// steady-state round count (defaults 32 nyms, 8 rounds).
func SweepSteadyState(seed uint64, nyms, rounds int) (SweepSteady, error) {
	if nyms <= 0 {
		nyms = 32
	}
	if rounds <= 0 {
		rounds = 8
	}
	sched, coldMB, err := sweepRun(seed, nyms, rounds, fleet.CadenceDirty)
	if err != nil {
		return SweepSteady{}, fmt.Errorf("scheduled run: %w", err)
	}
	naive, _, err := sweepRun(seed, nyms, rounds, fleet.CadenceAll)
	if err != nil {
		return SweepSteady{}, fmt.Errorf("naive run: %w", err)
	}
	res := SweepSteady{
		Nyms:       nyms,
		Rounds:     rounds,
		Interval:   SweepInterval,
		ColdSaveMB: coldMB,
		Scheduled:  sched,
		Naive:      naive,
	}
	if naive.WireMB > 0 {
		res.WireFrac = sched.WireMB / naive.WireMB
	}
	return res, nil
}

// sweepRun executes one mode of the workload: ramp, cold save, then
// `rounds` sweep intervals with occasional browsing while the sweep
// scheduler runs under the given cadence.
func sweepRun(seed uint64, n, rounds int, cadence fleet.CadenceMode) (SweepMode, float64, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	mgr, err := core.NewManager(eng, world, FleetHostConfig())
	if err != nil {
		return SweepMode{}, 0, err
	}
	o := fleet.New(mgr, fleet.Config{Restart: fleet.DefaultRestartPolicy()})
	mode := SweepMode{Mode: "scheduled"}
	if cadence == fleet.CadenceAll {
		mode.Mode = "naive"
	}
	var coldMB float64
	err = eng.RunProc("sweep-steady", func(p *sim.Proc) error {
		if _, err := o.LaunchAll(SweepSpecs(n)); err != nil {
			return err
		}
		if err := o.AwaitRunning(p, n); err != nil {
			return err
		}
		cold, err := o.SaveSweep(p, "fleet-pw", FleetVaultDest)
		if err != nil {
			return err
		}
		coldMB = float64(cold.UploadedBytes) / float64(guestos.MiB)

		if err := o.StartSweeps(fleet.SweepConfig{
			Interval: SweepInterval,
			Password: "fleet-pw",
			DestFor:  FleetVaultDest,
			Cadence:  fleet.Cadence{Mode: cadence},
		}); err != nil {
			return err
		}
		members := o.Members()
		for r := 0; r < rounds; r++ {
			if sweepBrowseRound(r) {
				for k := 0; k < sweepBrowseNyms; k++ {
					m := members[(r*sweepBrowseNyms+k)%n]
					if m.Nym() == nil {
						continue
					}
					if _, err := m.Nym().Visit(p, "twitter.com"); err != nil {
						return err
					}
				}
			}
			p.Sleep(SweepInterval)
		}
		o.StopSweeps()
		o.AwaitSweepsIdle(p)
		return o.StopAll(p)
	})
	if err != nil {
		return mode, 0, err
	}
	rep := o.SweepReport()
	mode.Sweeps = rep.Sweeps
	mode.Backoffs = rep.Backoffs
	mode.Saves = rep.Saves
	mode.Skips = rep.Skipped
	mode.Errors = rep.Errors
	mode.UploadMB = float64(rep.UploadedBytes) / float64(guestos.MiB)
	mode.LoginMB = float64(rep.LoginBytes) / float64(guestos.MiB)
	mode.WireMB = float64(rep.WireBytes()) / float64(guestos.MiB)
	mode.DirtySkipRatio = rep.DirtySkipRatio()
	mode.LatencyP50 = rep.Latency.P50
	mode.LatencyP95 = rep.Latency.P95
	return mode, coldMB, nil
}

// RenderSweepSteadyState prints the experiment.
func RenderSweepSteadyState(res SweepSteady) string {
	var t table
	t.row(fmt.Sprintf("# Steady-state checkpoint sweeps: %d persistent nyms, %d rounds at %s",
		res.Nyms, res.Rounds, res.Interval))
	t.row(fmt.Sprintf("# cold full checkpoint: %.1f MB (identical in both runs)", res.ColdSaveMB))
	t.row("mode", "sweeps", "saves", "skips", "skip-ratio", "upload-MB", "login-MB", "wire-MB", "p50-s", "p95-s")
	for _, m := range []SweepMode{res.Scheduled, res.Naive} {
		t.row(m.Mode, fmt.Sprint(m.Sweeps), fmt.Sprint(m.Saves), fmt.Sprint(m.Skips),
			fmt.Sprintf("%.3f", m.DirtySkipRatio), f1(m.UploadMB), f1(m.LoginMB), f1(m.WireMB),
			f1(m.LatencyP50.Seconds()), f1(m.LatencyP95.Seconds()))
	}
	t.row(fmt.Sprintf("# scheduled sweeps shipped %.1f MB vs %.1f MB naive save-everything: %.1f%% of the naive wire",
		res.Scheduled.WireMB, res.Naive.WireMB, 100*res.WireFrac))
	return t.String()
}
