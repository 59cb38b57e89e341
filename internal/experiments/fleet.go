package experiments

import (
	"fmt"
	"time"

	"nymix/internal/core"
	"nymix/internal/cpusched"
	"nymix/internal/fleet"
	"nymix/internal/guestos"
	"nymix/internal/hypervisor"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// FleetSizes are the ramp targets of the fleet-scale experiment.
var FleetSizes = []int{16, 64, 256}

// FleetScale is one row of the fleet ramp experiment: a cold start of
// N concurrent nyms on one host, a fleet-wide cold checkpoint, a
// steady-state (delta) checkpoint after light browsing, and teardown.
type FleetScale struct {
	Nyms          int
	TimeToRunning time.Duration // ramp start -> all N Running
	SerialEst     time.Duration // N x the single-nym startup, for contrast
	ColdSaveMB    float64       // first sweep: full state of every persistent nym
	SteadySaveMB  float64       // second sweep: deltas only
	SaveBaseMB    float64       // monolithic re-upload cost of the second sweep
	PeakRAMGiB    float64       // host physical high-water mark
	RAMBudgetGiB  float64       // admissible reservation budget
	PeakCPUTasks  int           // cpusched concurrency high-water mark
	Restarts      int           // restart-policy activations (expect 0)
}

// FleetHostConfig is the production-profile box the fleet experiment
// models: a 64 GiB, 16-core server rather than the paper's 16 GiB
// desktop. The paper sized nymboxes for one user at a desk; a
// multi-user service packs hundreds per host.
func FleetHostConfig() hypervisor.Config {
	return hypervisor.Config{
		RAMBytes: 64 << 30,
		CPU:      cpusched.Config{Cores: 16, SMTFactor: 1.3},
	}
}

// FleetNymOptions is the density-tuned nymbox profile: a fleet host
// trades the paper's interactive-desktop sizing down so hundreds of
// nyms fit, keeping the CommVM/AnonVM split and per-nym models. Every
// fourth nym is persistent (with a seeded guard, section 3.5); the
// rest are ephemeral.
func FleetNymOptions(name string, i int) core.Options {
	opts := core.Options{
		AnonRAM:  96 * guestos.MiB,
		AnonDisk: 32 * guestos.MiB,
		CommRAM:  48 * guestos.MiB,
		CommDisk: 8 * guestos.MiB,
	}
	if i%4 == 0 {
		opts.Model = core.ModelPersistent
		opts.GuardSeed = name
	}
	return opts
}

// FleetSpecs builds the n-nym fleet the experiment (and the nymixctl
// demo) ramps, so the measured configuration exists in one place.
func FleetSpecs(n int) []fleet.Spec {
	specs := make([]fleet.Spec, n)
	for i := range specs {
		name := fmt.Sprintf("fleet%03d", i)
		specs[i] = fleet.Spec{Name: name, Opts: FleetNymOptions(name, i)}
	}
	return specs
}

// FleetRampUp measures fleet orchestration at each size in sizes
// (FleetSizes when empty): time to N running under RAM/CPU admission
// control, cold and steady-state staggered save sweeps, and host
// RAM/CPU high-water marks. Each size runs in a fresh world.
func FleetRampUp(seed uint64, sizes ...int) ([]FleetScale, error) {
	if len(sizes) == 0 {
		sizes = FleetSizes
	}
	var out []FleetScale
	for _, n := range sizes {
		row, err := fleetRampOne(seed+uint64(1000+n), n)
		if err != nil {
			return nil, fmt.Errorf("fleet ramp %d: %w", n, err)
		}
		out = append(out, row)
	}
	return out, nil
}

func fleetRampOne(seed uint64, n int) (FleetScale, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	mgr, err := core.NewManager(eng, world, FleetHostConfig())
	if err != nil {
		return FleetScale{}, err
	}
	o := fleet.New(mgr, fleet.Config{Restart: fleet.DefaultRestartPolicy()})
	destFor := FleetVaultDest
	row := FleetScale{Nyms: n}
	err = eng.RunProc("fleet-ramp", func(p *sim.Proc) error {
		// Single-nym baseline on the same world, for the serial
		// estimate the parallel ramp is judged against.
		probe, err := mgr.StartNym(p, "probe", FleetNymOptions("probe", 1))
		if err != nil {
			return err
		}
		single := probe.Phases().BootVM + probe.Phases().StartAnon
		if err := mgr.TerminateNym(p, probe); err != nil {
			return err
		}
		row.SerialEst = time.Duration(n) * single

		t0 := p.Now()
		if _, err := o.LaunchAll(FleetSpecs(n)); err != nil {
			return err
		}
		if err := o.AwaitRunning(p, n); err != nil {
			return err
		}
		row.TimeToRunning = p.Now() - t0

		cold, err := o.SaveSweep(p, "fleet-pw", destFor)
		if err != nil {
			return err
		}
		row.ColdSaveMB = float64(cold.UploadedBytes) / float64(guestos.MiB)

		// Light steady-state browsing: every eighth persistent nym
		// loads one page, dirtying a small slice of its state.
		for i, m := range o.Members() {
			if i%32 == 0 && m.Nym() != nil && m.Nym().Model() == core.ModelPersistent {
				if _, err := m.Nym().Visit(p, "twitter.com"); err != nil {
					return err
				}
			}
		}
		steady, err := o.SaveSweep(p, "fleet-pw", destFor)
		if err != nil {
			return err
		}
		row.SteadySaveMB = float64(steady.UploadedBytes) / float64(guestos.MiB)
		row.SaveBaseMB = float64(steady.BaselineBytes) / float64(guestos.MiB)

		return o.StopAll(p)
	})
	if err != nil {
		return FleetScale{}, err
	}
	row.PeakRAMGiB = float64(o.PeakRAMBytes()) / float64(1<<30)
	row.RAMBudgetGiB = float64(o.RAMBudgetBytes()) / float64(1<<30)
	row.PeakCPUTasks = mgr.Host().CPU().PeakRunning()
	for _, m := range o.Members() {
		row.Restarts += m.Restarts()
	}
	return row, nil
}

// RenderFleetRampUp prints the experiment.
func RenderFleetRampUp(rows []FleetScale) string {
	var t table
	t.row("# Fleet ramp: N concurrent nyms on one 64 GiB / 16-core host")
	t.row("nyms", "ramp-s", "serial-est-s", "cold-save-MB", "steady-MB", "mono-MB", "peakRAM-GiB", "budget-GiB", "peakCPU", "restarts")
	for _, r := range rows {
		t.row(fmt.Sprint(r.Nyms), f1(r.TimeToRunning.Seconds()), f0(r.SerialEst.Seconds()),
			f1(r.ColdSaveMB), f1(r.SteadySaveMB), f1(r.SaveBaseMB),
			f1(r.PeakRAMGiB), f1(r.RAMBudgetGiB),
			fmt.Sprint(r.PeakCPUTasks), fmt.Sprint(r.Restarts))
	}
	if len(rows) > 0 {
		last := rows[len(rows)-1]
		t.row(fmt.Sprintf("# %d nyms running in %.0fs (serial would take ~%.0fs); steady-state saves ship %.1f MB vs %.1f MB monolithic",
			last.Nyms, last.TimeToRunning.Seconds(), last.SerialEst.Seconds(),
			last.SteadySaveMB, last.SaveBaseMB))
	}
	return t.String()
}

// FleetVaultDest is the per-member vault destination the fleet
// experiment checkpoints to: one pseudonymous account per nym on one
// provider.
func FleetVaultDest(m *fleet.Member) core.VaultDest {
	return core.VaultDest{
		Providers:       []string{"dropbin"},
		Account:         "acct-" + m.Name(),
		AccountPassword: "cloud-pw",
	}
}
