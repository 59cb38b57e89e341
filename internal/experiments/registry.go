package experiments

import "fmt"

// Size carries the -nyms, -hosts and -rounds sizing knobs. A zero field
// means the experiment's default; experiments that take no sizing
// ignore all three.
type Size struct{ Nyms, Hosts, Rounds int }

// Experiment is one evaluation result: Run regenerates it from a seed
// and returns the rendered text plus the structured result behind it
// (what nymbench -json records).
type Experiment struct {
	Name string
	Run  func(seed uint64, sz Size) (text string, result any, err error)
}

// Registry lists every experiment in the order `nymbench -run all`
// prints them. Building it runs nothing; each entry is a closure.
var Registry = []Experiment{
	{"fig3", seeded(Figure3, RenderFigure3)},
	{"fig4", seeded(Figure4, RenderFigure4)},
	{"fig5", seeded(Figure5, RenderFigure5)},
	{"fig6", seeded(Figure6, RenderFigure6)},
	{"fig7", seeded(Figure7, RenderFigure7)},
	{"table1", seeded(Table1, RenderTable1)},
	{"validation", seeded(Validation, RenderValidation)},
	{"ablations", ablations},
	{"vault", seeded(VaultIncremental, RenderVaultIncremental)},
	{"fleet", seeded(func(s uint64) ([]FleetScale, error) { return FleetRampUp(s) }, RenderFleetRampUp)},
	{"shards", sized(func(s uint64, z Size) ([]ShardScale, error) { return FleetShards(s, z.Nyms, z.Hosts) }, RenderFleetShards)},
	{"elastic", sized(func(s uint64, z Size) (*ElasticResult, error) { return Elastic(s, z.Nyms, z.Hosts) }, RenderElastic)},
	{"sweeps", sized(func(s uint64, z Size) (SweepSteady, error) { return SweepSteadyState(s, z.Nyms, z.Rounds) }, RenderSweepSteadyState)},
	{"economy", sized(economy, RenderEconomy)},
	{"partition", seeded(Partition, RenderPartition)},
	{"censorship", seeded(CensorshipDPI, RenderCensorshipDPI)},
	{"mixnet", seeded(MixnetFrontier, RenderMixnetFrontier)},
	{"summary", summary},
}

// sized adapts a generator and its renderer into an Experiment's Run.
func sized[R any](gen func(uint64, Size) (R, error), render func(R) string) func(uint64, Size) (string, any, error) {
	return func(seed uint64, sz Size) (string, any, error) {
		res, err := gen(seed, sz)
		if err != nil {
			return "", nil, err
		}
		return render(res), res, nil
	}
}

// seeded is sized for a generator that takes no sizing.
func seeded[R any](gen func(uint64) (R, error), render func(R) string) func(uint64, Size) (string, any, error) {
	return sized(func(seed uint64, _ Size) (R, error) { return gen(seed) }, render)
}

// economy is also the gate: adaptive cadence must strictly beat
// fixed-interval on total wire with staleness p95 no worse, or the
// run itself fails.
func economy(seed uint64, sz Size) (*EconomyResult, error) {
	res, err := Economy(seed, sz.Nyms, sz.Hosts, sz.Rounds)
	if err != nil {
		return nil, err
	}
	return res, res.Gate()
}

// ablations runs the four design ablations and renders them as one
// report.
func ablations(seed uint64, _ Size) (string, any, error) {
	exposure := AblationGuardExposure(seed, 0.05)
	out := RenderGuardExposure(exposure, 0.05)
	stains, err := AblationStaining(seed)
	if err != nil {
		return "", nil, err
	}
	out += "\n" + RenderStaining(stains)
	linkage, err := AblationLinkage(seed)
	if err != nil {
		return "", nil, err
	}
	out += "\n" + RenderLinkage(linkage)
	buddies := AblationBuddies(seed, 4, 12)
	out += "\n" + RenderBuddies(buddies, 4)
	return out, map[string]any{
		"guard_exposure": exposure,
		"staining":       stains,
		"linkage":        linkage,
		"buddies":        buddies,
	}, nil
}

// summary reproduces the abstract's headline numbers from the
// underlying experiments.
func summary(seed uint64, _ Size) (string, any, error) {
	f3, err := Figure3(seed)
	if err != nil {
		return "", nil, err
	}
	slope := (f3[len(f3)-1].UsedAfterMB - f3[0].UsedAfterMB) / float64(len(f3)-1)
	f7, err := Figure7(seed)
	if err != nil {
		return "", nil, err
	}
	var freshTotal float64
	for _, r := range f7 {
		if r.Config == "fresh" {
			freshTotal = r.Total().Seconds()
		}
	}
	res := struct {
		PerNymboxMemoryMB float64 `json:"per_nymbox_memory_mb"`
		FreshLoadSeconds  float64 `json:"fresh_load_seconds"`
	}{slope, freshTotal}
	return fmt.Sprintf(
		"# Abstract claims\nper-nymbox memory: %.0f MB (paper: ~600 MB)\nfresh nymbox load: %.1f s (paper: 15-25 s)\n",
		slope, freshTotal), res, nil
}
