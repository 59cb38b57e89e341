// Command nymbench regenerates every table and figure from the
// paper's evaluation (section 5), plus the section 5.1 validation and
// the design ablations.
//
// Usage:
//
//	nymbench [-seed N] [-run all|fig3|fig4|fig5|fig6|fig7|table1|validation|ablations|vault|fleet|shards|elastic|sweeps|partition|censorship|mixnet|economy|summary]
//	         [-nyms N] [-hosts N]   # shards sizing (default 1024 over 4); elastic sizing (default 96 over 2)
//	         [-rounds N]            # sweeps: steady-state rounds (default 8); -nyms sizes the sweep fleet (default 32)
//	                                # economy: churn rounds (default 16); -nyms/-hosts size the pool (default 1024 over 4)
//	         [-json]                # also write BENCH_<run>.json (sim-time results + wall-clock and allocs)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"nymix/internal/experiments"
)

// benchResult is one experiment's machine-readable record: the
// structured sim-time results the renderer prints, plus the real
// wall-clock and allocation cost of producing them. Sim-time results
// are deterministic per seed; wall_ms/allocs are the trajectory the
// bench file exists to track across revisions.
type benchResult struct {
	Name       string  `json:"name"`
	Seed       uint64  `json:"seed"`
	WallMS     float64 `json:"wall_ms"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Result     any     `json:"result"`
}

// benchFile is the top-level BENCH_<run>.json document.
type benchFile struct {
	Run       string        `json:"run"`
	Seed      uint64        `json:"seed"`
	GoVersion string        `json:"go_version"`
	Results   []benchResult `json:"results"`
}

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	run := flag.String("run", "all", "experiment to run: all, fig3, fig4, fig5, fig6, fig7, table1, validation, ablations, vault, fleet, shards, elastic, sweeps, partition, censorship, mixnet, economy, summary")
	nyms := flag.Int("nyms", 0, "shards: fleet size (0 = 1024); elastic: burst size (0 = 96); sweeps: fleet size (0 = 32)")
	hosts := flag.Int("hosts", 0, "shards: pool size (0 = 4); elastic: initial pool (0 = 2)")
	rounds := flag.Int("rounds", 0, "sweeps: steady-state rounds (0 = 8)")
	emitJSON := flag.Bool("json", false, "write BENCH_<run>.json next to the text output")
	flag.Parse()

	// Each runner returns the rendered text and the structured rows
	// behind it; the JSON emitter serialises the latter verbatim.
	runners := map[string]func(uint64) (string, any, error){
		"fig3": func(s uint64) (string, any, error) {
			rows, err := experiments.Figure3(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderFigure3(rows), rows, nil
		},
		"fig4": func(s uint64) (string, any, error) {
			rows, err := experiments.Figure4(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderFigure4(rows), rows, nil
		},
		"fig5": func(s uint64) (string, any, error) {
			rows, err := experiments.Figure5(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderFigure5(rows), rows, nil
		},
		"fig6": func(s uint64) (string, any, error) {
			series, err := experiments.Figure6(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderFigure6(series), series, nil
		},
		"fig7": func(s uint64) (string, any, error) {
			rows, err := experiments.Figure7(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderFigure7(rows), rows, nil
		},
		"table1": func(s uint64) (string, any, error) {
			rows, err := experiments.Table1(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderTable1(rows), rows, nil
		},
		"validation": func(s uint64) (string, any, error) {
			report, err := experiments.Validation(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderValidation(report), report, nil
		},
		"ablations": func(s uint64) (string, any, error) {
			exposure := experiments.AblationGuardExposure(s, 0.05)
			out := experiments.RenderGuardExposure(exposure, 0.05)
			stains, err := experiments.AblationStaining(s)
			if err != nil {
				return "", nil, err
			}
			out += "\n" + experiments.RenderStaining(stains)
			linkage, err := experiments.AblationLinkage(s)
			if err != nil {
				return "", nil, err
			}
			out += "\n" + experiments.RenderLinkage(linkage)
			buddies := experiments.AblationBuddies(s, 4, 12)
			out += "\n" + experiments.RenderBuddies(buddies, 4)
			return out, map[string]any{
				"guard_exposure": exposure,
				"staining":       stains,
				"linkage":        linkage,
				"buddies":        buddies,
			}, nil
		},
		"vault": func(s uint64) (string, any, error) {
			rows, err := experiments.VaultIncremental(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderVaultIncremental(rows), rows, nil
		},
		"fleet": func(s uint64) (string, any, error) {
			rows, err := experiments.FleetRampUp(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderFleetRampUp(rows), rows, nil
		},
		"shards": func(s uint64) (string, any, error) {
			rows, err := experiments.FleetShards(s, *nyms, *hosts)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderFleetShards(rows), rows, nil
		},
		"elastic": func(s uint64) (string, any, error) {
			res, err := experiments.Elastic(s, *nyms, *hosts)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderElastic(res), res, nil
		},
		"sweeps": func(s uint64) (string, any, error) {
			res, err := experiments.SweepSteadyState(s, *nyms, *rounds)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderSweepSteadyState(res), res, nil
		},
		"partition": func(s uint64) (string, any, error) {
			res, err := experiments.Partition(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderPartition(res), res, nil
		},
		"censorship": func(s uint64) (string, any, error) {
			res, err := experiments.CensorshipDPI(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderCensorshipDPI(res), res, nil
		},
		"economy": func(s uint64) (string, any, error) {
			res, err := experiments.Economy(s, *nyms, *hosts, *rounds)
			if err != nil {
				return "", nil, err
			}
			// The economy run is also the gate: adaptive cadence must
			// strictly beat fixed-interval on total wire with staleness
			// p95 no worse, or the bench itself fails.
			if err := res.Gate(); err != nil {
				return "", nil, err
			}
			return experiments.RenderEconomy(res), res, nil
		},
		"mixnet": func(s uint64) (string, any, error) {
			res, err := experiments.MixnetFrontier(s)
			if err != nil {
				return "", nil, err
			}
			return experiments.RenderMixnetFrontier(res), res, nil
		},
		"summary": summary,
	}

	order := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "table1", "validation", "ablations", "vault", "fleet", "shards", "elastic", "sweeps", "economy", "partition", "censorship", "mixnet", "summary"}
	var selected []string
	if *run == "all" {
		selected = order
	} else if _, ok := runners[*run]; ok {
		selected = []string{*run}
	} else {
		fmt.Fprintf(os.Stderr, "nymbench: unknown experiment %q\n", *run)
		os.Exit(2)
	}
	bench := benchFile{Run: *run, Seed: *seed, GoVersion: runtime.Version()}
	for _, name := range selected {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, result, err := runners[name](*seed)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nymbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		bench.Results = append(bench.Results, benchResult{
			Name:       name,
			Seed:       *seed,
			WallMS:     float64(wall.Microseconds()) / 1000,
			Allocs:     after.Mallocs - before.Mallocs,
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
			Result:     result,
		})
	}
	if *emitJSON {
		path := fmt.Sprintf("BENCH_%s.json", *run)
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nymbench: marshal %s: %v\n", path, err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "nymbench: write %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nymbench: wrote %s\n", path)
	}
}

// summary reproduces the abstract's headline numbers from the
// underlying experiments.
func summary(seed uint64) (string, any, error) {
	f3, err := experiments.Figure3(seed)
	if err != nil {
		return "", nil, err
	}
	slope := (f3[len(f3)-1].UsedAfterMB - f3[0].UsedAfterMB) / float64(len(f3)-1)
	f7, err := experiments.Figure7(seed)
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
