// Command nymbench regenerates every table and figure from the
// paper's evaluation (section 5), plus the section 5.1 validation and
// the design ablations.
//
// Usage:
//
//	nymbench [-seed N] [-run all|<name>]  # names: experiments.Registry, listed by -help
//	         [-nyms N] [-hosts N]   # shards sizing (default 1024 over 4); elastic sizing (default 96 over 2)
//	         [-rounds N]            # sweeps: steady-state rounds (default 8); -nyms sizes the sweep fleet (default 32)
//	                                # economy: churn rounds (default 16); -nyms/-hosts size the pool (default 1024 over 4)
//	         [-json]                # also write BENCH_<run>.json (sim-time results + wall-clock and allocs)
//	         [-cpuprofile FILE]     # write a CPU profile of the selected runs (go tool pprof FILE)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
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

func main() { os.Exit(runExperiments()) }

// runExperiments is main's body. It returns the exit code instead of
// calling os.Exit, so its deferred CPU-profile stop also runs when an
// experiment fails.
func runExperiments() int {
	names := []string{"all"}
	for _, e := range experiments.Registry {
		names = append(names, e.Name)
	}
	seed := flag.Uint64("seed", 1, "simulation seed")
	run := flag.String("run", "all", "experiment to run: "+strings.Join(names, ", "))
	nyms := flag.Int("nyms", 0, "shards: fleet size (0 = 1024); elastic: burst size (0 = 96); sweeps: fleet size (0 = 32); economy: nyms in the pool (0 = 1024)")
	hosts := flag.Int("hosts", 0, "shards: pool size (0 = 4); elastic: initial pool (0 = 2); economy: pool size (0 = 4)")
	rounds := flag.Int("rounds", 0, "sweeps: steady-state rounds (0 = 8); economy: churn rounds (0 = 16)")
	emitJSON := flag.Bool("json", false, "write BENCH_<run>.json next to the text output")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected runs to `FILE`")
	flag.Parse()

	var selected []experiments.Experiment
	for _, e := range experiments.Registry {
		if *run == "all" || e.Name == *run {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "nymbench: unknown experiment %q\n", *run)
		return 2
	}
	size := experiments.Size{Nyms: *nyms, Hosts: *hosts, Rounds: *rounds}
	bench := benchFile{Run: *run, Seed: *seed, GoVersion: runtime.Version()}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nymbench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	for _, e := range selected {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, result, err := e.Run(*seed, size)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nymbench: %s: %v\n", e.Name, err)
			return 1
		}
		fmt.Println(out)
		bench.Results = append(bench.Results, benchResult{
			Name:       e.Name,
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
			return 1
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "nymbench: write %s: %v\n", path, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "nymbench: wrote %s\n", path)
	}
	return 0
}
