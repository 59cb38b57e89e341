// Command bench measures the simulator's host cost on four workloads,
// each aimed at a different hot layer, and checks that the simulated
// results stay byte-identical to checked-in goldens.
//
// Every repetition runs in a fresh child process of this binary with
// GOMAXPROCS=2, one at a time, and repetitions interleave across the
// selected workloads. End-to-end metrics are medians over untraced
// repetitions. With -trace 1 each untraced repetition is followed by a
// traced one (CPU profile plus spans around the benchmark's calls into
// layers), and the per-layer metrics come from those. See README.md.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minReps is the fewest untraced repetitions a workload runs, so its
// quartiles exist however slow a repetition is.
const minReps = 3

// childTimeout bounds one repetition; the largest takes a few seconds.
const childTimeout = 150 * time.Second

//go:embed golden/digests.json
var goldenJSON []byte

// goldens maps workload -> seed -> digest of the full-size results.
type goldens map[string]map[string]string

type repMetric struct {
	name, unit string
	value      func(*repResult) float64
}

// endToEnd are the metrics a user of the simulator sees, all medians
// over untraced repetitions. BENCHMARK.json fixes their bounds. Host
// times are in reference-machine seconds (see ref.go), which cancels
// the shared machine's minute-scale speed drift; hostRaw keeps the
// seconds as measured.
var endToEnd = []repMetric{
	{"wall_s", "s", func(r *repResult) float64 { return r.WallS * refNominalS / r.RefS }},
	{"cpu_s", "s", func(r *repResult) float64 { return r.CPUS * refNominalS / r.RefS }},
	{"setup_s", "s", func(r *repResult) float64 { return r.SetupS * refNominalS / r.RefS }},
	{"peak_rss_mb", "MB", func(r *repResult) float64 { return r.PeakRSSMB }},
	{"alloc_mb", "MB", func(r *repResult) float64 { return r.AllocMB }},
	{"allocs_m", "M", func(r *repResult) float64 { return r.AllocsM }},
}

// hostRaw are the host times as measured, reported per layer as
// host.<name>.
var hostRaw = []repMetric{
	{"wall_s", "s", func(r *repResult) float64 { return r.WallS }},
	{"cpu_s", "s", func(r *repResult) float64 { return r.CPUS }},
	{"setup_s", "s", func(r *repResult) float64 { return r.SetupS }},
	{"ref_s", "s", func(r *repResult) float64 { return r.RefS }},
}

// tableMetrics are printed per workload: normalized, then raw.
var tableMetrics = append(append([]repMetric(nil), endToEnd...), hostRaw...)

// profileBuckets are the CPU-profile buckets reported as self-time
// shares: the hot nymix layers, every other nymix layer together (the
// orchestration layers core, fleet and cluster each stay under 1%),
// then the runtime.
var profileBuckets = []string{
	"sim", "vnet", "mem", "vm", "hypervisor", "cpusched", "anonnet",
	"vault", "nymstate", "cloud", bucketRest, bucketGC, bucketOther,
}

// spanCalls are the benchmark's calls into layers that traced
// repetitions time.
var spanCalls = []string{
	"cluster.LaunchAll", "cluster.AwaitRunning", "core.Nym.Visit", "fleet.SaveSweep",
	"cluster.MigrateNym", "sim.Proc.Sleep", "cluster.StopAll",
}

type metricDef struct{ name, unit string }

// counterUnits lists the per-layer counters read from public accessors.
var counterUnits = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"vnet.uplink_wire_mb", "MB"},
	{"mem.merged_pages", "count"},
	{"mem.cow_breaks", "count"},
	{"mem.scrubbed_mb", "MB"},
	{"fleet.peak_ram_gib", "GiB"},
	{"fleet.failures", "count"},
	{"fleet.unclassified", "count"},
	{"cpusched.peak_running", "count"},
	{"anonnet.cover_frames", "count"},
	{"vault.saves", "count"},
	{"vault.upload_mb", "MB"},
	{"vault.new_chunks", "count"},
	{"vault.total_chunks", "count"},
	{"vault.new_chunk_frac", "ratio"},
	{"vault.restore_mb", "MB"},
	{"cloud.round_trips", "count"},
	{"cluster.migrations", "count"},
	{"cluster.migration_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.peak_heap_mb", "MB"},
	{"runtime.goroutines_peak", "count"},
}

// perLayerDefs lists every per-layer metric in output order.
func perLayerDefs() []metricDef {
	defs := []metricDef{{"trace_overhead", "ratio"}}
	for _, h := range hostRaw {
		defs = append(defs, metricDef{"host." + h.name, h.unit})
	}
	for _, b := range profileBuckets {
		defs = append(defs, metricDef{b + ".self_pct", "%"})
	}
	for _, c := range spanCalls {
		defs = append(defs, metricDef{c + ".count", "count"}, metricDef{c + ".host_pct", "%"}, metricDef{c + ".alloc_mb", "MB"})
	}
	return append(defs, counterUnits...)
}

func main() {
	var (
		workloadList = flag.String("workload", "session,checkpoint,migrate,cover", "comma-separated workloads to run")
		seed         = flag.Uint64("seed", 1, "workload seed")
		seconds      = flag.Float64("seconds", 10, "host seconds of repetitions per workload")
		trace        = flag.Int("trace", 0, "1 follows every repetition with a traced one and reports per-layer metrics")
		quick        = flag.Bool("quick", false, "run the smoke-test size (8 nyms, 2 rounds, 60 sim-s of cover)")
		out          = flag.String("out", filepath.Join(os.TempDir(), "nymixbench"), "directory for traced repetitions' CPU profiles and spans")
		jsonPath     = flag.String("json", "", "also write every repetition and statistic to this file")
		updateGolden = flag.Bool("update-golden", false, "record this seed's digests in golden/digests.json")
		child        = flag.Bool("child", false, "run one repetition of one workload in this process")
		repIndex     = flag.Int("rep", 0, "repetition index naming traced artifacts (with -child)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	sz := fullSize
	if *quick {
		sz = quickSize
	}
	if *child {
		w, err := workloadNamed(*workloadList)
		if err != nil {
			fatalf("%v", err)
		}
		res, err := runRep(w, *seed, sz, *trace == 1, *out, *repIndex)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}
	var selected []*workload
	for _, name := range strings.Split(*workloadList, ",") {
		w, err := workloadNamed(strings.TrimSpace(name))
		if err != nil {
			fatalf("%v", err)
		}
		selected = append(selected, w)
	}
	if *updateGolden && *quick {
		fatalf("goldens pin the full size; drop -quick")
	}
	exe, err := os.Executable()
	if err != nil {
		fatalf("locate own binary: %v", err)
	}
	var gold goldens // stays empty while recording new goldens
	if !*updateGolden {
		if err := json.Unmarshal(goldenJSON, &gold); err != nil {
			fatalf("golden/digests.json: %v", err)
		}
	}
	p := plan{
		exe: exe, seed: *seed, quick: *quick, traced: *trace == 1, outDir: *out,
		budget: time.Duration(*seconds * float64(time.Second)),
	}
	states := p.run(selected)

	sum := summary{Correct: true, Metrics: map[string]metricValue{}}
	digests := map[string]string{}
	for _, st := range states {
		v := st.verdict(*seed, *quick, gold)
		sum.Attempted += v.attempted
		sum.Failed += v.failed
		sum.Correct = sum.Correct && v.failed == 0
		digests[st.w.name] = v.digest
		st.print(os.Stdout, v, p.traced)
		prefix := ""
		if len(states) > 1 {
			prefix = st.w.name + "."
		}
		for name, m := range st.metrics(p.traced) {
			sum.Metrics[prefix+name] = m
		}
	}
	if *updateGolden {
		if !sum.Correct {
			fatalf("update goldens: a repetition failed or the repetitions disagree; nothing recorded")
		}
		if err := writeGoldens(digests, *seed); err != nil {
			fatalf("update goldens: %v", err)
		}
	}
	if *jsonPath != "" {
		if err := writeDetail(*jsonPath, states, p.traced); err != nil {
			fatalf("write %s: %v", *jsonPath, err)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fatalf("encode summary: %v", err)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// plan is one invocation's repetition schedule.
type plan struct {
	exe    string
	seed   uint64
	quick  bool
	traced bool
	outDir string
	budget time.Duration
}

// wstate collects one workload's repetitions.
type wstate struct {
	w        *workload
	untraced []*repResult
	traced   []*repResult
	spent    time.Duration
	errs     []string
}

// run interleaves repetitions across workloads, round by round, until
// every workload has spent its budget and run minReps repetitions, so
// a slow spell on a shared machine spreads over all of them. The
// reference kernel runs between consecutive children; each repetition
// is normalized by the mean of the two runs around it.
func (p plan) run(ws []*workload) []*wstate {
	states := make([]*wstate, len(ws))
	for i, w := range ws {
		states[i] = &wstate{w: w}
	}
	ref := refKernel()
	runOne := func(st *wstate, traced bool, index int) *repResult {
		res, err := p.child(st.w, traced, index)
		next := refKernel()
		defer func() { ref = next }()
		if err != nil {
			st.errs = append(st.errs, err.Error())
			return nil
		}
		res.RefS = (ref + next) / 2
		return res
	}
	for index := 0; ; index++ {
		busy := false
		for _, st := range states {
			if len(st.errs) > 0 || (st.spent >= p.budget && len(st.untraced) >= minReps) {
				continue
			}
			busy = true
			t0 := time.Now()
			if res := runOne(st, false, index); res != nil {
				st.untraced = append(st.untraced, res)
			}
			if p.traced && len(st.errs) == 0 {
				if res := runOne(st, true, index); res != nil {
					st.traced = append(st.traced, res)
				}
			}
			st.spent += time.Since(t0)
		}
		if !busy {
			return states
		}
	}
}

// child runs one repetition in a fresh process of this binary.
func (p plan) child(w *workload, traced bool, index int) (*repResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(p.seed, 10),
		"-rep", strconv.Itoa(index), "-out", p.outDir, "-trace", trace}
	if p.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, p.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// A parent killed from outside takes its running repetition with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s repetition %d: %w", w.name, index, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res repResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s repetition %d: decode result: %w", w.name, index, err)
	}
	return &res, nil
}

// verdict is a workload's correctness tally.
type verdict struct {
	attempted, failed int
	digest            string
	golden            string // "ok", "MISMATCH" or "none"
	problems          []string
}

// verdict sums the repetitions' operations and adds the run-level
// checks: every repetition reproduced one digest, and that digest
// matches the golden when one is checked in for this seed.
func (st *wstate) verdict(seed uint64, quick bool, gold goldens) verdict {
	v := verdict{golden: "none", problems: append([]string(nil), st.errs...)}
	v.attempted += len(st.errs)
	v.failed += len(st.errs)
	all := append(append([]*repResult(nil), st.untraced...), st.traced...)
	digests := map[string]bool{}
	for _, r := range all {
		v.attempted += r.Attempted
		v.failed += r.Failed
		v.problems = append(v.problems, r.Problems...)
		digests[r.Digest] = true
		v.digest = r.Digest
	}
	v.attempted++
	if len(digests) != 1 {
		v.failed++
		v.problems = append(v.problems, fmt.Sprintf("%d different digests across %d repetitions", len(digests), len(all)))
	}
	if want, ok := gold[st.w.name][strconv.FormatUint(seed, 10)]; ok && !quick {
		v.attempted++
		v.golden = "ok"
		if want != v.digest {
			v.failed++
			v.golden = "MISMATCH"
			v.problems = append(v.problems, fmt.Sprintf("digest %s, golden %s", v.digest, want))
		}
	}
	return v
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final output line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metrics returns the end-to-end metrics, or with traced repetitions
// the per-layer ones.
func (st *wstate) metrics(traced bool) map[string]metricValue {
	out := map[string]metricValue{}
	if !traced {
		for _, m := range endToEnd {
			out[m.name] = metricValue{median(st.values(m.value)), m.unit}
		}
		return out
	}
	vals := st.perLayer()
	for _, d := range perLayerDefs() {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out
}

func (st *wstate) values(f func(*repResult) float64) []float64 {
	out := make([]float64, len(st.untraced))
	for i, r := range st.untraced {
		out[i] = f(r)
	}
	return out
}

// perLayer merges the traced repetitions: profile buckets summed, then
// shares; span and counter figures as medians over repetitions.
func (st *wstate) perLayer() map[string]float64 {
	out := map[string]float64{}
	for _, h := range hostRaw {
		out["host."+h.name] = median(st.values(h.value))
	}
	if len(st.traced) == 0 {
		return out
	}
	wallRef := endToEnd[0].value
	var tracedWall []float64
	cpu := map[string]float64{}
	total := 0.0
	for _, r := range st.traced {
		tracedWall = append(tracedWall, wallRef(r))
		for b, s := range r.CPUByBucket {
			// Rarely sampled layers outside the list share one bucket, so
			// the shares always sum to 100.
			if !slices.Contains(profileBuckets, b) {
				b = bucketRest
			}
			cpu[b] += s
			total += s
		}
	}
	if len(st.untraced) > 0 {
		out["trace_overhead"] = median(tracedWall)/median(st.values(wallRef)) - 1
	}
	if total > 0 {
		for _, b := range profileBuckets {
			out[b+".self_pct"] = 100 * cpu[b] / total
		}
	}
	per := func(f func(*repResult) float64) float64 {
		vs := make([]float64, len(st.traced))
		for i, r := range st.traced {
			vs[i] = f(r)
		}
		return median(vs)
	}
	for _, c := range spanCalls {
		out[c+".count"] = per(func(r *repResult) float64 { return float64(r.Spans[c].Count) })
		out[c+".host_pct"] = per(func(r *repResult) float64 { return 100 * r.Spans[c].HostS / r.WallS })
		out[c+".alloc_mb"] = per(func(r *repResult) float64 { return r.Spans[c].AllocMB })
	}
	for _, c := range counterUnits {
		out[c.name] = per(func(r *repResult) float64 { return r.Layers[c.name] })
	}
	return out
}

// print writes the workload's human-readable report.
func (st *wstate) print(w io.Writer, v verdict, traced bool) {
	short := v.digest
	if len(short) > 12 {
		short = short[:12]
	}
	fmt.Fprintf(w, "== %s: %d reps", st.w.name, len(st.untraced))
	if traced {
		fmt.Fprintf(w, " + %d traced", len(st.traced))
	}
	fmt.Fprintf(w, ", digest %s, golden %s, %d/%d operations failed ==\n", short, v.golden, v.failed, v.attempted)
	for _, p := range v.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	if len(st.untraced) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-12s %-5s %12s %12s %12s %3s\n", "end-to-end", "unit", "median", "q1", "q3", "n")
	for i, m := range tableMetrics {
		if i == len(endToEnd) {
			fmt.Fprintf(w, "  host time as measured:\n")
		}
		vs := st.values(m.value)
		q1, q3 := quartiles(vs)
		fmt.Fprintf(w, "  %-12s %-5s %12.4f %12.4f %12.4f %3d\n", m.name, m.unit, median(vs), q1, q3, len(vs))
	}
	var simKeys []string
	for k := range st.untraced[0].Sim {
		simKeys = append(simKeys, k)
	}
	sort.Strings(simKeys)
	fmt.Fprintf(w, "  simulated:")
	for _, k := range simKeys {
		fmt.Fprintf(w, " %s=%.4g", k, st.untraced[0].Sim[k])
	}
	fmt.Fprintln(w)
	if !traced || len(st.traced) == 0 {
		return
	}
	vals := st.perLayer()
	fmt.Fprintf(w, "  per-layer over %d traced reps, trace_overhead %+.1f%%\n", len(st.traced), 100*vals["trace_overhead"])
	fmt.Fprintf(w, "  cpu self %%:")
	for _, b := range profileBuckets {
		if s := vals[b+".self_pct"]; s >= 1 {
			fmt.Fprintf(w, " %s=%.1f", b, s)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-22s %6s %8s %11s %11s %9s %9s\n", "span", "count", "host_%", "host_ms_p50", "host_ms_max", "sim_s_p50", "alloc_mb")
	for _, c := range spanCalls {
		s := st.traced[0].Spans[c]
		if s.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-22s %6d %8.1f %11.2f %11.2f %9.3f %9.1f\n", c, s.Count, vals[c+".host_pct"], s.HostMsP50, s.HostMsMax, s.SimSP50, s.AllocMB)
	}
	fmt.Fprintf(w, "  counters:")
	for _, c := range counterUnits {
		if x := vals[c.name]; x != 0 {
			fmt.Fprintf(w, " %s=%.4g", c.name, x)
		}
	}
	fmt.Fprintln(w)
}

// writeGoldens records each workload's digest for seed in the golden
// file on disk, keeping every other entry.
func writeGoldens(digests map[string]string, seed uint64) error {
	path := ""
	for _, cand := range []string{"golden/digests.json", "bench/golden/digests.json"} {
		if _, err := os.Stat(cand); err == nil {
			path = cand
			break
		}
	}
	if path == "" {
		return errors.New("golden/digests.json not found; run from the repository root or bench/")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var gold goldens
	if err := json.Unmarshal(raw, &gold); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for name, d := range digests {
		if gold[name] == nil {
			gold[name] = map[string]string{}
		}
		gold[name][strconv.FormatUint(seed, 10)] = d
	}
	buf, err := json.MarshalIndent(gold, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeDetail writes every repetition and the aggregated statistics.
func writeDetail(path string, states []*wstate, traced bool) error {
	type stat struct {
		Unit   string  `json:"unit"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		N      int     `json:"n"`
	}
	type detail struct {
		EndToEnd map[string]stat    `json:"end_to_end"`
		PerLayer map[string]float64 `json:"per_layer,omitempty"`
		Reps     []*repResult       `json:"reps"`
		Traced   []*repResult       `json:"traced,omitempty"`
		Errors   []string           `json:"errors,omitempty"`
	}
	all := map[string]detail{}
	for _, st := range states {
		d := detail{EndToEnd: map[string]stat{}, Reps: st.untraced, Traced: st.traced, Errors: st.errs}
		for i, m := range tableMetrics {
			name := m.name
			if i >= len(endToEnd) {
				name = "host." + name
			}
			vs := st.values(m.value)
			q1, q3 := quartiles(vs)
			d.EndToEnd[name] = stat{m.unit, median(vs), q1, q3, len(vs)}
		}
		if traced {
			d.PerLayer = st.perLayer()
		}
		all[st.w.name] = d
	}
	buf, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// median matches Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// exclusive method, returning the first and third quartile.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
