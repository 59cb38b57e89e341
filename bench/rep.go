package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nymix/internal/anonnet/mixnet"
	"nymix/internal/cloud"
	"nymix/internal/cluster"
	"nymix/internal/experiments"
	"nymix/internal/fleet"
	"nymix/internal/guestos"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// vaultPassword seals every checkpoint the benchmark takes, sweeps and
// migrations alike, so a migration can restore from a sweep's save.
const vaultPassword = "bench-pw"

// repResult is everything one repetition reports to the parent process.
type repResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`

	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	AllocsM   float64 `json:"allocs_m"`
	// RefS is the reference kernel's time around this repetition, set
	// by the parent process.
	RefS float64 `json:"ref_s"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	// Digest is the SHA-256 of the canonical JSON of the simulated
	// results; Sim summarizes them (sim-time percentiles, wire).
	Digest string             `json:"digest"`
	Sim    map[string]float64 `json:"sim"`
	// Layers holds the per-layer counters read from public accessors.
	Layers map[string]float64 `json:"layers"`

	// Traced repetitions only: CPU seconds per profile bucket and the
	// spans around the benchmark's calls, summarized per call.
	CPUByBucket map[string]float64  `json:"cpu_by_bucket,omitempty"`
	Spans       map[string]spanStat `json:"spans,omitempty"`
}

// spanStat summarizes one call's spans in a traced repetition.
type spanStat struct {
	Count     int     `json:"count"`
	HostS     float64 `json:"host_s"`
	HostMsP50 float64 `json:"host_ms_p50"`
	HostMsMax float64 `json:"host_ms_max"`
	SimSP50   float64 `json:"sim_s_p50"`
	AllocMB   float64 `json:"alloc_mb"`
}

// span is one timed call from the benchmark into a layer. Host time covers
// every simulated process the engine runs meanwhile, which is why self
// time per layer comes from the CPU profile instead.
type span struct {
	Name       string        `json:"name"`
	HostStart  time.Duration `json:"host_start_ns"`
	HostEnd    time.Duration `json:"host_end_ns"`
	SimStart   sim.Time      `json:"sim_start_ns"`
	SimEnd     sim.Time      `json:"sim_end_ns"`
	AllocBytes uint64        `json:"alloc_bytes"`
}

// model is the simulated outcome of one repetition: what the golden
// digest pins. It holds no host measurement and no event count, so a
// pure speed-up leaves it byte-identical.
type model struct {
	SimEndNs    int64            `json:"sim_end_ns"`
	ReadyNs     []int64          `json:"ready_ns,omitempty"`
	VisitNs     []int64          `json:"visit_ns,omitempty"`
	Sweeps      []sweepModel     `json:"sweeps,omitempty"`
	Migrations  []migrationModel `json:"migrations,omitempty"`
	CoverWire   int64            `json:"cover_wire_bytes,omitempty"`
	CoverFrames int64            `json:"cover_frames,omitempty"`
	UplinkWire  []int64          `json:"uplink_wire_bytes"`
}

type sweepModel struct {
	Host          string `json:"host"`
	Saves         int    `json:"saves"`
	Errors        int    `json:"errors"`
	Busy          int    `json:"busy"`
	UploadedBytes int64  `json:"uploaded_bytes"`
	BaselineBytes int64  `json:"baseline_bytes"`
	NewChunks     int    `json:"new_chunks"`
	TotalChunks   int    `json:"total_chunks"`
	ElapsedNs     int64  `json:"elapsed_ns"`
}

type migrationModel struct {
	Name          string `json:"name"`
	From          string `json:"from"`
	To            string `json:"to"`
	UploadedBytes int64  `json:"uploaded_bytes"`
	NewChunks     int    `json:"new_chunks"`
	TotalChunks   int    `json:"total_chunks"`
	WireBytes     int64  `json:"wire_bytes"`
	RestoreBytes  int64  `json:"restore_bytes"`
	Retried       bool   `json:"retried"`
	SimNs         int64  `json:"sim_ns"`
}

// hostMark is a snapshot of the process's host-side cost counters.
type hostMark struct {
	wall     time.Time
	cpu      time.Duration
	allocB   uint64
	allocN   uint64
	gcCycles uint64
	gcCPU    float64
}

func markHost() hostMark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return hostMark{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:   s[0].Value.Uint64(),
		allocN:   s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
	}
}

// heapAllocBytes reads the cumulative heap allocation counter, cheaply
// enough to bracket every span.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampler tracks heap and goroutine high-water marks while the
// measured phase runs.
type sampler struct {
	stop, done chan struct{}
	peakHeap   uint64
	peakG      uint64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		m := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/sched/goroutines:goroutines"},
		}
		for {
			metrics.Read(m)
			s.peakHeap = max(s.peakHeap, m[0].Value.Uint64())
			s.peakG = max(s.peakG, m[1].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it, so its peaks are safe to
// read afterwards.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// vaultTally sums the measured phase's checkpoint work as SaveSweep and
// MigrateNym return it.
type vaultTally struct {
	saves        int
	uploadBytes  int64
	loginBytes   int64
	newChunks    int
	totalChunks  int
	restoreBytes int64
}

// rep is one repetition of one workload: a fresh engine, world and
// cluster, the workload's simulated process, and the measurements around
// its measured phase.
type rep struct {
	w      *workload
	seed   uint64
	sz     size
	traced bool
	outDir string
	index  int

	eng   *sim.Engine
	world *webworld.World
	c     *cluster.Cluster
	mix   []*mixnet.Client
	names []string // launched nyms, in spec order

	ops, fails int
	problems   []string
	model      model
	vault      vaultTally

	start     time.Time
	setup     time.Duration
	measuring bool
	measured  bool
	m0, m1    hostMark
	c0, c1    map[string]float64
	smp       *sampler
	prof      bytes.Buffer
	spans     []span
}

// record counts n calls into a layer; a non-nil err fails one of them.
func (r *rep) record(what string, n int, err error) {
	r.ops += n
	if err != nil {
		r.fails++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

// check counts one invariant or correctness check.
func (r *rep) check(ok bool, format string, args ...any) {
	r.ops++
	if !ok {
		r.fails++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// call runs fn and, in a traced repetition's measured phase, records a
// span around it.
func (r *rep) call(name string, fn func() error) error {
	if !r.traced || !r.measuring {
		return fn()
	}
	s := span{Name: name, HostStart: time.Since(r.start), SimStart: r.eng.Now()}
	a0 := heapAllocBytes()
	err := fn()
	s.AllocBytes = heapAllocBytes() - a0
	s.HostEnd, s.SimEnd = time.Since(r.start), r.eng.Now()
	r.spans = append(r.spans, s)
	return err
}

func (r *rep) sleep(p *sim.Proc, d time.Duration) {
	_ = r.call("sim.Proc.Sleep", func() error { p.Sleep(d); return nil }) // Sleep cannot fail
}

// begin opens the measured phase. Everything before it is set-up.
func (r *rep) begin() {
	r.setup = time.Since(r.start)
	r.c0 = r.counters()
	if r.traced {
		if err := pprof.StartCPUProfile(&r.prof); err != nil {
			r.record("start CPU profile", 1, err)
		}
	}
	r.smp = startSampler()
	r.measuring = true
	r.m0 = markHost()
}

// end closes the measured phase.
func (r *rep) end() {
	r.m1 = markHost()
	r.measuring, r.measured = false, true
	r.smp.finish()
	if r.traced {
		pprof.StopCPUProfile()
	}
	r.c1 = r.counters()
}

// counters reads the cumulative per-layer counters that the measured
// phase's deltas are taken from. Every accessor here is read-only: none
// may perturb the simulation.
func (r *rep) counters() map[string]float64 {
	out := map[string]float64{"sim.events": float64(r.eng.Processed())}
	for _, h := range r.c.Hosts() {
		hv := h.Manager().Host()
		ms := hv.Mem().Stats()
		out["mem.merged_pages"] += float64(ms.MergedPages)
		out["mem.cow_breaks"] += float64(ms.COWBreaks)
		out["mem.scrubbed_mb"] += mb(ms.ScrubbedBytes)
		out["vnet.uplink_wire_mb"] += mb(hv.Uplink().WireBytesTotal())
	}
	for _, name := range []string{"dropbin", "gdrive"} {
		if pr, err := r.c.Hosts()[0].Manager().Provider(name); err == nil {
			out["cloud.round_trips"] += float64(pr.RoundTrips)
		}
	}
	out["cluster.migrations"] = float64(r.c.Migrations())
	out["cluster.migration_mb"] = mb(r.c.MigrationWireBytes())
	for _, m := range r.mix {
		out["anonnet.cover_frames"] += float64(m.CoverPackets())
	}
	return out
}

// launch places specs across the cluster and waits for all of them to
// run, recording each nym's launch-to-Running time.
func (r *rep) launch(p *sim.Proc, specs []fleet.Spec) error {
	err := r.call("cluster.LaunchAll", func() error { return r.c.LaunchAll(specs) })
	if err == nil {
		err = r.call("cluster.AwaitRunning", func() error { return r.c.AwaitRunning(p, len(specs)) })
	}
	r.record("launch", len(specs), err)
	for _, s := range specs {
		r.names = append(r.names, s.Name)
		m := r.c.Member(s.Name)
		at, ok := r.c.LaunchedAt(s.Name)
		if m != nil && ok && m.State() == fleet.StateRunning {
			r.model.ReadyNs = append(r.model.ReadyNs, int64(m.RunningAt()-at))
		}
	}
	return err
}

// visitAll runs perNym concurrent callers per nym, each loading one page
// from a site list rotated by the seed, and waits for all of them.
func (r *rep) visitAll(p *sim.Proc, perNym int) {
	sites := webworld.DefaultSites()
	off := int(r.seed % uint64(len(sites)))
	base := len(r.model.VisitNs)
	r.model.VisitNs = append(r.model.VisitNs, make([]int64, perNym*len(r.names))...)
	var futs []*sim.Future[struct{}]
	for i, name := range r.names {
		m := r.c.Member(name)
		if m == nil || m.Nym() == nil {
			r.record("visit "+name, perNym, fmt.Errorf("nym %q is not running", name))
			continue
		}
		nym := m.Nym()
		for j := 0; j < perNym; j++ {
			slot := perNym*i + j
			site := sites[(slot+off)%len(sites)].Host
			futs = append(futs, r.eng.Go("bench/visit-"+name, func(vp *sim.Proc) {
				err := r.call("core.Nym.Visit", func() error {
					res, err := nym.Visit(vp, site)
					r.model.VisitNs[base+slot] = int64(res.Elapsed)
					return err
				})
				r.record("visit "+name+" "+site, 1, err)
			}))
		}
	}
	_ = sim.AwaitAll(p, futs...) // visit procs report their own errors
}

// saveSweeps runs one full fleet.SaveSweep on each host in turn.
func (r *rep) saveSweeps(p *sim.Proc) error {
	for _, h := range r.c.Hosts() {
		var st fleet.SweepStats
		err := r.call("fleet.SaveSweep", func() (err error) {
			st, err = h.Fleet().SaveSweep(p, vaultPassword, experiments.FleetVaultDest)
			return err
		})
		r.ops += st.Saves + st.Errors
		r.fails += st.Errors
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("save sweep on %s: %v", h.Name(), err))
			if st.Errors == 0 {
				r.fails++
			}
		}
		r.model.Sweeps = append(r.model.Sweeps, sweepModel{
			Host: h.Name(), Saves: st.Saves, Errors: st.Errors, Busy: st.Busy,
			UploadedBytes: st.UploadedBytes, BaselineBytes: st.BaselineBytes,
			NewChunks: st.NewChunks, TotalChunks: st.TotalChunks, ElapsedNs: int64(st.Elapsed),
		})
		if r.measuring {
			r.vault.saves += st.Saves
			r.vault.uploadBytes += st.UploadedBytes
			r.vault.loginBytes += int64(st.Saves) * cloud.LoginWireBytes
			r.vault.newChunks += st.NewChunks
			r.vault.totalChunks += st.TotalChunks
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// stopAll tears down every running nym in the pool.
func (r *rep) stopAll(p *sim.Proc) error {
	running := r.c.Running()
	err := r.call("cluster.StopAll", func() error { return r.c.StopAll(p) })
	r.record("stop all", running, err)
	return err
}

// checkInvariants verifies, from public accessors, the properties every
// drained run must hold.
func (r *rep) checkInvariants() {
	for _, h := range r.c.Hosts() {
		hv := h.Manager().Host()
		up := hv.Uplink()
		r.check(up.WireBytesTotal() == up.LedgerBytesTotal(),
			"%s uplink: wire %d bytes != ledger %d bytes", h.Name(), up.WireBytesTotal(), up.LedgerBytesTotal())
		r.check(h.Fleet().ReservedBytes() == 0, "%s: %d bytes still reserved after teardown", h.Name(), h.Fleet().ReservedBytes())
		r.check(hv.VMCount() == 0, "%s: %d VMs alive after teardown", h.Name(), hv.VMCount())
		unclassified := 0
		for _, f := range h.Fleet().Failures() {
			if !nymerr.Registered(f.Code) {
				unclassified++
			}
		}
		r.check(unclassified == 0, "%s: %d failures carry no registered nymerr code", h.Name(), unclassified)
	}
	r.check(r.world.Net().ActiveTransfers() == 0, "%d transfers still active after the engine drained", r.world.Net().ActiveTransfers())
}

// result assembles the repetition's report once the engine has drained.
func (r *rep) result() (*repResult, error) {
	r.model.SimEndNs = int64(r.eng.Now())
	for _, h := range r.c.Hosts() {
		r.model.UplinkWire = append(r.model.UplinkWire, h.Manager().Host().Uplink().WireBytesTotal())
	}
	for _, m := range r.mix {
		r.model.CoverWire += m.CoverWireBytes()
		r.model.CoverFrames += m.CoverPackets()
	}
	canon, err := json.Marshal(r.model)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	wall := r.m1.wall.Sub(r.m0.wall).Seconds()
	res := &repResult{
		Workload:  r.w.name,
		Traced:    r.traced,
		SetupS:    r.setup.Seconds(),
		WallS:     wall,
		CPUS:      (r.m1.cpu - r.m0.cpu).Seconds(),
		PeakRSSMB: peakRSSMB(),
		AllocMB:   float64(r.m1.allocB-r.m0.allocB) / (1 << 20),
		AllocsM:   float64(r.m1.allocN-r.m0.allocN) / 1e6,
		Attempted: r.ops,
		Failed:    r.fails,
		Problems:  r.problems,
		Digest:    hex.EncodeToString(sum[:]),
		Sim:       r.simSummary(),
		Layers:    r.layers(wall),
	}
	if r.traced {
		if err := r.writeTrace(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layers derives the per-layer counters: deltas over the measured phase
// for cumulative counters, whole-run values for high-water marks.
func (r *rep) layers(wall float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.c1 {
		out[k] = v - r.c0[k]
	}
	out["sim.events_per_s"] = out["sim.events"] / wall
	var peakRAM int64
	peakRun := 0
	failures, unclassified := 0, 0
	for _, h := range r.c.Hosts() {
		peakRAM = max(peakRAM, h.Fleet().PeakRAMBytes())
		peakRun = max(peakRun, h.Manager().Host().CPU().PeakRunning())
		for _, f := range h.Fleet().Failures() {
			failures++
			if !nymerr.Registered(f.Code) {
				unclassified++
			}
		}
	}
	out["fleet.peak_ram_gib"] = float64(peakRAM) / (1 << 30)
	out["fleet.failures"] = float64(failures)
	out["fleet.unclassified"] = float64(unclassified)
	out["cpusched.peak_running"] = float64(peakRun)
	out["vault.saves"] = float64(r.vault.saves)
	out["vault.upload_mb"] = mb(r.vault.uploadBytes)
	out["vault.new_chunks"] = float64(r.vault.newChunks)
	out["vault.total_chunks"] = float64(r.vault.totalChunks)
	out["vault.restore_mb"] = mb(r.vault.restoreBytes)
	out["vault.new_chunk_frac"] = 0
	if r.vault.totalChunks > 0 {
		out["vault.new_chunk_frac"] = float64(r.vault.newChunks) / float64(r.vault.totalChunks)
	}
	out["runtime.gc_cycles"] = float64(r.m1.gcCycles - r.m0.gcCycles)
	out["runtime.gc_cpu_s"] = r.m1.gcCPU - r.m0.gcCPU
	if r.smp != nil {
		out["runtime.peak_heap_mb"] = float64(r.smp.peakHeap) / (1 << 20)
		out["runtime.goroutines_peak"] = float64(r.smp.peakG)
	}
	return out
}

// simSummary reduces the model to the sim-time figures the tables show.
// Every value is simulated, never host-measured.
func (r *rep) simSummary() map[string]float64 {
	out := map[string]float64{"sim_end_s": time.Duration(r.model.SimEndNs).Seconds()}
	pct := func(name string, ns []int64, qs ...float64) {
		if len(ns) == 0 {
			return
		}
		ds := make([]time.Duration, len(ns))
		for i, v := range ns {
			ds[i] = time.Duration(v)
		}
		for _, q := range qs {
			out[fmt.Sprintf("%s_p%02.0f_s", name, q*100)] = fleet.LatencyPercentile(ds, q).Seconds()
		}
	}
	pct("ready", r.model.ReadyNs, 0.5, 0.95)
	pct("visit", r.model.VisitNs, 0.5, 0.95)
	var mig []int64
	for _, m := range r.model.Migrations {
		mig = append(mig, m.SimNs)
	}
	pct("migrate", mig, 0.5, 0.8)
	if r.vault.saves > 0 {
		out["ckpt_wire_mb"] = mb(r.vault.uploadBytes + r.vault.loginBytes)
	}
	if len(r.mix) > 0 && r.sz.CoverIdle > 0 {
		nymHours := float64(len(r.mix)) * r.sz.CoverIdle.Hours()
		out["cover_mb_hr"] = mb(int64(r.c1["anonnet.cover_frames"]-r.c0["anonnet.cover_frames"])*mixnet.PacketSize) / nymHours
	}
	return out
}

// writeTrace stores the traced repetition's CPU profile and spans under
// outDir and folds both into res.
func (r *rep) writeTrace(res *repResult) error {
	buckets, err := cpuByBucket(r.prof.Bytes())
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	res.CPUByBucket = buckets
	res.Spans = summarizeSpans(r.spans)
	if r.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-rep%d", r.w.name, r.seed, r.index))
	if err := os.WriteFile(stem+".cpu.pprof", r.prof.Bytes(), 0o644); err != nil {
		return err
	}
	spans, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".spans.json", spans, 0o644)
}

func summarizeSpans(spans []span) map[string]spanStat {
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	out := map[string]spanStat{}
	for name, ss := range byName {
		host := make([]float64, len(ss))
		simS := make([]float64, len(ss))
		st := spanStat{Count: len(ss)}
		for i, s := range ss {
			host[i] = float64(s.HostEnd-s.HostStart) / float64(time.Millisecond)
			simS[i] = (s.SimEnd - s.SimStart).Seconds()
			st.HostS += host[i] / 1e3
			st.HostMsMax = max(st.HostMsMax, host[i])
			st.AllocMB += float64(s.AllocBytes) / (1 << 20)
		}
		st.HostMsP50 = median(host)
		st.SimSP50 = median(simS)
		out[name] = st
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func mb(b int64) float64 { return float64(b) / float64(guestos.MiB) }
