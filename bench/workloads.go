package main

import (
	"fmt"
	"time"

	"nymix/internal/anonnet/mixnet"
	"nymix/internal/cluster"
	"nymix/internal/experiments"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// size fixes how much work one repetition of each workload does.
type size struct {
	SessionNyms      int
	CheckpointNyms   int
	CheckpointRounds int
	MigrateNyms      int
	CoverNyms        int
	CoverIdle        time.Duration
}

// fullSize is what the benchmark measures, sized so one repetition
// takes a few host seconds; quickSize is the smoke-test size.
var (
	fullSize  = size{SessionNyms: 32, CheckpointNyms: 24, CheckpointRounds: 8, MigrateNyms: 8, CoverNyms: 16, CoverIdle: 30 * time.Minute}
	quickSize = size{SessionNyms: 8, CheckpointNyms: 8, CheckpointRounds: 2, MigrateNyms: 8, CoverNyms: 8, CoverIdle: time.Minute}
)

// workload is one named scenario. Each is a closed loop: every simulated
// caller issues its next call only after its previous call returned.
type workload struct {
	name  string
	hosts int
	run   func(r *rep, p *sim.Proc) error
}

// workloads are listed in the order reps interleave. Each aims at a
// different hot layer; README.md maps layers to the metrics they move.
var workloads = []*workload{
	// Parallel ephemeral browsing, the paper's core use: VM boot and
	// teardown (mem, vm, hypervisor), tor bootstrap and cpusched. Never
	// touches vault, nymstate or cloud.
	{name: "session", hosts: 2, run: runSession},
	// Fixed-interval checkpointing under Zipf churn: per-save cost in
	// nymstate, vault and cloud, delta saves beside fully-deduped
	// ones, with no VM boot in the measured phase.
	{name: "checkpoint", hosts: 2, run: runCheckpoint},
	// Sequential cross-host migrations: vault restores and
	// boot-from-checkpoint, one clean host timing per call.
	{name: "migrate", hosts: 2, run: runMigrate},
	// Idle mixnet nyms: millions of tiny cover transfers through sim,
	// vnet and anonnet/mixnet, with almost no mem work and no vault.
	{name: "cover", hosts: 1, run: runCover},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runRep runs one repetition of w in this process.
func runRep(w *workload, seed uint64, sz size, traced bool, outDir string, index int) (*repResult, error) {
	r := &rep{w: w, seed: seed, sz: sz, traced: traced, outDir: outDir, index: index, start: time.Now()}
	r.eng = sim.NewEngine(seed)
	_, r.world = webworld.BuildDefault(r.eng)
	c, err := cluster.New(r.eng, r.world, cluster.Config{Hosts: w.hosts, VaultPassword: vaultPassword})
	if err != nil {
		return nil, fmt.Errorf("build cluster: %w", err)
	}
	r.c = c
	var runErr error
	r.eng.Go("bench/"+w.name, func(p *sim.Proc) { runErr = w.run(r, p) })
	r.eng.Run()
	if r.measuring {
		r.end() // an aborted workload still stops the profiler and sampler
	}
	r.record(w.name+" workload", 0, runErr)
	if !r.measured {
		return nil, fmt.Errorf("%s: workload never reached its measured phase: %v", w.name, runErr)
	}
	r.checkInvariants()
	return r.result()
}

// runSession launches SessionNyms tor nyms (three in four ephemeral),
// waits for all to run, has two concurrent callers per nym load one
// page each, and stops everything. All of it is measured.
func runSession(r *rep, p *sim.Proc) error {
	r.begin()
	if err := r.launch(p, experiments.FleetSpecs(r.sz.SessionNyms)); err != nil {
		return err
	}
	r.visitAll(p, 2)
	err := r.stopAll(p)
	r.end()
	return err
}

// runCheckpoint launches CheckpointNyms persistent nyms (set-up), then
// measures a cold SaveSweep per host followed by CheckpointRounds rounds
// of churn, a 30 sim-s sleep and a SaveSweep per host.
func runCheckpoint(r *rep, p *sim.Proc) error {
	if err := r.launch(p, experiments.EconomySpecs(r.sz.CheckpointNyms)); err != nil {
		return err
	}
	r.begin()
	if err := r.saveSweeps(p); err != nil {
		return err
	}
	for round := 0; round < r.sz.CheckpointRounds; round++ {
		r.churn(round)
		r.sleep(p, experiments.EconomyInterval)
		if err := r.saveSweeps(p); err != nil {
			return err
		}
	}
	r.end()
	return r.stopAll(p)
}

// churn applies one round of the economy experiment's Zipf-skewed
// writes: hot nyms rewrite 64 KiB, warm ones 8 KiB, bursty ones 2 KiB
// every fourth round, and the idle tail nothing. Content changes every
// round and with the seed, so each write is a real delta.
func (r *rep) churn(round int) {
	n := len(r.names)
	for i, name := range r.names {
		var path string
		var size int
		switch {
		case i < max(1, n/64):
			path, size = "/var/hot-state", 64<<10
		case i < max(2, n/8):
			path, size = "/var/warm-cache", 8<<10
		case i < max(3, n/4):
			if (round+i)%4 != 0 {
				continue
			}
			path, size = "/var/burst-log", 2<<10
		default:
			continue
		}
		m := r.c.Member(name)
		if m == nil || m.Nym() == nil {
			r.record("churn "+name, 1, fmt.Errorf("nym %q is not running", name))
			continue
		}
		data := make([]byte, size)
		salt := int(r.seed % 251)
		for j := range data {
			data[j] = byte((i*31 + round*7 + j + salt) % 251)
		}
		r.record("churn "+name, 1, m.Nym().CommVM().Disk().WriteFile(path, data))
	}
}

// runMigrate launches MigrateNyms persistent nyms, cold-saves every
// host and has each nym load one page (set-up), then measures one
// sequential MigrateNym per nym to the other host.
func runMigrate(r *rep, p *sim.Proc) error {
	if err := r.launch(p, experiments.EconomySpecs(r.sz.MigrateNyms)); err != nil {
		return err
	}
	if err := r.saveSweeps(p); err != nil {
		return err
	}
	r.visitAll(p, 1)
	hosts := r.c.Hosts()
	r.begin()
	for _, name := range r.names {
		dst := hosts[0].Name()
		if r.c.HostOf(name) == hosts[0] {
			dst = hosts[1].Name()
		}
		t0 := p.Now()
		var rep cluster.MigrationReport
		err := r.call("cluster.MigrateNym", func() (err error) {
			rep, err = r.c.MigrateNym(p, name, dst)
			return err
		})
		r.record("migrate "+name, 1, err)
		var restored int64
		if m := r.c.Member(name); m != nil && m.Nym() != nil {
			restored = m.Nym().RestoreStats().DownloadedBytes
		}
		r.model.Migrations = append(r.model.Migrations, migrationModel{
			Name: name, From: rep.From, To: rep.To,
			UploadedBytes: rep.Save.UploadedBytes, NewChunks: rep.Save.NewChunks, TotalChunks: rep.Save.TotalChunks,
			WireBytes: rep.WireBytes, RestoreBytes: restored, Retried: rep.Retried, SimNs: int64(p.Now() - t0),
		})
		r.vault.saves++
		r.vault.uploadBytes += rep.Save.UploadedBytes
		r.vault.newChunks += rep.Save.NewChunks
		r.vault.totalChunks += rep.Save.TotalChunks
		r.vault.restoreBytes += restored
	}
	r.end()
	return r.stopAll(p)
}

// runCover launches CoverNyms mixnet nyms on one host (set-up), then
// measures CoverIdle of idle time, in which only cover traffic flows,
// and the teardown.
func runCover(r *rep, p *sim.Proc) error {
	specs := experiments.FleetSpecs(r.sz.CoverNyms)
	for i := range specs {
		specs[i].Opts.Anonymizer = "mixnet"
	}
	if err := r.launch(p, specs); err != nil {
		return err
	}
	for _, name := range r.names {
		if m := r.c.Member(name); m != nil && m.Nym() != nil {
			mc, ok := m.Nym().Anonymizer().(*mixnet.Client)
			r.check(ok, "%s runs %T, not a mixnet client", name, m.Nym().Anonymizer())
			if ok {
				r.mix = append(r.mix, mc)
			}
		}
	}
	r.begin()
	r.sleep(p, r.sz.CoverIdle)
	err := r.stopAll(p)
	r.end()
	return err
}
