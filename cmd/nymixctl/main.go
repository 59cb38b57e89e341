// Command nymixctl drives a simulated Nymix session from the command
// line, mirroring the Nym Manager workflow of paper section 3.5:
// start a fresh nym, browse, store it encrypted to the cloud, load it
// back, move a sanitized file in from the installed OS, and tear
// everything down with a validation report.
//
// Because the whole system is a deterministic simulation, nymixctl
// runs a scripted session (the "demo") rather than an interactive
// shell; every step prints what the Nym Manager UI would show.
//
// Usage:
//
//	nymixctl [-seed N] [-anonymizer tor|dissent|incognito|sweet|tor-bridge|mixnet] demo
//	nymixctl [-seed N] [-nyms N] fleet     # ramp a fleet of concurrent nyms with supervision
//	nymixctl [-seed N] [-nyms N] cluster   # shard a fleet across hosts and live-migrate a nym
//	nymixctl [-seed N] [-nyms N] elastic   # autoscale the pool through a burst, preempt for a VIP, drain to the floor
//	nymixctl [-seed N] [-nyms N] sweeps    # run the checkpoint sweep scheduler; watch incremental sweeps converge
//	nymixctl [-seed N] [-nyms N] status    # exercise crash/sweep/migration machinery, dump the typed SLO report
//	nymixctl scrub <file.jpg>   # run the SaniVM scrubbing suite on a real file
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nymix/internal/cluster"
	"nymix/internal/core"
	"nymix/internal/cpusched"
	"nymix/internal/experiments"
	"nymix/internal/fleet"
	"nymix/internal/hypervisor"
	"nymix/internal/installedos"
	"nymix/internal/sanitize"
	"nymix/internal/sim"
	"nymix/internal/slo"
	"nymix/internal/webworld"
)

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	anonymizer := flag.String("anonymizer", "tor", "anonymizer for the demo nym: tor, dissent, incognito, sweet, tor-bridge, mixnet")
	nyms := flag.Int("nyms", 24, "fleet size for the fleet, cluster, elastic, sweeps and status commands")
	flag.Parse()

	switch flag.Arg(0) {
	case "demo", "":
		if err := demo(*seed, *anonymizer); err != nil {
			fmt.Fprintf(os.Stderr, "nymixctl: %v\n", err)
			os.Exit(1)
		}
	case "fleet":
		if err := fleetDemo(*seed, *nyms); err != nil {
			fmt.Fprintf(os.Stderr, "nymixctl: %v\n", err)
			os.Exit(1)
		}
	case "cluster":
		if err := clusterDemo(*seed, *nyms); err != nil {
			fmt.Fprintf(os.Stderr, "nymixctl: %v\n", err)
			os.Exit(1)
		}
	case "elastic":
		if err := elasticDemo(*seed, *nyms); err != nil {
			fmt.Fprintf(os.Stderr, "nymixctl: %v\n", err)
			os.Exit(1)
		}
	case "sweeps":
		if err := sweepsDemo(*seed, *nyms); err != nil {
			fmt.Fprintf(os.Stderr, "nymixctl: %v\n", err)
			os.Exit(1)
		}
	case "status":
		if err := statusDemo(*seed, *nyms); err != nil {
			fmt.Fprintf(os.Stderr, "nymixctl: %v\n", err)
			os.Exit(1)
		}
	case "scrub":
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "nymixctl scrub: need a file path")
			os.Exit(2)
		}
		if err := scrubFile(flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "nymixctl: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "nymixctl: unknown command %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

// scrubFile runs the sanitize suite against a real on-disk file.
func scrubFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("analyzing %s (%d bytes)\n", path, len(data))
	for _, r := range sanitize.Analyze(path, data) {
		fmt.Println("  ", r)
	}
	res, err := sanitize.Scrub(path, data, sanitize.AllOptions)
	if err != nil {
		return err
	}
	fmt.Printf("applied: %v\n", res.Applied)
	out := path + ".scrubbed"
	if err := os.WriteFile(out, res.Data, 0o600); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes); residual risks: %d\n", out, len(res.Data), len(res.Residual))
	for _, r := range res.Residual {
		fmt.Println("  ", r)
	}
	return nil
}

// demo runs the full scripted session.
func demo(seed uint64, anonymizer string) error {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	mgr, err := core.NewManager(eng, world, hypervisor.DefaultConfig())
	if err != nil {
		return err
	}
	say := func(format string, args ...interface{}) {
		fmt.Printf("[t=%8.1fs] "+format+"\n", append([]interface{}{eng.Now().Seconds()}, args...)...)
	}
	var demoErr error
	eng.Go("demo", func(p *sim.Proc) {
		dest := core.StoreDest{Provider: "dropbin", Account: "anon-9134", AccountPassword: "cloud-pw"}

		say("nymix booted; starting a fresh %s nym", anonymizer)
		nym, err := mgr.StartNym(p, "demo", core.Options{Model: core.ModelPersistent, Anonymizer: anonymizer})
		if err != nil {
			demoErr = err
			return
		}
		ph := nym.Phases()
		say("nymbox up: boot %.1fs, %s start %.1fs", ph.BootVM.Seconds(), anonymizer, ph.StartAnon.Seconds())

		if _, err := nym.Browser().Login(p, "twitter.com", "pseudonym-47", "tw-pw"); err != nil {
			demoErr = err
			return
		}
		say("logged in to twitter.com as pseudonym-47 (exit identity: %s)", nym.Anonymizer().ExitIdentity())
		if _, err := nym.Browser().Post(p, "twitter.com", "hello from a nymbox"); err != nil {
			demoErr = err
			return
		}
		say("posted; server-side cookie bound to this nym only")
		if cov, ok := nym.Anonymizer().(interface {
			CoverPackets() int64
			CoverWireBytes() int64
		}); ok {
			say("cover traffic so far: %d fixed-size frames, %.2f MB — the uplink looks identical when idle",
				cov.CoverPackets(), float64(cov.CoverWireBytes())/(1<<20))
		}

		// Sanitized transfer from the installed OS.
		photo := sanitize.MakeJPEG(sanitize.EXIFMeta{
			Make: "SmartPhoneCo", Model: "SP-7", Serial: "SN-0042",
			GPSLat: "41.2995N", GPSLon: "69.2401E",
		}, []byte("protest-photo-pixels"))
		installed, err := installedos.NewImage(installedos.Windows7, map[string][]byte{
			"/users/me/photos/protest.jpg": photo,
		})
		if err != nil {
			demoErr = err
			return
		}
		report, err := mgr.TransferFile(p, installed, "/users/me/photos/protest.jpg", nym, sanitize.AllOptions)
		if err != nil {
			demoErr = err
			return
		}
		say("SaniVM transfer: %d risk(s) found, applied %v, residual %d",
			len(report.RisksFound), report.Applied, len(report.Residual))
		if _, err := nym.Browser().Upload(p, "twitter.com", []byte("scrubbed")); err != nil {
			demoErr = err
			return
		}
		say("uploaded the scrubbed photo")

		size, err := mgr.StoreNym(p, nym, "nym-password", dest)
		if err != nil {
			demoErr = err
			return
		}
		say("nym stored to %s: %.1f MB encrypted", dest.Provider, float64(size)/(1<<20))
		if err := mgr.TerminateNym(p, nym); err != nil {
			demoErr = err
			return
		}
		say("nym terminated: memory wiped, host holds %d nyms", mgr.RunningNyms())

		restored, err := mgr.LoadNym(p, "demo", "nym-password", core.Options{Model: core.ModelPersistent, Anonymizer: anonymizer}, dest)
		if err != nil {
			demoErr = err
			return
		}
		say("nym restored from the cloud (ephemeral loader took %.1fs)", restored.Phases().EphemeralNym.Seconds())
		if _, err := restored.Browser().LoginSaved(p, "twitter.com"); err != nil {
			demoErr = err
			return
		}
		say("signed back in with stored credentials — no retyping, no habit to slip on")

		// NymVault: the content-addressed delta store. The first
		// checkpoint ships everything; after more browsing, the next
		// ships only changed chunks.
		vdest := core.VaultDest{Providers: []string{"dropbin", "gdrive"}, Account: "anon-9134", AccountPassword: "cloud-pw"}
		stats, err := mgr.StoreNymVault(p, restored, "nym-password", vdest)
		if err != nil {
			demoErr = err
			return
		}
		say("NymVault checkpoint: %d chunks, %.1f MB uploaded, replicated to %d providers",
			stats.TotalChunks, float64(stats.UploadedBytes)/(1<<20), len(vdest.Providers))
		if _, err := restored.Visit(p, "twitter.com"); err != nil {
			demoErr = err
			return
		}
		stats, err = mgr.StoreNymVault(p, restored, "nym-password", vdest)
		if err != nil {
			demoErr = err
			return
		}
		say("NymVault delta save after browsing: %d chunk uploads across the replicas (set of %d), %.2f MB uploaded (%.0f%% dedup; monolithic re-upload would be %.1f MB)",
			stats.NewChunks, stats.TotalChunks, float64(stats.UploadedBytes)/(1<<20),
			100*stats.DedupFrac(), float64(stats.BaselineWireBytes)/(1<<20))
		if err := mgr.TerminateNym(p, restored); err != nil {
			demoErr = err
			return
		}
		final, err := mgr.LoadNymVault(p, "demo", "nym-password", core.Options{Model: core.ModelPersistent, Anonymizer: anonymizer}, vdest)
		if err != nil {
			demoErr = err
			return
		}
		say("nym restored from the vault, every chunk authenticated against the sealed manifest")
		if err := mgr.TerminateNym(p, final); err != nil {
			demoErr = err
			return
		}
		say("session over; local media carries no nym state")
	})
	eng.Run()
	return demoErr
}

// clusterDemo shards a fleet over two simulated hosts, then walks the
// multi-host story: placement across the pool, a live vault-backed
// migration that preserves the nym's pseudonym identity end to end,
// and the reservation accounting on both sides of the move.
func clusterDemo(seed uint64, n int) error {
	if n < 4 {
		n = 4
	}
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	c, err := cluster.New(eng, world, experiments.ShardClusterConfig(2, cluster.LeastReserved{}))
	if err != nil {
		return err
	}
	say := func(format string, args ...interface{}) {
		fmt.Printf("[t=%8.1fs] "+format+"\n", append([]interface{}{eng.Now().Seconds()}, args...)...)
	}
	var demoErr error
	eng.Go("cluster-demo", func(p *sim.Proc) {
		hosts := c.Hosts()
		say("cluster up: %d hosts, %.1f GiB admissible each", len(hosts),
			float64(hosts[0].Fleet().RAMBudgetBytes())/(1<<30))
		if err := c.LaunchAll(experiments.FleetSpecs(n)); err != nil {
			demoErr = err
			return
		}
		if err := c.AwaitRunning(p, n); err != nil {
			demoErr = err
			return
		}
		st := c.Snapshot()
		say("%d nyms running, placed %v by %s", st.Running, st.PerHostRunning, "least-reserved")

		// Pick a persistent nym and give it identity worth preserving.
		var name string
		for _, h := range hosts {
			for _, m := range h.Fleet().Members() {
				if m.Nym() != nil && m.Nym().Model() == core.ModelPersistent {
					name = m.Name()
					break
				}
			}
			if name != "" {
				break
			}
		}
		src := c.HostOf(name)
		dst := hosts[0]
		if dst == src {
			dst = hosts[1]
		}
		if _, err := c.Member(name).Nym().Browser().Login(p, "twitter.com", "roamer", "pw"); err != nil {
			demoErr = err
			return
		}
		say("%s (on %s) logged in to twitter.com as roamer", name, src.Name())

		rep, err := c.MigrateNym(p, name, dst.Name())
		if err != nil {
			demoErr = err
			return
		}
		say("migrated %s: %s -> %s via the vault (%.1f MB cross-host wire)",
			name, rep.From, rep.To, float64(rep.WireBytes)/(1<<20))
		say("source %s now holds %d VMs and %.1f GiB reserved; %s runs %d nyms",
			src.Name(), src.Manager().Host().VMCount(),
			float64(src.Fleet().ReservedBytes())/(1<<30), dst.Name(), dst.Fleet().Running())
		m := c.Member(name)
		if _, err := m.Nym().Visit(p, "twitter.com"); err != nil {
			demoErr = err
			return
		}
		visits := world.Site("twitter.com").Visits()
		say("twitter sees cookie %q from the new host — same pseudonym, different machine",
			visits[len(visits)-1].CookieID)
		if cred, ok := m.Nym().Browser().Credentials("twitter.com"); ok {
			say("stored credentials (%s) crossed hosts inside the sealed checkpoint", cred.Account)
		}
		if err := c.StopAll(p); err != nil {
			demoErr = err
			return
		}
		say("cluster drained; %d migration(s) total, %.1f MB cross-host wire",
			c.Migrations(), float64(c.MigrationWireBytes())/(1<<20))
	})
	eng.Run()
	return demoErr
}

// elasticDemo walks the elastic-pool story on small (2 GiB) hosts so
// every decision lands in simulated minutes: a burst overflows the
// one-host floor and the autoscaler grows the pool; a System-class VIP
// launch hits the saturated ceiling and preemption sacrifices an idle
// ephemeral nym for it; the wave quiesces and the autoscaler drains
// the pool back to the floor, migrating the survivors through the
// vault.
func elasticDemo(seed uint64, n int) error {
	// A 2 GiB host holds ~6 density-tuned nymboxes; ceiling is 3 hosts.
	const perHost, ceiling = 6, 3
	if n < 8 {
		n = 8
	}
	if n > perHost*ceiling {
		n = perHost * ceiling
	}
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	cfg := experiments.ElasticClusterConfig(1, true)
	cfg.HostConfig = hypervisor.Config{RAMBytes: 2 << 30, CPU: cpusched.Config{Cores: 4, SMTFactor: 1.3}}
	c, err := cluster.New(eng, world, cfg)
	if err != nil {
		return err
	}
	say := func(format string, args ...interface{}) {
		fmt.Printf("[t=%8.1fs] "+format+"\n", append([]interface{}{eng.Now().Seconds()}, args...)...)
	}
	var demoErr error
	eng.Go("elastic-demo", func(p *sim.Proc) {
		say("pool up: %d host (floor %d, ceiling %d), %.1f GiB admissible",
			c.ActiveHosts(), 1, ceiling, float64(c.Hosts()[0].Fleet().RAMBudgetBytes())/(1<<30))
		say("launching a %d-nym burst (system > persistent > ephemeral classes)", n)
		if err := c.LaunchAll(experiments.ElasticSpecs(n)); err != nil {
			demoErr = err
			return
		}
		c.AwaitSettled(p)
		st := c.Snapshot()
		say("burst admitted: %d running on %d hosts (%d grown), placed %v",
			st.Running, st.ActiveHosts, st.GrowEvents, st.PerHostRunning)
		for _, ev := range c.ScaleLog() {
			say("  autoscaler: %s %s -> %d active hosts", ev.Kind, ev.Host, ev.Active)
		}

		// A VIP arrival at the ceiling: no host has room, growth is
		// capped, so the preemptor makes room by killing an idle
		// ephemeral nym (after its dwell).
		vip := fleet.Spec{
			Name:     "vip",
			Opts:     experiments.FleetNymOptions("vip", 0),
			Priority: fleet.PrioritySystem,
		}
		vip.Opts.Model = core.ModelPersistent
		vip.Opts.GuardSeed = "vip"
		say("VIP system-class launch arrives with the pool saturated at the ceiling")
		if err := c.Launch(vip); err != nil {
			demoErr = err
			return
		}
		for c.Member("vip") == nil || c.Member("vip").State() != fleet.StateRunning {
			c.AwaitSettled(p)
			if m := c.Member("vip"); m != nil && m.State() == fleet.StateFailed {
				demoErr = fmt.Errorf("vip launch failed: %v", m.LastErr())
				return
			}
		}
		st = c.Snapshot()
		say("VIP running on %s: preemption terminated %d ephemeral nym(s) to admit it",
			c.HostOf("vip").Name(), st.Preempted.Terminated)

		// The wave ends: ephemeral nyms terminate, the pool drains back
		// to the floor, migrating the persistent survivors via the vault.
		say("burst quiesces: stopping every ephemeral-class nym")
		preMoves, preWire := c.Migrations(), c.MigrationWireBytes()
		var stops []*sim.Future[struct{}]
		for _, h := range c.Hosts() {
			h := h
			for _, m := range h.Fleet().Members() {
				if m.State() != fleet.StateRunning || m.Priority() != fleet.PriorityEphemeral {
					continue
				}
				name := m.Name()
				stops = append(stops, eng.Go("stop-"+name, func(sp *sim.Proc) {
					h.Fleet().Stop(sp, name)
				}))
			}
		}
		for _, f := range stops {
			sim.Await(p, f)
		}
		c.AwaitSettled(p)
		st = c.Snapshot()
		say("drained to the floor: %d active host(s), %d retired; %d drain migration(s), %.1f MB vault wire",
			st.ActiveHosts, st.RetiredHosts, c.Migrations()-preMoves,
			float64(c.MigrationWireBytes()-preWire)/(1<<20))
		for _, h := range c.RetiredHosts() {
			say("  retired %s: %d VMs, %d reserved bytes (leak-free)",
				h.Name(), h.Manager().Host().VMCount(), h.Fleet().ReservedBytes())
		}
		say("%d persistent/system nyms still running, identities intact across %d total migrations",
			st.Running, st.Migrations)
	})
	eng.Run()
	return demoErr
}

// fleetDemo ramps a supervised fleet of concurrent nyms: parallel
// admission-controlled startup, an injected nymbox failure revived by
// the restart policy, a staggered NymVault save sweep over the
// persistent members, and a parallel teardown.
func fleetDemo(seed uint64, n int) error {
	if n < 2 {
		n = 2
	}
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	mgr, err := core.NewManager(eng, world, experiments.FleetHostConfig())
	if err != nil {
		return err
	}
	o := fleet.New(mgr, fleet.Config{Restart: fleet.DefaultRestartPolicy()})
	say := func(format string, args ...interface{}) {
		fmt.Printf("[t=%8.1fs] "+format+"\n", append([]interface{}{eng.Now().Seconds()}, args...)...)
	}
	var demoErr error
	eng.Go("fleet-demo", func(p *sim.Proc) {
		say("launching %d nyms (budget %.1f GiB RAM, %d-wide start gate)",
			n, float64(o.RAMBudgetBytes())/(1<<30), o.StartGateWidth())
		if _, err := o.LaunchAll(experiments.FleetSpecs(n)); err != nil {
			demoErr = err
			return
		}
		if err := o.AwaitRunning(p, n); err != nil {
			demoErr = err
			return
		}
		var slowest time.Duration
		for _, m := range o.Members() {
			if wait := m.RunningAt() - m.QueuedAt(); wait > slowest {
				slowest = wait
			}
		}
		say("fleet up: %d running, %.1f GiB reserved, peak host RAM %.1f GiB, slowest queue-to-running %.1fs",
			o.Running(), float64(o.ReservedBytes())/(1<<30), float64(o.PeakRAMBytes())/(1<<30),
			slowest.Seconds())

		victim := o.Members()[1]
		say("injecting a crash into %s", victim.Name())
		if err := o.FailNym(p, victim.Name(), nil); err != nil {
			demoErr = err
			return
		}
		if err := o.AwaitRunning(p, n); err != nil {
			demoErr = err
			return
		}
		say("%s revived by the restart policy (restart %d of %d); fleet back to %d running",
			victim.Name(), victim.Restarts(), o.Config().Restart.MaxRestarts, o.Running())

		stats, err := o.SaveSweep(p, "fleet-pw", experiments.FleetVaultDest)
		if err != nil {
			demoErr = err
			return
		}
		say("staggered save sweep: %d persistent nyms checkpointed, %.1f MB shipped over %.1fs",
			stats.Saves, float64(stats.UploadedBytes)/(1<<20), stats.Elapsed.Seconds())
		stats, err = o.SaveSweep(p, "fleet-pw", experiments.FleetVaultDest)
		if err != nil {
			demoErr = err
			return
		}
		say("steady-state sweep: %.2f MB (deltas only; monolithic re-upload would be %.1f MB)",
			float64(stats.UploadedBytes)/(1<<20), float64(stats.BaselineBytes)/(1<<20))

		if err := o.StopAll(p); err != nil {
			demoErr = err
			return
		}
		say("fleet stopped: %d nyms wiped, host holds %d VMs, %.1f GiB still reserved",
			o.CountState(fleet.StateStopped), mgr.Host().VMCount(), float64(o.ReservedBytes())/(1<<30))
	})
	eng.Run()
	return demoErr
}

// sweepsDemo runs the checkpoint sweep scheduler over an
// all-persistent fleet: a cold full checkpoint, then scheduled sweeps
// that skip clean nyms — sweeps with no browsing cost nothing, a
// browsed nym ships only its delta — converging to a small fraction
// of what saving everything every interval would cost.
func sweepsDemo(seed uint64, n int) error {
	if n < 4 {
		n = 4
	}
	const interval = 30 * time.Second
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	mgr, err := core.NewManager(eng, world, experiments.FleetHostConfig())
	if err != nil {
		return err
	}
	o := fleet.New(mgr, fleet.Config{Restart: fleet.DefaultRestartPolicy()})
	say := func(format string, args ...interface{}) {
		fmt.Printf("[t=%8.1fs] "+format+"\n", append([]interface{}{eng.Now().Seconds()}, args...)...)
	}
	var demoErr error
	eng.Go("sweeps-demo", func(p *sim.Proc) {
		say("launching %d persistent nyms", n)
		if _, err := o.LaunchAll(experiments.SweepSpecs(n)); err != nil {
			demoErr = err
			return
		}
		if err := o.AwaitRunning(p, n); err != nil {
			demoErr = err
			return
		}
		cold, err := o.SaveSweep(p, "fleet-pw", experiments.FleetVaultDest)
		if err != nil {
			demoErr = err
			return
		}
		say("cold full checkpoint: %d nyms, %.1f MB shipped", cold.Saves, float64(cold.UploadedBytes)/(1<<20))

		if err := o.StartSweeps(fleet.SweepConfig{
			Interval: interval, Password: "fleet-pw", DestFor: experiments.FleetVaultDest,
		}); err != nil {
			demoErr = err
			return
		}
		say("sweep scheduler started (interval %s, dirty-skip on)", interval)
		members := o.Members()
		for round := 0; round < 6; round++ {
			if round == 2 || round == 4 {
				m := members[round%n]
				if _, err := m.Nym().Visit(p, "twitter.com"); err != nil {
					demoErr = err
					return
				}
				d := m.Nym().DirtyState()
				say("%s browsed: %d RAM pages and %.1f KB of disk dirtied since its checkpoint",
					m.Name(), d.RAMPages, float64(d.DiskBytes)/(1<<10))
			}
			p.Sleep(interval)
			recs := o.SweepReport().Records
			if len(recs) > 0 {
				r := recs[len(recs)-1]
				say("sweep %d: %d eligible, %d saved, %d skipped clean (ratio %.2f), %.2f MB wire",
					len(recs), r.Eligible, r.Saves, r.Skipped, r.DirtySkipRatio(),
					float64(r.WireBytes())/(1<<20))
			}
		}
		o.StopSweeps()
		o.AwaitSweepsIdle(p)
		rep := o.SweepReport()
		say("scheduler stopped after %d sweeps: %d saves, %d clean skips (ratio %.2f), %.2f MB total wire, sweep p50 %.1fs / p95 %.1fs",
			rep.Sweeps, rep.Saves, rep.Skipped, rep.DirtySkipRatio(),
			float64(rep.WireBytes())/(1<<20), rep.Latency.P50.Seconds(), rep.Latency.P95.Seconds())
		say("a save-everything sweep at the same cadence would have checkpointed %d nyms every %s; dirty tracking shipped deltas only",
			n, interval)
		if err := o.StopAll(p); err != nil {
			demoErr = err
			return
		}
		say("fleet stopped")
	})
	eng.Run()
	return demoErr
}

// statusDemo exercises the whole failure surface on a live cluster —
// a sharded ramp, scheduled sweeps, an injected nymbox crash, a
// cross-host migration, a region-severing partition during a second
// migration — then dumps the typed SLO report: every recorded failure
// bucketed by its registered nymerr code (zero unclassified), ramp
// and sweep latency percentiles, machinery rates, and checkpoint wire
// budgets.
func statusDemo(seed uint64, n int) error {
	if n < 4 {
		n = 4
	}
	eng := sim.NewEngine(seed)
	net, world := webworld.BuildDefault(eng)
	cfg := experiments.ShardClusterConfig(2, cluster.LeastReserved{})
	cfg.Fleet = fleet.Config{Restart: fleet.DefaultRestartPolicy()}
	// Hosts alternate between two hosting regions so a partition can
	// sever one side's provider path while the other keeps working.
	cfg.RegionFor = func(i int) string {
		if i%2 == 0 {
			return "east"
		}
		return "west"
	}
	c, err := cluster.New(eng, world, cfg)
	if err != nil {
		return err
	}
	say := func(format string, args ...interface{}) {
		fmt.Printf("[t=%8.1fs] "+format+"\n", append([]interface{}{eng.Now().Seconds()}, args...)...)
	}
	var demoErr error
	eng.Go("status-demo", func(p *sim.Proc) {
		say("ramping %d nyms across %d hosts", n, len(c.Hosts()))
		if err := c.LaunchAll(experiments.FleetSpecs(n)); err != nil {
			demoErr = err
			return
		}
		if err := c.AwaitRunning(p, n); err != nil {
			demoErr = err
			return
		}
		if err := c.StartSweeps(cluster.SweepConfig{Interval: 20 * time.Second, Cadence: fleet.Cadence{Mode: fleet.CadenceAll}}); err != nil {
			demoErr = err
			return
		}
		say("%d running; sweep coordinator started", c.Running())
		p.Sleep(45 * time.Second)

		// Inject a nymbox crash: the restart machinery revives the nym
		// and the failure lands in the report as fleet.crash_injected.
		var victim string
		for _, h := range c.Hosts() {
			for _, m := range h.Fleet().Members() {
				if m.State() == fleet.StateRunning {
					victim = m.Name()
					break
				}
			}
			if victim != "" {
				break
			}
		}
		if err := c.HostOf(victim).Fleet().FailNym(p, victim, nil); err != nil {
			demoErr = err
			return
		}
		say("injected a crash into %s; waiting for its restart", victim)
		if err := c.AwaitRunning(p, n); err != nil {
			demoErr = err
			return
		}

		// Move one nym across hosts through the vault.
		mover := ""
		for _, h := range c.Hosts() {
			for _, m := range h.Fleet().Members() {
				if m.State() == fleet.StateRunning && m.Nym() != nil && m.Nym().Model() == core.ModelPersistent {
					mover = m.Name()
					break
				}
			}
			if mover != "" {
				break
			}
		}
		dst := c.Hosts()[0]
		if c.HostOf(mover) == dst {
			dst = c.Hosts()[1]
		}
		if _, err := c.MigrateNym(p, mover, dst.Name()); err != nil {
			demoErr = err
			return
		}
		say("migrated %s to %s via the vault", mover, dst.Name())
		p.Sleep(30 * time.Second)

		// Now migrate it back while its new region is severed from the
		// provider backbone: the fresh save fails typed
		// (cloud.provider_unreachable at root), and the move recovers
		// from the last sweep checkpoint instead.
		src := c.HostOf(mover)
		srcRegion := src.Manager().Host().Node().Region()
		back := c.Hosts()[0]
		if back == src {
			back = c.Hosts()[1]
		}
		net.SeverRegions(srcRegion, webworld.CoreRegion)
		say("severed region %q from the providers; migrating %s back to %s", srcRegion, mover, back.Name())
		rep, err := c.MigrateNym(p, mover, back.Name())
		if err != nil {
			demoErr = err
			return
		}
		net.HealRegions(srcRegion, webworld.CoreRegion)
		say("migration recovered from the last vault checkpoint (retried=%v); region healed", rep.Retried)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		if err := c.StopAll(p); err != nil {
			demoErr = err
			return
		}
		say("cluster drained; rendering the SLO report")
	})
	eng.Run()
	if demoErr != nil {
		return demoErr
	}
	fmt.Print(slo.FromCluster(c).Render())
	return nil
}
