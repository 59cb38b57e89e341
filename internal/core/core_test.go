package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nymix/internal/buddies"
	"nymix/internal/guestos"
	"nymix/internal/hypervisor"
	"nymix/internal/installedos"
	"nymix/internal/nymerr"
	"nymix/internal/sanitize"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
	"nymix/internal/webworld"
)

func newManager(t *testing.T) (*sim.Engine, *Manager) {
	t.Helper()
	eng := sim.NewEngine(51)
	_, world := webworld.BuildDefault(eng)
	m, err := NewManager(eng, world, hypervisor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

// run executes fn as a sim process and drains the engine.
func run(t *testing.T, eng *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	eng.Go("test", fn)
	eng.Run()
}

func TestStartNymBuildsIsolatedNymbox(t *testing.T) {
	eng, m := newManager(t)
	var nym *Nym
	run(t, eng, func(p *sim.Proc) {
		var err error
		nym, err = m.StartNym(p, "news", Options{})
		if err != nil {
			t.Errorf("start: %v", err)
		}
	})
	if nym == nil {
		t.Fatal("no nym")
	}
	if nym.Model() != ModelEphemeral {
		t.Fatalf("default model = %v", nym.Model())
	}
	if nym.Anonymizer().Name() != "tor" {
		t.Fatalf("default anonymizer = %v", nym.Anonymizer().Name())
	}
	net := m.World().Net()
	anonName := nym.AnonVM().Name()
	commName := nym.CommVM().Name()
	if !net.CanReach(anonName, commName, "socks") {
		t.Fatal("virtual wire missing")
	}
	for _, dst := range []string{"host", "site:twitter.com", "intranet-fileserver"} {
		if net.CanReach(anonName, dst, "tcp") {
			t.Errorf("AnonVM reaches %s directly", dst)
		}
	}
	if net.CanReach(commName, "intranet-fileserver", "tcp") {
		t.Error("CommVM reaches the intranet")
	}
	if !net.CanReach(commName, "site:twitter.com", "tor") {
		t.Error("CommVM cannot reach the Internet")
	}
}

func TestStartPhasesRecorded(t *testing.T) {
	eng, m := newManager(t)
	var nym *Nym
	run(t, eng, func(p *sim.Proc) {
		nym, _ = m.StartNym(p, "n", Options{})
		nym.Visit(p, "twitter.com")
	})
	ph := nym.Phases()
	if ph.BootVM <= 0 || ph.StartAnon <= 0 || ph.FirstPage <= 0 {
		t.Fatalf("phases = %+v", ph)
	}
	if ph.EphemeralNym != 0 {
		t.Fatalf("fresh nym has ephemeral phase: %+v", ph)
	}
	// Abstract claim: a nymbox loads within 15-25 seconds.
	total := ph.BootVM + ph.StartAnon + ph.FirstPage
	if total < 10*time.Second || total > 30*time.Second {
		t.Fatalf("fresh startup = %v, want 15-25s ballpark", total)
	}
}

func TestEphemeralTerminationIsAmnesiac(t *testing.T) {
	eng, m := newManager(t)
	baseline := int64(0)
	run(t, eng, func(p *sim.Proc) {
		baseline = m.Host().Mem().UsedBytes()
		nym, err := m.StartNym(p, "throwaway", Options{})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		nym.Browser().Stain("evil") // even a stained nym...
		nym.Visit(p, "twitter.com")
		if err := m.TerminateNym(p, nym); err != nil {
			t.Errorf("terminate: %v", err)
		}
	})
	if m.RunningNyms() != 0 {
		t.Fatal("nym still registered")
	}
	used := m.Host().Mem().UsedBytes()
	if used > baseline {
		t.Fatalf("memory after termination %d > baseline %d", used, baseline)
	}
	if m.Host().Mem().Stats().ScrubbedBytes == 0 {
		t.Fatal("no secure erase recorded")
	}
}

func TestTerminatedNymRejectsUse(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		nym, _ := m.StartNym(p, "n", Options{})
		m.TerminateNym(p, nym)
		if _, err := nym.Visit(p, "twitter.com"); !errors.Is(err, ErrNymTerminated) {
			t.Errorf("visit after terminate: %v", err)
		}
		if err := m.TerminateNym(p, nym); !errors.Is(err, ErrNymTerminated) {
			t.Errorf("double terminate: %v", err)
		}
	})
}

func TestDuplicateNymNameRejected(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		m.StartNym(p, "x", Options{})
		if _, err := m.StartNym(p, "x", Options{}); !errors.Is(err, ErrNymExists) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestParallelNymsAreIndependent(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		a, err := m.StartNym(p, "work", Options{})
		if err != nil {
			t.Errorf("a: %v", err)
			return
		}
		b, err := m.StartNym(p, "blog", Options{})
		if err != nil {
			t.Errorf("b: %v", err)
			return
		}
		a.Browser().Login(p, "twitter.com", "worker", "pw1")
		b.Browser().Login(p, "twitter.com", "blogger", "pw2")
		// No cross-reach between the two nymboxes.
		net := m.World().Net()
		if net.CanReach(a.AnonVM().Name(), b.AnonVM().Name(), "tcp") ||
			net.CanReach(a.CommVM().Name(), b.CommVM().Name(), "tcp") {
			t.Error("nymboxes can reach each other")
		}
		// Separate cookies at the server.
		visits := m.World().Site("twitter.com").Visits()
		if len(visits) != 2 || visits[0].CookieID == visits[1].CookieID {
			t.Errorf("cookies not isolated: %+v", visits)
		}
	})
}

func TestStoreAndLoadCloudNym(t *testing.T) {
	eng, m := newManager(t)
	dest := StoreDest{Provider: "dropbin", Account: "anon-acct-1", AccountPassword: "cloudpw"}
	var storedSize int64
	var guard string
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "alice-blog", Options{Model: ModelPersistent})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		nym.Browser().Login(p, "twitter.com", "alice", "pw")
		nym.Visit(p, "gmail.com")
		guard = nym.Anonymizer().ExportState()["guard"]
		storedSize, err = m.StoreNym(p, nym, "nym-password", dest)
		if err != nil {
			t.Errorf("store: %v", err)
			return
		}
		if err := m.TerminateNym(p, nym); err != nil {
			t.Errorf("terminate: %v", err)
		}
	})
	if storedSize <= 0 {
		t.Fatal("no archive stored")
	}
	pr, _ := m.Provider("dropbin")
	if got := pr.StoredBytes("anon-acct-1"); got != storedSize {
		t.Fatalf("provider holds %d, want %d", got, storedSize)
	}

	// Restore: profile, credentials, cache, and Tor guard all survive.
	var restored *Nym
	run(t, eng, func(p *sim.Proc) {
		var err error
		restored, err = m.LoadNym(p, "alice-blog", "nym-password", Options{Model: ModelPersistent}, dest)
		if err != nil {
			t.Errorf("load: %v", err)
		}
	})
	if restored == nil {
		t.Fatal("no restored nym")
	}
	if restored.Cycles() != 1 {
		t.Fatalf("cycles = %d", restored.Cycles())
	}
	if got := restored.Anonymizer().ExportState()["guard"]; got != guard {
		t.Fatalf("guard = %q, want %q (must persist)", got, guard)
	}
	cred, ok := restored.Browser().Credentials("twitter.com")
	if !ok || cred.Account != "alice" {
		t.Fatalf("credentials lost: %+v %v", cred, ok)
	}
	if restored.Phases().EphemeralNym <= 0 {
		t.Fatal("cloud load must include the ephemeral-nym phase")
	}
	var res struct{ first bool }
	run(t, eng, func(p *sim.Proc) {
		r, err := restored.Visit(p, "gmail.com")
		if err != nil {
			t.Errorf("visit: %v", err)
		}
		res.first = r.FirstVisit
	})
	if res.first {
		t.Fatal("restored nym lost its cache state")
	}
}

func TestLoadNymWrongPassword(t *testing.T) {
	eng, m := newManager(t)
	dest := StoreDest{Provider: "gdrive", Account: "acct", AccountPassword: "cpw"}
	run(t, eng, func(p *sim.Proc) {
		nym, _ := m.StartNym(p, "n", Options{Model: ModelPersistent})
		m.StoreNym(p, nym, "right", dest)
		m.TerminateNym(p, nym)
		if _, err := m.LoadNym(p, "n", "wrong", Options{}, dest); err == nil {
			t.Error("wrong password accepted")
		}
	})
	// The failed loader must not leak a running nym.
	if m.RunningNyms() != 0 {
		t.Fatalf("running nyms = %d", m.RunningNyms())
	}
}

// Regression: when the cloud-load path fails after its throwaway
// loader nymbox is up, the loader must be torn down (not left pinning
// host RAM) and the primary failure must keep its typed code through
// the teardown join.
func TestLoadNymUnknownProviderTearsDownLoader(t *testing.T) {
	eng, m := newManager(t)
	var loadErr error
	run(t, eng, func(p *sim.Proc) {
		_, loadErr = m.LoadNym(p, "ghost", "pw", Options{},
			StoreDest{Provider: "no-such-cloud", Account: "a", AccountPassword: "c"})
	})
	if loadErr == nil {
		t.Fatal("load from an unknown provider succeeded")
	}
	if !errors.Is(loadErr, ErrNoProvider) {
		t.Fatalf("error lost the ErrNoProvider sentinel: %v", loadErr)
	}
	if nymerr.Classify(loadErr) != CodeUnknownProvider {
		t.Fatalf("classified %q, want %s: %v", nymerr.Classify(loadErr), CodeUnknownProvider, loadErr)
	}
	if m.RunningNyms() != 0 {
		t.Fatalf("running nyms = %d; the loader leaked", m.RunningNyms())
	}
	if got := m.Host().VMCount(); got != 0 {
		t.Fatalf("host VMs = %d; the loader's VM pair leaked", got)
	}
}

func TestLocalStoreSkipsEphemeralNym(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		nym, _ := m.StartNym(p, "n", Options{Model: ModelPreconfigured})
		if _, err := m.StoreNym(p, nym, "pw", Local); err != nil {
			t.Errorf("store local: %v", err)
		}
		m.TerminateNym(p, nym)
		restored, err := m.LoadNym(p, "n", "pw", Options{Model: ModelPreconfigured}, Local)
		if err != nil {
			t.Errorf("load local: %v", err)
			return
		}
		if restored.Phases().EphemeralNym != 0 {
			t.Error("local load should not need an ephemeral nym")
		}
	})
	if _, ok := m.LocalArchiveSize("n"); !ok {
		t.Fatal("local archive missing")
	}
}

func TestPreconfiguredScrubsStains(t *testing.T) {
	// The pre-configured model: "a malware infection affecting one
	// browsing session will be scrubbed at the user's next session"
	// (section 3.5).
	eng, m := newManager(t)
	dest := StoreDest{Provider: "dropbin", Account: "a", AccountPassword: "c"}
	run(t, eng, func(p *sim.Proc) {
		nym, _ := m.StartNym(p, "golden", Options{Model: ModelPreconfigured})
		nym.Browser().Login(p, "twitter.com", "persona", "pw")
		// Golden snapshot taken while clean.
		if _, err := m.StoreNym(p, nym, "pw", dest); err != nil {
			t.Errorf("store: %v", err)
			return
		}
		// Session gets exploited and stained; user just terminates.
		nym.Browser().Stain("apt-41")
		m.TerminateNym(p, nym)

		// Next session restores the golden snapshot: stain gone,
		// credentials kept.
		again, err := m.LoadNym(p, "golden", "pw", Options{Model: ModelPreconfigured}, dest)
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		if again.Browser().Stained() {
			t.Error("stain survived the pre-configured restore")
		}
		if _, ok := again.Browser().Credentials("twitter.com"); !ok {
			t.Error("credentials lost")
		}
	})
}

func TestPersistentModelCarriesStainForward(t *testing.T) {
	// The flip side (section 3.5): persistent mode "increases risk that
	// the effects of a stain or other exploit attack in one browsing
	// session will persist for the lifetime of the nym".
	eng, m := newManager(t)
	dest := StoreDest{Provider: "dropbin", Account: "a2", AccountPassword: "c"}
	run(t, eng, func(p *sim.Proc) {
		nym, _ := m.StartNym(p, "sticky", Options{Model: ModelPersistent})
		nym.Browser().Stain("apt-41")
		if err := m.EndSession(p, nym, "pw", dest); err != nil {
			t.Errorf("end session: %v", err)
			return
		}
		again, err := m.LoadNym(p, "sticky", "pw", Options{Model: ModelPersistent}, dest)
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		if !again.Browser().Stained() {
			t.Error("persistent model should carry the stain")
		}
	})
}

func TestGuardSeedStableAcrossLoaderAndNym(t *testing.T) {
	eng, m := newManager(t)
	seed := "derived-from-password-and-location"
	var guards []string
	run(t, eng, func(p *sim.Proc) {
		for i, name := range []string{"g1", "g2"} {
			nym, err := m.StartNym(p, name, Options{GuardSeed: seed})
			if err != nil {
				t.Errorf("start %d: %v", i, err)
				return
			}
			guards = append(guards, nym.Anonymizer().ExportState()["guard"])
			m.TerminateNym(p, nym)
		}
	})
	if len(guards) != 2 || guards[0] != guards[1] || guards[0] == "" {
		t.Fatalf("seeded guards differ: %v", guards)
	}
}

func TestChainedAnonymizers(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "belt-and-braces", Options{Chain: []string{"dissent", "tor"}})
		if err != nil {
			t.Errorf("start chained: %v", err)
			return
		}
		if nym.Anonymizer().Name() != "dissent+tor" {
			t.Errorf("chain name = %q", nym.Anonymizer().Name())
		}
		if nym.Anonymizer().OverheadFrac() <= 0.12 {
			t.Errorf("chain overhead = %v, want > tor alone", nym.Anonymizer().OverheadFrac())
		}
		if _, err := nym.Visit(p, "twitter.com"); err != nil {
			t.Errorf("visit through chain: %v", err)
		}
	})
}

func TestSanitizedTransferWorkflow(t *testing.T) {
	eng, m := newManager(t)
	photo := sanitize.MakeJPEG(sanitize.EXIFMeta{
		Make: "SmartPhoneCo", Model: "SP-7", Serial: "SN-1",
		GPSLat: "41.2995N", GPSLon: "69.2401E",
	}, []byte("protest-photo-pixels"))
	img, err := installedos.NewImage(installedos.Windows7, map[string][]byte{
		"/users/bob/photos/protest.jpg": photo,
	})
	if err != nil {
		t.Fatal(err)
	}
	var report *TransferReport
	var nym *Nym
	run(t, eng, func(p *sim.Proc) {
		nym, _ = m.StartNym(p, "bob-twitter", Options{})
		report, err = m.TransferFile(p, img, "/users/bob/photos/protest.jpg", nym, sanitize.AllOptions)
		if err != nil {
			t.Errorf("transfer: %v", err)
		}
	})
	if report == nil {
		t.Fatal("no report")
	}
	// Risk analysis must have flagged the GPS data up front.
	foundGPS := false
	for _, r := range report.RisksFound {
		if r.Code == "exif-gps" {
			foundGPS = true
		}
	}
	if !foundGPS {
		t.Fatalf("risks = %v", report.RisksFound)
	}
	// The delivered file is scrubbed.
	data, err := nym.AnonVM().Disk().FS().ReadFile(report.DestPath)
	if err != nil {
		t.Fatal(err)
	}
	meta, body, err := sanitize.ParseJPEG(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.GPSLat != "" || meta.Serial != "" {
		t.Fatalf("metadata survived: %v", meta)
	}
	if string(body) != "protest-photo-pixels" {
		t.Fatal("image body damaged")
	}
	// SaniVM staging areas are clean.
	sani, _ := m.SaniVM(nil)
	if len(sani.Disk().FS().List("/nyms")) != 0 {
		t.Fatal("staging files left in SaniVM")
	}
}

func TestSaniVMIsSingletonAndNonNetworked(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		a, err := m.SaniVM(p)
		if err != nil {
			t.Errorf("sanivm: %v", err)
			return
		}
		b, _ := m.SaniVM(p)
		if a != b {
			t.Error("SaniVM not a singleton")
		}
		if a.Node() != nil {
			t.Error("SaniVM has a network node")
		}
	})
}

func TestBootInstalledOSAsNym(t *testing.T) {
	eng, m := newManager(t)
	img, _ := installedos.NewImage(installedos.Windows7, nil)
	var repair, boot time.Duration
	run(t, eng, func(p *sim.Proc) {
		var err error
		repair, boot, err = m.BootInstalledOS(p, img)
		if err != nil {
			t.Errorf("boot installed: %v", err)
		}
	})
	if repair < 100*time.Second || boot < 20*time.Second {
		t.Fatalf("repair=%v boot=%v implausible", repair, boot)
	}
	if img.COWBytes() == 0 {
		t.Fatal("no COW delta")
	}
}

func TestIncognitoNymExposesRealAddress(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "quick", Options{Anonymizer: "incognito"})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		nym.Visit(p, "bbc.co.uk")
	})
	visits := m.World().Site("bbc.co.uk").Visits()
	if len(visits) != 1 {
		t.Fatalf("visits = %d", len(visits))
	}
	if visits[0].SourceAddr != "host" {
		t.Fatalf("incognito source = %q, want the host's NAT address", visits[0].SourceAddr)
	}
}

func TestUnknownAnonymizerRejected(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		if _, err := m.StartNym(p, "x", Options{Anonymizer: "carrier-pigeon"}); !errors.Is(err, ErrUnknownAnon) {
			t.Errorf("err = %v", err)
		}
	})
	if m.Host().VMCount() != 0 {
		t.Fatal("failed start leaked VMs")
	}
}

func TestSweetNymTunnelsOverEmail(t *testing.T) {
	eng, m := newManager(t)
	cap := m.Host().Uplink().Tap()
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "censored", Options{Anonymizer: "sweet"})
		if err != nil {
			t.Errorf("start sweet: %v", err)
			return
		}
		if _, err := nym.Visit(p, "bbc.co.uk"); err != nil {
			t.Errorf("visit: %v", err)
		}
	})
	// The uplink shows only SMTP (plus nothing else in this session).
	for _, proto := range cap.Protos() {
		if proto != "smtp" {
			t.Fatalf("uplink protocols = %v, want only smtp", cap.Protos())
		}
	}
	visits := m.World().Site("bbc.co.uk").Visits()
	if len(visits) != 1 || visits[0].SourceAddr != "sweet-proxy" {
		t.Fatalf("site saw %+v, want the SWEET proxy", visits)
	}
}

func TestTorBridgeNymHidesTorFromUplink(t *testing.T) {
	eng, m := newManager(t)
	cap := m.Host().Uplink().Tap()
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "bridged", Options{Anonymizer: "tor-bridge"})
		if err != nil {
			t.Errorf("start bridge: %v", err)
			return
		}
		if _, err := nym.Visit(p, "twitter.com"); err != nil {
			t.Errorf("visit: %v", err)
		}
	})
	for _, e := range cap.Entries {
		if e.Proto == "tor" {
			t.Fatal("censor observed tor on the uplink despite the bridge")
		}
	}
	// Still anonymized: the site sees a relay, not the host.
	visits := m.World().Site("twitter.com").Visits()
	if len(visits) != 1 || visits[0].SourceAddr == "host" {
		t.Fatalf("site saw %+v", visits)
	}
}

func TestBuddiesGatesLinkablePosts(t *testing.T) {
	eng, m := newManager(t)
	mon := buddies.NewMonitor()
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "guarded", Options{})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		nym.EnableBuddies(mon, buddies.Policy{MinAnonymitySet: 3})
		if _, err := nym.Browser().Login(p, "twitter.com", "guarded-acct", "pw"); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		// Round 1: a healthy crowd is online; the post goes out.
		mon.BeginRound([]string{"alice", "bob", "carol", "dave"})
		if _, err := nym.Post(p, "twitter.com", "post one"); err != nil {
			t.Errorf("post 1: %v", err)
		}
		// Round 2: only two candidates remain online; Buddies suppresses.
		mon.BeginRound([]string{"alice", "bob"})
		if _, err := nym.Post(p, "twitter.com", "post two"); !errors.Is(err, buddies.ErrBelowThreshold) {
			t.Errorf("post 2: %v, want suppression", err)
		}
	})
	// Only the first post reached the site.
	posts := 0
	for _, v := range m.World().Site("twitter.com").Visits() {
		if v.Action == "post" {
			posts++
		}
	}
	if posts != 1 {
		t.Fatalf("site saw %d posts, want 1", posts)
	}
}

func TestTamperedHostPartitionRefusesToLaunch(t *testing.T) {
	// Section 3.4: the host partition is checked against a well-known
	// Merkle tree; a modified partition means no nyms launch.
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		if _, err := m.StartNym(p, "pre-tamper", Options{}); err != nil {
			t.Errorf("pristine start: %v", err)
			return
		}
	})
	// The USB visits another machine and comes back modified.
	tampered := m.Host().BaseImage().Clone()
	tfs := mustStack(t, tampered)
	tfs.WriteFile("/etc/rc.local", []byte("#!/bin/sh\nphone-home\n"))
	m.Host().ReplaceBaseImage(tampered.Seal())
	run(t, eng, func(p *sim.Proc) {
		if _, err := m.StartNym(p, "post-tamper", Options{}); !errors.Is(err, ErrHostTampered) {
			t.Errorf("tampered start: %v, want ErrHostTampered", err)
		}
	})
}

func mustStack(t *testing.T, l *unionfs.Layer) *unionfs.FS {
	t.Helper()
	fs, err := unionfs.Stack(l)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestHostRAMLimitsConcurrentNyms(t *testing.T) {
	// "The host allocates disk and RAM from its own stash of RAM, thus
	// limiting the maximum number of nyms" (section 5.2).
	eng := sim.NewEngine(51)
	_, world := webworld.BuildDefault(eng)
	cfg := hypervisor.DefaultConfig()
	cfg.RAMBytes = 2 << 30 // 2 GiB host: room for ~2 nymboxes
	m, err := NewManager(eng, world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	started := 0
	run(t, eng, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, err := m.StartNym(p, fmt.Sprintf("n%d", i), Options{}); err != nil {
				break
			}
			started++
		}
	})
	if started < 1 || started > 3 {
		t.Fatalf("2 GiB host started %d nyms, want 1-3", started)
	}
	// Failed launches must not leak partial nymboxes.
	if m.Host().VMCount() != started*2 {
		t.Fatalf("vm count = %d, want %d", m.Host().VMCount(), started*2)
	}
}

func TestUplinkCaptureShowsOnlyAnonymizerTraffic(t *testing.T) {
	// Section 5.1: "The Nymix hypervisor emitted only traffic for DHCP
	// and anonymizer traffic."
	eng, m := newManager(t)
	cap := m.Host().Uplink().Tap()
	run(t, eng, func(p *sim.Proc) {
		m.Host().EmitDHCP()
		nym, _ := m.StartNym(p, "n", Options{})
		nym.Visit(p, "twitter.com")
		m.TerminateNym(p, nym)
	})
	for _, proto := range cap.Protos() {
		if proto != "dhcp" && proto != "tor" {
			t.Fatalf("unexpected protocol on uplink: %q (all: %v)", proto, cap.Protos())
		}
	}
	for _, e := range cap.Entries {
		if strings.HasPrefix(e.ObservedSrc, "nym") {
			t.Fatalf("VM identity leaked on uplink: %q", e.ObservedSrc)
		}
	}
}

// Regression for the startNym restore-failure leak: when restoring
// archived disks fails after both VMs have booted, the half-built
// nymbox must be destroyed like every other startup error path —
// previously both the AnonVM and CommVM were leaked on the host.
func TestRestoreFailureDestroysNymbox(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "packrat", Options{Model: ModelPersistent})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		// Fill the AnonVM disk beyond what the restore target will hold.
		if err := nym.AnonVM().Disk().WriteVirtual("/home/user/archive.bin", 64*guestos.MiB, 0.9); err != nil {
			t.Errorf("fill: %v", err)
			return
		}
		if _, err := m.StoreNym(p, nym, "pw", Local); err != nil {
			t.Errorf("store: %v", err)
			return
		}
		if err := m.TerminateNym(p, nym); err != nil {
			t.Errorf("terminate: %v", err)
			return
		}
		baseline := m.Host().Mem().UsedBytes()
		_, err = m.LoadNym(p, "packrat", "pw",
			Options{Model: ModelPersistent, AnonDisk: 16 * guestos.MiB}, Local)
		if err == nil {
			t.Error("restore into an undersized disk succeeded")
			return
		}
		if got := m.Host().VMCount(); got != 0 {
			t.Errorf("failed restore leaked %d VMs", got)
		}
		if used := m.Host().Mem().UsedBytes(); used > baseline {
			t.Errorf("failed restore holds %d bytes over baseline %d", used, baseline)
		}
		if m.RunningNyms() != 0 {
			t.Error("failed restore left a nym registered")
		}
		// The name is free again: a fresh start under it must work.
		if _, err := m.StartNym(p, "packrat", Options{}); err != nil {
			t.Errorf("restart after failed restore: %v", err)
		}
	})
}

// Regression for TerminateNym partial failure: if one VM destroy
// fails, teardown must still attempt the other destroy, surface the
// error, and retire the nym — previously the nym stayed in the
// running map with its anonymizer stopped and one VM gone.
func TestTerminatePartialFailureStillRetiresNym(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "glitch", Options{})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		// Simulate a crash that already took the CommVM with it, so the
		// CommVM destroy inside TerminateNym fails.
		if err := m.Host().DestroyVM(p, nym.CommVM()); err != nil {
			t.Errorf("destroy comm: %v", err)
			return
		}
		err = m.TerminateNym(p, nym)
		if err == nil {
			t.Error("terminate reported success despite the missing CommVM")
		}
		if m.RunningNyms() != 0 {
			t.Error("half-dead nym still in the running map")
		}
		if got := m.Host().VMCount(); got != 0 {
			t.Errorf("AnonVM leaked: %d VMs on host", got)
		}
		// A second terminate is still the documented no-op error.
		if err := m.TerminateNym(p, nym); !errors.Is(err, ErrNymTerminated) {
			t.Errorf("double terminate = %v, want ErrNymTerminated", err)
		}
		// The name is immediately reusable.
		if _, err := m.StartNym(p, "glitch", Options{}); err != nil {
			t.Errorf("restart after partial teardown: %v", err)
		}
	})
}

// Two concurrent startups racing for one name must resolve to exactly
// one nym: the name is reserved for the whole launch, not just
// checked at registration.
func TestConcurrentStartsCannotShareName(t *testing.T) {
	eng, m := newManager(t)
	var err1, err2 error
	eng.Go("start1", func(p *sim.Proc) { _, err1 = m.StartNym(p, "dup", Options{}) })
	eng.Go("start2", func(p *sim.Proc) { _, err2 = m.StartNym(p, "dup", Options{}) })
	eng.Run()
	if (err1 == nil) == (err2 == nil) {
		t.Fatalf("want exactly one winner: err1=%v err2=%v", err1, err2)
	}
	lost := err1
	if lost == nil {
		lost = err2
	}
	if !errors.Is(lost, ErrNymExists) {
		t.Fatalf("loser error = %v, want ErrNymExists", lost)
	}
	if m.RunningNyms() != 1 {
		t.Fatalf("running = %d, want 1", m.RunningNyms())
	}
	if got := m.Host().VMCount(); got != 2 {
		t.Fatalf("host VMs = %d, want one nymbox pair", got)
	}
}
