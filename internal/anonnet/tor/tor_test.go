package tor

import (
	"errors"
	"testing"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/sim"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// rig attaches a bare CommVM-like node to the default world.
type rig struct {
	eng   *sim.Engine
	net   *vnet.Network
	world *webworld.World
}

func newRig() *rig {
	eng := sim.NewEngine(11)
	net, world := webworld.BuildDefault(eng)
	comm := net.AddNode("commvm")
	net.Connect(comm, world.Gateway(), webworld.UplinkConfig)
	return &rig{eng: eng, net: net, world: world}
}

func (r *rig) client() *Client {
	return New(r.net, "commvm", r.world.Relays(), r.world.Resolver())
}

func TestBootstrapBuildsCircuit(t *testing.T) {
	r := newRig()
	c := r.client()
	var dur time.Duration
	r.eng.Go("start", func(p *sim.Proc) {
		start := p.Now()
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
		}
		dur = p.Now() - start
	})
	r.eng.Run()
	if !c.Ready() {
		t.Fatal("client not ready after Start")
	}
	if c.Guard() == "" {
		t.Fatal("no guard selected")
	}
	if len(c.circuit) != 3 {
		t.Fatalf("circuit = %v", c.circuit)
	}
	if c.circuit[0] != c.Guard() {
		t.Fatal("circuit does not enter through the guard")
	}
	// Fresh bootstrap includes the directory fetch: several seconds.
	if dur < 5*time.Second || dur > 30*time.Second {
		t.Fatalf("fresh bootstrap took %v", dur)
	}
}

func TestCachedStateBootsFaster(t *testing.T) {
	r := newRig()
	fresh := r.client()
	var freshDur time.Duration
	r.eng.Go("fresh", func(p *sim.Proc) {
		start := p.Now()
		fresh.Start(p)
		freshDur = p.Now() - start
	})
	r.eng.Run()

	warm := r.client()
	warm.ImportState(fresh.ExportState())
	var warmDur time.Duration
	r.eng.Go("warm", func(p *sim.Proc) {
		start := p.Now()
		if err := warm.Start(p); err != nil {
			t.Errorf("warm start: %v", err)
		}
		warmDur = p.Now() - start
	})
	r.eng.Run()
	if warmDur >= freshDur/2 {
		t.Fatalf("cached bootstrap %v not much faster than fresh %v", warmDur, freshDur)
	}
	if warm.Guard() != fresh.Guard() {
		t.Fatalf("guard not preserved: %q vs %q", warm.Guard(), fresh.Guard())
	}
}

func TestGuardPersistsAcrossExportImport(t *testing.T) {
	r := newRig()
	c := r.client()
	r.eng.Go("start", func(p *sim.Proc) { c.Start(p) })
	r.eng.Run()
	st := c.ExportState()
	if st["guard"] != c.Guard() {
		t.Fatalf("state guard = %q", st["guard"])
	}
	if st["consensus"] != "cached" {
		t.Fatal("consensus not marked cached")
	}
}

func TestGuardSeedDeterministic(t *testing.T) {
	r := newRig()
	a := r.client()
	a.SetGuardSeed("nym:alice@dropbin:pw-derived")
	b := r.client()
	b.SetGuardSeed("nym:alice@dropbin:pw-derived")
	c := r.client()
	c.SetGuardSeed("different-seed-0")
	a.selectGuard()
	b.selectGuard()
	if a.Guard() != b.Guard() {
		t.Fatalf("same seed, different guards: %q %q", a.Guard(), b.Guard())
	}
	// Different seeds should usually differ; try several.
	differs := false
	for i := 0; i < 8 && !differs; i++ {
		d := r.client()
		d.SetGuardSeed("seed-" + string(rune('a'+i)))
		d.selectGuard()
		if d.Guard() != a.Guard() {
			differs = true
		}
	}
	if !differs {
		t.Fatal("guard seed appears to be ignored")
	}
	_ = c
}

func TestFetchTravelsCircuitWithOverhead(t *testing.T) {
	r := newRig()
	c := r.client()
	site, _ := r.world.Lookup("twitter.com")
	var res anonnet.FetchResult
	var ferr error
	r.eng.Go("fetch", func(p *sim.Proc) {
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		res, ferr = c.Fetch(p, anonnet.Request{SiteNode: site, SendBytes: 2048, RecvBytes: 4 << 20})
	})
	r.eng.Run()
	if ferr != nil {
		t.Fatal(ferr)
	}
	// 4 MiB * 1.12 over a 1.25 MB/s uplink: at least 3.5 seconds.
	if res.Elapsed < 3500*time.Millisecond {
		t.Fatalf("fetch too fast for rate-limited uplink: %v", res.Elapsed)
	}
	if res.Received != 4<<20 {
		t.Fatalf("received = %d", res.Received)
	}
}

func TestFetchObservedFromExit(t *testing.T) {
	r := newRig()
	c := r.client()
	site, _ := r.world.Lookup("twitter.com")
	siteNode := r.net.Node(site)
	var tap *vnet.Capture
	for _, ifc := range siteNode.Ifaces() {
		tap = ifc.Link().Tap()
	}
	r.eng.Go("fetch", func(p *sim.Proc) {
		c.Start(p)
		c.Fetch(p, anonnet.Request{SiteNode: site, SendBytes: 1024, RecvBytes: 1024})
	})
	r.eng.Run()
	if len(tap.Entries) == 0 {
		t.Fatal("no traffic observed at site")
	}
	srcSeen := tap.Entries[0].ObservedSrc
	if srcSeen != c.ExitIdentity() {
		t.Fatalf("site saw %q, want exit %q", srcSeen, c.ExitIdentity())
	}
	if srcSeen == "commvm" || srcSeen == "host" {
		t.Fatalf("site saw the client side: %q", srcSeen)
	}
}

func TestResolveThroughCircuit(t *testing.T) {
	r := newRig()
	c := r.client()
	var node string
	var err error
	r.eng.Go("resolve", func(p *sim.Proc) {
		c.Start(p)
		node, err = c.Resolve(p, "facebook.com")
	})
	r.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := r.world.Lookup("facebook.com")
	if node != want {
		t.Fatalf("resolved %q, want %q", node, want)
	}
	r.eng.Go("bad", func(p *sim.Proc) {
		_, err = c.Resolve(p, "no-such-host.example")
	})
	r.eng.Run()
	if err == nil {
		t.Fatal("bogus name resolved")
	}
}

func TestTooFewRelays(t *testing.T) {
	r := newRig()
	c := New(r.net, "commvm", r.world.Relays()[:2], r.world.Resolver())
	var err error
	r.eng.Go("start", func(p *sim.Proc) { err = c.Start(p) })
	r.eng.Run()
	if err == nil {
		t.Fatal("start succeeded with 2 relays")
	}
}

func TestBootstrapFailsWhenGuardUnreachable(t *testing.T) {
	// Failure injection: the seeded guard's link goes down before the
	// client bootstraps; Start must fail cleanly, not hang.
	r := newRig()
	c := r.client()
	c.SetGuardSeed("pin-a-guard")
	c.selectGuard()
	guardNode := r.net.Node(c.Guard())
	for _, ifc := range guardNode.Ifaces() {
		ifc.Link().SetDown(r.net, true)
	}
	var err error
	r.eng.Go("start", func(p *sim.Proc) { err = c.Start(p) })
	r.eng.Run()
	if err == nil {
		t.Fatal("bootstrap succeeded with an unreachable guard")
	}
	if c.Ready() {
		t.Fatal("client ready despite failed bootstrap")
	}
}

func TestFetchFailsWhenPathDiesMidTransfer(t *testing.T) {
	// Failure injection: the DeterLab enclave link drops mid-download.
	r := newRig()
	c := r.client()
	site, _ := r.world.Lookup("twitter.com")
	var fetchErr error
	r.eng.Go("run", func(p *sim.Proc) {
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		_, fetchErr = c.Fetch(p, anonnet.Request{SiteNode: site, SendBytes: 512, RecvBytes: 40 << 20})
	})
	// Cut every relay link mid-download (bootstrap ends ~10s in; the
	// ~38s download is still streaming at 30s).
	r.eng.Schedule(30*time.Second, func() {
		for _, relay := range r.world.Relays() {
			for _, ifc := range r.net.Node(relay.NodeName).Ifaces() {
				ifc.Link().SetDown(r.net, true)
			}
		}
	})
	r.eng.Run()
	if !errors.Is(fetchErr, vnet.ErrLinkDown) {
		t.Fatalf("fetch err = %v, want link-down failure", fetchErr)
	}
}

func TestBridgeTransportHidesTorFromCensor(t *testing.T) {
	// StegoTorus-style camouflage (section 4): the state ISP taps the
	// client's uplink; with a bridge transport it must never see "tor".
	r := newRig()
	c := r.client()
	c.SetBridgeTransport("https")
	var censorTap *vnet.Capture
	for _, ifc := range r.net.Node("commvm").Ifaces() {
		censorTap = ifc.Link().Tap()
	}
	site, _ := r.world.Lookup("twitter.com")
	r.eng.Go("run", func(p *sim.Proc) {
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		if _, err := c.Fetch(p, anonnet.Request{SiteNode: site, SendBytes: 1024, RecvBytes: 1 << 20}); err != nil {
			t.Errorf("fetch: %v", err)
		}
	})
	r.eng.Run()
	if len(censorTap.Entries) == 0 {
		t.Fatal("censor saw nothing")
	}
	if got := censorTap.Protos(); len(got) != 1 || got[0] != "https" {
		t.Fatalf("censor observed %v, want only https", got)
	}
	// Camouflage costs extra overhead.
	if c.OverheadFrac() <= CellOverhead {
		t.Fatal("bridge transport should cost more than bare tor")
	}
	// Switching back restores the plain transport: the next exchange
	// crosses the uplink labelled tor.
	c.SetBridgeTransport("")
	if c.OverheadFrac() != CellOverhead {
		t.Fatal("reset to plain tor kept the bridge overhead")
	}
	seen := len(censorTap.Entries)
	r.eng.Go("plain", func(p *sim.Proc) {
		if _, err := c.Fetch(p, anonnet.Request{SiteNode: site, SendBytes: 1024, RecvBytes: 1024}); err != nil {
			t.Errorf("plain fetch: %v", err)
		}
	})
	r.eng.Run()
	plain := censorTap.Entries[seen:]
	if len(plain) == 0 {
		t.Fatal("plain fetch crossed no tapped link")
	}
	for _, e := range plain {
		if e.Proto != "tor" {
			t.Fatalf("after reset the censor saw %q, want tor", e.Proto)
		}
	}
}

func TestStopClearsCircuit(t *testing.T) {
	r := newRig()
	c := r.client()
	r.eng.Go("start", func(p *sim.Proc) { c.Start(p) })
	r.eng.Run()
	c.Stop()
	if c.Ready() || c.ExitIdentity() != "" {
		t.Fatal("stop did not clear state")
	}
	// Guard survives Stop (it is persistent state, not circuit state).
	if c.Guard() == "" {
		t.Fatal("guard lost on stop")
	}
}
