package webworld

import (
	"testing"

	"nymix/internal/sim"
	"nymix/internal/vnet"
)

func TestBuildDefaultTopology(t *testing.T) {
	eng := sim.NewEngine(1)
	net, w := BuildDefault(eng)
	for _, name := range []string{"gateway", "internet", "deterlab", "isp-dns"} {
		if net.Node(name) == nil {
			t.Fatalf("missing node %q", name)
		}
	}
	if len(w.Relays()) != 9 {
		t.Fatalf("relays = %d", len(w.Relays()))
	}
	if len(w.DissentServers()) != 3 {
		t.Fatalf("dissent servers = %d", len(w.DissentServers()))
	}
	for _, prof := range DefaultSites() {
		if w.Site(prof.Host) == nil {
			t.Fatalf("missing site %s", prof.Host)
		}
		node, ok := w.Lookup(prof.Host)
		if !ok || net.Node(node) == nil {
			t.Fatalf("dns broken for %s", prof.Host)
		}
	}
}

func TestRelayFlags(t *testing.T) {
	eng := sim.NewEngine(1)
	_, w := BuildDefault(eng)
	var guards, exits int
	for _, r := range w.Relays() {
		if r.Guard {
			guards++
		}
		if r.Exit {
			exits++
		}
	}
	if guards == 0 || exits == 0 {
		t.Fatalf("guards=%d exits=%d", guards, exits)
	}
	// Guards and exits must not fully overlap in a 9-relay deployment.
	if guards+exits >= len(w.Relays())+2 {
		t.Fatalf("implausible flag distribution: guards=%d exits=%d", guards, exits)
	}
}

func TestDeterlabLatencyIsEightyMsRTT(t *testing.T) {
	// The paper's testbed: 80 ms round trip from the host network to
	// the DeterLab relays.
	eng := sim.NewEngine(1)
	net, w := BuildDefault(eng)
	probe := net.AddNode("probe")
	net.Connect(probe, w.Gateway(), UplinkConfig)
	lat, err := net.PathLatency("probe", w.Relays()[0].NodeName)
	if err != nil {
		t.Fatal(err)
	}
	rtt := 2 * lat
	if rtt < 70e6 || rtt > 90e6 { // nanoseconds
		t.Fatalf("RTT to relay = %v, want ~80ms", rtt)
	}
}

func TestSitesReachableThroughGateway(t *testing.T) {
	eng := sim.NewEngine(1)
	net, w := BuildDefault(eng)
	probe := net.AddNode("probe")
	net.Connect(probe, w.Gateway(), UplinkConfig)
	for _, prof := range DefaultSites() {
		node, _ := w.Lookup(prof.Host)
		if !net.CanReach("probe", node, "http") {
			t.Fatalf("site %s unreachable", prof.Host)
		}
	}
}

func TestIntranetTagged(t *testing.T) {
	eng := sim.NewEngine(1)
	_, w := BuildDefault(eng)
	if !w.Intranet().HasTag(LANTag) {
		t.Fatal("intranet node missing lan tag")
	}
}

func TestAccountsAndVisitLog(t *testing.T) {
	eng := sim.NewEngine(1)
	_, w := BuildDefault(eng)
	tw := w.Site("twitter.com")
	tw.CreateAccount("dissident47", "hunter2")
	if !tw.CheckLogin("dissident47", "hunter2") {
		t.Fatal("valid login rejected")
	}
	if tw.CheckLogin("dissident47", "wrong") {
		t.Fatal("invalid login accepted")
	}
	tw.RecordVisit(Visit{SourceAddr: "relay-x", CookieID: "c1", Action: "login", Account: "dissident47"})
	tw.RecordVisit(Visit{SourceAddr: "relay-y", CookieID: "c1", Action: "post", Payload: "hello"})
	if len(tw.Visits()) != 2 {
		t.Fatalf("visits = %d", len(tw.Visits()))
	}
	if tw.Visits()[0].Site != "twitter.com" {
		t.Fatalf("site not stamped: %+v", tw.Visits()[0])
	}
	all := w.AllVisits()
	if len(all) != 2 {
		t.Fatalf("AllVisits = %d", len(all))
	}
}

func TestSiteWeightOrderingForFigure6(t *testing.T) {
	// Figure 6's ordering depends on per-visit cache fill: Facebook >
	// Gmail > Twitter > Tor Blog.
	var fb, gm, tw, tb int64
	for _, p := range DefaultSites() {
		switch p.Host {
		case "facebook.com":
			fb = p.CacheFill
		case "gmail.com":
			gm = p.CacheFill
		case "twitter.com":
			tw = p.CacheFill
		case "blog.torproject.org":
			tb = p.CacheFill
		}
	}
	if !(fb > gm && gm > tw && tw > tb) {
		t.Fatalf("cache fill ordering broken: fb=%d gm=%d tw=%d tb=%d", fb, gm, tw, tb)
	}
}

func TestBuildOnExistingNetwork(t *testing.T) {
	// Build always lays out the paper's testbed, also on a network the
	// caller made: 9 relays (3 guards, 3 exits), 3 Dissent servers, a
	// 3-mix cascade in MixRegion and every workload site.
	eng := sim.NewEngine(1)
	net := vnet.New(eng)
	w := Build(net)
	var guards, exits int
	for _, r := range w.Relays() {
		if net.Node(r.NodeName) == nil {
			t.Fatalf("relay %s not on the network", r.NodeName)
		}
		if r.Guard {
			guards++
		}
		if r.Exit {
			exits++
		}
	}
	if len(w.Relays()) != 9 || guards != 3 || exits != 3 {
		t.Fatalf("relays = %d, guards = %d, exits = %d; want 9, 3, 3", len(w.Relays()), guards, exits)
	}
	if len(w.DissentServers()) != 3 {
		t.Fatalf("dissent servers = %d, want 3", len(w.DissentServers()))
	}
	for _, name := range w.DissentServers() {
		if net.Node(name) == nil {
			t.Fatalf("dissent server %s not on the network", name)
		}
	}
	if len(w.MixCascade()) != 3 {
		t.Fatalf("mixes = %d, want 3", len(w.MixCascade()))
	}
	for _, name := range w.MixCascade() {
		n := net.Node(name)
		if n == nil || n.Region() != MixRegion {
			t.Fatalf("mix %s missing or outside %q", name, MixRegion)
		}
	}
	for _, prof := range DefaultSites() {
		node, ok := w.Lookup(prof.Host)
		if w.Site(prof.Host) == nil || !ok || net.Node(node) == nil {
			t.Fatalf("site %s not built", prof.Host)
		}
	}
}
