package vnet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"nymix/internal/sim"
)

// chainNet builds a — r — b with r forwarding, using cfg on both
// links.
func chainNet(cfg LinkConfig) (*sim.Engine, *Network, *Link, *Link) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddNode("a")
	b := n.AddNode("b")
	r := n.AddRouter("r")
	la := n.Connect(a, r.Node, cfg)
	lb := n.Connect(r.Node, b, cfg)
	return eng, n, la, lb
}

func TestNICCountersAndAccessors(t *testing.T) {
	eng, n, l := twoNodeNet(LinkConfig{Capacity: 1e6})
	a, b := l.Endpoints()
	if a.Name() != "a" || b.Name() != "b" {
		t.Fatalf("endpoints = %s, %s", a.Name(), b.Name())
	}
	if l.cfg.Capacity != 1e6 {
		t.Fatalf("config capacity = %v", l.cfg.Capacity)
	}
	if l.a.node != a || l.b.node != b {
		t.Fatal("a/b NICs attached to wrong nodes")
	}
	if l.a.Peer() != l.b || l.b.Peer() != l.a {
		t.Fatal("Peer does not cross the link")
	}
	if l.a.Link() != l {
		t.Fatal("NIC.Link mismatch")
	}
	if l.NICFor(a) != l.a || l.NICFor(b) != l.b {
		t.Fatal("NICFor endpoint mismatch")
	}
	if l.NICFor(n.AddNode("stranger")) != nil {
		t.Fatal("NICFor should be nil for a non-endpoint")
	}
	if len(a.Ifaces()) != 1 || a.Ifaces()[0] != l.a {
		t.Fatal("Ifaces mismatch")
	}
	if n.Engine() != eng {
		t.Fatal("Engine mismatch")
	}
	if n.Node("a") != a || n.Node("nope") != nil {
		t.Fatal("Node lookup mismatch")
	}
	a.AddTag("lan")
	if !a.HasTag("lan") || a.HasTag("wan") {
		t.Fatal("tag mismatch")
	}

	tapA, tapB := l.a.WireTap(), l.b.WireTap()
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "http"})
	eng.Run()
	if _, err := fut.Value(); err != nil {
		t.Fatal(err)
	}
	if got := tapA.TxBytes(); got != 1e6 {
		t.Fatalf("a tx = %d, want 1e6", got)
	}
	if got := tapB.RxBytes(); got != 1e6 {
		t.Fatalf("b rx = %d, want 1e6", got)
	}
	if got := tapA.RxBytes(); got != 0 {
		t.Fatalf("a rx = %d, want 0", got)
	}
	if got := round64(l.wire[dirAB]); got != 1e6 {
		t.Fatalf("wire from a = %d", got)
	}
	if got := round64(l.wire[dirBA]); got != 0 {
		t.Fatalf("wire from b = %d", got)
	}
	if l.WireBytesTotal() != l.LedgerBytesTotal() {
		t.Fatalf("wire %d != ledger %d at quiescence", l.WireBytesTotal(), l.LedgerBytesTotal())
	}
}

func TestWireTapIntervalAccounting(t *testing.T) {
	eng, n, l := twoNodeNet(LinkConfig{Capacity: 1e6})
	early := l.a.WireTap()
	var late *WireTap
	// The flow takes ~2s; attach the second tap halfway through. Taps
	// are credited at settle points, so force a settle (any flow
	// start does) just before attaching — otherwise the first settle
	// after attachment would retroactively include the first half.
	n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 2e6, Proto: "http", NoHandshake: true})
	eng.Schedule(999*time.Millisecond, func() {
		n.StartTransfer(TransferOpts{From: "b", To: "a", Bytes: 1, Proto: "http", NoHandshake: true})
	})
	eng.Schedule(1*time.Second, func() { late = l.a.WireTap() })
	eng.Run()
	if got := early.TxBytes(); got != 2e6 {
		t.Fatalf("early tap tx = %d, want 2e6", got)
	}
	if late.TxBytes() >= early.TxBytes() || late.TxBytes() == 0 {
		t.Fatalf("late tap tx = %d, want in (0, %d)", late.TxBytes(), early.TxBytes())
	}
	if early.Bytes() != early.TxBytes()+early.RxBytes() {
		t.Fatal("Bytes != Tx+Rx")
	}
	// The early tap saw everything the link moved a→b.
	if early.TxBytes() != round64(l.wire[dirAB]) {
		t.Fatalf("tap %d != link wire %d", early.TxBytes(), round64(l.wire[dirAB]))
	}
}

func TestActivateRecheckDuringHandshake(t *testing.T) {
	// The link drops during the connection handshake window, before
	// the flow has attached — the activation re-check must still kill
	// it rather than let it transfer over a dead link.
	eng, n, l := twoNodeNet(LinkConfig{Latency: 50 * time.Millisecond, Capacity: 1e6})
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1000, Proto: "http"})
	eng.Schedule(10*time.Millisecond, func() { l.SetDown(n, true) })
	eng.Run()
	if _, err := fut.Value(); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
}

func TestDPIDropIsSilentAndTyped(t *testing.T) {
	eng, n, l := twoNodeNet(LinkConfig{Capacity: 1e6})
	dpi := NewDPI(DropProto("tor"))
	l.SetDPI(n, dpi)
	if l.dpi != dpi {
		t.Fatal("SetDPI did not install the engine")
	}
	tor := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "tor"})
	web := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "https"})
	eng.Run()
	if _, err := tor.Value(); !errors.Is(err, ErrCensored) {
		t.Fatalf("tor err = %v, want ErrCensored", err)
	} else if !strings.Contains(err.Error(), "proto tor") {
		t.Fatalf("drop error lacks flow context: %v", err)
	}
	// Silent drop: the failure surfaces only after the probe timeout,
	// so the run cannot end before it.
	if eng.Now() < sim.Time(3*time.Second) {
		t.Fatalf("run ended at %v, want >= 3s (silent drop timeout)", eng.Now())
	}
	if _, err := web.Value(); err != nil {
		t.Fatalf("https err = %v", err)
	}
	if dpi.Dropped() != 1 || dpi.Throttled() != 0 {
		t.Fatalf("counters dropped=%d throttled=%d", dpi.Dropped(), dpi.Throttled())
	}
	s := dpi.Stat("tor")
	if s.Dropped != 1 || s.DroppedBytes != 1e6 {
		t.Fatalf("tor stat = %+v", s)
	}
	if got := dpi.Protos(); len(got) != 1 || got[0] != "tor" {
		t.Fatalf("ruled protos = %v", got)
	}
	if dpi.Stat("https") != (DPIStat{}) {
		t.Fatal("https should have no stat entry")
	}
}

func TestDPIThrottleCapsRate(t *testing.T) {
	eng, n, l := twoNodeNet(LinkConfig{Capacity: 1e6})
	dpi := NewDPI(ThrottleProto(1e5, "https"))
	l.SetDPI(n, dpi)
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "https", NoHandshake: true})
	eng.Run()
	res, err := fut.Value()
	if err != nil {
		t.Fatal(err)
	}
	// 1e6 bytes at the censor's 1e5 B/s cap, not the link's 1e6.
	approx(t, res.Duration(), 10*time.Second, 50*time.Millisecond, "throttled duration")
	if dpi.Throttled() != 1 || dpi.Stat("https").ThrottledBytes != 1e6 {
		t.Fatalf("throttle counters = %d / %+v", dpi.Throttled(), dpi.Stat("https"))
	}
}

func TestDPIFirstMatchComposes(t *testing.T) {
	c := FirstMatch(DropProto("tor"), ThrottleProto(5e4, "https"))
	if r := c(Flow{Proto: "tor"}); r.Verdict != Drop {
		t.Fatalf("tor verdict = %v", r.Verdict)
	}
	if r := c(Flow{Proto: "https"}); r.Verdict != Throttle || r.Rate != 5e4 {
		t.Fatalf("https ruling = %+v", r)
	}
	if r := c(Flow{Proto: "smtp"}); r.Verdict != Pass {
		t.Fatalf("smtp verdict = %v", r.Verdict)
	}
}

func TestSetDPIMidRunTearsDownClassifiedFlows(t *testing.T) {
	eng, n, l := twoNodeNet(LinkConfig{Capacity: 1e6})
	tor := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 5e6, Proto: "tor", NoHandshake: true})
	web := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 5e6, Proto: "https", NoHandshake: true})
	eng.Schedule(1*time.Second, func() { l.SetDPI(n, NewDPI(DropProto("tor"))) })
	eng.Run()
	if _, err := tor.Value(); !errors.Is(err, ErrCensored) {
		t.Fatalf("tor err = %v, want ErrCensored", err)
	}
	if _, err := web.Value(); err != nil {
		t.Fatalf("https err = %v", err)
	}
	// Removing the engine lets tor traffic through again.
	l.SetDPI(n, nil)
	if l.dpi != nil {
		t.Fatal("SetDPI(nil) did not remove the engine")
	}
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1000, Proto: "tor"})
	eng.Run()
	if _, err := fut.Value(); err != nil {
		t.Fatalf("post-removal tor err = %v", err)
	}
}

func TestRouterForwardsAndCarriesRegion(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddNode("a").SetRegion("east")
	b := n.AddNode("b").SetRegion("west")
	r := n.AddRouter("r").WithRegion("core")
	if r.Region() != "core" || a.Region() != "east" || b.Region() == "" {
		t.Fatal("region labels not set")
	}
	n.Connect(a, r.Node, LinkConfig{Capacity: 1e6})
	n.Connect(r.Node, b, LinkConfig{Capacity: 1e6})
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1000, Proto: "http"})
	eng.Run()
	if _, err := fut.Value(); err != nil {
		t.Fatalf("transit through router failed: %v", err)
	}
}

// regionedChain builds a(east) — r(core) — b(west): the regions are
// not physically adjacent, so only the segment-endpoint check can
// catch an east|west sever.
func regionedChain() (*sim.Engine, *Network) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddNode("a").SetRegion("east")
	b := n.AddNode("b").SetRegion("west")
	r := n.AddRouter("r").WithRegion("core")
	n.Connect(a, r.Node, LinkConfig{Capacity: 1e6})
	n.Connect(r.Node, b, LinkConfig{Capacity: 1e6})
	return eng, n
}

func TestSeverRegionsBlocksNonAdjacentRegions(t *testing.T) {
	eng, n := regionedChain()
	n.SeverRegions("east", "west")
	if !n.severed[regionPair{"east", "west"}] || !n.severed[regionPair{"west", "east"}] {
		t.Fatal("sever map incomplete")
	}
	if n.CanReach("a", "b", "probe") || n.CanReach("b", "a", "probe") {
		t.Fatal("severed regions still reach each other")
	}
	// The backbone itself is untouched.
	if !n.CanReach("a", "r", "probe") || !n.CanReach("b", "r", "probe") {
		t.Fatal("sever leaked onto the core boundary")
	}
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1000, Proto: "http"})
	eng.Run()
	if _, err := fut.Value(); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	n.HealRegions("east", "west")
	if n.severed[regionPair{"east", "west"}] || !n.CanReach("a", "b", "probe") {
		t.Fatal("heal did not restore the boundary")
	}
}

func TestSeverRegionsOneWayIsAsymmetric(t *testing.T) {
	_, n := regionedChain()
	n.SeverRegionsOneWay("east", "west")
	if n.CanReach("a", "b", "probe") {
		t.Fatal("east->west should be dark")
	}
	if !n.CanReach("b", "a", "probe") {
		t.Fatal("west->east should still route")
	}
	if !n.severed[regionPair{"east", "west"}] || n.severed[regionPair{"west", "east"}] {
		t.Fatal("one-way sever map wrong")
	}
}

// TestSeverOneWayKillsOnlyCrossingFlows: an asymmetric partition
// fails the in-flight flows that cross it in the severed direction and
// leaves the reverse flows running.
func TestSeverOneWayKillsOnlyCrossingFlows(t *testing.T) {
	eng, n := regionedChain()
	futAB := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 5e6, Proto: "http", NoHandshake: true})
	futBA := n.StartTransfer(TransferOpts{From: "b", To: "a", Bytes: 5e6, Proto: "http", NoHandshake: true})
	eng.Schedule(1*time.Second, func() { n.SeverRegionsOneWay("east", "west") })
	eng.Run()
	if _, err := futAB.Value(); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("a->b err = %v, want ErrPartitioned", err)
	}
	if _, err := futBA.Value(); err != nil {
		t.Fatalf("b->a should have survived the one-way sever: %v", err)
	}
}

func TestSeverKillsInFlightFlows(t *testing.T) {
	eng, n := regionedChain()
	cross := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 5e6, Proto: "http", NoHandshake: true})
	local := n.StartTransfer(TransferOpts{From: "a", To: "r", Bytes: 5e6, Proto: "http", NoHandshake: true})
	eng.Schedule(1*time.Second, func() { n.SeverRegions("east", "west") })
	eng.Run()
	if _, err := cross.Value(); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("cross-boundary err = %v, want ErrPartitioned", err)
	}
	if _, err := local.Value(); err != nil {
		t.Fatalf("intra-boundary flow should survive: %v", err)
	}
}

func TestSeverIgnoresUnlabelledAndDegenerate(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddNode("a") // unlabelled
	b := n.AddNode("b").SetRegion("west")
	n.Connect(a, b, LinkConfig{Capacity: 1e6})
	n.SeverRegions("", "west")
	n.SeverRegions("west", "west")
	if n.severed[regionPair{"", "west"}] || n.severed[regionPair{"west", "west"}] {
		t.Fatal("degenerate severs must be no-ops")
	}
	if !n.CanReach("a", "b", "probe") {
		t.Fatal("unlabelled node must never match a sever")
	}
	// ErrNoRoute, not ErrPartitioned, when there is simply no path.
	n.AddNode("island").SetRegion("east")
	fut := n.StartTransfer(TransferOpts{From: "a", To: "island", Bytes: 10, Proto: "http"})
	eng.Run()
	if _, err := fut.Value(); !errors.Is(err, ErrNoRoute) || errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v, want plain ErrNoRoute", err)
	}
}

func TestFaultSchedulePlaysInOrder(t *testing.T) {
	eng, n := regionedChain()
	// Listed out of order: Play fires by At, not by argument order.
	n.Play(
		HealFault(3*time.Second, "east", "west"),
		SeverOneWayFault(1*time.Second, "east", "west"),
		SeverFault(2*time.Second, "east", "west"),
	)
	eng.RunUntil(sim.Time(1500 * time.Millisecond))
	if !n.severed[regionPair{"east", "west"}] || n.severed[regionPair{"west", "east"}] {
		t.Fatal("one-way sever did not land alone")
	}
	eng.RunUntil(sim.Time(2500 * time.Millisecond))
	if !n.severed[regionPair{"west", "east"}] {
		t.Fatal("two-way sever did not land")
	}
	eng.Run()
	log := n.FaultLog()
	wantLabels := []string{"sever east->west", "sever east<->west", "heal east<->west"}
	if len(log) != len(wantLabels) {
		t.Fatalf("fault log has %d entries, want %d", len(log), len(wantLabels))
	}
	for i, f := range log {
		if f.Label != wantLabels[i] {
			t.Fatalf("log[%d] = %q, want %q", i, f.Label, wantLabels[i])
		}
		if f.At != sim.Time(i+1)*sim.Time(time.Second) {
			t.Fatalf("log[%d] at %v", i, f.At)
		}
	}
	if n.severed[regionPair{"east", "west"}] || n.severed[regionPair{"west", "east"}] {
		t.Fatal("heal did not land")
	}
}

func TestTapLedgerDoubleEntryAcrossFailures(t *testing.T) {
	// Flows that fail mid-transfer must still reconcile: whatever the
	// taps saw settled is exactly what the ledger books at detach.
	eng, n, l := twoNodeNet(LinkConfig{Capacity: 1e6})
	tapA := l.a.WireTap()
	tapB := l.b.WireTap()
	n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 10e6, Proto: "http", NoHandshake: true})
	n.StartTransfer(TransferOpts{From: "b", To: "a", Bytes: 1e6, Proto: "http", NoHandshake: true})
	eng.Schedule(3*time.Second, func() { l.SetDown(n, true) })
	eng.Run()
	wire := l.WireBytesTotal()
	ledger := l.LedgerBytesTotal()
	if wire == 0 {
		t.Fatal("no bytes settled before the fault")
	}
	if wire != ledger {
		t.Fatalf("wire %d != ledger %d after failures", wire, ledger)
	}
	tapTotal := tapA.TxBytes() + tapA.RxBytes()
	if tapTotal != tapB.TxBytes()+tapB.RxBytes() {
		t.Fatal("opposite taps disagree")
	}
	if tapTotal != wire {
		t.Fatalf("tap %d != wire %d", tapTotal, wire)
	}
}
