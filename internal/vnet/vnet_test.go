package vnet

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"nymix/internal/sim"
)

const mbit10 = 10e6 / 8 // 10 Mbit/s in bytes/s

// twoNodeNet builds a-/-b with the given link config.
func twoNodeNet(cfg LinkConfig) (*sim.Engine, *Network, *Link) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddNode("a")
	b := n.AddNode("b")
	l := n.Connect(a, b, cfg)
	return eng, n, l
}

func approx(t *testing.T, got, want, tol time.Duration, what string) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > tol {
		t.Fatalf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestSingleTransferTiming(t *testing.T) {
	eng, n, _ := twoNodeNet(LinkConfig{Latency: 10 * time.Millisecond, Capacity: 1e6})
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "http"})
	eng.Run()
	res, err := fut.Value()
	if err != nil {
		t.Fatal(err)
	}
	// 20ms handshake + 1s transmission + 10ms tail.
	approx(t, res.Duration(), 1030*time.Millisecond, 5*time.Millisecond, "duration")
	if res.Bytes != 1e6 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
}

func TestOverheadInflatesWireTime(t *testing.T) {
	eng, n, _ := twoNodeNet(LinkConfig{Capacity: 1e6})
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "tor", Overhead: 0.12})
	eng.Run()
	res, _ := fut.Value()
	approx(t, res.Duration(), 1120*time.Millisecond, 5*time.Millisecond, "duration")
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng, n, _ := twoNodeNet(LinkConfig{Capacity: 1e6})
	f1 := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "x"})
	f2 := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "x"})
	eng.Run()
	r1, _ := f1.Value()
	r2, _ := f2.Value()
	approx(t, r1.Duration(), 2*time.Second, 20*time.Millisecond, "flow1")
	approx(t, r2.Duration(), 2*time.Second, 20*time.Millisecond, "flow2")
}

func TestLateFlowPreemptsBandwidth(t *testing.T) {
	eng, n, _ := twoNodeNet(LinkConfig{Capacity: 1e6})
	var d1, d2 time.Duration
	f1 := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 2e6, Proto: "x"})
	f1.OnDone(func() { r, _ := f1.Value(); d1 = r.Duration() })
	eng.Schedule(time.Second, func() {
		f2 := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "x"})
		f2.OnDone(func() { r, _ := f2.Value(); d2 = r.Duration() })
	})
	eng.Run()
	// Flow 1 alone for 1s (1 MB done), then shares: 1 MB left at 0.5 MB/s
	// = 2 more seconds. Total ~3s. Flow 2: 2s at half rate.
	approx(t, d1, 3*time.Second, 30*time.Millisecond, "flow1")
	approx(t, d2, 2*time.Second, 30*time.Millisecond, "flow2")
}

func TestMaxRateCapsUncongestedFlow(t *testing.T) {
	eng, n, _ := twoNodeNet(LinkConfig{Capacity: 0}) // unlimited link
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 1e6, Proto: "x", MaxRate: 1e5})
	eng.Run()
	res, _ := fut.Value()
	approx(t, res.Duration(), 10*time.Second, 50*time.Millisecond, "capped flow")
}

func TestNoRouteFailsAfterTimeout(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	n.AddNode("a")
	n.AddNode("b") // no link
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 100, Proto: "x"})
	eng.Run()
	_, err := fut.Value()
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if eng.Now() < 3*time.Second {
		t.Fatalf("silent drop surfaced too early: %v", eng.Now())
	}
}

func TestEndHostsDoNotForward(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddNode("a")
	mid := n.AddNode("mid") // end-host by default
	b := n.AddNode("b")
	n.Connect(a, mid, LinkConfig{})
	n.Connect(mid, b, LinkConfig{})
	if n.CanReach("a", "b", "x") {
		t.Fatal("end-host forwarded traffic")
	}
	mid.SetForwarding(true)
	if !n.CanReach("a", "b", "x") {
		t.Fatal("router did not forward")
	}
}

func TestPolicyBlocksSelectively(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	anon := n.AddNode("anonvm")
	host := n.AddNode("host")
	inet := n.AddNode("internet")
	n.Connect(anon, host, LinkConfig{})
	uplink := n.Connect(host, inet, LinkConfig{})
	// Host forwards only anonymizer traffic to the uplink.
	host.SetPolicy(func(in, out *NIC, proto string, dst *Node) bool {
		return out.Link() == uplink && proto == "tor"
	})
	if n.CanReach("anonvm", "internet", "http") {
		t.Fatal("raw http escaped through host")
	}
	if !n.CanReach("anonvm", "internet", "tor") {
		t.Fatal("tor traffic blocked")
	}
	_ = eng
}

func TestMasqueradeHidesSource(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	vm := n.AddNode("commvm")
	host := n.AddNode("host").SetForwarding(true).SetMasquerade(true)
	inet := n.AddNode("internet")
	n.Connect(vm, host, LinkConfig{})
	up := n.Connect(host, inet, LinkConfig{})
	cap := up.Tap()
	fut := n.StartTransfer(TransferOpts{From: "commvm", To: "internet", Bytes: 100, Proto: "tor"})
	eng.Run()
	if _, err := fut.Value(); err != nil {
		t.Fatal(err)
	}
	if len(cap.Entries) != 1 {
		t.Fatalf("capture entries = %d", len(cap.Entries))
	}
	if cap.Entries[0].ObservedSrc != "host" {
		t.Fatalf("observed src = %q, want host (NAT)", cap.Entries[0].ObservedSrc)
	}
}

func TestViaWaypointsProxyAndResetSource(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	client := n.AddNode("client")
	guard := n.AddNode("guard")
	exit := n.AddNode("exit")
	server := n.AddNode("server")
	n.Connect(client, guard, LinkConfig{Latency: 10 * time.Millisecond})
	n.Connect(guard, exit, LinkConfig{Latency: 10 * time.Millisecond})
	last := n.Connect(exit, server, LinkConfig{Latency: 10 * time.Millisecond})
	cap := last.Tap()
	fut := n.StartTransfer(TransferOpts{
		From: "client", To: "server", Via: []string{"guard", "exit"},
		Bytes: 1000, Proto: "tor",
	})
	eng.Run()
	if _, err := fut.Value(); err != nil {
		t.Fatal(err)
	}
	// The server-side link must see the exit, not the client.
	if cap.Entries[0].ObservedSrc != "exit" {
		t.Fatalf("observed src = %q, want exit", cap.Entries[0].ObservedSrc)
	}
}

func TestViaRoutesThroughNonForwardingProxies(t *testing.T) {
	// Waypoints terminate the flow, so they work even on nodes that
	// refuse transit forwarding — exactly how an application-level
	// relay differs from an IP router.
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddNode("a")
	relay := n.AddNode("relay") // no forwarding
	b := n.AddNode("b")
	n.Connect(a, relay, LinkConfig{})
	n.Connect(relay, b, LinkConfig{})
	if n.CanReach("a", "b", "x") {
		t.Fatal("transit through end-host")
	}
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Via: []string{"relay"}, Bytes: 10, Proto: "x"})
	eng.Run()
	if _, err := fut.Value(); err != nil {
		t.Fatalf("via-relay transfer failed: %v", err)
	}
}

func TestLinkDownFailsActiveTransfers(t *testing.T) {
	eng, n, l := twoNodeNet(LinkConfig{Capacity: 1e6})
	fut := n.StartTransfer(TransferOpts{From: "a", To: "b", Bytes: 10e6, Proto: "x"})
	eng.Schedule(2*time.Second, func() { l.SetDown(n, true) })
	eng.Run()
	_, err := fut.Value()
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
	if n.ActiveTransfers() != 0 {
		t.Fatal("failed transfer still active")
	}
}

func TestPathLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddNode("a")
	r := n.AddNode("r").SetForwarding(true)
	b := n.AddNode("b")
	n.Connect(a, r, LinkConfig{Latency: 15 * time.Millisecond})
	n.Connect(r, b, LinkConfig{Latency: 25 * time.Millisecond})
	lat, err := n.PathLatency("a", "b")
	if err != nil || lat != 40*time.Millisecond {
		t.Fatalf("latency = %v, %v", lat, err)
	}
}

func TestBottleneckSharedAcrossPaths(t *testing.T) {
	// Two flows from different sources share a common bottleneck; a
	// third flow on a disjoint path is unaffected.
	eng := sim.NewEngine(1)
	n := New(eng)
	s1 := n.AddNode("s1")
	s2 := n.AddNode("s2")
	r := n.AddNode("r").SetForwarding(true)
	dst := n.AddNode("dst")
	other := n.AddNode("other")
	n.Connect(s1, r, LinkConfig{Capacity: 10e6})
	n.Connect(s2, r, LinkConfig{Capacity: 10e6})
	n.Connect(r, dst, LinkConfig{Capacity: 1e6}) // bottleneck
	n.Connect(s1, other, LinkConfig{Capacity: 1e6})
	f1 := n.StartTransfer(TransferOpts{From: "s1", To: "dst", Bytes: 1e6, Proto: "x"})
	f2 := n.StartTransfer(TransferOpts{From: "s2", To: "dst", Bytes: 1e6, Proto: "x"})
	f3 := n.StartTransfer(TransferOpts{From: "s1", To: "other", Bytes: 1e6, Proto: "x"})
	eng.Run()
	r1, _ := f1.Value()
	r2, _ := f2.Value()
	r3, _ := f3.Value()
	approx(t, r1.Duration(), 2*time.Second, 20*time.Millisecond, "f1")
	approx(t, r2.Duration(), 2*time.Second, 20*time.Millisecond, "f2")
	approx(t, r3.Duration(), 1*time.Second, 20*time.Millisecond, "f3 (disjoint)")
}

func TestMaxMinAsymmetricBottlenecks(t *testing.T) {
	// Flow A uses only the shared 1 MB/s link; flow B additionally
	// crosses a 0.3 MB/s link. Max-min: B is frozen at 0.3, A takes the
	// residual 0.7 — not an equal split.
	eng := sim.NewEngine(1)
	n := New(eng)
	src := n.AddNode("src")
	mid := n.AddNode("mid").SetForwarding(true)
	dstA := n.AddNode("dstA")
	dstB := n.AddNode("dstB")
	n.Connect(src, mid, LinkConfig{Capacity: 1e6})
	n.Connect(mid, dstA, LinkConfig{Capacity: 100e6})
	n.Connect(mid, dstB, LinkConfig{Capacity: 0.3e6})
	fa := n.StartTransfer(TransferOpts{From: "src", To: "dstA", Bytes: 1.4e6, Proto: "x"})
	fb := n.StartTransfer(TransferOpts{From: "src", To: "dstB", Bytes: 0.3e6, Proto: "x"})
	eng.Run()
	ra, _ := fa.Value()
	rb, _ := fb.Value()
	// B: 0.3 MB at 0.3 MB/s = 1s. A: 0.7 MB in the first second, then
	// the full 1 MB/s for the remaining 0.7 MB = 1.7s total.
	approx(t, rb.Duration(), time.Second, 30*time.Millisecond, "flowB")
	approx(t, ra.Duration(), 1700*time.Millisecond, 50*time.Millisecond, "flowA")
}

func TestNParallelDownloadsScaleLinearly(t *testing.T) {
	// The Figure 5 mechanism: k flows through one 10 Mbit/s uplink take
	// ~k times as long as one.
	var base time.Duration
	for _, k := range []int{1, 2, 4, 8} {
		eng := sim.NewEngine(1)
		n := New(eng)
		host := n.AddNode("host").SetForwarding(true)
		inet := n.AddNode("inet")
		n.Connect(host, inet, LinkConfig{Capacity: mbit10})
		futs := make([]*sim.Future[Result], k)
		for i := 0; i < k; i++ {
			src := n.AddNode(string(rune('A' + i)))
			n.Connect(src, host, LinkConfig{Capacity: 100e6})
			futs[i] = n.StartTransfer(TransferOpts{From: src.Name(), To: "inet", Bytes: 10e6, Proto: "x"})
		}
		eng.Run()
		var last time.Duration
		for _, f := range futs {
			r, err := f.Value()
			if err != nil {
				t.Fatal(err)
			}
			if r.Duration() > last {
				last = r.Duration()
			}
		}
		if k == 1 {
			base = last
			continue
		}
		ratio := float64(last) / float64(base)
		if math.Abs(ratio-float64(k)) > 0.1*float64(k) {
			t.Fatalf("k=%d: ratio %.2f, want ~%d", k, ratio, k)
		}
	}
}

// Property: aggregate goodput through a shared bottleneck never
// exceeds its capacity, and every flow's bytes are delivered.
func TestPropertyCapacityConserved(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 12 {
			return true
		}
		eng := sim.NewEngine(7)
		n := New(eng)
		host := n.AddNode("host").SetForwarding(true)
		inet := n.AddNode("inet")
		cap := 1e6
		n.Connect(host, inet, LinkConfig{Capacity: cap})
		var futs []*sim.Future[Result]
		var total float64
		for i, s := range sizes {
			bytes := int64(s)%100000 + 1000
			total += float64(bytes)
			src := n.AddNode(string(rune('A' + i)))
			n.Connect(src, host, LinkConfig{Capacity: 10e6})
			futs = append(futs, n.StartTransfer(TransferOpts{
				From: src.Name(), To: "inet", Bytes: bytes, Proto: "x",
			}))
		}
		eng.Run()
		var maxEnd sim.Time
		for _, f := range futs {
			r, err := f.Value()
			if err != nil {
				return false
			}
			if r.Ended > maxEnd {
				maxEnd = r.Ended
			}
		}
		elapsed := maxEnd.Seconds()
		if elapsed <= 0 {
			return false
		}
		// Goodput cannot beat the bottleneck (within 1% numeric slack).
		return total/elapsed <= cap*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with equal flows, max-min gives equal completion times.
func TestPropertyFairnessEqualFlows(t *testing.T) {
	f := func(k uint8) bool {
		count := int(k)%7 + 2
		eng := sim.NewEngine(3)
		n := New(eng)
		host := n.AddNode("host").SetForwarding(true)
		inet := n.AddNode("inet")
		n.Connect(host, inet, LinkConfig{Capacity: 1e6})
		var futs []*sim.Future[Result]
		for i := 0; i < count; i++ {
			src := n.AddNode(string(rune('A' + i)))
			n.Connect(src, host, LinkConfig{})
			futs = append(futs, n.StartTransfer(TransferOpts{From: src.Name(), To: "inet", Bytes: 1e6, Proto: "x"}))
		}
		eng.Run()
		var first, last time.Duration
		for i, f := range futs {
			r, err := f.Value()
			if err != nil {
				return false
			}
			if i == 0 || r.Duration() < first {
				first = r.Duration()
			}
			if r.Duration() > last {
				last = r.Duration()
			}
		}
		// All equal within a tiny numerical tolerance.
		return (last - first) < 50*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n := New(sim.NewEngine(1))
	n.AddNode("x")
	n.AddNode("x")
}
