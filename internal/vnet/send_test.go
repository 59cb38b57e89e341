package vnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nymix/internal/sim"
)

// diffNet builds a(east) — r(core) — b(west) with 20 ms links, so a
// handshake leaves a window for faults, and returns the a–r link.
func diffNet() (*sim.Engine, *Network, *Link) {
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddNode("a").SetRegion("east")
	b := n.AddNode("b").SetRegion("west")
	r := n.AddRouter("r").WithRegion("core")
	cfg := LinkConfig{Latency: 20 * time.Millisecond, Capacity: 1e6}
	la := n.Connect(a, r.Node, cfg)
	n.Connect(r.Node, b, cfg)
	return eng, n, la
}

// outcome is what a flow's completion reports, and when: at in sim
// time, nth as the events the engine had processed, which places the
// completion's event in the queue order.
type outcome struct {
	res Result
	err error
	at  sim.Time
	nth int64
}

// same compares two outcomes, errors by their text: a DPI drop wraps
// a fresh error per flow.
func (o outcome) same(p outcome) bool {
	return o.res == p.res && o.at == p.at && o.nth == p.nth && fmt.Sprint(o.err) == fmt.Sprint(p.err)
}

// runDiff plays one case on a fresh diffNet: the case's flow a→b
// beside a bystander r→b that no case's fault touches. With send set
// both flows go through Send, otherwise through StartTransfer with an
// OnDone subscriber. It returns each flow's outcome and the events the
// engine processed.
func runDiff(send bool, opts TransferOpts, setup func(*Network, *Link)) ([]outcome, int64) {
	eng, n, la := diffNet()
	if setup != nil {
		setup(n, la)
	}
	flows := []TransferOpts{opts, {From: "r", To: "b", Bytes: 2e5, Proto: "http"}}
	got := make([]outcome, len(flows))
	record := func(i int, res Result, err error) {
		got[i] = outcome{res: res, err: err, at: eng.Now(), nth: eng.Processed()}
	}
	for i, o := range flows {
		i := i
		if send {
			n.Send(o, func(res Result, err error) { record(i, res, err) })
			continue
		}
		fut := n.StartTransfer(o)
		fut.OnDone(func() {
			res, err := fut.Value()
			record(i, res, err)
		})
	}
	eng.Run()
	if n.ActiveTransfers() != 0 {
		panic("flows still active on a drained engine")
	}
	return got, eng.Processed()
}

// TestSendMatchesStartTransfer runs every way a flow can end through
// Send on one network and through StartTransfer + OnDone on an
// identical one. Each flow must report the same result and error at
// the same sim time and from the same event in queue order, and the
// engines must process the same number of events: Send's callback
// takes exactly the event an OnDone subscriber would.
func TestSendMatchesStartTransfer(t *testing.T) {
	ab := TransferOpts{From: "a", To: "b", Bytes: 1e5, Proto: "http"}
	bulk := TransferOpts{From: "a", To: "b", Bytes: 5e6, Proto: "http", NoHandshake: true}
	at := func(d time.Duration, f func(*Network, *Link)) func(*Network, *Link) {
		return func(n *Network, l *Link) { n.eng.Schedule(d, func() { f(n, l) }) }
	}
	setDown := func(n *Network, l *Link) { l.SetDown(n, true) }
	sever := func(n *Network, _ *Link) { n.SeverRegions("east", "west") }
	cases := []struct {
		name  string
		opts  TransferOpts
		setup func(*Network, *Link)
		want  error
	}{
		{"success", ab, nil, nil},
		{"unknown endpoint", TransferOpts{From: "a", To: "nowhere", Bytes: 1e5, Proto: "http"}, nil, ErrNoRoute},
		{"dpi drop", TransferOpts{From: "a", To: "b", Bytes: 1e5, Proto: "tor"},
			func(n *Network, l *Link) { l.SetDPI(n, NewDPI(DropProto("tor"))) }, ErrCensored},
		{"link down in handshake", ab, at(10*time.Millisecond, setDown), ErrLinkDown},
		{"partition in handshake", ab, at(10*time.Millisecond, sever), ErrPartitioned},
		{"link down mid-flow", bulk, at(time.Second, setDown), ErrLinkDown},
		{"partition mid-flow", bulk, at(time.Second, sever), ErrPartitioned},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sent, sentEvents := runDiff(true, tc.opts, tc.setup)
			awaited, awaitedEvents := runDiff(false, tc.opts, tc.setup)
			for i := range sent {
				if !sent[i].same(awaited[i]) {
					t.Errorf("flow %d: Send reported %+v, StartTransfer %+v", i, sent[i], awaited[i])
				}
			}
			if sentEvents != awaitedEvents {
				t.Errorf("events: Send %d, StartTransfer %d", sentEvents, awaitedEvents)
			}
			if err := sent[0].err; !errors.Is(err, tc.want) {
				t.Errorf("case flow err = %v, want %v", err, tc.want)
			}
			if tc.want == ErrCensored && sent[0].at != 3*time.Second {
				t.Errorf("DPI drop surfaced at %v, want after the 3s probe timeout", sent[0].at)
			}
			if sent[1].err != nil || sent[1].res.Bytes != 2e5 {
				t.Errorf("bystander = %+v, want 200000 bytes delivered", sent[1])
			}
		})
	}
}

// TestRecycleDuringFailActive fails several flows with one mid-flow
// SetDown. The process awaiting each victim wakes inside failActive's
// victim loop and starts a replacement flow at once, so the loop hands
// freed transfers to new flows while it still holds later victims.
// Every replacement must deliver its own byte count, no flow may stay
// active, and each NIC's tap must equal its link's wire and ledger in
// both directions.
func TestRecycleDuringFailActive(t *testing.T) {
	const victims = 4
	eng := sim.NewEngine(1)
	n := New(eng)
	a, b, c := n.AddNode("a"), n.AddNode("b"), n.AddNode("c")
	r := n.AddRouter("r")
	cfg := LinkConfig{Latency: 5 * time.Millisecond, Capacity: 1e6}
	var links []*Link
	taps := map[*NIC]*WireTap{}
	for _, end := range []*Node{a, b, c} {
		l := n.Connect(end, r.Node, cfg)
		links = append(links, l)
		taps[l.a], taps[l.b] = l.a.WireTap(), l.b.WireTap()
	}
	la := links[0]
	eng.Schedule(time.Second, func() { la.SetDown(n, true) })

	replaced := make([]Result, victims)
	for i := 0; i < victims; i++ {
		i := i
		eng.Go(fmt.Sprintf("victim-%d", i), func(p *sim.Proc) {
			res, err := sim.Await(p, n.StartTransfer(TransferOpts{
				From: "a", To: "b", Bytes: 5e6, Proto: "http", NoHandshake: true,
			}))
			if !errors.Is(err, ErrLinkDown) || res.Started != 0 || res.Ended != time.Second {
				t.Errorf("victim %d: %+v, %v; want ErrLinkDown at 1s", i, res, err)
			}
			res, err = sim.Await(p, n.StartTransfer(TransferOpts{
				From: "c", To: "b", Bytes: int64(1000 * (i + 1)), Proto: "http",
			}))
			if err != nil {
				t.Errorf("replacement %d: %v", i, err)
			}
			replaced[i] = res
		})
	}
	eng.Run()

	for i, res := range replaced {
		if want := int64(1000 * (i + 1)); res.Bytes != want {
			t.Errorf("replacement %d delivered %d bytes, want %d", i, res.Bytes, want)
		}
	}
	if got := n.ActiveTransfers(); got != 0 {
		t.Errorf("%d transfers still active", got)
	}
	// Each replacement took its own victim's transfer off the free
	// list, inside the loop: victims+victims flows used victims objects.
	if len(n.free) != victims {
		t.Errorf("free list holds %d transfers, want %d", len(n.free), victims)
	}
	for _, l := range links {
		for dir := range l.wire {
			tx, rx := l.txNIC(dir), l.rxNIC(dir)
			wire, ledger := round64(l.wire[dir]), round64(l.ledger[dir])
			if taps[tx].TxBytes() != wire || taps[rx].RxBytes() != wire || ledger != wire {
				t.Errorf("link %s-%s dir %d: tx tap %d, rx tap %d, wire %d, ledger %d",
					l.a.node.name, l.b.node.name, dir, taps[tx].TxBytes(), taps[rx].RxBytes(), wire, ledger)
			}
		}
	}
}
