package vnet

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nymix/internal/sim"
)

// refRoute is the route computation without a memo, kept as the
// oracle: a fresh BFS per segment that returns links, with the NAT
// rewrite of the observed source applied while walking them.
func refRoute(n *Network, src, dst *Node, via []*Node, proto string) ([]hop, error) {
	points := append([]*Node{src}, via...)
	points = append(points, dst)
	var hops []hop
	for i := 0; i+1 < len(points); i++ {
		seg, err := refSegment(n, points[i], points[i+1], proto)
		if err != nil {
			return nil, fmt.Errorf("%w (%s -> %s)", err, points[i].name, points[i+1].name)
		}
		observed := points[i].name
		node := points[i]
		for _, l := range seg {
			next, dir := l.b, dirAB
			if l.a.node != node {
				next, dir = l.a, dirBA
			}
			hops = append(hops, hop{link: l, dir: dir, observedSrc: observed})
			node = next.node
			if node.masq {
				observed = node.name
			}
		}
	}
	return hops, nil
}

func refSegment(n *Network, src, dst *Node, proto string) ([]*Link, error) {
	if src == dst {
		return nil, nil
	}
	if n.regionCut(src, dst) {
		return nil, ErrPartitioned
	}
	sawSever := false
	prev := map[*Node]*NIC{src: nil}
	queue := []bfsVisit{{node: src}}
	for q := 0; q < len(queue); q++ {
		v := queue[q]
		for _, out := range v.node.ifaces {
			if out.link.down {
				continue
			}
			peer := out.Peer()
			if n.regionCut(v.node, peer.node) {
				sawSever = true
				continue
			}
			if v.node != src {
				if v.node.noTrans {
					continue
				}
				if v.node.policy != nil && !v.node.policy(v.in, out, proto, dst) {
					continue
				}
			}
			if _, seen := prev[peer.node]; seen {
				continue
			}
			prev[peer.node] = peer
			if peer.node == dst {
				var links []*Link
				for at := dst; at != src; at = prev[at].Peer().node {
					links = append(links, prev[at].link)
				}
				slices.Reverse(links)
				return links, nil
			}
			queue = append(queue, bfsVisit{node: peer.node, in: peer})
		}
	}
	if sawSever {
		return nil, ErrPartitioned
	}
	return nil, ErrNoRoute
}

// byteStream feeds a scenario from fuzz input; an exhausted stream
// reads zeros.
type byteStream struct{ b []byte }

func (s *byteStream) next(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v % n
}

func (s *byteStream) empty() bool { return len(s.b) == 0 }

// routeMemoScenario builds a topology of routers, regions, tagged end
// hosts and a NAT node whose policy reads a link set, then interleaves
// every route-visible mutator with lookups. The link set changes only
// right after Connect or SetDown, as the hypervisor's does. After each
// lookup the memoized whole route must equal refRoute (see
// checkRoute). One host is named "h0\x00h1", so its routes share a key
// with h0's routes via h1 unless the key is length-prefixed.
func routeMemoScenario(data []byte) error {
	in := &byteStream{b: data}
	n := New(sim.NewEngine(1))
	regions := []string{"", "east", "west", "north"}
	protos := []string{"tcp", "udp", "probe"}
	nat := n.AddNode("nat").SetMasquerade(true)
	allowed := map[*Link]bool{}
	natPolicy := func(in, out *NIC, proto string, dst *Node) bool {
		return in != nil && allowed[in.Link()] && allowed[out.Link()] &&
			!dst.HasTag("lan") && proto != "udp"
	}
	nat.SetPolicy(natPolicy)
	nodes := []*Node{nat}
	for i := 0; i < 3; i++ {
		nodes = append(nodes, n.AddRouter(fmt.Sprintf("r%d", i)).WithRegion(regions[i%len(regions)]).Node)
	}
	for i := 0; i < 5; i++ {
		h := n.AddNode(fmt.Sprintf("h%d", i)).SetRegion(regions[(i+1)%len(regions)])
		if i%2 == 0 {
			h.AddTag("lan")
		}
		nodes = append(nodes, h)
	}
	h0, h1 := n.Node("h0"), n.Node("h1")
	nodes = append(nodes, n.AddNode("h0\x00h1"))
	node := func() *Node { return nodes[in.next(len(nodes))] }
	connect := func(a, b *Node) {
		// Every other link is uncapped, so finite-link lists skip
		// some hops, and latencies differ, so their sums are checked.
		k := len(n.links)
		l := n.Connect(a, b, LinkConfig{
			Latency:  time.Duration(1+k%3) * time.Millisecond,
			Capacity: float64(k%2) * 1e6,
		})
		if a == nat || b == nat {
			allowed[l] = true
		}
	}
	// A router ring, the NAT on two routers, the last two hosts behind
	// the NAT and the others on a router each.
	for i, nd := range nodes {
		if i >= len(nodes)-2 {
			connect(nd, nat)
		} else {
			connect(nd, nodes[1+i%3])
		}
	}
	connect(nat, nodes[2])
	for i := 0; i < 4; i++ {
		connect(node(), node())
	}
	link := func() *Link { return n.links[in.next(len(n.links))] }
	for step := 0; step < 120 && !in.empty(); step++ {
		switch in.next(12) {
		case 0:
			connect(node(), node())
		case 1:
			l := link()
			down := in.next(2) == 0
			l.SetDown(n, down)
			if down {
				delete(allowed, l)
			}
		case 2:
			n.SeverRegions(regions[in.next(4)], regions[in.next(4)])
		case 3:
			n.SeverRegionsOneWay(regions[in.next(4)], regions[in.next(4)])
		case 4:
			n.HealRegions(regions[in.next(4)], regions[in.next(4)])
		case 5:
			node().SetForwarding(in.next(2) == 0)
		case 6:
			if in.next(2) == 0 {
				node().SetPolicy(natPolicy)
			} else {
				node().SetPolicy(nil)
			}
		case 7:
			node().SetMasquerade(in.next(2) == 0)
		case 8:
			node().SetRegion(regions[in.next(4)])
		case 9:
			node().AddTag("lan")
		default:
			// Sweep every ordered pair, so a memo entry that a
			// mutator should have cleared is looked up again, then
			// chains with one and two waypoints, then h0 via h1 after
			// "h0\x00h1" has stored its routes.
			proto := protos[in.next(len(protos))]
			via := []*Node{node()}
			via2 := []*Node{node(), node()}
			for _, src := range nodes {
				for _, dst := range nodes {
					if err := checkRoute(n, src, dst, nil, proto); err != nil {
						return fmt.Errorf("step %d: %v", step, err)
					}
				}
				if err := checkRoute(n, src, node(), via, proto); err != nil {
					return fmt.Errorf("step %d: %v", step, err)
				}
				if err := checkRoute(n, src, node(), via2, proto); err != nil {
					return fmt.Errorf("step %d: %v", step, err)
				}
			}
			for _, dst := range nodes {
				if err := checkRoute(n, h0, dst, []*Node{h1}, proto); err != nil {
					return fmt.Errorf("step %d: %v", step, err)
				}
			}
		}
	}
	return nil
}

// checkRoute resolves a transfer's route through the whole-route memo
// and compares it with refRoute: points, hops (observedSrc included),
// distinct finite links, latency, the error and its delay. It also
// compares CanReach with a fresh BFS.
func checkRoute(n *Network, src, dst *Node, via []*Node, proto string) error {
	opts := TransferOpts{From: src.name, To: dst.name, Proto: proto}
	for _, v := range via {
		opts.Via = append(opts.Via, v.name)
	}
	got, delay, gotErr := n.resolve(&opts)
	want, wantErr := refRoute(n, src, dst, via, proto)
	var wantPoints []*Node
	var wantFinite []*Link
	var wantLatency, wantDelay time.Duration
	if wantErr == nil {
		wantPoints = append(append([]*Node{src}, via...), dst)
		for _, h := range want {
			if h.link.cfg.Capacity > 0 && !slices.Contains(wantFinite, h.link) {
				wantFinite = append(wantFinite, h.link)
			}
			wantLatency += h.link.cfg.Latency
		}
	} else {
		wantDelay = 3 * time.Second
	}
	if !sameErr(gotErr, wantErr) || delay != wantDelay || !slices.Equal(got.hops, want) ||
		!slices.Equal(got.points, wantPoints) || !slices.Equal(got.finite, wantFinite) ||
		got.latency != wantLatency {
		return fmt.Errorf("route %q->%q via %d (%s): memo %v, %v after %v; fresh %v, %v",
			src.name, dst.name, len(via), proto, got, gotErr, delay, want, wantErr)
	}
	_, segErr := refSegment(n, src, dst, proto)
	if reach := n.CanReach(src.name, dst.name, proto); reach != (segErr == nil) {
		return fmt.Errorf("CanReach(%s, %s, %s) = %v, fresh error %v",
			src.name, dst.name, proto, reach, segErr)
	}
	return nil
}

// sameErr reports whether two route errors wrap the same sentinel and
// read the same.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	for _, s := range []error{ErrNoRoute, ErrPartitioned} {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return a.Error() == b.Error()
}

// TestRouteMemoMatchesBFS runs the memo scenario on 200 seeded random
// streams.
func TestRouteMemoMatchesBFS(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 500)
		rand.New(rand.NewSource(seed)).Read(data)
		if err := routeMemoScenario(data); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzRouteMemo searches for a mutator and lookup sequence where the
// memo disagrees with a fresh BFS.
func FuzzRouteMemo(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 1, 2, 0, 3, 12, 3, 4, 1, 2, 0})
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := routeMemoScenario(data); err != nil {
			t.Fatal(err)
		}
	})
}
