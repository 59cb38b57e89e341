package vnet

import (
	"fmt"
	"time"
)

// hop is one step of a computed route.
type hop struct {
	link        *Link
	dir         int    // traversal direction across the link
	observedSrc string // source name visible on this link (post-NAT)
}

// route finds a policy-respecting path from src to dst, optionally
// through waypoints (each waypoint acts as a proxy terminating and
// re-originating the flow, like a Tor relay). It returns the hops in
// order.
func (n *Network) route(src, dst *Node, via []*Node, proto string) ([]hop, error) {
	points := append([]*Node{src}, via...)
	points = append(points, dst)
	var hops []hop
	for i := 0; i+1 < len(points); i++ {
		seg, err := n.segment(points[i], points[i+1], proto)
		if err != nil {
			return nil, fmt.Errorf("%w (%s -> %s)", err, points[i].name, points[i+1].name)
		}
		// The segment originates at points[i]; NAT nodes along it rewrite
		// the observed source.
		observed := points[i].name
		node := points[i]
		for _, l := range seg {
			var next *NIC
			dir := dirAB
			if l.a.node == node {
				next = l.b
			} else {
				next = l.a
				dir = dirBA
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

// bfsVisit is one node on segment's BFS queue.
type bfsVisit struct {
	node *Node
	in   *NIC // NIC we arrived on (nil at src)
}

// segment runs a BFS from src to dst honoring per-direction link
// state, region severs, and transit policies. Deterministic: neighbors
// expand in link-creation order. When the only thing standing between
// src and dst is a severed region boundary, the error is
// vnet.partitioned rather than vnet.no_route, so callers can tell a
// partition from a topology hole.
func (n *Network) segment(src, dst *Node, proto string) ([]*Link, error) {
	if src == dst {
		return nil, nil
	}
	// Endpoint check first: severed regions are unreachable even when
	// no single link crosses the boundary directly (e.g. east→west
	// through an unlabelled or third-region backbone).
	if n.regionCut(src, dst) {
		return nil, ErrPartitioned
	}
	sawSever := false
	// prev maps each reached node to the NIC it was reached through
	// (nil at src); the scratch is reused because transit policies never
	// route, so segment does not re-enter.
	prev := n.bfsPrev
	clear(prev)
	prev[src] = nil
	queue := append(n.bfsQueue[:0], bfsVisit{node: src})
	defer func() { n.bfsQueue = queue[:0] }()
	for q := 0; q < len(queue); q++ {
		v := queue[q]
		// A transit node must permit forwarding; endpoints are exempt.
		for _, out := range v.node.ifaces {
			if out.link.down[out.link.dirFrom(v.node)] {
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
				// Reconstruct.
				var links []*Link
				at := dst
				for at != src {
					in := prev[at]
					links = append(links, in.link)
					at = in.Peer().node
				}
				// Reverse.
				for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
					links[i], links[j] = links[j], links[i]
				}
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

// CanReach reports whether src can currently route proto traffic to
// dst. This is the probe primitive behind the section 5.1 isolation
// matrix.
func (n *Network) CanReach(src, dst string, proto string) bool {
	s, d := n.nodes[src], n.nodes[dst]
	if s == nil || d == nil {
		return false
	}
	_, err := n.segment(s, d, proto)
	return err == nil
}

// PathLatency returns the one-way latency between two nodes along the
// current route, or an error if unreachable.
func (n *Network) PathLatency(src, dst string, via ...string) (time.Duration, error) {
	s, d := n.nodes[src], n.nodes[dst]
	if s == nil || d == nil {
		return 0, ErrNoRoute
	}
	vias, err := n.viaNodes(via)
	if err != nil {
		return 0, err
	}
	hops, err := n.route(s, d, vias, "probe")
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, h := range hops {
		total += h.link.cfg.Latency
	}
	return total, nil
}

func (n *Network) viaNodes(names []string) ([]*Node, error) {
	var out []*Node
	for _, name := range names {
		nd := n.nodes[name]
		if nd == nil {
			return nil, fmt.Errorf("%w: waypoint %q", ErrNoRoute, name)
		}
		out = append(out, nd)
	}
	return out, nil
}
