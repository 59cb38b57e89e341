package vnet

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// hop is one step of a computed route.
type hop struct {
	link        *Link
	dir         int    // traversal direction across the link
	observedSrc string // source name visible on this link (post-NAT)
}

// segKey identifies one memoized segment: a path from src to dst
// carrying proto traffic.
type segKey struct {
	src, dst *Node
	proto    string
}

// segRoute is a memoized segment: its hops with observedSrc already
// applied, or the sentinel error (ErrNoRoute or ErrPartitioned) its
// BFS ended with. The hops slice is shared by every lookup and every
// route built on it, so it must never be modified.
type segRoute struct {
	hops []hop
	err  error
}

// route is a memoized whole route: the chain's points, the hops of
// its segments joined in order, the distinct finite links they cross,
// and their summed latency (link latency is fixed at Connect). Its
// slices are shared by the memo and every transfer on the route, so
// nothing may write through them.
type route struct {
	points  []*Node
	hops    []hop
	finite  []*Link
	latency time.Duration
}

// resolve returns the route for a transfer's From, Via, To and Proto
// from the whole-route memo, building it on a miss. A failure also
// returns how long it takes to surface: at once for an unknown
// endpoint or waypoint, after a 3 s probe timeout when no path
// exists. Failures are not stored; the segment memo keeps their
// sentinel errors.
func (n *Network) resolve(opts *TransferOpts) (route, time.Duration, error) {
	key := appendName(n.routeKey[:0], opts.From)
	for _, name := range opts.Via {
		key = appendName(key, name)
	}
	key = appendName(appendName(key, opts.To), opts.Proto)
	n.routeKey = key
	if r, ok := n.wholeRoutes[string(key)]; ok {
		return r, 0, nil
	}
	src, dst := n.nodes[opts.From], n.nodes[opts.To]
	if src == nil || dst == nil {
		return route{}, 0, fmt.Errorf("%w: unknown endpoint", ErrNoRoute)
	}
	points, err := n.chain(src, dst, opts.Via)
	if err != nil {
		return route{}, 0, err
	}
	hops, err := n.join(points, opts.Proto)
	if err != nil {
		// Silent drop: the failure surfaces only after a probe timeout.
		return route{}, 3 * time.Second, err
	}
	r := route{points: points, hops: hops, finite: finiteLinks(hops), latency: latency(hops)}
	n.wholeRoutes[string(key)] = r
	return r, 0, nil
}

// appendName appends name to a route key, prefixed with its length so
// that no two name sequences share a key.
func appendName(key []byte, name string) []byte {
	return append(binary.AppendUvarint(key, uint64(len(name))), name...)
}

// finiteLinks lists the distinct finite-capacity links of hops in
// first-crossing order, in an exactly sized slice: the links a flow's
// rate allocation draws on.
func finiteLinks(hops []hop) []*Link {
	var buf [16]*Link
	out := buf[:0]
	for _, h := range hops {
		if h.link.cfg.Capacity > 0 && !slices.Contains(out, h.link) {
			out = append(out, h.link)
		}
	}
	return append([]*Link(nil), out...)
}

// latency sums the one-way latency of hops.
func latency(hops []hop) time.Duration {
	var total time.Duration
	for _, h := range hops {
		total += h.link.cfg.Latency
	}
	return total
}

// invalidateRoutes clears both route memos. Every mutator that can
// change a route calls it (see Network.routes).
func (n *Network) invalidateRoutes() {
	clear(n.routes)
	clear(n.wholeRoutes)
}

// join finds a policy-respecting path along points: the source,
// each waypoint, then the destination. Each waypoint acts as a proxy
// terminating and re-originating the flow, like a Tor relay. It
// returns the hops in order; a one-segment route shares the segment
// memo's slice, so callers must not modify it.
func (n *Network) join(points []*Node, proto string) ([]hop, error) {
	var buf [4][]hop
	segs := buf[:0]
	total := 0
	for i := 0; i+1 < len(points); i++ {
		seg := n.segment(points[i], points[i+1], proto)
		if seg.err != nil {
			return nil, fmt.Errorf("%w (%s -> %s)", seg.err, points[i].name, points[i+1].name)
		}
		segs = append(segs, seg.hops)
		total += len(seg.hops)
	}
	if total == 0 {
		return nil, nil
	}
	if len(segs) == 1 {
		return segs[0], nil
	}
	hops := make([]hop, 0, total)
	for _, seg := range segs {
		hops = append(hops, seg...)
	}
	return hops, nil
}

// segment returns the memoized route from src to dst for proto,
// computing it with a BFS on a miss. The memo is cleared by every
// mutator that can change a route (see Network.routes).
func (n *Network) segment(src, dst *Node, proto string) segRoute {
	key := segKey{src, dst, proto}
	r, ok := n.routes[key]
	if !ok {
		r.hops, r.err = n.bfs(src, dst, proto)
		n.routes[key] = r
	}
	return r
}

// bfsVisit is one node on bfs's queue.
type bfsVisit struct {
	node *Node
	in   *NIC // NIC we arrived on (nil at src)
}

// bfs searches from src to dst honoring link up/down state, region
// severs, and transit policies. Deterministic: neighbors
// expand in link-creation order. When the only thing standing between
// src and dst is a severed region boundary, the error is
// vnet.partitioned rather than vnet.no_route, so callers can tell a
// partition from a topology hole.
func (n *Network) bfs(src, dst *Node, proto string) ([]hop, error) {
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
	// route, so bfs does not re-enter.
	prev := n.bfsPrev
	clear(prev)
	prev[src] = nil
	queue := append(n.bfsQueue[:0], bfsVisit{node: src})
	defer func() { n.bfsQueue = queue[:0] }()
	for q := 0; q < len(queue); q++ {
		v := queue[q]
		// A transit node must permit forwarding; endpoints are exempt.
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
				return pathHops(src, dst, prev), nil
			}
			queue = append(queue, bfsVisit{node: peer.node, in: peer})
		}
	}
	if sawSever {
		return nil, ErrPartitioned
	}
	return nil, ErrNoRoute
}

// pathHops walks bfs's prev map back from dst into an exactly sized
// hop slice. The segment originates at src; NAT nodes along it
// rewrite the source observed on later hops.
func pathHops(src, dst *Node, prev map[*Node]*NIC) []hop {
	k := 0
	for at := dst; at != src; at = prev[at].Peer().node {
		k++
	}
	hops := make([]hop, k)
	for at := dst; at != src; {
		tx := prev[at].Peer()
		k--
		hops[k] = hop{link: tx.link, dir: tx.link.dirFrom(tx.node)}
		at = tx.node
	}
	observed := src.name
	for i := range hops {
		hops[i].observedSrc = observed
		if rx := hops[i].link.rxNIC(hops[i].dir).node; rx.masq {
			observed = rx.name
		}
	}
	return hops
}

// CanReach reports whether src can currently route proto traffic to
// dst. This is the probe primitive behind the section 5.1 isolation
// matrix.
func (n *Network) CanReach(src, dst string, proto string) bool {
	s, d := n.nodes[src], n.nodes[dst]
	if s == nil || d == nil {
		return false
	}
	return n.segment(s, d, proto).err == nil
}

// PathLatency returns the one-way latency between two nodes along the
// current route, or an error if unreachable.
func (n *Network) PathLatency(src, dst string, via ...string) (time.Duration, error) {
	s, d := n.nodes[src], n.nodes[dst]
	if s == nil || d == nil {
		return 0, ErrNoRoute
	}
	points, err := n.chain(s, d, via)
	if err != nil {
		return 0, err
	}
	hops, err := n.join(points, "probe")
	if err != nil {
		return 0, err
	}
	return latency(hops), nil
}

// chain resolves a route's node chain: src, each named waypoint in
// order, then dst.
func (n *Network) chain(src, dst *Node, via []string) ([]*Node, error) {
	points := make([]*Node, 0, len(via)+2)
	points = append(points, src)
	for _, name := range via {
		nd := n.nodes[name]
		if nd == nil {
			return nil, fmt.Errorf("%w: waypoint %q", ErrNoRoute, name)
		}
		points = append(points, nd)
	}
	return append(points, dst), nil
}
