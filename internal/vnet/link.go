package vnet

import (
	"sort"
	"time"

	"nymix/internal/sim"
)

// LinkConfig parameterizes a link.
type LinkConfig struct {
	Latency  time.Duration // one-way propagation delay
	Capacity float64       // bytes per second, shared by both directions; 0 = unlimited
}

// Link direction indices: dirAB is traversal from endpoint a toward
// endpoint b, dirBA the reverse. Latency, capacity and up/down state
// are symmetric; wire and ledger bytes are counted per direction.
// Asymmetric partitions live at the router level (SeverRegionsOneWay).
const (
	dirAB = 0
	dirBA = 1
)

// Link is a point-to-point link between two NICs. Capacity is shared
// by both directions (half-duplex fluid model), and the link is up or
// down as a whole.
type Link struct {
	id       int
	a, b     *NIC
	cfg      LinkConfig
	down     bool
	dpi      *DPIEngine
	captures []*Capture
	wire     [2]float64 // bytes settled across the link per direction (continuous)
	ledger   [2]float64 // bytes accounted at flow detach per direction (double entry)
}

// Connect joins two nodes with a link.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	l := &Link{id: len(n.links), cfg: cfg}
	l.a = &NIC{node: a, link: l}
	l.b = &NIC{node: b, link: l}
	a.ifaces = append(a.ifaces, l.a)
	b.ifaces = append(b.ifaces, l.b)
	n.links = append(n.links, l)
	n.residual = append(n.residual, 0)
	n.count = append(n.count, 0)
	n.invalidateRoutes()
	return l
}

// Endpoints returns the two nodes the link joins.
func (l *Link) Endpoints() (*Node, *Node) { return l.a.node, l.b.node }

// NICFor returns the link's NIC attached to nd, or nil.
func (l *Link) NICFor(nd *Node) *NIC {
	switch nd {
	case l.a.node:
		return l.a
	case l.b.node:
		return l.b
	}
	return nil
}

// dirFrom returns the direction index for traffic transmitted by nd's
// side of the link. nd must be an endpoint.
func (l *Link) dirFrom(nd *Node) int {
	if nd == l.a.node {
		return dirAB
	}
	return dirBA
}

// txNIC and rxNIC return the transmitting and receiving NIC for a
// direction index.
func (l *Link) txNIC(dir int) *NIC {
	if dir == dirAB {
		return l.a
	}
	return l.b
}

func (l *Link) rxNIC(dir int) *NIC {
	if dir == dirAB {
		return l.b
	}
	return l.a
}

// SetDown takes the link down (true) or up (false) in both directions.
// Taking a link down fails every transfer currently crossing it.
func (l *Link) SetDown(n *Network, down bool) {
	l.down = down
	n.invalidateRoutes()
	if !down {
		return
	}
	n.failActive(l, func(*Transfer) bool { return true }, ErrLinkDown)
}

// SetDPI installs (or, with nil, removes) a DPI engine on the link.
// Every new flow crossing the link in either direction is classified
// at admission; installing an engine mid-run immediately re-inspects
// in-flight flows and fails the ones it would drop, the way a censor
// tears down established connections when a new rule ships.
func (l *Link) SetDPI(n *Network, e *DPIEngine) {
	l.dpi = e
	if e == nil {
		return
	}
	n.failActive(l, func(t *Transfer) bool {
		h := t.hopOn(l)
		ruling := e.inspect(Flow{
			Src:         t.from,
			ObservedSrc: h.observedSrc,
			Dst:         t.to,
			Proto:       t.proto,
			Bytes:       t.bytes,
		})
		return ruling.Verdict == Drop
	}, ErrCensored)
}

// WireBytesTotal returns the wire bytes settled across the link in
// both directions since creation.
func (l *Link) WireBytesTotal() int64 { return round64(l.wire[dirAB] + l.wire[dirBA]) }

// LedgerBytesTotal returns the per-flow byte totals accounted when
// flows detached from the link. Once the network is quiescent this
// must equal WireBytesTotal — the double-entry cross-check behind the
// partition experiment's tap accounting.
func (l *Link) LedgerBytesTotal() int64 { return round64(l.ledger[dirAB] + l.ledger[dirBA]) }

// failActive fails the active transfers crossing l that match pred,
// in id order for determinism.
func (n *Network) failActive(l *Link, pred func(*Transfer) bool, cause error) {
	var victims []*Transfer
	for _, t := range n.transfers {
		if t.hopOn(l) != nil && pred(t) {
			victims = append(victims, t)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, t := range victims {
		t.fail(cause)
	}
}

// Capture is a passive tap on a link, the simulation's Wireshark. The
// paper's validation runs one on the host uplink to confirm an idle
// Nymix emits only DHCP and anonymizer traffic.
type Capture struct {
	link    *Link
	Entries []CaptureEntry
}

// CaptureEntry records one flow crossing a tapped link.
type CaptureEntry struct {
	Time        sim.Time
	ObservedSrc string // source as visible at this link (post-NAT)
	Dst         string
	Proto       string
	Bytes       int64
}

// Tap attaches a capture to the link.
func (l *Link) Tap() *Capture {
	c := &Capture{link: l}
	l.captures = append(l.captures, c)
	return c
}

// Protos returns the distinct protocol labels seen, sorted.
func (c *Capture) Protos() []string {
	set := map[string]bool{}
	for _, e := range c.Entries {
		set[e.Proto] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
