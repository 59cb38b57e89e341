package vnet

import (
	"fmt"

	"nymix/internal/sim"
)

// DefaultMaxRate caps flows whose path has no finite-capacity link
// (1 Gbit/s in bytes per second).
const DefaultMaxRate = 125e6

// Network is a simulated network bound to a simulation engine.
type Network struct {
	eng       *sim.Engine
	nodes     map[string]*Node
	nodeOrder []*Node
	links     []*Link
	// transfers holds the active flows in activation order. That is
	// not id order: flows activate after handshakes of different
	// lengths.
	transfers []*Transfer
	nextID    int64
	severed   map[regionPair]bool
	faultLog  []AppliedFault
	// Two route memos. routes holds segments by (src, dst, proto),
	// with the sentinel error of a failed BFS. wholeRoutes holds the
	// successful routes of transfers, keyed by From, Via, To and Proto
	// as length-prefixed names; routeKey is its reused key buffer.
	// Every mutator that can change a route clears both through
	// invalidateRoutes: Connect, SetDown, SeverRegions,
	// SeverRegionsOneWay and HealRegions on the fabric, and
	// SetForwarding, SetPolicy, SetMasquerade, SetRegion and AddTag on
	// a node. DPI is read live from the hops at admission, so it needs
	// no clear.
	routes      map[segKey]segRoute
	wholeRoutes map[string]route
	routeKey    []byte
	// bfs scratch, reused across calls.
	bfsPrev  map[*Node]*NIC
	bfsQueue []bfsVisit
	// recompute scratch: residual and count are indexed by Link.id,
	// unfrozen runs parallel to transfers.
	residual []float64
	count    []int
	unfrozen []bool
}

// New returns an empty network on eng.
func New(eng *sim.Engine) *Network {
	return &Network{
		eng:         eng,
		nodes:       make(map[string]*Node),
		severed:     make(map[regionPair]bool),
		routes:      make(map[segKey]segRoute),
		wholeRoutes: make(map[string]route),
		bfsPrev:     make(map[*Node]*NIC),
	}
}

// Engine returns the simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// ForwardPolicy decides whether a node forwards traffic arriving on in
// toward out, destined for dst (the segment's destination node, so a
// NAT firewall can drop private-range destinations). Endpoint nodes
// are not policy-checked for their own traffic; only transit hops are.
// A policy must not compute routes (CanReach, PathLatency, transfers)
// on the network that calls it.
//
// Routes are memoized until the fabric changes, so a policy's answer
// may depend only on its arguments and on state that changes together
// with one of the route-clearing mutators listed on Network.routes
// (for example a set of links that is updated right next to Connect
// or SetDown). A policy reading any other mutable state would be
// answered from a stale memo.
type ForwardPolicy func(in, out *NIC, proto string, dst *Node) bool

// Node is a host, VM, relay, or service attachment point.
type Node struct {
	net     *Network
	name    string
	region  string // "" = unlabelled; used by region severing
	ifaces  []*NIC
	policy  ForwardPolicy
	masq    bool // NAT masquerade: forwarded traffic appears to come from this node
	noTrans bool // refuses to forward entirely (end hosts)
	tags    map[string]bool
}

// AddNode creates a node. By default a node forwards nothing
// (end-host); call SetForwarding or SetPolicy to make it a router, or
// use AddRouter directly.
func (n *Network) AddNode(name string) *Node {
	if _, ok := n.nodes[name]; ok {
		panic(fmt.Sprintf("vnet: duplicate node %q", name))
	}
	nd := &Node{net: n, name: name, noTrans: true}
	n.nodes[name] = nd
	n.nodeOrder = append(n.nodeOrder, nd)
	return nd
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Ifaces returns the node's NICs in link-creation order.
func (nd *Node) Ifaces() []*NIC { return nd.ifaces }

// AddTag labels the node (e.g. "lan" for intranet hosts whose private
// address range a NAT firewall filters).
func (nd *Node) AddTag(tag string) *Node {
	if nd.tags == nil {
		nd.tags = make(map[string]bool)
	}
	nd.tags[tag] = true
	nd.net.invalidateRoutes()
	return nd
}

// HasTag reports whether the node carries the tag.
func (nd *Node) HasTag(tag string) bool { return nd.tags[tag] }

// SetForwarding enables or disables transit through this node.
func (nd *Node) SetForwarding(on bool) *Node {
	nd.noTrans = !on
	nd.net.invalidateRoutes()
	return nd
}

// SetPolicy installs a forwarding policy (implies forwarding enabled).
func (nd *Node) SetPolicy(p ForwardPolicy) *Node {
	nd.policy = p
	nd.noTrans = false
	nd.net.invalidateRoutes()
	return nd
}

// SetMasquerade makes the node a NAT: traffic it forwards is observed
// downstream with this node as its source, hiding the true origin —
// KVM user-mode NAT in the paper's prototype.
func (nd *Node) SetMasquerade(on bool) *Node {
	nd.masq = on
	nd.net.invalidateRoutes()
	return nd
}

// SetRegion labels the node with a region name. Region labels drive
// SeverRegions: a flow whose path crosses from one labelled region
// into another follows the sever map. Unlabelled nodes ("") belong to
// no region and never match a sever.
func (nd *Node) SetRegion(region string) *Node {
	nd.region = region
	nd.net.invalidateRoutes()
	return nd
}

// Region returns the node's region label ("" if unlabelled).
func (nd *Node) Region() string { return nd.region }

// ActiveTransfers returns the number of in-flight flows.
func (n *Network) ActiveTransfers() int { return len(n.transfers) }
