package vnet

import "sort"

// Router is a forwarding node: the third fabric layer. It is a thin
// wrapper over Node — everything a Node can do, a Router can — whose
// constructor enables transit, so topologies read as what they are:
// NICs attach nodes to Links, Links meet at Routers.
type Router struct {
	*Node
}

// AddRouter creates a forwarding node. Use WithRegion to place it in
// a severable region.
func (n *Network) AddRouter(name string) *Router {
	r := &Router{n.AddNode(name)}
	r.SetForwarding(true)
	return r
}

// WithRegion labels the router's node with a region and returns the
// router (chainable).
func (r *Router) WithRegion(region string) *Router {
	r.SetRegion(region)
	return r
}

// regionPair is one direction of a region boundary.
type regionPair struct{ from, to string }

// SeverRegions severs the boundary between two regions in both
// directions: no flow may cross from a into b or from b into a, and
// every in-flight flow whose path crosses the boundary (or whose
// segment endpoints straddle it) fails with a vnet.partitioned error.
func (n *Network) SeverRegions(a, b string) {
	n.severOne(a, b)
	n.severOne(b, a)
}

// SeverRegionsOneWay severs only the from→to direction: traffic
// transmitted out of `from` into `to` is blocked while the reverse
// direction still routes. This is the asymmetric-partition primitive.
func (n *Network) SeverRegionsOneWay(from, to string) {
	n.severOne(from, to)
}

// HealRegions removes the sever between two regions in both
// directions.
func (n *Network) HealRegions(a, b string) {
	delete(n.severed, regionPair{a, b})
	delete(n.severed, regionPair{b, a})
	n.invalidateRoutes()
}

func (n *Network) severOne(from, to string) {
	if from == "" || to == "" || from == to {
		return
	}
	n.severed[regionPair{from, to}] = true
	n.invalidateRoutes()
	// Fail the in-flight flows the new sever cuts, in id order.
	var victims []*Transfer
	for _, t := range n.transfers {
		if n.partitionBlocked(t) {
			victims = append(victims, t)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, t := range victims {
		t.fail(ErrPartitioned)
	}
}

// regionCut reports whether traffic moving from node f to node t
// crosses a severed boundary. Same-region and unlabelled hops never
// cut.
func (n *Network) regionCut(f, t *Node) bool {
	if f.region == t.region || f.region == "" || t.region == "" {
		return false
	}
	return n.severed[regionPair{f.region, t.region}]
}

// partitionBlocked reports whether the transfer's path is cut by the
// current sever map: either a hop crosses a severed boundary in its
// traversal direction, or a segment's endpoints straddle one (which
// covers regions that are not physically adjacent).
func (n *Network) partitionBlocked(t *Transfer) bool {
	for i := 0; i+1 < len(t.points); i++ {
		if n.regionCut(t.points[i], t.points[i+1]) {
			return true
		}
	}
	for _, h := range t.hops {
		if n.regionCut(h.link.txNIC(h.dir).node, h.link.rxNIC(h.dir).node) {
			return true
		}
	}
	return false
}
