// Package vnet simulates the network fabric underneath Nymix as a
// composition of three layers, in the netem idiom:
//
//	NIC    — an attachment point on a node; WireTap decorators on it
//	         count the bytes that cross it from the moment they are
//	         attached.
//	Link   — a point-to-point pipe with one-way latency, shared
//	         capacity, up/down state, per-direction wire and ledger
//	         byte counts, a passive Capture tap, and a pluggable DPI
//	         engine that can drop or throttle classified flows (a
//	         programmable censor).
//	Router — a forwarding node, optionally labelled with a region so
//	         multi-region topologies can be severed and healed along
//	         region boundaries.
//
// The fabric models the host-only "virtual wire" between an AnonVM
// and its CommVM, the host's NAT'd uplink, the DeterLab-like test
// deployment the paper evaluates against (80 ms RTT, 10 Mbit/s rate
// limit), and the public Internet of simulated web sites.
//
// Bulk data moves as fluid flows: concurrent transfers sharing a link
// receive max-min fair rates, recomputed whenever a flow starts or
// finishes. That reproduces the contention behaviour behind Figure 5
// without packet-level detail. As flows progress, each crossed link and
// the taps on its two NICs are credited with the bytes that moved, so
// tap totals, link wire and the per-flow detach ledger double-enter the
// same bytes.
//
// A flow reports its outcome through the future of StartTransfer or
// the callback of Send. Send's callback runs as a zero-delay event at
// the point where the future's Complete would schedule an OnDone
// subscriber, so the two fire the same events in the same order. The
// Network recycles a finished flow's state, so a Send on a memoized
// route allocates nothing.
//
// Isolation — the property validated in section 5.1 — is enforced
// structurally: routes exist only where links exist and every
// intermediate node's forwarding policy admits the hop. A blocked
// probe behaves like a silent drop ("as if the host did not exist").
// Partitions extend the same idea to whole regions: a severed region
// pair removes every route crossing the boundary in that direction,
// fails in-flight flows with a typed vnet.partitioned code, and can
// be scripted ahead of time with a Fault schedule of severs and heals
// (Network.Play). Severs are the only asymmetric impairment: a link
// goes down in both directions at once.
//
// Routes are memoized per (source, destination, protocol) segment, so
// a flow's path is a map lookup rather than a BFS. Every mutator that
// can change a route clears the memo: Connect, SetDown, SeverRegions,
// SeverRegionsOneWay and HealRegions on the fabric, and
// SetForwarding, SetPolicy, SetMasquerade, SetRegion and AddTag on a
// node. A ForwardPolicy must therefore read only its arguments and
// state that changes together with one of those mutators.
package vnet
