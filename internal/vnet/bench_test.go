package vnet

import (
	"testing"
	"time"

	"nymix/internal/sim"
)

// BenchmarkCoverFrame sends one mixnet-sized frame per iteration along
// the path of a cover-clock tick: a CommVM through its host's NAT
// forwarding policy and a gateway, then over a 3-mix cascade as Via
// waypoints. allocs/op is the per-frame cost of routing, admission and
// rate allocation.
func BenchmarkCoverFrame(b *testing.B) {
	eng := sim.NewEngine(1)
	n := New(eng)
	comm := n.AddNode("comm")
	host := n.AddNode("host")
	gw := n.AddRouter("gw")
	var natLeg, uplink *Link
	host.SetPolicy(func(in, out *NIC, proto string, dst *Node) bool {
		if in == nil || out == nil {
			return false
		}
		return (in.Link() == natLeg && out.Link() == uplink) ||
			(in.Link() == uplink && out.Link() == natLeg)
	}).SetMasquerade(true)
	natLeg = n.Connect(comm, host, LinkConfig{Latency: 150 * time.Microsecond, Capacity: 500e6})
	uplink = n.Connect(host, gw.Node, LinkConfig{Latency: 5 * time.Millisecond, Capacity: mbit10})
	for _, name := range []string{"mix0", "mix1", "mix2"} {
		n.Connect(gw.Node, n.AddNode(name), LinkConfig{Latency: 20 * time.Millisecond, Capacity: 12.5e6})
	}
	opts := TransferOpts{
		From: "comm", To: "mix2", Via: []string{"mix0", "mix1"},
		Bytes: 2048, Proto: "mixnet", NoHandshake: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fut := n.StartTransfer(opts)
		eng.Run()
		if _, err := fut.Value(); err != nil {
			b.Fatal(err)
		}
	}
}
