package vnet

import (
	"testing"
	"time"

	"nymix/internal/sim"
)

// coverFrameNet builds the path of a mixnet cover-clock tick: a CommVM
// through its host's NAT forwarding policy and a gateway, then over a
// 3-mix cascade as Via waypoints. It returns the network and the
// options of one mixnet-sized frame along that path.
func coverFrameNet() (*Network, TransferOpts) {
	n := New(sim.NewEngine(1))
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
	return n, TransferOpts{
		From: "comm", To: "mix2", Via: []string{"mix0", "mix1"},
		Bytes: 2048, Proto: "mixnet", NoHandshake: true,
	}
}

// sendFrame runs one frame to completion.
func sendFrame(n *Network, opts TransferOpts) error {
	fut := n.StartTransfer(opts)
	n.eng.Run()
	_, err := fut.Value()
	return err
}

// BenchmarkCoverFrame sends one frame per iteration along
// coverFrameNet's path. allocs/op is the per-frame cost of routing,
// admission and rate allocation.
func BenchmarkCoverFrame(b *testing.B) {
	n, opts := coverFrameNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sendFrame(n, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoverFrameAllocs pins a frame on a memoized route to three
// allocations: the Transfer, its future and its step callback.
func TestCoverFrameAllocs(t *testing.T) {
	n, opts := coverFrameNet()
	if err := sendFrame(n, opts); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		if e := sendFrame(n, opts); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 3 {
		t.Errorf("cover frame: %v allocs per transfer, want at most 3", allocs)
	}
}
