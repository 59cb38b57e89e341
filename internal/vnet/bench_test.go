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

// frameRunner returns a function that sends one frame to completion,
// through Send when send is set and through StartTransfer otherwise.
// Send's callback is built here, once, as mixnet's cover clock does.
func frameRunner(n *Network, opts TransferOpts, send bool) func() error {
	if send {
		var err error
		done := func(_ Result, e error) { err = e }
		return func() error {
			n.Send(opts, done)
			n.eng.Run()
			return err
		}
	}
	return func() error {
		fut := n.StartTransfer(opts)
		n.eng.Run()
		_, err := fut.Value()
		return err
	}
}

// frameCases are the two ways to send a frame, with the allocations
// each may take on a memoized route once the free list is warm: none
// through Send, the future alone through StartTransfer.
var frameCases = []struct {
	name   string
	send   bool
	allocs float64
}{
	{"send", true, 0},
	{"future", false, 1},
}

// BenchmarkCoverFrame sends one frame per iteration along
// coverFrameNet's path. allocs/op is the per-frame cost of routing,
// admission and rate allocation.
func BenchmarkCoverFrame(b *testing.B) {
	for _, fc := range frameCases {
		b.Run(fc.name, func(b *testing.B) {
			n, opts := coverFrameNet()
			frame := frameRunner(n, opts, fc.send)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := frame(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCoverFrameAllocs pins a frame on a memoized route to no
// allocation through Send and to one, the future, through
// StartTransfer: the transfer and its step callback come from the
// Network's free list.
func TestCoverFrameAllocs(t *testing.T) {
	for _, fc := range frameCases {
		t.Run(fc.name, func(t *testing.T) {
			n, opts := coverFrameNet()
			frame := frameRunner(n, opts, fc.send)
			if err := frame(); err != nil {
				t.Fatal(err)
			}
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				if e := frame(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs > fc.allocs {
				t.Errorf("cover frame: %v allocs per transfer, want at most %v", allocs, fc.allocs)
			}
		})
	}
}
