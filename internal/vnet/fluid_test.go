package vnet

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nymix/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// fluidGolden is the pinned outcome of fluidMix: every flow's end time
// and every link's settled wire and detach ledger per direction, as
// raw float bits so a change in the order of any float operation
// shows up.
type fluidGolden struct {
	Flows []fluidFlow `json:"flows"`
	Links []fluidLink `json:"links"`
}

type fluidFlow struct {
	From    string `json:"from"`
	To      string `json:"to"`
	EndedNS int64  `json:"ended_ns"`
	Err     string `json:"err,omitempty"`
}

type fluidLink struct {
	ID     int       `json:"id"`
	Wire   [2]uint64 `json:"wire"`
	Ledger [2]uint64 `json:"ledger"`
}

// fluidMix runs a seeded mix of overlapping transfers over a
// two-router topology with finite and unlimited links, a lossy access
// link, per-flow MaxRate caps, and Via paths that cross a link twice
// (once in each direction).
func fluidMix() fluidGolden {
	eng := sim.NewEngine(19)
	n := New(eng)
	h0, h1, h2 := n.AddNode("h0"), n.AddNode("h1"), n.AddNode("h2")
	r1, r2 := n.AddRouter("r1"), n.AddRouter("r2")
	s0, s1, p := n.AddNode("s0"), n.AddNode("s1"), n.AddNode("p")
	ms := time.Millisecond
	n.Connect(h0, r1.Node, LinkConfig{Latency: 2 * ms, Capacity: 2e6})
	n.Connect(h1, r1.Node, LinkConfig{Latency: 1 * ms})
	n.Connect(h2, r1.Node, LinkConfig{Latency: 3 * ms, Capacity: 1.5e6}).SetLoss(0.05)
	n.Connect(r1.Node, r2.Node, LinkConfig{Latency: 10 * ms, Capacity: 3e6})
	n.Connect(r2.Node, s0, LinkConfig{Latency: 5 * ms})
	n.Connect(r2.Node, s1, LinkConfig{Latency: 4 * ms, Capacity: 1e6})
	n.Connect(r2.Node, p, LinkConfig{Latency: 1 * ms, Capacity: 2.5e6})

	paths := []struct {
		from, to string
		via      []string
	}{
		{"h0", "s0", nil},
		{"h1", "s1", nil},
		{"h2", "s0", nil},
		{"h1", "s0", nil},
		{"s1", "h0", nil},
		{"h1", "r1", nil},            // no finite link: DefaultMaxRate
		{"h0", "s1", []string{"p"}},  // r2-p crossed both ways
		{"h2", "h1", []string{"s0"}}, // r1-r2 crossed both ways
		{"s0", "h2", []string{"p", "h0"}},
	}
	rng := rand.New(rand.NewSource(19))
	overheads := []float64{0, 0.05, 0.12}
	out := fluidGolden{Flows: make([]fluidFlow, 64)}
	for i := range out.Flows {
		path := paths[rng.Intn(len(paths))]
		opts := TransferOpts{
			From: path.from, To: path.to, Via: path.via,
			Bytes:       2000 + rng.Int63n(3e6),
			Proto:       "x",
			Overhead:    overheads[rng.Intn(len(overheads))],
			NoHandshake: rng.Intn(4) == 0,
		}
		if rng.Intn(3) == 0 {
			opts.MaxRate = 2e5 + rng.Float64()*1.8e6
		}
		at := time.Duration(rng.Int63n(int64(20 * time.Second)))
		rec := &out.Flows[i]
		*rec = fluidFlow{From: path.from, To: path.to}
		eng.Schedule(at, func() {
			fut := n.StartTransfer(opts)
			fut.OnDone(func() {
				r, err := fut.Value()
				rec.EndedNS = int64(r.Ended)
				if err != nil {
					rec.Err = err.Error()
				}
			})
		})
	}
	eng.Run()
	for _, l := range n.links {
		out.Links = append(out.Links, fluidLink{
			ID:     l.id,
			Wire:   [2]uint64{math.Float64bits(l.wire[dirAB]), math.Float64bits(l.wire[dirBA])},
			Ledger: [2]uint64{math.Float64bits(l.ledger[dirAB]), math.Float64bits(l.ledger[dirBA])},
		})
	}
	return out
}

// TestFluidGolden pins the fluid model bit for bit: flow end times in
// nanoseconds and per-direction link wire and ledger float bits.
// A speedup to routing or rate allocation must leave it unchanged;
// -update rewrites it only for a deliberate behaviour change.
func TestFluidGolden(t *testing.T) {
	got, err := json.MarshalIndent(fluidMix(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "fluid.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fluid model drifted from %s (rerun with -update only for a deliberate change)", path)
	}
}
