package anonnet

import (
	"errors"
	"testing"
	"time"

	"nymix/internal/sim"
	"nymix/internal/vnet"
)

// fakeAnon is a scriptable anonymizer for chain tests.
type fakeAnon struct {
	name     string
	overhead float64
	exit     string
	startErr error
	started  bool
	stopped  bool
	state    State
	// lastReq records what Fetch saw, to verify overhead composition.
	lastReq Request
	// net, when set, carries each Fetch as one flow from node "user"
	// to the site, labelled with the stage's name.
	net *vnet.Network
}

func (f *fakeAnon) Name() string          { return f.name }
func (f *fakeAnon) Ready() bool           { return f.started }
func (f *fakeAnon) OverheadFrac() float64 { return f.overhead }
func (f *fakeAnon) ExitIdentity() string  { return f.exit }
func (f *fakeAnon) Stop()                 { f.stopped = true; f.started = false }

func (f *fakeAnon) Start(p *sim.Proc) error {
	if f.startErr != nil {
		return f.startErr
	}
	p.Sleep(time.Second)
	f.started = true
	return nil
}

func (f *fakeAnon) Fetch(p *sim.Proc, req Request) (FetchResult, error) {
	f.lastReq = req
	if f.net != nil {
		fut := f.net.StartTransfer(vnet.TransferOpts{From: "user", To: req.SiteNode, Bytes: req.SendBytes, Proto: f.name})
		if _, err := sim.Await(p, fut); err != nil {
			return FetchResult{}, err
		}
	}
	return FetchResult{Sent: req.SendBytes, Received: req.RecvBytes, Elapsed: time.Second}, nil
}

func (f *fakeAnon) Resolve(p *sim.Proc, host string) (string, error) {
	return "node:" + host, nil
}

func (f *fakeAnon) ExportState() State { return f.state }
func (f *fakeAnon) ImportState(s State) {
	if f.state == nil {
		f.state = State{}
	}
	for k, v := range s {
		f.state[k] = v
	}
}

func runChain(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	eng := sim.NewEngine(1)
	eng.Go("t", fn)
	eng.Run()
}

func TestChainNameAndProto(t *testing.T) {
	eng := sim.NewEngine(1)
	net := vnet.New(eng)
	tap := net.Connect(net.AddNode("user"), net.AddNode("site"), vnet.LinkConfig{Capacity: 1e6}).Tap()
	c := NewChain(&fakeAnon{name: "dissent", net: net}, &fakeAnon{name: "tor", net: net})
	if c.Name() != "dissent+tor" {
		t.Fatalf("name = %q", c.Name())
	}
	eng.Go("t", func(p *sim.Proc) {
		c.Start(p)
		if _, err := c.Fetch(p, Request{SiteNode: "site", SendBytes: 1000}); err != nil {
			t.Errorf("fetch: %v", err)
		}
	})
	eng.Run()
	// The final stage carries the exchange, so the wire shows only its
	// label.
	if got := tap.Protos(); len(got) != 1 || got[0] != "tor" {
		t.Fatalf("wire protos = %v, want [tor]", got)
	}
}

func TestChainStartsAllStagesInOrder(t *testing.T) {
	a := &fakeAnon{name: "a"}
	b := &fakeAnon{name: "b"}
	c := NewChain(a, b)
	runChain(t, func(p *sim.Proc) {
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
		}
	})
	if !a.started || !b.started || !c.Ready() {
		t.Fatal("stages not started")
	}
}

func TestChainStartFailurePropagates(t *testing.T) {
	sentinel := errors.New("boom")
	a := &fakeAnon{name: "a"}
	b := &fakeAnon{name: "b", startErr: sentinel}
	c := NewChain(a, b)
	var err error
	runChain(t, func(p *sim.Proc) { err = c.Start(p) })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if c.Ready() {
		t.Fatal("chain ready despite failed stage")
	}
}

func TestChainFetchComposesOverheads(t *testing.T) {
	inner := &fakeAnon{name: "inner", overhead: 0.5}
	outer := &fakeAnon{name: "outer", overhead: 0.1}
	c := NewChain(inner, outer)
	runChain(t, func(p *sim.Proc) {
		c.Start(p)
		res, err := c.Fetch(p, Request{SiteNode: "s", SendBytes: 1000, RecvBytes: 2000})
		if err != nil {
			t.Errorf("fetch: %v", err)
		}
		if res.Received != 3000 {
			t.Errorf("received = %d (inner stage inflates 2000 by 50%%)", res.Received)
		}
	})
	// The final stage carries the inner-inflated payload.
	if outer.lastReq.SendBytes != 1500 || outer.lastReq.RecvBytes != 3000 {
		t.Fatalf("outer saw %+v, want inner-inflated sizes", outer.lastReq)
	}
	// Total composition: (1.5)(1.1) - 1 = 65%.
	if oh := c.OverheadFrac(); oh < 0.649 || oh > 0.651 {
		t.Fatalf("composed overhead = %v", oh)
	}
}

func TestChainFetchBeforeStart(t *testing.T) {
	c := NewChain(&fakeAnon{name: "a"})
	runChain(t, func(p *sim.Proc) {
		if _, err := c.Fetch(p, Request{SiteNode: "s"}); err != ErrNotReady {
			t.Errorf("err = %v", err)
		}
	})
}

func TestChainExitIsFinalStage(t *testing.T) {
	c := NewChain(&fakeAnon{name: "a", exit: "exit-a"}, &fakeAnon{name: "b", exit: "exit-b"})
	if c.ExitIdentity() != "exit-b" {
		t.Fatalf("exit = %q", c.ExitIdentity())
	}
}

func TestChainStateRoundTripPerStage(t *testing.T) {
	a := &fakeAnon{name: "tor", state: State{"guard": "relay-1"}}
	b := &fakeAnon{name: "tor", state: State{"guard": "relay-2"}}
	c := NewChain(a, b)
	exported := c.ExportState()

	a2 := &fakeAnon{name: "tor"}
	b2 := &fakeAnon{name: "tor"}
	c2 := NewChain(a2, b2)
	c2.ImportState(exported)
	if a2.state["guard"] != "relay-1" || b2.state["guard"] != "relay-2" {
		t.Fatalf("per-stage state mixed up: %v / %v", a2.state, b2.state)
	}
}

func TestChainStopStopsEveryStage(t *testing.T) {
	a := &fakeAnon{name: "a"}
	b := &fakeAnon{name: "b"}
	c := NewChain(a, b)
	runChain(t, func(p *sim.Proc) { c.Start(p) })
	c.Stop()
	if !a.stopped || !b.stopped {
		t.Fatal("stages not stopped")
	}
}

func TestChainResolveUsesFinalStage(t *testing.T) {
	c := NewChain(&fakeAnon{name: "a"}, &fakeAnon{name: "b"})
	runChain(t, func(p *sim.Proc) {
		c.Start(p)
		node, err := c.Resolve(p, "x.com")
		if err != nil || node != "node:x.com" {
			t.Errorf("resolve = %q, %v", node, err)
		}
	})
}
