package sweet

import (
	"testing"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/sim"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

type rig struct {
	eng   *sim.Engine
	net   *vnet.Network
	world *webworld.World
}

func newRig() *rig {
	eng := sim.NewEngine(71)
	net, world := webworld.BuildDefault(eng)
	comm := net.AddNode("commvm")
	net.Connect(comm, world.Gateway(), webworld.UplinkConfig)
	return &rig{eng: eng, net: net, world: world}
}

func (r *rig) client() *Client {
	return New(r.net, "commvm", r.world.MailGateway().Name(), r.world.SweetProxy().Name(), r.world.Resolver())
}

func TestStartEstablishesTunnel(t *testing.T) {
	r := newRig()
	c := r.client()
	var dur time.Duration
	r.eng.Go("start", func(p *sim.Proc) {
		start := p.Now()
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
		}
		dur = p.Now() - start
	})
	r.eng.Run()
	if !c.Ready() {
		t.Fatal("not ready")
	}
	// Two spool delays minimum: SWEET startup is slow by nature.
	if dur < 8*time.Second {
		t.Fatalf("tunnel setup took %v, implausibly fast for email", dur)
	}
	if c.EmailsSent() < 2 {
		t.Fatalf("emails = %d", c.EmailsSent())
	}
}

func TestFetchThroughEmailTunnel(t *testing.T) {
	r := newRig()
	c := r.client()
	site, _ := r.world.Lookup("twitter.com")
	var res anonnet.FetchResult
	r.eng.Go("run", func(p *sim.Proc) {
		c.Start(p)
		var err error
		res, err = c.Fetch(p, anonnet.Request{SiteNode: site, SendBytes: 1024, RecvBytes: 1 << 20})
		if err != nil {
			t.Errorf("fetch: %v", err)
		}
	})
	r.eng.Run()
	if res.Received != 1<<20 {
		t.Fatalf("received = %d", res.Received)
	}
	// 1 MiB = 6 chunks of response email, each with a ~6s spool delay.
	if res.Elapsed < 40*time.Second {
		t.Fatalf("1 MiB fetch took only %v — spool delays missing", res.Elapsed)
	}
}

func TestCensorSeesOnlySMTP(t *testing.T) {
	r := newRig()
	c := r.client()
	var tap *vnet.Capture
	for _, ifc := range r.net.Node("commvm").Ifaces() {
		tap = ifc.Link().Tap()
	}
	site, _ := r.world.Lookup("bbc.co.uk")
	r.eng.Go("run", func(p *sim.Proc) {
		c.Start(p)
		c.Fetch(p, anonnet.Request{SiteNode: site, RecvBytes: 4096})
	})
	r.eng.Run()
	if len(tap.Entries) == 0 {
		t.Fatal("no traffic captured")
	}
	for _, e := range tap.Entries {
		if e.Proto != "smtp" {
			t.Fatalf("censor saw %q, want only smtp", e.Proto)
		}
	}
}

func TestExitIdentityIsProxy(t *testing.T) {
	r := newRig()
	c := r.client()
	if c.ExitIdentity() != r.world.SweetProxy().Name() {
		t.Fatalf("exit = %q", c.ExitIdentity())
	}
}

func TestResolveViaTunnel(t *testing.T) {
	r := newRig()
	c := r.client()
	var node string
	var err error
	r.eng.Go("run", func(p *sim.Proc) {
		c.Start(p)
		node, err = c.Resolve(p, "gmail.com")
	})
	r.eng.Run()
	want, _ := r.world.Lookup("gmail.com")
	if err != nil || node != want {
		t.Fatalf("resolve = %q, %v", node, err)
	}
}

func TestStateKeepsMailbox(t *testing.T) {
	r := newRig()
	c := r.client()
	r.eng.Go("run", func(p *sim.Proc) { c.Start(p) })
	r.eng.Run()
	st := c.ExportState()
	if st["mailbox"] == "" {
		t.Fatal("mailbox not exported")
	}
	c2 := r.client()
	c2.ImportState(st)
	if c2.mailbox != c.mailbox {
		t.Fatal("mailbox not restored")
	}
}
