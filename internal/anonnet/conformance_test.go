package anonnet_test

import (
	"errors"
	"testing"

	"nymix/internal/anonnet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vnet"
	"nymix/internal/webworld"

	_ "nymix/internal/anonnet/dissent"
	_ "nymix/internal/anonnet/incognito"
	_ "nymix/internal/anonnet/mixnet"
	_ "nymix/internal/anonnet/sweet"
	_ "nymix/internal/anonnet/tor"
)

// The cross-backend conformance suite: every registered transport —
// tor, tor-bridge, dissent, sweet, incognito, mixnet — is driven
// through the same table of Transport-contract assertions. Backend
// packages keep their mechanism-specific tests (guard selection, DC-net
// blame, SMTP camouflage, cover-traffic pacing); the shared lifecycle
// contract lives only here.

// conformanceEnv attaches a bare CommVM-like node and a host node to
// the default world, the way a nymbox's hypervisor wiring would.
func conformanceEnv(seed uint64) (*sim.Engine, anonnet.Env) {
	eng := sim.NewEngine(seed)
	net, world := webworld.BuildDefault(eng)
	comm := net.AddNode("commvm")
	net.Connect(comm, world.Gateway(), webworld.UplinkConfig)
	host := net.AddNode("hostbox")
	net.Connect(host, world.Gateway(), webworld.UplinkConfig)
	return eng, anonnet.Env{Net: net, World: world, CommNode: "commvm", HostNode: "hostbox"}
}

func TestTransportKindsComplete(t *testing.T) {
	want := map[string]bool{
		"tor": true, "tor-bridge": true, "dissent": true,
		"sweet": true, "incognito": true, "mixnet": true,
	}
	kinds := anonnet.TransportKinds()
	if len(kinds) != len(want) {
		t.Fatalf("registered kinds = %v, want %d backends", kinds, len(want))
	}
	for _, k := range kinds {
		if !want[k] {
			t.Fatalf("unexpected transport kind %q", k)
		}
	}
}

func TestUnknownTransportTyped(t *testing.T) {
	_, env := conformanceEnv(1)
	_, err := anonnet.NewTransport("warp-drive", env)
	if err == nil {
		t.Fatal("unknown transport built")
	}
	if !nymerr.HasCode(err, anonnet.CodeUnknownTransport) {
		t.Fatalf("err = %v, want %s", err, anonnet.CodeUnknownTransport)
	}
}

func TestIdleWireRates(t *testing.T) {
	if r := anonnet.IdleWireRate("mixnet"); r <= 0 {
		t.Fatalf("mixnet idle wire rate = %v, want > 0 (cover traffic is load-bearing)", r)
	}
	for _, kind := range []string{"tor", "tor-bridge", "dissent", "sweet", "incognito"} {
		if r := anonnet.IdleWireRate(kind); r != 0 {
			t.Fatalf("%s idle wire rate = %v, want 0 (demand-driven)", kind, r)
		}
	}
}

// TestTransportConformance drives every backend through the shared
// Transport lifecycle contract.
func TestTransportConformance(t *testing.T) {
	for _, kind := range anonnet.TransportKinds() {
		t.Run(kind, func(t *testing.T) {
			eng, env := conformanceEnv(7)
			tr, err := anonnet.NewTransport(kind, env)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if tr.Name() == "" {
				t.Fatal("empty name")
			}
			uplink := env.Net.Node(env.CommNode).Ifaces()[0].Link().Tap()
			if tr.OverheadFrac() < 0 {
				t.Fatalf("negative overhead %v", tr.OverheadFrac())
			}
			if tr.Ready() {
				t.Fatal("ready before Start")
			}

			site, ok := env.World.Lookup("twitter.com")
			if !ok {
				t.Fatal("no twitter.com in world")
			}
			eng.Go("conformance", func(p *sim.Proc) {
				defer tr.Stop()

				// Fetch before Start fails typed, not by panic or hang.
				if _, err := tr.Fetch(p, anonnet.Request{SiteNode: site, RecvBytes: 1}); !errors.Is(err, anonnet.ErrNotReady) {
					t.Errorf("fetch before start: %v, want ErrNotReady", err)
				} else if !nymerr.HasCode(err, anonnet.CodeNotReady) {
					t.Errorf("fetch before start not coded: %v", err)
				}

				if err := tr.Start(p); err != nil {
					t.Errorf("start: %v", err)
					return
				}
				if !tr.Ready() {
					t.Error("not ready after Start")
				}

				// A fetch moves the requested bytes.
				res, err := tr.Fetch(p, anonnet.Request{SiteNode: site, SendBytes: 2048, RecvBytes: 256 << 10})
				if err != nil {
					t.Errorf("fetch: %v", err)
				} else if res.Received != 256<<10 {
					t.Errorf("received %d bytes, want %d", res.Received, 256<<10)
				}

				// A request without a destination is a bad request.
				if _, err := tr.Fetch(p, anonnet.Request{RecvBytes: 1}); !errors.Is(err, anonnet.ErrBadRequest) {
					t.Errorf("empty-site fetch: %v, want ErrBadRequest", err)
				}

				// Resolution works through the transport, and misses are
				// typed.
				node, err := tr.Resolve(p, "facebook.com")
				if err != nil {
					t.Errorf("resolve: %v", err)
				} else if want, _ := env.World.Lookup("facebook.com"); node != want {
					t.Errorf("resolved %q, want %q", node, want)
				}
				if _, err := tr.Resolve(p, "no-such-host.example"); !nymerr.HasCode(err, anonnet.CodeResolve) {
					t.Errorf("bogus resolve: %v, want %s", err, anonnet.CodeResolve)
				}

				// The site must never see the client's own identity.
				exit := tr.ExitIdentity()
				if exit == "" {
					t.Error("no exit identity while ready")
				}
				if exit == env.CommNode {
					t.Errorf("exit identity %q is the client itself", exit)
				}

				// Durable state survives an export/import round trip into
				// a fresh instance.
				warm, err := anonnet.NewTransport(kind, env)
				if err != nil {
					t.Errorf("rebuild: %v", err)
					return
				}
				defer warm.Stop()
				warm.ImportState(tr.ExportState())
				if err := warm.Start(p); err != nil {
					t.Errorf("warm start after import: %v", err)
				} else if !warm.Ready() {
					t.Error("warm instance not ready")
				}

				// Stop tears the session down and fetches fail typed again.
				tr.Stop()
				if tr.Ready() {
					t.Error("ready after Stop")
				}
				if _, err := tr.Fetch(p, anonnet.Request{SiteNode: site, RecvBytes: 1}); !errors.Is(err, anonnet.ErrNotReady) {
					t.Errorf("fetch after stop: %v, want ErrNotReady", err)
				}
			})
			eng.Run()
			// Every flow on the CommVM's uplink carries a protocol label
			// an observer can classify.
			if len(uplink.Entries) == 0 {
				t.Fatal("no flow crossed the CommVM uplink")
			}
			for _, e := range uplink.Entries {
				if e.Proto == "" {
					t.Fatalf("unlabelled flow on the uplink: %+v", e)
				}
			}
		})
	}
}

// TestTransportChainability composes every backend as the first hop of
// a two-stage chain and checks the chain contract holds end to end.
func TestTransportChainability(t *testing.T) {
	for _, kind := range anonnet.TransportKinds() {
		t.Run(kind, func(t *testing.T) {
			eng, env := conformanceEnv(13)
			first, err := anonnet.NewTransport(kind, env)
			if err != nil {
				t.Fatalf("build %s: %v", kind, err)
			}
			last, err := anonnet.NewTransport("incognito", env)
			if err != nil {
				t.Fatalf("build incognito: %v", err)
			}
			chain := anonnet.NewChain(first, last)
			site, _ := env.World.Lookup("bbc.co.uk")
			eng.Go("chain", func(p *sim.Proc) {
				defer chain.Stop()
				if err := chain.Start(p); err != nil {
					t.Errorf("chain start: %v", err)
					return
				}
				if !chain.Ready() {
					t.Error("chain not ready")
				}
				if _, err := chain.Fetch(p, anonnet.Request{SiteNode: site, SendBytes: 512, RecvBytes: 64 << 10}); err != nil {
					t.Errorf("chain fetch: %v", err)
				}
				if got := chain.ExitIdentity(); got != last.ExitIdentity() {
					t.Errorf("chain exit %q, want final stage %q", got, last.ExitIdentity())
				}
				if chain.OverheadFrac() < first.OverheadFrac() {
					t.Errorf("chain overhead %v below first stage %v", chain.OverheadFrac(), first.OverheadFrac())
				}
				chain.Stop()
				if chain.Ready() {
					t.Error("chain ready after Stop")
				}
			})
			eng.Run()
		})
	}
}

// TestLegacySentinelsKeepErrorsIs pins the nymerr migration: code that
// compared against the old errors.New sentinels via errors.Is keeps
// working, and the sentinels now classify.
func TestLegacySentinelsKeepErrorsIs(t *testing.T) {
	cases := []struct {
		sentinel error
		code     nymerr.Code
	}{
		{anonnet.ErrNotReady, anonnet.CodeNotReady},
		{anonnet.ErrNoExit, anonnet.CodeNoExit},
		{anonnet.ErrResolve, anonnet.CodeResolve},
		{anonnet.ErrBadRequest, anonnet.CodeBadRequest},
	}
	for _, c := range cases {
		wrapped := nymerr.Wrap(vnet.CodePartitioned, c.sentinel, "outer context")
		if !errors.Is(wrapped, c.sentinel) {
			t.Errorf("errors.Is lost through wrap for %v", c.sentinel)
		}
		if !nymerr.HasCode(c.sentinel, c.code) {
			t.Errorf("%v does not carry %s", c.sentinel, c.code)
		}
		if nymerr.Classify(wrapped) != vnet.CodePartitioned {
			t.Errorf("outermost code not preserved: %v", nymerr.Classify(wrapped))
		}
	}
}
