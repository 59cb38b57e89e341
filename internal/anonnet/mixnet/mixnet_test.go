package mixnet

import (
	"errors"
	"testing"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// coverRig builds a world with one mixnet client behind its own uplink
// and a wire tap on the client side of that uplink, the vantage point
// of an observer at the user's ISP.
func coverRig(seed uint64) (*sim.Engine, *vnet.Network, *webworld.World, *Client, *vnet.Link, *vnet.WireTap) {
	eng := sim.NewEngine(seed)
	net, world := webworld.BuildDefault(eng)
	comm := net.AddNode("commvm")
	link := net.Connect(comm, world.Gateway(), webworld.UplinkConfig)
	tap := link.NICFor(comm).WireTap()
	c := New(net, "commvm", world.MixCascade(), world.Resolver())
	return eng, net, world, c, link, tap
}

// coverSamples runs one rig to quiescence, sampling the uplink tap's
// transmitted bytes at the given absolute sim times. The workload
// callback drives whatever browsing the scenario wants between Start
// and stopAt; an idle scenario passes nil.
func coverSamples(t *testing.T, seed uint64, sampleAt []time.Duration, stopAt time.Duration,
	workload func(*sim.Proc, *Client)) ([]int64, *Client, *vnet.Link, *vnet.WireTap) {
	t.Helper()
	eng, _, _, c, link, tap := coverRig(seed)
	samples := make([]int64, len(sampleAt))
	for i, at := range sampleAt {
		i, at := i, at
		eng.ScheduleAt(sim.Time(at), func() { samples[i] = tap.TxBytes() })
	}
	eng.Go("drive", func(p *sim.Proc) {
		defer c.Stop()
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		if workload != nil {
			workload(p, c)
		}
		if rem := sim.Time(stopAt) - p.Now(); rem > 0 {
			p.Sleep(rem)
		}
	})
	eng.Run()
	return samples, c, link, tap
}

// TestCoverRateConstantProperty pins the mixnet's defining invariant:
// the uplink transmit rate a wire observer measures is the same
// whether the user is browsing hard or doing nothing, to within one
// packet quantum. Two rigs share a seed — so bootstrap lands the cover
// clock on the identical tick grid — and only one of them browses.
// Payload frames displace cover frames one-for-one on that grid, so
// every observation window must contain the same byte count.
func TestCoverRateConstantProperty(t *testing.T) {
	const seed = 41
	sampleAt := []time.Duration{20 * time.Second, 50 * time.Second, 80 * time.Second}
	const stopAt = 90 * time.Second

	idle, _, _, _ := coverSamples(t, seed, sampleAt, stopAt, nil)
	busy, c, link, tap := coverSamples(t, seed, sampleAt, stopAt, func(p *sim.Proc, c *Client) {
		sites := []string{"bbc.co.uk", "espn.com", "slashdot.org", "twitter.com"}
		for i := 0; i < 6; i++ {
			site := sites[i%len(sites)]
			node, err := c.Resolve(p, site)
			if err != nil {
				t.Errorf("resolve %s: %v", site, err)
				return
			}
			req := anonnet.Request{
				SiteNode:  node,
				SendBytes: int64(p.Rand().Float64() * (8 << 10)),
				RecvBytes: int64(p.Rand().Float64() * (128 << 10)),
			}
			if _, err := c.Fetch(p, req); err != nil {
				t.Errorf("fetch %s: %v", site, err)
				return
			}
			p.Sleep(sim.Time(p.Rand().Float64() * float64(5*time.Second)))
		}
	})

	if c.PayloadFrames() == 0 {
		t.Fatal("busy run sent no payload frames; the property is vacuous")
	}
	for w := 1; w < len(sampleAt); w++ {
		idleDelta := idle[w] - idle[w-1]
		busyDelta := busy[w] - busy[w-1]
		if diff := absI64(idleDelta - busyDelta); diff > PacketSize {
			t.Errorf("window %d: idle tx %d vs busy tx %d bytes, differ by %d > one packet quantum",
				w, idleDelta, busyDelta, diff)
		}
		if idleDelta == 0 {
			t.Errorf("window %d: no cover traffic flowed at all", w)
		}
	}

	// The same runs reconcile to the byte once the engine drains: the
	// client's own completed-frame counters are exactly what the tap
	// saw leave the NIC, and the link's double-entry ledger agrees with
	// its wire total.
	if got, want := tap.TxBytes(), c.CoverWireBytes()+c.PayloadWireBytes(); got != want {
		t.Errorf("tap tx %d bytes != cover %d + payload %d", got, c.CoverWireBytes(), c.PayloadWireBytes())
	}
	if w, l := link.WireBytesTotal(), link.LedgerBytesTotal(); absI64(w-l) > 1 {
		t.Errorf("uplink wire total %d disagrees with ledger %d", w, l)
	}
	if c.CoverDrops() != 0 {
		t.Errorf("cover drops %d on a healthy fabric", c.CoverDrops())
	}
}

// TestWireReconcilesAcrossSeeds fuzzes the reconciliation identity over
// randomized workloads: whatever mix of fetches, resolves, and idle
// gaps runs, total wire == cover + padded payload to the byte, and
// every frame is a whole packet quantum.
func TestWireReconcilesAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		eng, _, world, c, link, tap := coverRig(seed)
		eng.Go("workload", func(p *sim.Proc) {
			defer c.Stop()
			if err := c.Start(p); err != nil {
				t.Errorf("seed %d: start: %v", seed, err)
				return
			}
			r := p.Rand()
			rounds := 2 + int(r.Float64()*4)
			for i := 0; i < rounds; i++ {
				site, _ := world.Lookup("bbc.co.uk")
				req := anonnet.Request{
					SiteNode:  site,
					SendBytes: int64(r.Float64() * (16 << 10)),
					RecvBytes: int64(r.Float64() * (64 << 10)),
				}
				if _, err := c.Fetch(p, req); err != nil {
					t.Errorf("seed %d: fetch: %v", seed, err)
					return
				}
				p.Sleep(sim.Time(r.Float64() * float64(10*time.Second)))
			}
		})
		eng.Run()

		if got, want := tap.TxBytes(), c.CoverWireBytes()+c.PayloadWireBytes(); got != want {
			t.Errorf("seed %d: tap tx %d != cover %d + payload %d",
				seed, got, c.CoverWireBytes(), c.PayloadWireBytes())
		}
		if c.CoverWireBytes() != c.CoverPackets()*PacketSize {
			t.Errorf("seed %d: cover wire %d is not %d whole packets",
				seed, c.CoverWireBytes(), c.CoverPackets())
		}
		if c.PayloadWireBytes() != c.PayloadFrames()*PacketSize {
			t.Errorf("seed %d: payload wire %d is not %d whole packets",
				seed, c.PayloadWireBytes(), c.PayloadFrames())
		}
		if w, l := link.WireBytesTotal(), link.LedgerBytesTotal(); absI64(w-l) > 1 {
			t.Errorf("seed %d: wire total %d disagrees with ledger %d", seed, w, l)
		}
	}
}

// TestCascadeTooShort: a cascade below the minimum hop count must not
// come up — there is no anonymity in a one-hop "mixnet".
func TestCascadeTooShort(t *testing.T) {
	eng, net, world, _, _, _ := coverRig(5)
	c := New(net, "commvm", world.MixCascade()[:2], world.Resolver())
	eng.Go("short", func(p *sim.Proc) {
		err := c.Start(p)
		if err == nil {
			c.Stop()
			t.Error("two-hop cascade started")
			return
		}
		if !nymerr.HasCode(err, anonnet.CodeNoExit) {
			t.Errorf("err = %v, want %s", err, anonnet.CodeNoExit)
		}
	})
	eng.Run()
}

// TestStopFailsQueuedFrames: Stop must complete queued payload frames
// with a typed error so no Fetch blocks forever on a dead cover clock.
func TestStopFailsQueuedFrames(t *testing.T) {
	eng, _, world, c, _, _ := coverRig(7)
	site, _ := world.Lookup("bbc.co.uk")
	// 256 KB upstream is 129 frames, 32 s of the 250 ms cover clock:
	// most of them are still queued when Stop lands at 10 s.
	const sendBytes = 256 << 10
	if frames := frameCount(sendBytes); time.Duration(frames)*DefaultCoverInterval <= 10*time.Second {
		t.Fatalf("%d frames drain before the stop", frames)
	}
	returned := false
	eng.Go("fetcher", func(p *sim.Proc) {
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		_, err := c.Fetch(p, anonnet.Request{SiteNode: site, SendBytes: sendBytes, RecvBytes: 1 << 10})
		returned = true
		if !errors.Is(err, anonnet.ErrNotReady) {
			t.Errorf("queued fetch after stop: %v, want ErrNotReady", err)
		}
	})
	eng.Go("stopper", func(p *sim.Proc) {
		p.Sleep(10 * time.Second)
		c.Stop()
	})
	eng.Run()
	if !returned {
		t.Fatal("fetch still blocked on queued frames after Stop")
	}
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestClientSurface covers the registry factory and the small
// Transport-surface accessors in-package (the cross-backend
// conformance suite drives them from outside).
func TestClientSurface(t *testing.T) {
	eng, net, world, c, link, _ := coverRig(11)
	uplink := link.Tap()
	if c.Name() != "mixnet" {
		t.Fatalf("name = %q", c.Name())
	}
	if c.OverheadFrac() != NominalOverhead {
		t.Fatalf("overhead = %v", c.OverheadFrac())
	}
	if got := c.Cascade(); len(got) != cascadeHops || c.ExitIdentity() != got[len(got)-1] {
		t.Fatalf("cascade %v, exit %q", got, c.ExitIdentity())
	}
	if bare := New(net, "commvm", nil, world.Resolver()); bare.ExitIdentity() != "" {
		t.Fatalf("empty cascade has exit %q", bare.ExitIdentity())
	}
	tr, err := anonnet.NewTransport("mixnet", anonnet.Env{Net: net, World: world, CommNode: "commvm"})
	if err != nil {
		t.Fatalf("registry build: %v", err)
	}
	eng.Go("surface", func(p *sim.Proc) {
		defer c.Stop()
		defer tr.Stop()
		if c.Ready() {
			t.Error("ready before Start")
		}
		if _, err := c.Resolve(p, "bbc.co.uk"); !errors.Is(err, anonnet.ErrNotReady) {
			t.Errorf("resolve before start: %v", err)
		}
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		if !c.Ready() {
			t.Error("not ready after Start")
		}
		if _, err := c.Fetch(p, anonnet.Request{}); !errors.Is(err, anonnet.ErrBadRequest) {
			t.Errorf("empty-site fetch: %v", err)
		}
		if _, err := c.Resolve(p, "no-such-host.example"); !nymerr.HasCode(err, anonnet.CodeResolve) {
			t.Errorf("bogus resolve: %v", err)
		}
		node, err := c.Resolve(p, "bbc.co.uk")
		if err != nil {
			t.Errorf("resolve: %v", err)
		} else if want, _ := world.Lookup("bbc.co.uk"); node != want {
			t.Errorf("resolved %q, want %q", node, want)
		}

		// Durable state: the cascade choice and directory freshness
		// survive into a fresh client, which then starts without
		// re-fetching the directory.
		st := c.ExportState()
		if st["directory"] != "cached" {
			t.Errorf("directory not cached in state: %v", st)
		}
		warm := New(net, "commvm", nil, world.Resolver())
		warm.ImportState(st)
		if got := warm.Cascade(); len(got) != cascadeHops {
			t.Errorf("cascade did not survive import: %v", got)
		}
		before := p.Now()
		if err := warm.Start(p); err != nil {
			t.Errorf("warm start: %v", err)
		}
		warm.Stop()
		if took := p.Now() - before; took != 0 {
			t.Errorf("warm start re-bootstrapped (%v)", took)
		}
	})
	eng.Run()
	// Directory fetch, cover and payload frames all leave the CommVM
	// labelled mixnet.
	if got := uplink.Protos(); len(got) != 1 || got[0] != Proto {
		t.Fatalf("uplink protos = %v, want [%s]", got, Proto)
	}
}

// TestPartitionDropsCoverAndFailsFetchTyped: when the cascade enclave
// is cut off, cover frames count as drops (the wire rate is the one
// thing the client cannot keep constant through a partition) and an
// in-flight fetch fails with vnet.partitioned in its chain.
func TestPartitionDropsCoverAndFailsFetchTyped(t *testing.T) {
	eng, net, world, c, _, _ := coverRig(13)
	eng.Go("partition", func(p *sim.Proc) {
		defer c.Stop()
		if err := c.Start(p); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		p.Sleep(2 * time.Second)
		net.SeverRegions(webworld.CoreRegion, webworld.MixRegion)
		// Severed routes are silent drops: the failure surfaces only
		// after the fabric's probe timeout, so give the window a few
		// ticks past it.
		p.Sleep(8 * time.Second)
		if c.CoverDrops() == 0 {
			t.Error("no cover drops while the cascade is dark")
		}
		site, _ := world.Lookup("bbc.co.uk")
		_, err := c.Fetch(p, anonnet.Request{SiteNode: site, RecvBytes: 4 << 10})
		if err == nil {
			t.Error("fetch crossed a severed cascade")
			return
		}
		if !nymerr.HasCode(err, vnet.CodePartitioned) {
			t.Errorf("fetch failure chain lacks %s: %v", vnet.CodePartitioned, err)
		}
	})
	eng.Run()
}

// idleClient returns coverRig's engine with its client started and
// idle: the directory is fetched and the cover clock is running.
func idleClient(tb testing.TB) (*sim.Engine, *Client) {
	tb.Helper()
	eng, _, _, c, _, _ := coverRig(1)
	eng.Go("start", func(p *sim.Proc) {
		if err := c.Start(p); err != nil {
			tb.Errorf("start: %v", err)
		}
	})
	eng.RunUntil(10 * time.Second)
	if !c.Ready() {
		tb.Fatal("client not ready after 10s")
	}
	return eng, c
}

// TestCoverTickAllocs pins an idle client's cover clock at no
// allocation per tick: the frame goes out through vnet's Send with the
// client's one prebuilt callback, on a pooled transfer.
func TestCoverTickAllocs(t *testing.T) {
	eng, c := idleClient(t)
	defer c.Stop()
	sent := c.CoverPackets()
	allocs := testing.AllocsPerRun(100, func() {
		eng.RunUntil(eng.Now() + DefaultCoverInterval)
	})
	if c.CoverPackets()-sent < 100 || c.CoverDrops() != 0 {
		t.Fatalf("cover clock sent %d frames with %d drops over 101 ticks", c.CoverPackets()-sent, c.CoverDrops())
	}
	if allocs != 0 {
		t.Errorf("%v allocs per cover tick, want 0", allocs)
	}
}

// BenchmarkCoverTick runs an idle client's cover clock one tick per
// iteration: the frame's routing, admission, rate allocation and
// delivery over the client's uplink and the default world's mix cascade.
func BenchmarkCoverTick(b *testing.B) {
	eng, c := idleClient(b)
	defer c.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now() + DefaultCoverInterval)
	}
}
