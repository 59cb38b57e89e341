// Package mixnet implements a Nym-style mix-network transport for the
// CommVM: a SOCKS-fronted client that carries every request as
// fixed-size frames of PacketSize wire bytes (sizes only: no header
// is encoded or checked), forwards them through a three-hop
// mix cascade whose hops each impose an exponentially distributed mix
// delay, and — the part that distinguishes it from every other
// transport — keeps transmitting fixed-size cover packets at a
// constant rate for as long as the client is up. A wire observer at
// the uplink sees an unvarying packet stream whether the user is
// browsing or idle, which is exactly what defeats traffic-volume
// correlation and exactly what makes anonymity cost uplink bytes
// around the clock. The fleet reports that idle rate (IdleWireRate) as
// its standing cover-traffic bill, and the MixnetFrontier experiment
// measures the resulting anonymity-vs-cost trade.
package mixnet

import (
	"fmt"
	"math"
	"strings"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vnet"
)

// Proto is the wire-protocol label mixnet flows carry; DPI engines
// classify on it.
const Proto = "mixnet"

// Frame sizes. Every frame on the wire, cover or payload, is exactly
// PacketSize bytes, so a wire observer cannot tell idle from active
// clients by frame length.
const (
	// PacketSize is the fixed on-wire size of every mixnet frame.
	PacketSize = 2048
	// PayloadCap is the payload bytes one frame carries: PacketSize
	// less a 12-byte Sphinx-style header of magic(4) + version(1) +
	// kind(1) + length(2) + crc(4). The rest is zero padding.
	PayloadCap = PacketSize - 12
)

// Fixed settings. DefaultCoverInterval fixes the client's observable
// uplink rate at PacketSize/DefaultCoverInterval bytes per second;
// DefaultHopDelayMean is the mean of each hop's exponential mix delay.
const (
	DefaultCoverInterval = 250 * time.Millisecond
	DefaultHopDelayMean  = 50 * time.Millisecond
	// NominalOverhead is the padding-only overhead figure used for
	// chain composition; the true wire cost is dominated by cover
	// traffic and is time-based, not per-byte.
	NominalOverhead = 0.25
	// directoryBytes is the cascade directory fetched at bootstrap.
	directoryBytes = 96 << 10
	// bootstrapSettle covers key derivation and the directory parse.
	bootstrapSettle = 1500 * time.Millisecond
	// cascadeHops is the required cascade length.
	cascadeHops = 3
)

// IdleWireRate is the uplink bytes/second a mixnet client transmits
// even when idle, at the default cover interval.
var IdleWireRate = float64(PacketSize) / DefaultCoverInterval.Seconds()

func init() {
	anonnet.RegisterTransport("mixnet", anonnet.TransportInfo{IdleWireRate: IdleWireRate},
		func(env anonnet.Env) (anonnet.Transport, error) {
			return New(env.Net, env.CommNode, env.World.MixCascade(), env.World.Resolver()), nil
		})
}

// pendingFrame is one queued payload frame awaiting its cover-clock
// slot.
type pendingFrame struct {
	done *sim.Future[struct{}]
}

// Client is one mixnet instance inside a CommVM.
type Client struct {
	net      *vnet.Network
	eng      *sim.Engine
	commNode string
	cascade  []string // entry, middle(s), exit
	back     []string // the hops before the exit, reversed: the Via of return frames
	resolver func(string) (string, bool)

	ready  bool
	hasDir bool
	timer  sim.Timer
	tickFn func() // c.tick, built once for armTick
	sendQ  []*pendingFrame

	// Wire accounting, split so the cover-traffic property test can
	// reconcile the NIC tap to the byte: wire counters credit only
	// transfers that completed, matching what the tap settled.
	coverSent   int64 // cover frames transmitted (attempts)
	coverWire   int64 // wire bytes of completed cover frames
	coverDrops  int64 // cover frames lost to fabric faults
	payloadSent int64 // payload frames transmitted (attempts)
	payloadWire int64 // wire bytes of completed payload frames
}

// New creates a mixnet client for the CommVM at commNode over the
// given cascade (entry first, exit last).
func New(net *vnet.Network, commNode string, cascade []string, resolver func(string) (string, bool)) *Client {
	c := &Client{
		net:      net,
		eng:      net.Engine(),
		commNode: commNode,
		resolver: resolver,
	}
	c.tickFn = c.tick
	c.setCascade(append([]string(nil), cascade...))
	return c
}

// setCascade installs cascade and its return-path Via.
func (c *Client) setCascade(cascade []string) {
	c.cascade = cascade
	c.back = nil
	for i := len(cascade) - 2; i >= 0; i-- {
		c.back = append(c.back, cascade[i])
	}
}

// Name implements anonnet.Transport.
func (c *Client) Name() string { return "mixnet" }

// OverheadFrac implements anonnet.Transport: the per-payload padding
// figure only — cover traffic is charged by time, not per request.
func (c *Client) OverheadFrac() float64 { return NominalOverhead }

// Ready implements anonnet.Transport.
func (c *Client) Ready() bool { return c.ready }

// Cascade returns the cascade node names in hop order.
func (c *Client) Cascade() []string { return append([]string(nil), c.cascade...) }

// CoverPackets returns cover frames transmitted so far.
func (c *Client) CoverPackets() int64 { return c.coverSent }

// CoverWireBytes returns completed cover-frame wire bytes — the cost
// of idling. The fleet's SLO report sums this across members.
func (c *Client) CoverWireBytes() int64 { return c.coverWire }

// CoverDrops returns cover frames lost to fabric faults.
func (c *Client) CoverDrops() int64 { return c.coverDrops }

// PayloadFrames returns payload frames transmitted so far.
func (c *Client) PayloadFrames() int64 { return c.payloadSent }

// PayloadWireBytes returns completed padded-payload wire bytes.
func (c *Client) PayloadWireBytes() int64 { return c.payloadWire }

// exit returns the cascade's last hop.
func (c *Client) exit() string { return c.cascade[len(c.cascade)-1] }

// mids returns the cascade hops before the exit, the Via waypoints.
func (c *Client) mids() []string { return c.cascade[:len(c.cascade)-1] }

// Start implements anonnet.Transport: fetch the cascade directory
// (once; it is quasi-persistent state), settle, and light the cover
// clock.
func (c *Client) Start(p *sim.Proc) error {
	if len(c.cascade) < cascadeHops {
		return nymerr.Newf(anonnet.CodeNoExit, "mixnet: cascade has %d hops, need %d",
			len(c.cascade), cascadeHops)
	}
	if !c.hasDir {
		fut := c.net.StartTransfer(vnet.TransferOpts{
			From: c.cascade[0], To: c.commNode,
			Bytes: directoryBytes, Proto: Proto,
		})
		if _, err := sim.Await(p, fut); err != nil {
			return fmt.Errorf("mixnet: directory fetch: %w", err)
		}
		p.Sleep(sim.Time(p.Rand().Jitter(float64(bootstrapSettle), 0.15)))
		c.hasDir = true
	}
	c.ready = true
	c.armTick()
	return nil
}

// armTick schedules the next cover-clock slot. The clock exists only
// while the client is up, so Stop lets the engine drain.
func (c *Client) armTick() {
	if !c.ready {
		return
	}
	c.timer = c.eng.Schedule(DefaultCoverInterval, c.tickFn)
}

// tick transmits exactly one fixed-size packet: the oldest queued
// payload frame if any, a cover frame otherwise. Every frame is the
// same PacketSize bytes over the same cascade path with zero
// per-flow overhead, which makes the client's uplink rate constant by
// construction — the cover-traffic invariant the property test pins.
func (c *Client) tick() {
	if !c.ready {
		return
	}
	opts := vnet.TransferOpts{
		From: c.commNode, To: c.exit(), Via: c.mids(),
		Bytes: PacketSize, Proto: Proto, NoHandshake: true,
	}
	if len(c.sendQ) > 0 {
		f := c.sendQ[0]
		c.sendQ = c.sendQ[1:]
		c.payloadSent++
		fut := c.net.StartTransfer(opts)
		fut.OnDone(func() {
			if _, err := fut.Value(); err != nil {
				f.done.Complete(struct{}{}, err)
				return
			}
			c.payloadWire += PacketSize
			f.done.Complete(struct{}{}, nil)
		})
	} else {
		c.coverSent++
		fut := c.net.StartTransfer(opts)
		fut.OnDone(func() {
			if _, err := fut.Value(); err != nil {
				c.coverDrops++
				return
			}
			c.coverWire += PacketSize
		})
	}
	c.armTick()
}

// enqueue parks one payload frame on the cover clock and returns its
// completion future.
func (c *Client) enqueue() *sim.Future[struct{}] {
	f := &pendingFrame{done: sim.NewFuture[struct{}](c.eng)}
	c.sendQ = append(c.sendQ, f)
	return f.done
}

// sleepMixDelay charges one exponential mix delay per cascade hop to
// sim time: batching mixes hold each packet for an unpredictable
// interval to break timing correlation.
func (c *Client) sleepMixDelay(p *sim.Proc) {
	for range c.cascade {
		u := p.Rand().Float64()
		d := -float64(DefaultHopDelayMean) * math.Log(1-u)
		p.Sleep(sim.Time(d))
	}
}

// frameCount returns how many fixed-size frames carry n payload
// bytes (minimum one: even an empty request occupies a frame).
func frameCount(n int64) int64 {
	frames := (n + PayloadCap - 1) / PayloadCap
	if frames < 1 {
		frames = 1
	}
	return frames
}

// Fetch implements anonnet.Transport: the request is framed into
// fixed-size packets that ride the cover clock upstream, the exit mix
// performs the exchange with the site, and the response returns as
// padded frames through the reverse cascade.
func (c *Client) Fetch(p *sim.Proc, req anonnet.Request) (anonnet.FetchResult, error) {
	if !c.ready {
		return anonnet.FetchResult{}, anonnet.ErrNotReady
	}
	if req.SiteNode == "" {
		return anonnet.FetchResult{}, anonnet.ErrBadRequest
	}
	start := p.Now()
	// Upstream: each frame waits for a cover-clock slot, so payload
	// transmission displaces cover one-for-one and the wire rate never
	// moves.
	frames := frameCount(req.SendBytes)
	futs := make([]*sim.Future[struct{}], frames)
	for i := range futs {
		futs[i] = c.enqueue()
	}
	for _, fut := range futs {
		if _, err := sim.Await(p, fut); err != nil {
			return anonnet.FetchResult{}, fmt.Errorf("mixnet: upstream: %w", err)
		}
	}
	c.sleepMixDelay(p)
	// The exit mix exchanges with the site in the clear.
	upFut := c.net.StartTransfer(vnet.TransferOpts{
		From: c.exit(), To: req.SiteNode,
		Bytes: maxI64(req.SendBytes, 512), Proto: "http",
	})
	if _, err := sim.Await(p, upFut); err != nil {
		return anonnet.FetchResult{}, fmt.Errorf("mixnet: exit fetch: %w", err)
	}
	if req.RecvBytes > 0 {
		downFut := c.net.StartTransfer(vnet.TransferOpts{
			From: req.SiteNode, To: c.exit(),
			Bytes: req.RecvBytes, Proto: "http", NoHandshake: true,
		})
		if _, err := sim.Await(p, downFut); err != nil {
			return anonnet.FetchResult{}, fmt.Errorf("mixnet: exit response: %w", err)
		}
	}
	// Downstream: the response returns as padded frames through the
	// reverse cascade.
	if err := c.receiveFrames(p, frameCount(req.RecvBytes)); err != nil {
		return anonnet.FetchResult{}, fmt.Errorf("mixnet: downstream: %w", err)
	}
	return anonnet.FetchResult{
		Sent:     req.SendBytes,
		Received: req.RecvBytes,
		Elapsed:  p.Now() - start,
	}, nil
}

// receiveFrames carries n padded frames from the exit back to the
// client through the reverse cascade, charging the return mix delays.
func (c *Client) receiveFrames(p *sim.Proc, n int64) error {
	fut := c.net.StartTransfer(vnet.TransferOpts{
		From: c.exit(), To: c.commNode, Via: c.back,
		Bytes: n * PacketSize, Proto: Proto, NoHandshake: true,
	})
	if _, err := sim.Await(p, fut); err != nil {
		return err
	}
	c.sleepMixDelay(p)
	return nil
}

// Resolve implements anonnet.Transport: the query rides one frame to
// the exit mix, which resolves on the client's behalf.
func (c *Client) Resolve(p *sim.Proc, host string) (string, error) {
	if !c.ready {
		return "", anonnet.ErrNotReady
	}
	if _, err := sim.Await(p, c.enqueue()); err != nil {
		return "", fmt.Errorf("mixnet: resolve query: %w", err)
	}
	c.sleepMixDelay(p)
	if err := c.receiveFrames(p, 1); err != nil {
		return "", fmt.Errorf("mixnet: resolve response: %w", err)
	}
	node, ok := c.resolver(host)
	if !ok {
		return "", fmt.Errorf("%w: %s", anonnet.ErrResolve, host)
	}
	return node, nil
}

// ExitIdentity implements anonnet.Transport: sites observe the exit
// mix.
func (c *Client) ExitIdentity() string {
	if len(c.cascade) == 0 {
		return ""
	}
	return c.exit()
}

// ExportState implements anonnet.Transport: the cascade choice and
// directory freshness persist, the mixnet analog of Tor's guard
// persistence — a restored nym re-enters through the same cascade.
func (c *Client) ExportState() anonnet.State {
	st := anonnet.State{"cascade": strings.Join(c.cascade, ",")}
	if c.hasDir {
		st["directory"] = "cached"
	}
	return st
}

// ImportState implements anonnet.Transport.
func (c *Client) ImportState(st anonnet.State) {
	if cs := st["cascade"]; cs != "" {
		c.setCascade(strings.Split(cs, ","))
	}
	if st["directory"] == "cached" {
		c.hasDir = true
	}
}

// Stop implements anonnet.Transport: the cover clock dies with the
// client, and queued frames fail closed so no Fetch blocks forever.
func (c *Client) Stop() {
	c.ready = false
	c.timer.Cancel()
	for _, f := range c.sendQ {
		f.done.Complete(struct{}{}, anonnet.ErrNotReady)
	}
	c.sendQ = nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

var _ anonnet.Transport = (*Client)(nil)
