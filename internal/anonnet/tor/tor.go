// Package tor implements the onion-routing anonymizer that Nymix runs
// in a CommVM by default. The model covers the protocol behaviour the
// paper's evaluation depends on:
//
//   - Bootstrap: fetching a directory consensus and relay descriptors,
//     selecting a persistent entry guard, and telescoping a three-hop
//     circuit — the "Start Tor" phase of Figure 7. A client restored
//     from quasi-persistent state skips the directory fetch and keeps
//     its guard, which is why quasi-persistent nyms start faster and
//     resist intersection attacks better (section 3.5).
//   - Streams: request/response exchanges relayed through the circuit
//     with a fixed ~12% wire overhead from cell framing and control
//     traffic (the fixed cost Figure 5 observes).
//   - DNS: Tor's built-in resolver, so no UDP queries leak to the ISP.
//   - Deterministic guard seeding (section 3.5's proposed fix for the
//     ephemeral-loader hole): with a seed set, guard choice is a pure
//     function of the seed.
package tor

import (
	"fmt"
	"strconv"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

func init() {
	newClient := func(env anonnet.Env) *Client {
		c := New(env.Net, env.CommNode, env.World.Relays(), env.World.Resolver())
		if env.GuardSeed != "" {
			c.SetGuardSeed(env.GuardSeed)
		}
		return c
	}
	anonnet.RegisterTransport("tor", anonnet.TransportInfo{},
		func(env anonnet.Env) (anonnet.Transport, error) { return newClient(env), nil })
	// Tor behind a StegoTorus-style camouflage transport: the censor's
	// wire capture shows HTTPS, never Tor.
	anonnet.RegisterTransport("tor-bridge", anonnet.TransportInfo{},
		func(env anonnet.Env) (anonnet.Transport, error) {
			c := newClient(env)
			c.SetBridgeTransport("https")
			return c, nil
		})
}

// CellOverhead is Tor's fixed fractional wire overhead (cell headers
// plus circuit-level control traffic); Figure 5 measures ~12%.
const CellOverhead = 0.12

// Bootstrap size/time constants, calibrated against Figure 7.
const (
	consensusBytes   = 2_200_000 // network consensus document
	descriptorBytes  = 1_400_000 // relay descriptors
	circuitHops      = 3
	extendCryptoCost = 220 * time.Millisecond // per-hop handshake crypto
	bootstrapSettle  = 4 * time.Second        // directory parsing, self-test circuit
	resolveCells     = 600                    // RESOLVE/RESOLVED cell bytes
)

// Client is one Tor instance inside a CommVM.
type Client struct {
	net      *vnet.Network
	commNode string
	relays   []webworld.Relay
	resolver func(string) (string, bool)
	rng      *sim.Rand

	guard     string
	circuit   []string // guard, middle, exit
	back      []string // circuit reversed: the Via of return-path transfers
	hasDir    bool
	guardSeed string // deterministic guard derivation (section 3.5)
	wireProto string // protocol label a wire observer sees ("tor", or a camouflage)
	ready     bool
	built     int // circuits built over the client's lifetime
}

// New creates a Tor client for the CommVM at commNode, using the
// given relay set and resolver.
func New(net *vnet.Network, commNode string, relays []webworld.Relay, resolver func(string) (string, bool)) *Client {
	return &Client{
		net:       net,
		commNode:  commNode,
		relays:    relays,
		resolver:  resolver,
		rng:       net.Engine().Rand(),
		wireProto: "tor",
	}
}

// SetBridgeTransport camouflages the client's wire protocol as proto
// ("https" for a StegoTorus-like transport, section 4): every
// client-side flow — directory fetches and circuit traffic — is
// labeled proto, so a censor capturing the uplink never observes
// "tor". The steganographic encoding costs extra overhead.
func (c *Client) SetBridgeTransport(proto string) {
	if proto == "" {
		proto = "tor"
	}
	c.wireProto = proto
}

// BridgeOverhead is the extra fractional cost of the steganographic
// encoding when a bridge transport is active.
const BridgeOverhead = 0.35

// Name implements anonnet.Anonymizer.
func (c *Client) Name() string { return "tor" }

// Proto implements anonnet.Anonymizer: the label a wire observer sees.
func (c *Client) Proto() string { return c.wireProto }

// OverheadFrac implements anonnet.Anonymizer.
func (c *Client) OverheadFrac() float64 {
	if c.wireProto != "tor" {
		return CellOverhead + BridgeOverhead
	}
	return CellOverhead
}

// Ready implements anonnet.Anonymizer.
func (c *Client) Ready() bool { return c.ready }

// SetGuardSeed makes guard selection a deterministic function of the
// seed, so even the ephemeral CommVM that downloads a nym's state can
// use the nym's own guard (section 3.5).
func (c *Client) SetGuardSeed(seed string) { c.guardSeed = seed }

// Guard returns the selected entry guard ("" before selection).
func (c *Client) Guard() string { return c.guard }

// dirNode returns the directory authority: the first relay.
func (c *Client) dirNode() string { return c.relays[0].NodeName }

// Start implements anonnet.Anonymizer: the full Tor bootstrap.
func (c *Client) Start(p *sim.Proc) error {
	if len(c.relays) < circuitHops {
		return nymerr.Newf(anonnet.CodeNoExit, "tor: deployment has %d relays, need %d",
			len(c.relays), circuitHops)
	}
	if !c.hasDir {
		// Fetch consensus and descriptors from a directory authority.
		for _, bytes := range []int64{consensusBytes, descriptorBytes} {
			fut := c.net.StartTransfer(vnet.TransferOpts{
				From: c.dirNode(), To: c.commNode,
				Bytes: bytes, Proto: c.wireProto,
			})
			if _, err := sim.Await(p, fut); err != nil {
				return fmt.Errorf("tor: directory fetch: %w", err)
			}
		}
		// Parsing and self-test overhead dominates small deployments.
		p.Sleep(sim.Time(p.Rand().Jitter(float64(bootstrapSettle), 0.15)))
		c.hasDir = true
	}
	if c.guard == "" {
		if err := c.selectGuard(); err != nil {
			return err
		}
	}
	if err := c.buildCircuit(p); err != nil {
		return err
	}
	c.ready = true
	return nil
}

// selectGuard picks the persistent entry guard: deterministically from
// the guard seed when set, uniformly otherwise. "Tor normally
// maintains the same entry relay for several months" (section 3.5).
func (c *Client) selectGuard() error {
	var guards []string
	for _, r := range c.relays {
		if r.Guard {
			guards = append(guards, r.NodeName)
		}
	}
	if len(guards) == 0 {
		return anonnet.ErrNoExit
	}
	if c.guardSeed != "" {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(c.guardSeed); i++ {
			h ^= uint64(c.guardSeed[i])
			h *= 1099511628211
		}
		c.guard = guards[h%uint64(len(guards))]
		return nil
	}
	c.guard = guards[c.rng.Intn(len(guards))]
	return nil
}

// buildCircuit telescopes a fresh three-hop circuit through the guard.
func (c *Client) buildCircuit(p *sim.Proc) error {
	middle, exit, err := c.pickMiddleAndExit()
	if err != nil {
		return err
	}
	c.circuit = []string{c.guard, middle, exit}
	c.back = []string{exit, middle, c.guard}
	// Telescoping: each extend costs a round trip over the
	// progressively longer partial circuit plus handshake crypto.
	for i := 1; i <= circuitHops; i++ {
		var rtt time.Duration
		if i == 1 {
			lat, err := c.net.PathLatency(c.commNode, c.guard)
			if err != nil {
				return fmt.Errorf("tor: guard unreachable: %w", err)
			}
			rtt = 2 * lat
		} else {
			lat, err := c.net.PathLatency(c.commNode, c.circuit[i-1], c.circuit[:i-1]...)
			if err != nil {
				return fmt.Errorf("tor: extend %d: %w", i, err)
			}
			rtt = 2 * lat
		}
		p.Sleep(rtt + sim.Time(p.Rand().Jitter(float64(extendCryptoCost), 0.2)))
	}
	c.built++
	return nil
}

// pickMiddleAndExit selects distinct middle and exit relays avoiding
// the guard.
func (c *Client) pickMiddleAndExit() (middle, exit string, err error) {
	var exits, middles []string
	for _, r := range c.relays {
		if r.NodeName == c.guard {
			continue
		}
		if r.Exit {
			exits = append(exits, r.NodeName)
		} else {
			middles = append(middles, r.NodeName)
		}
	}
	if len(exits) == 0 {
		return "", "", anonnet.ErrNoExit
	}
	exit = exits[c.rng.Intn(len(exits))]
	if len(middles) == 0 {
		// Small deployments: reuse a non-guard, non-exit-chosen relay.
		for _, r := range c.relays {
			if r.NodeName != c.guard && r.NodeName != exit {
				middles = append(middles, r.NodeName)
			}
		}
	}
	if len(middles) == 0 {
		return "", "", anonnet.ErrNoExit
	}
	middle = middles[c.rng.Intn(len(middles))]
	return middle, exit, nil
}

// Fetch implements anonnet.Anonymizer: one stream over the circuit.
func (c *Client) Fetch(p *sim.Proc, req anonnet.Request) (anonnet.FetchResult, error) {
	if !c.ready {
		return anonnet.FetchResult{}, anonnet.ErrNotReady
	}
	if req.SiteNode == "" {
		return anonnet.FetchResult{}, anonnet.ErrBadRequest
	}
	start := p.Now()
	up := req.SendBytes
	if up < 512 {
		up = 512 // at least one cell
	}
	fut := c.net.StartTransfer(vnet.TransferOpts{
		From: c.commNode, To: req.SiteNode, Via: c.circuit,
		Bytes: up, Proto: c.wireProto, Overhead: c.OverheadFrac(),
	})
	if _, err := sim.Await(p, fut); err != nil {
		return anonnet.FetchResult{}, fmt.Errorf("tor: upstream: %w", err)
	}
	if req.RecvBytes > 0 {
		down := c.net.StartTransfer(vnet.TransferOpts{
			From: req.SiteNode, To: c.commNode, Via: c.back,
			Bytes: req.RecvBytes, Proto: c.wireProto, Overhead: c.OverheadFrac(),
			NoHandshake: true, // response rides the established stream
		})
		if _, err := sim.Await(p, down); err != nil {
			return anonnet.FetchResult{}, fmt.Errorf("tor: downstream: %w", err)
		}
	}
	return anonnet.FetchResult{
		Sent:     req.SendBytes,
		Received: req.RecvBytes,
		Elapsed:  p.Now() - start,
	}, nil
}

// Resolve implements anonnet.Anonymizer using Tor's built-in DNS:
// RESOLVE cells travel the circuit, so nothing leaks to the local
// resolver.
func (c *Client) Resolve(p *sim.Proc, host string) (string, error) {
	if !c.ready {
		return "", anonnet.ErrNotReady
	}
	lat, err := c.net.PathLatency(c.commNode, c.circuit[len(c.circuit)-1], c.circuit[:len(c.circuit)-1]...)
	if err != nil {
		return "", err
	}
	p.Sleep(2*lat + sim.Time(resolveCells)*sim.Time(time.Microsecond))
	node, ok := c.resolver(host)
	if !ok {
		return "", fmt.Errorf("%w: %s", anonnet.ErrResolve, host)
	}
	return node, nil
}

// ExitIdentity implements anonnet.Anonymizer.
func (c *Client) ExitIdentity() string {
	if len(c.circuit) == 0 {
		return ""
	}
	return c.circuit[len(c.circuit)-1]
}

// ExportState implements anonnet.Anonymizer: the guard and directory
// freshness are the state worth persisting.
func (c *Client) ExportState() anonnet.State {
	st := anonnet.State{}
	if c.guard != "" {
		st["guard"] = c.guard
	}
	if c.hasDir {
		st["consensus"] = "cached"
	}
	st["circuits_built"] = strconv.Itoa(c.built)
	return st
}

// ImportState implements anonnet.Anonymizer.
func (c *Client) ImportState(st anonnet.State) {
	if g, ok := st["guard"]; ok {
		c.guard = g
	}
	if st["consensus"] == "cached" {
		c.hasDir = true
	}
}

// Stop implements anonnet.Anonymizer.
func (c *Client) Stop() {
	c.ready = false
	c.circuit, c.back = nil, nil
}

var _ anonnet.Anonymizer = (*Client)(nil)
