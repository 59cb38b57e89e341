package dissent

import (
	"fmt"
	"strconv"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vnet"
)

func init() {
	anonnet.RegisterTransport("dissent", anonnet.TransportInfo{},
		func(env anonnet.Env) (anonnet.Transport, error) {
			return New(env.Net, env.CommNode, env.World.DissentServers(),
				groupSize, env.World.Resolver()), nil
		})
}

// groupSize is the anonymity set size every registered Dissent
// transport is configured for; the paper's Dissent evaluations use
// group sizes in the tens.
const groupSize = 16

// Protocol constants. Dissent trades throughput for traffic-analysis
// resistance: every byte costs a DC-net round, so bulk transfer is
// far slower than Tor ("less mature and currently less scalable",
// section 3.3).
const (
	// SlotBytes is the per-client slot capacity of one bulk round.
	SlotBytes = 256 << 10
	// WireOverhead covers ciphertext padding and accountability
	// metadata.
	WireOverhead = 0.35
	// serverProcessing is per-round server-side combine/broadcast cost.
	serverProcessing = 120 * time.Millisecond
	// keyExchangeCrypto is the per-server setup handshake cost.
	keyExchangeCrypto = 150 * time.Millisecond
	// perMemberCost is the per-round scheduling cost per anonymity-set
	// member.
	perMemberCost = 2 * time.Millisecond
)

// Client is a Dissent client inside a CommVM, implementing
// anonnet.Transport over the anytrust server set.
type Client struct {
	net      *vnet.Network
	commNode string
	servers  []string
	resolver func(string) (string, bool)
	// members is the anonymity set size N the deployment is configured
	// for; the paper's Dissent evaluations use group sizes in the tens.
	members int
	ready   bool
	rounds  uint64
	keysUp  bool
}

// New creates a Dissent client. members is the configured anonymity
// set size (minimum 2).
func New(net *vnet.Network, commNode string, servers []string, members int, resolver func(string) (string, bool)) *Client {
	if members < 2 {
		members = 2
	}
	return &Client{
		net:      net,
		commNode: commNode,
		servers:  servers,
		members:  members,
		resolver: resolver,
	}
}

// Name implements anonnet.Transport.
func (c *Client) Name() string { return "dissent" }

// OverheadFrac implements anonnet.Transport.
func (c *Client) OverheadFrac() float64 { return WireOverhead }

// Ready implements anonnet.Transport.
func (c *Client) Ready() bool { return c.ready }

// Members returns the configured anonymity set size.
func (c *Client) Members() int { return c.members }

// Rounds returns the number of DC-net rounds run.
func (c *Client) Rounds() uint64 { return c.rounds }

// Start implements anonnet.Transport: pairwise key establishment
// with every anytrust server plus a scheduling round.
func (c *Client) Start(p *sim.Proc) error {
	if len(c.servers) == 0 {
		return nymerr.New(anonnet.CodeNoExit, "dissent: no anytrust servers configured")
	}
	if !c.keysUp {
		for _, srv := range c.servers {
			lat, err := c.net.PathLatency(c.commNode, srv)
			if err != nil {
				return fmt.Errorf("dissent: server %s unreachable: %w", srv, err)
			}
			p.Sleep(2*lat + sim.Time(p.Rand().Jitter(float64(keyExchangeCrypto), 0.2)))
		}
		c.keysUp = true
	}
	// Scheduling (shuffle) round to assign slots.
	if err := c.runRound(p, 4096, 4096); err != nil {
		return err
	}
	c.ready = true
	return nil
}

// runRound performs one DC-net round on the wire: the client submits
// its ciphertext upstream to its server, servers combine, and the
// round output is broadcast back.
func (c *Client) runRound(p *sim.Proc, upBytes, downBytes int64) error {
	srv := c.servers[int(c.rounds)%len(c.servers)]
	c.rounds++
	up := c.net.StartTransfer(vnet.TransferOpts{
		From: c.commNode, To: srv,
		Bytes: upBytes, Proto: "dissent", Overhead: WireOverhead,
		NoHandshake: true,
	})
	if _, err := sim.Await(p, up); err != nil {
		return fmt.Errorf("dissent: round upstream: %w", err)
	}
	p.Sleep(sim.Time(p.Rand().Jitter(float64(serverProcessing), 0.15)) +
		time.Duration(c.members)*perMemberCost)
	down := c.net.StartTransfer(vnet.TransferOpts{
		From: srv, To: c.commNode,
		Bytes: downBytes, Proto: "dissent", Overhead: WireOverhead,
		NoHandshake: true,
	})
	if _, err := sim.Await(p, down); err != nil {
		return fmt.Errorf("dissent: round downstream: %w", err)
	}
	return nil
}

// Fetch implements anonnet.Transport: the request is split across
// bulk rounds; the response is proxied back by the serving server
// inside subsequent round outputs.
func (c *Client) Fetch(p *sim.Proc, req anonnet.Request) (anonnet.FetchResult, error) {
	if !c.ready {
		return anonnet.FetchResult{}, anonnet.ErrNotReady
	}
	if req.SiteNode == "" {
		return anonnet.FetchResult{}, anonnet.ErrBadRequest
	}
	start := p.Now()
	// Upstream rounds carry the request; the exit server then fetches
	// from the site and feeds the response into downstream rounds.
	upRounds := (req.SendBytes + SlotBytes - 1) / SlotBytes
	if upRounds < 1 {
		upRounds = 1
	}
	for i := int64(0); i < upRounds; i++ {
		n := req.SendBytes - i*SlotBytes
		if n > SlotBytes {
			n = SlotBytes
		}
		if n < 512 {
			n = 512
		}
		if err := c.runRound(p, n, 512); err != nil {
			return anonnet.FetchResult{}, err
		}
	}
	// Server-side fetch from the site (fast server-to-site path).
	srv := c.servers[0]
	siteFut := c.net.StartTransfer(vnet.TransferOpts{
		From: req.SiteNode, To: srv, Bytes: maxI64(req.RecvBytes, 512), Proto: "dissent",
	})
	if _, err := sim.Await(p, siteFut); err != nil {
		return anonnet.FetchResult{}, fmt.Errorf("dissent: exit fetch: %w", err)
	}
	downRounds := (req.RecvBytes + SlotBytes - 1) / SlotBytes
	if downRounds < 1 {
		downRounds = 1
	}
	for i := int64(0); i < downRounds; i++ {
		n := req.RecvBytes - i*SlotBytes
		if n > SlotBytes {
			n = SlotBytes
		}
		if n < 512 {
			n = 512
		}
		if err := c.runRound(p, 512, n); err != nil {
			return anonnet.FetchResult{}, err
		}
	}
	return anonnet.FetchResult{
		Sent:     req.SendBytes,
		Received: req.RecvBytes,
		Elapsed:  p.Now() - start,
	}, nil
}

// Resolve implements anonnet.Transport: Dissent supports UDP
// proxying, so DNS queries travel inside rounds.
func (c *Client) Resolve(p *sim.Proc, host string) (string, error) {
	if !c.ready {
		return "", anonnet.ErrNotReady
	}
	if err := c.runRound(p, 512, 512); err != nil {
		return "", err
	}
	node, ok := c.resolver(host)
	if !ok {
		return "", fmt.Errorf("%w: %s", anonnet.ErrResolve, host)
	}
	return node, nil
}

// ExitIdentity implements anonnet.Transport: servers front all
// client traffic, so sites observe the serving server.
func (c *Client) ExitIdentity() string {
	if len(c.servers) == 0 {
		return ""
	}
	return c.servers[0]
}

// ExportState implements anonnet.Transport.
func (c *Client) ExportState() anonnet.State {
	st := anonnet.State{"members": strconv.Itoa(c.members)}
	if c.keysUp {
		st["keys"] = "established"
	}
	return st
}

// ImportState implements anonnet.Transport.
func (c *Client) ImportState(st anonnet.State) {
	if st["keys"] == "established" {
		c.keysUp = true
	}
	if m, err := strconv.Atoi(st["members"]); err == nil && m >= 2 {
		c.members = m
	}
}

// Stop implements anonnet.Transport.
func (c *Client) Stop() { c.ready = false }

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

var _ anonnet.Transport = (*Client)(nil)
