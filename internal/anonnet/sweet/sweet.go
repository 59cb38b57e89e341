// Package sweet implements the SWEET circumvention tool ("our own
// implementation of SWEET", paper section 4.1; Houmansadr et al.,
// "Serving the Web by Exploiting Email Tunnels"): web traffic is
// tunneled inside ordinary emails between the user and a SWEET proxy,
// so a censor that permits email cannot block it without blocking
// email itself.
//
// Requests are chunked into MIME-encoded messages relayed through a
// public mail gateway; the SWEET proxy fetches the page and mails the
// response back. Latency is dominated by mail-spool delivery delays,
// making SWEET usable but slow — exactly the trade-off the pluggable
// anonymizer framework exists to offer.
package sweet

import (
	"fmt"
	"strconv"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/sim"
	"nymix/internal/vnet"
)

func init() {
	anonnet.RegisterTransport("sweet", anonnet.TransportInfo{},
		func(env anonnet.Env) (anonnet.Transport, error) {
			return New(env.Net, env.CommNode, env.World.MailGateway().Name(),
				env.World.SweetProxy().Name(), env.World.Resolver()), nil
		})
}

// Tunnel parameters.
const (
	// ChunkBytes is the payload carried per email.
	ChunkBytes = 192 << 10
	// WireOverhead is the MIME/base64 encoding cost.
	WireOverhead = 0.4
	// spoolDelay is the mean one-way mail delivery delay.
	spoolDelay = 6 * time.Second
	// mailboxSetup is the account registration cost at Start.
	mailboxSetup = 2 * time.Second
)

// Client is a SWEET endpoint inside a CommVM.
type Client struct {
	net      *vnet.Network
	commNode string
	mailGW   string // public mail exchange node
	proxy    string // SWEET proxy node (the exit servers observe)
	resolver func(string) (string, bool)
	ready    bool
	mailbox  string
	sent     int // lifetime emails sent, for tests/stats
}

// New creates a SWEET client tunneling through the mail gateway to
// the proxy.
func New(net *vnet.Network, commNode, mailGW, proxy string, resolver func(string) (string, bool)) *Client {
	return &Client{net: net, commNode: commNode, mailGW: mailGW, proxy: proxy, resolver: resolver}
}

// Name implements anonnet.Transport.
func (c *Client) Name() string { return "sweet" }

// OverheadFrac implements anonnet.Transport.
func (c *Client) OverheadFrac() float64 { return WireOverhead }

// Ready implements anonnet.Transport.
func (c *Client) Ready() bool { return c.ready }

// EmailsSent returns the lifetime count of tunnel emails.
func (c *Client) EmailsSent() int { return c.sent }

// Start implements anonnet.Transport: register a throwaway mailbox
// and exchange a hello with the proxy.
func (c *Client) Start(p *sim.Proc) error {
	p.Sleep(sim.Time(p.Rand().Jitter(float64(mailboxSetup), 0.2)))
	c.mailbox = fmt.Sprintf("swt-%d@mail", p.Rand().Intn(1<<30))
	if err := c.email(p, true, 2048); err != nil {
		return fmt.Errorf("sweet: hello: %w", err)
	}
	if err := c.email(p, false, 2048); err != nil {
		return fmt.Errorf("sweet: hello ack: %w", err)
	}
	c.ready = true
	return nil
}

// email delivers one tunnel message: a transfer to (or from) the mail
// gateway plus the spool delay before the recipient polls it.
func (c *Client) email(p *sim.Proc, outbound bool, payload int64) error {
	from, to := c.commNode, c.mailGW
	if !outbound {
		from, to = c.mailGW, c.commNode
	}
	fut := c.net.StartTransfer(vnet.TransferOpts{
		From: from, To: to,
		Bytes: payload, Proto: "smtp", Overhead: WireOverhead,
	})
	if _, err := sim.Await(p, fut); err != nil {
		return err
	}
	c.sent++
	p.Sleep(sim.Time(p.Rand().Jitter(float64(spoolDelay), 0.3)))
	return nil
}

// Fetch implements anonnet.Transport: chunk the request out, let the
// proxy fetch the page, and chunk the response back.
func (c *Client) Fetch(p *sim.Proc, req anonnet.Request) (anonnet.FetchResult, error) {
	if !c.ready {
		return anonnet.FetchResult{}, anonnet.ErrNotReady
	}
	if req.SiteNode == "" {
		return anonnet.FetchResult{}, anonnet.ErrBadRequest
	}
	start := p.Now()
	for sent := int64(0); ; sent += ChunkBytes {
		n := req.SendBytes - sent
		if n <= 0 && sent > 0 {
			break
		}
		if n > ChunkBytes {
			n = ChunkBytes
		}
		if n < 512 {
			n = 512
		}
		if err := c.email(p, true, n); err != nil {
			return anonnet.FetchResult{}, err
		}
		if sent+ChunkBytes >= req.SendBytes {
			break
		}
	}
	// Proxy-side fetch (server network, fast).
	fut := c.net.StartTransfer(vnet.TransferOpts{
		From: req.SiteNode, To: c.proxy, Bytes: maxI64(req.RecvBytes, 512), Proto: "http",
	})
	if _, err := sim.Await(p, fut); err != nil {
		return anonnet.FetchResult{}, fmt.Errorf("sweet: proxy fetch: %w", err)
	}
	for recvd := int64(0); ; recvd += ChunkBytes {
		n := req.RecvBytes - recvd
		if n <= 0 && recvd > 0 {
			break
		}
		if n > ChunkBytes {
			n = ChunkBytes
		}
		if n < 512 {
			n = 512
		}
		if err := c.email(p, false, n); err != nil {
			return anonnet.FetchResult{}, err
		}
		if recvd+ChunkBytes >= req.RecvBytes {
			break
		}
	}
	return anonnet.FetchResult{Sent: req.SendBytes, Received: req.RecvBytes, Elapsed: p.Now() - start}, nil
}

// Resolve implements anonnet.Transport: one email round trip to the
// proxy's resolver.
func (c *Client) Resolve(p *sim.Proc, host string) (string, error) {
	if !c.ready {
		return "", anonnet.ErrNotReady
	}
	if err := c.email(p, true, 512); err != nil {
		return "", err
	}
	if err := c.email(p, false, 512); err != nil {
		return "", err
	}
	node, ok := c.resolver(host)
	if !ok {
		return "", fmt.Errorf("%w: %s", anonnet.ErrResolve, host)
	}
	return node, nil
}

// ExitIdentity implements anonnet.Transport: servers observe the
// SWEET proxy.
func (c *Client) ExitIdentity() string { return c.proxy }

// ExportState implements anonnet.Transport: the mailbox persists so
// a restored nym keeps its tunnel endpoint.
func (c *Client) ExportState() anonnet.State {
	st := anonnet.State{"emails": strconv.Itoa(c.sent)}
	if c.mailbox != "" {
		st["mailbox"] = c.mailbox
	}
	return st
}

// ImportState implements anonnet.Transport.
func (c *Client) ImportState(st anonnet.State) {
	if mb, ok := st["mailbox"]; ok {
		c.mailbox = mb
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
