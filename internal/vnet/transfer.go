package vnet

import (
	"fmt"
	"time"

	"nymix/internal/sim"
)

// Result describes a finished transfer.
type Result struct {
	Bytes   int64
	Started sim.Time
	Ended   sim.Time
}

// Duration returns the transfer's elapsed simulated time.
func (r Result) Duration() time.Duration { return r.Ended - r.Started }

// TransferOpts parameterizes a flow.
type TransferOpts struct {
	From, To string
	Via      []string // proxy waypoints (e.g. Tor relays), in order
	Bytes    int64
	Proto    string  // protocol label, visible to captures, policies, and DPI
	Overhead float64 // fractional protocol overhead; wire bytes = Bytes*(1+Overhead)
	// NoHandshake skips the connection-setup round trip (datagrams).
	NoHandshake bool
	MaxRate     float64 // per-flow cap in bytes/s; 0 = DefaultMaxRate
}

// Transfer is an in-flight fluid flow.
type Transfer struct {
	id  int64
	net *Network
	// The TransferOpts fields a flow reads after admission; maxRate
	// already holds any DPI throttle.
	from, to   string
	proto      string
	bytes      int64
	maxRate    float64
	hops       []hop
	finite     []*Link       // distinct finite-capacity links of hops, in first-crossing order
	points     []*Node       // source, Via waypoints, destination: the proxy segments' ends
	latency    time.Duration // one-way latency of hops: the handshake's half and the tail
	remaining  float64
	delivered  float64 // wire bytes settled so far (feeds the detach ledger)
	rate       float64
	lastUpdate sim.Time
	timer      sim.Timer
	step       func() // t.advance, built once: every event the transfer schedules runs it
	fut        *sim.Future[Result]
	started    sim.Time
	ended      sim.Time // when the last byte reaches the receiver
	phase      phase
}

// phase is where a transfer is in its life. Every event a transfer
// schedules runs its step callback, which acts on the phase.
type phase uint8

const (
	handshaking phase = iota // connection setup; step activates the flow
	flowing                  // in the rate allocation; step finishes it at its ETA
	delivering               // last byte in flight; step completes the future
	done                     // completed or failed; step does nothing
)

// advance is every transfer's step callback.
func (t *Transfer) advance() {
	switch t.phase {
	case handshaking:
		t.net.activate(t)
	case flowing:
		t.net.finish(t)
	case delivering:
		t.phase = done
		t.fut.Complete(Result{Bytes: t.bytes, Started: t.started, Ended: t.ended}, nil)
	}
}

// hopOn returns the flow's first hop across l, or nil.
func (t *Transfer) hopOn(l *Link) *hop {
	for i := range t.hops {
		if t.hops[i].link == l {
			return &t.hops[i]
		}
	}
	return nil
}

// StartTransfer begins a flow and returns a future that completes when
// the last byte is delivered (or the flow fails).
func (n *Network) StartTransfer(opts TransferOpts) *sim.Future[Result] {
	fut := sim.NewFuture[Result](n.eng)
	r, delay, err := n.resolve(&opts)
	if err != nil {
		n.eng.Schedule(delay, func() { fut.Complete(Result{}, err) })
		return fut
	}
	if opts.MaxRate <= 0 {
		opts.MaxRate = DefaultMaxRate
	}
	// DPI admission: every engine on the path inspects the flow. A
	// drop behaves like the silent drop of a censoring middlebox; a
	// throttle caps the flow's rate below its own ceiling.
	for _, h := range r.hops {
		e := h.link.dpi
		if e == nil {
			continue
		}
		ruling := e.inspect(Flow{
			Src:         opts.From,
			ObservedSrc: h.observedSrc,
			Dst:         opts.To,
			Proto:       opts.Proto,
			Bytes:       opts.Bytes,
		})
		switch ruling.Verdict {
		case Drop:
			e.noteDrop(opts.Proto, opts.Bytes)
			dropErr := fmt.Errorf("%w (%s -> %s, proto %s)", ErrCensored, opts.From, opts.To, opts.Proto)
			n.eng.Schedule(3*time.Second, func() { fut.Complete(Result{}, dropErr) })
			return fut
		case Throttle:
			e.noteThrottle(opts.Proto, opts.Bytes)
			if ruling.Rate > 0 && ruling.Rate < opts.MaxRate {
				opts.MaxRate = ruling.Rate
			}
		}
	}
	wire := float64(opts.Bytes) * (1 + opts.Overhead)
	if wire < 1 {
		wire = 1
	}
	t := &Transfer{
		id:        n.nextID,
		net:       n,
		from:      opts.From,
		to:        opts.To,
		proto:     opts.Proto,
		bytes:     opts.Bytes,
		maxRate:   opts.MaxRate,
		hops:      r.hops,
		finite:    r.finite,
		points:    r.points,
		latency:   r.latency,
		remaining: wire,
		fut:       fut,
		started:   n.eng.Now(),
	}
	t.step = t.advance
	n.nextID++
	setup := r.latency
	if !opts.NoHandshake {
		setup *= 2 // connection setup costs a full round trip first
	}
	n.eng.Schedule(setup, t.step)
	return fut
}

func (n *Network) activate(t *Transfer) {
	// The fabric may have changed during the handshake window: a link
	// gone down or a region severed kills the flow before any byte
	// moves.
	for _, h := range t.hops {
		if h.link.down {
			t.phase = done
			t.fut.Complete(Result{Started: t.started, Ended: n.eng.Now()}, ErrLinkDown)
			return
		}
	}
	if n.partitionBlocked(t) {
		t.phase = done
		t.fut.Complete(Result{Started: t.started, Ended: n.eng.Now()}, ErrPartitioned)
		return
	}
	t.phase = flowing
	t.lastUpdate = n.eng.Now()
	for _, h := range t.hops {
		for _, c := range h.link.captures {
			c.Entries = append(c.Entries, CaptureEntry{
				Time:        n.eng.Now(),
				ObservedSrc: h.observedSrc,
				Dst:         t.to,
				Proto:       t.proto,
				Bytes:       t.bytes,
			})
		}
	}
	n.transfers = append(n.transfers, t)
	n.recompute()
}

// settle advances the flow to now at its current rate, moving the
// progressed bytes out of remaining and crediting them to every tap
// and link counter on the path.
func (t *Transfer) settle(now sim.Time) {
	elapsed := (now - t.lastUpdate).Seconds()
	if elapsed > 0 && t.rate > 0 {
		moved := t.rate * elapsed
		if moved > t.remaining {
			moved = t.remaining
		}
		t.remaining -= moved
		if t.remaining < 0 {
			t.remaining = 0
		}
		t.credit(moved)
	}
	t.lastUpdate = now
}

// credit books moved wire bytes onto every hop of the path: the
// link's directional counter and the taps on both of its NICs.
func (t *Transfer) credit(moved float64) {
	if moved <= 0 {
		return
	}
	t.delivered += moved
	for i := range t.hops {
		h := &t.hops[i]
		l := h.link
		l.wire[h.dir] += moved
		for _, w := range l.txNIC(h.dir).taps {
			w.tx += moved
		}
		for _, w := range l.rxNIC(h.dir).taps {
			w.rx += moved
		}
	}
}

// recompute reruns max-min fair allocation across all active flows and
// reschedules their completion events. Called on every flow start and
// finish. Its bookkeeping allocates nothing: per-link state lives in
// scratch slices indexed by Link.id, and each flow carries its distinct
// finite links.
func (n *Network) recompute() {
	now := n.eng.Now()
	// Settle progress at the old rates.
	for _, t := range n.transfers {
		t.settle(now)
		t.timer.Cancel()
		t.rate = 0
	}
	// Progressive filling (max-min fairness). Only the residual and
	// count entries of links some active flow crosses are written or
	// read.
	residual, count := n.residual, n.count
	unfrozen := n.unfrozen[:0]
	for _, t := range n.transfers {
		unfrozen = append(unfrozen, true)
		for _, l := range t.finite {
			residual[l.id] = l.cfg.Capacity
			count[l.id] = 0
		}
	}
	n.unfrozen = unfrozen
	// count holds the unfrozen flows per finite link.
	for _, t := range n.transfers {
		for _, l := range t.finite {
			count[l.id]++
		}
	}
	for left := len(unfrozen); left > 0; {
		// Smallest allowable uniform increment.
		delta := -1.0
		for i, t := range n.transfers {
			if !unfrozen[i] {
				continue
			}
			for _, l := range t.finite {
				share := residual[l.id] / float64(count[l.id])
				if delta < 0 || share < delta {
					delta = share
				}
			}
		}
		for i, t := range n.transfers {
			if unfrozen[i] {
				head := t.maxRate - t.rate
				if delta < 0 || head < delta {
					delta = head
				}
			}
		}
		if delta <= 1e-9 {
			delta = 0
		}
		// Apply the increment and freeze saturated flows.
		for i, t := range n.transfers {
			if !unfrozen[i] {
				continue
			}
			t.rate += delta
			for _, l := range t.finite {
				residual[l.id] -= delta
			}
		}
		frozeAny := false
		for i, t := range n.transfers {
			if !unfrozen[i] || !t.saturated(residual) {
				continue
			}
			unfrozen[i] = false
			left--
			frozeAny = true
			for _, l := range t.finite {
				count[l.id]--
			}
		}
		if !frozeAny {
			// Defensive: guarantees termination even with degenerate
			// capacities.
			break
		}
	}
	// Schedule completions.
	for _, t := range n.transfers {
		if t.rate <= 0 {
			continue // starved (e.g. zero-capacity path); fails only on link-down
		}
		eta := time.Duration(t.remaining / t.rate * float64(time.Second))
		if eta < 0 {
			eta = 0
		}
		t.timer = n.eng.Schedule(eta, t.step)
	}
}

// saturated reports whether the flow has reached its rate cap or
// crosses a link with no residual capacity left.
func (t *Transfer) saturated(residual []float64) bool {
	if t.rate >= t.maxRate-1e-9 {
		return true
	}
	for _, l := range t.finite {
		if residual[l.id] <= 1e-9 {
			return true
		}
	}
	return false
}

func (n *Network) finish(t *Transfer) {
	t.settle(n.eng.Now())
	// Book any float dust so taps, ledger, and the wire volume agree
	// to the byte.
	if t.remaining > 0 {
		t.credit(t.remaining)
	}
	t.remaining = 0
	t.detach()
	// Last byte still needs to propagate to the receiver.
	t.phase = delivering
	t.ended = n.eng.Now() + t.latency
	n.eng.Schedule(t.latency, t.step)
	n.recompute()
}

// fail ends an active flow with err.
func (t *Transfer) fail(err error) {
	if t.phase != flowing {
		return
	}
	t.settle(t.net.eng.Now())
	t.detach()
	t.phase = done
	t.fut.Complete(Result{Started: t.started, Ended: t.net.eng.Now()}, err)
	t.net.recompute()
}

// detach removes the transfer from links and the active list, booking
// its settled bytes into each crossed link's ledger (the double-entry
// side of the tap accounting).
func (t *Transfer) detach() {
	t.timer.Cancel()
	for _, h := range t.hops {
		h.link.ledger[h.dir] += t.delivered
	}
	for i, other := range t.net.transfers {
		if other == t {
			t.net.transfers = append(t.net.transfers[:i], t.net.transfers[i+1:]...)
			break
		}
	}
}
