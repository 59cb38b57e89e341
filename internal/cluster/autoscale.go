package cluster

import (
	"time"

	"nymix/internal/fleet"
	"nymix/internal/sim"
)

// The autoscaler's fixed tuning — the values the elastic experiment
// runs. Config.MinHosts and Config.MaxHosts bound the pool.
const (
	// growDwell is how long the cluster-wide queue must persist before
	// a new host is provisioned — a blip a teardown is about to absorb
	// should not buy a machine.
	growDwell = 5 * time.Second
	// provisionDelay models how long a new host takes to come online:
	// image boot, network join, manager start.
	provisionDelay = 20 * time.Second
	// shrinkShare is the pool-wide reserved share below which the pool
	// is considered oversized.
	shrinkShare = 0.6
	// shrinkDwell is how long the pool must sit under shrinkShare
	// before a host is cordoned and drained.
	shrinkDwell = 15 * time.Second
)

// ScaleEvent is one autoscaler action on the pool.
type ScaleEvent struct {
	At     sim.Time
	Kind   string // "grow", "cordon", "retire", "abort"
	Host   string
	Active int // placeable hosts after the event
}

// ScaleLog returns pool scaling events in order — the hosts-over-time
// series the elastic experiment renders.
func (c *Cluster) ScaleLog() []ScaleEvent { return append([]ScaleEvent(nil), c.scaleLog...) }

func (c *Cluster) logScale(kind, host string) {
	c.scaleLog = append(c.scaleLog, ScaleEvent{
		At: c.eng.Now(), Kind: kind, Host: host, Active: c.ActiveHosts(),
	})
}

// clusterShare is the pool-wide reserved fraction of admissible budget
// over placeable hosts — the figure the shrink watermark reads.
func (c *Cluster) clusterShare() float64 {
	var reserved, budget int64
	for _, h := range c.hosts {
		if !h.placeable() {
			continue
		}
		reserved += h.orch.ReservedBytes()
		budget += h.orch.RAMBudgetBytes()
	}
	if budget <= 0 {
		return 0
	}
	return float64(reserved) / float64(budget)
}

// autoscale is the daemon's evaluation pulse, run on every cluster
// state change. Like the rebalancer and the fleet's KSM daemon it is
// state-driven: timers exist only while a grow or shrink could help,
// so a stable cluster leaves the event queue empty and the engine
// drainable.
func (c *Cluster) autoscale() {
	if c.cfg.MaxHosts <= 0 {
		return
	}
	c.checkGrow()
	c.checkShrink()
}

// checkGrow arms one provisioning decision growDwell past the moment
// the cluster-wide queue appeared. The pressure clock (queueSince,
// maintained by onChange) resets whenever the queue empties, so only
// a queue that *persists* buys a host.
func (c *Cluster) checkGrow() {
	if len(c.pending) == 0 || c.growArmed || c.growing || c.ActiveHosts() >= c.cfg.MaxHosts {
		return
	}
	c.growArmed = true
	wait := c.queueSince + growDwell - c.eng.Now()
	c.eng.Schedule(wait, func() {
		c.growArmed = false
		if c.growing || len(c.pending) == 0 || c.queueSince < 0 || c.ActiveHosts() >= c.cfg.MaxHosts {
			c.notify() // AwaitSettled watches growArmed; wake it
			return
		}
		if c.eng.Now()-c.queueSince < growDwell {
			c.autoscale() // pressure blipped off and back on; re-dwell
			return
		}
		c.growing = true
		c.eng.Go("cluster/grow", func(p *sim.Proc) {
			p.Sleep(provisionDelay)
			h, err := c.addHost()
			c.growing = false
			if err == nil {
				c.growEvents++
				c.logScale("grow", h.name)
			}
			c.onChange() // dispatch the queue onto the new host; maybe grow again
		})
	})
}

// checkShrink arms one retire decision shrinkDwell past the moment the
// pool went cold (reserved share under the watermark with an empty
// queue). The idle clock resets whenever load returns, so a lull
// between bursts does not cost a host.
func (c *Cluster) checkShrink() {
	floor := max(c.cfg.MinHosts, 1) // never drain the last host
	cold := len(c.pending) == 0 && c.ActiveHosts() > floor &&
		c.clusterShare() < shrinkShare &&
		!c.draining && !c.growing && !c.growArmed &&
		!c.rebalancing && !c.rebalScheduled
	if !cold {
		c.coldSince = -1
		return
	}
	if c.coldSince < 0 {
		c.coldSince = c.eng.Now()
	}
	if c.shrinkArmed {
		return
	}
	c.shrinkArmed = true
	wait := c.coldSince + shrinkDwell - c.eng.Now()
	c.eng.Schedule(wait, func() {
		c.shrinkArmed = false
		if c.coldSince < 0 || c.draining || c.growing ||
			len(c.pending) > 0 || c.ActiveHosts() <= floor {
			c.notify() // AwaitSettled watches shrinkArmed; wake it
			return
		}
		if c.eng.Now()-c.coldSince < shrinkDwell {
			c.autoscale() // idleness blipped; re-dwell
			return
		}
		victim := c.shrinkVictim()
		if victim == nil {
			c.coldSince = -1
			c.notify()
			return
		}
		c.draining = true
		c.eng.Go("cluster/drain-"+victim.name, func(p *sim.Proc) {
			if c.retireHost(p, victim) {
				c.shrinkEvents++
			}
			c.draining = false
			c.coldSince = -1
			c.onChange() // still cold? the next pass retires another host
		})
	})
}

// shrinkVictim picks the host to retire: the least-loaded placeable
// host whose reserved bytes the rest of the pool has headroom to
// absorb — draining a host the survivors cannot hold would wedge
// mid-migration.
func (c *Cluster) shrinkVictim() *Host {
	var victim *Host
	var victimShare float64
	for _, h := range c.hosts {
		if !h.placeable() {
			continue
		}
		share := h.ReservedShare()
		if victim == nil || share < victimShare {
			victim, victimShare = h, share
		}
	}
	if victim == nil {
		return nil
	}
	var headroom int64
	for _, h := range c.hosts {
		if h != victim && h.placeable() {
			headroom += h.orch.HeadroomBytes()
		}
	}
	if headroom < victim.orch.ReservedBytes() {
		return nil
	}
	return victim
}

// retireHost walks one host through cordon -> drain -> retire,
// returning false if the drain had to be aborted (the host goes back
// to Active). Every live nym leaves via MigrateNym, so durable
// identity rides the vault and a crash mid-drain falls back to the
// last checkpoint; the host is removed only once it holds zero nyms
// and zero reserved bytes — a leaked reservation would survive as a
// visible accounting error on a retired host, so the invariant is
// checked here.
func (c *Cluster) retireHost(p *sim.Proc, h *Host) bool {
	if h.state == HostActive {
		h.state = HostCordoned
		c.logScale("cordon", h.name)
		c.notify()
	}
	h.state = HostDraining
	attempts := make(map[string]int)
	for {
		if c.hostQuiet(h) {
			break
		}
		m := c.nextDrainMember(h)
		if m == nil {
			// Members are mid-transition (booting, restarting, being
			// torn down); wait for them to settle into Running or a
			// terminal state.
			c.parkOnChange(p)
			continue
		}
		dst := c.drainDestination(h, m)
		if dst == nil {
			// Capacity vanished under the drain (a burst arrived).
			// Abort: the host returns to service rather than wedging.
			h.state = HostActive
			c.logScale("abort", h.name)
			c.onChange()
			return false
		}
		name := m.Name()
		if _, err := c.MigrateNym(p, name, dst.name); err != nil {
			if c.HostOf(name) != h {
				continue // it left anyway (re-queued from its checkpoint)
			}
			if attempts[name]++; attempts[name] >= 3 {
				h.state = HostActive
				c.logScale("abort", h.name)
				c.onChange()
				return false
			}
			c.parkOnChange(p)
		}
	}
	h.state = HostRetired
	for i, x := range c.hosts {
		if x == h {
			c.hosts = append(c.hosts[:i], c.hosts[i+1:]...)
			break
		}
	}
	c.retired = append(c.retired, h)
	c.logScale("retire", h.name)
	c.notify()
	return true
}

// hostQuiet reports that a host holds no live or in-flight member and
// no reservation — the retire precondition.
func (c *Cluster) hostQuiet(h *Host) bool {
	for _, m := range h.orch.Members() {
		switch m.State() {
		case fleet.StateQueued, fleet.StateStarting, fleet.StateRunning,
			fleet.StateRestarting, fleet.StateStopping:
			return false
		}
	}
	return h.orch.ReservedBytes() == 0
}

// nextDrainMember picks the next nym to move off a draining host: any
// Running member not already mid-migration.
func (c *Cluster) nextDrainMember(h *Host) *fleet.Member {
	for _, m := range h.orch.Members() {
		if m.State() == fleet.StateRunning && m.Nym() != nil && !c.migrating[m.Name()] {
			return m
		}
	}
	return nil
}

// drainDestination returns the least-reserved placeable host that can
// admit the member's footprint, or nil — destinationUnder with no
// share ceiling: a drain takes any host with room.
func (c *Cluster) drainDestination(src *Host, m *fleet.Member) *Host {
	return c.destinationUnder(src, m.Footprint(), 2)
}

// needsPreempt reports whether cluster-queue preemption has work: the
// queue head outranks enough running footprint on some host to cover
// its deficit.
func (c *Cluster) needsPreempt() bool {
	if c.cfg.PreemptDwell <= 0 || len(c.pending) == 0 {
		return false
	}
	return c.preemptHostFor(c.pending[0]) != nil
}

// preemptHostFor picks the cheapest host that could admit the queued
// launch after preempting strictly-lower classes: among hosts whose
// headroom plus preemptible footprint covers the launch, the one with
// the most headroom already free (fewest victims die).
func (c *Cluster) preemptHostFor(pl pendingLaunch) *Host {
	fp := pl.spec.Opts.Footprint()
	var best *Host
	var bestHeadroom int64
	for _, h := range c.hosts {
		if !h.placeable() || fp > h.orch.RAMBudgetBytes() {
			continue
		}
		headroom := h.orch.HeadroomBytes()
		if headroom+h.orch.PreemptibleBytes(pl.pri) < fp {
			continue
		}
		if best == nil || headroom > bestHeadroom {
			best, bestHeadroom = h, headroom
		}
	}
	return best
}

// schedulePreempt arms one cluster-preemption decision PreemptDwell past the
// moment the queue appeared, sharing the pressure clock with the grow
// path: provisioning relieves sustained pressure with new capacity,
// preemption relieves it *now* by sacrificing lower classes — both may
// be armed, and whichever fires first helps.
func (c *Cluster) schedulePreempt() {
	if c.preemptArmed || c.preempting || !c.needsPreempt() {
		return
	}
	c.preemptArmed = true
	wait := c.queueSince + c.cfg.PreemptDwell - c.eng.Now()
	c.eng.Schedule(wait, func() {
		c.preemptArmed = false
		if c.preempting || !c.needsPreempt() || c.queueSince < 0 {
			c.notify() // AwaitSettled watches preemptArmed; wake it
			return
		}
		if c.eng.Now()-c.queueSince < c.cfg.PreemptDwell {
			c.schedulePreempt() // pressure blipped; re-dwell
			return
		}
		c.preempting = true
		c.eng.Go("cluster/preempt", func(p *sim.Proc) {
			c.preemptPass(p)
			c.preempting = false
			c.onChange()
		})
	})
}

// preemptPass frees room for queued launches head-first until no head
// can be helped, one victim at a time: each kill releases capacity
// that the cluster dispatcher may place the head on immediately (the
// host watcher fires mid-pass), so the demand is re-read from the
// queue between kills rather than trusted across them — a pass never
// sacrifices a nym the head no longer needs.
func (c *Cluster) preemptPass(p *sim.Proc) {
	for len(c.pending) > 0 {
		head := c.pending[0]
		h := c.preemptHostFor(head)
		if h == nil {
			return
		}
		if h.orch.PreemptOne(p, head.pri, c.cfg.VaultPassword, c.memberDest) == 0 {
			return
		}
		c.dispatch()
	}
}
