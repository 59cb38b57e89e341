package cluster

import (
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/sim"
)

// The rebalancer's fixed tuning — the values every caller runs.
const (
	// rebalanceInterval spaces rebalance passes.
	rebalanceInterval = 30 * time.Second
	// hotShare marks a host hot when its reserved share of budget
	// exceeds it.
	hotShare = 0.85
	// coldShare is the ceiling a destination must sit under to receive
	// a migrated nym: migrating onto a warm host would just move the
	// hot spot.
	coldShare = 0.6
	// maxMovesPerPass bounds migrations per pass (and per idle sweep
	// slot), so a pass is a nudge, not a stampede of simultaneous
	// vault restores.
	maxMovesPerPass = 8
)

// plannedMove is one approved rebalance move awaiting an idle sweep
// slot. The destination is re-validated at execution time — slots may
// run long after planning, and the pool may have shifted under it.
type plannedMove struct {
	name string
	dst  string
}

// planMove computes the next rebalance move — the hottest host that
// actually has a migratable member AND a cold destination able to
// admit it — or nils when no move is possible. Arming (rebalanceNeeded)
// and execution (rebalancePass) share this one planner, so the timer
// can never re-arm for a pass that would make zero moves: a hot host
// full of ephemeral nyms, or a cold host without admission room, does
// not count as work. skip holds member names this pass already tried
// (or queued): without it a victim whose migration failed would be
// re-picked by every remaining move budget in the same pass.
func (c *Cluster) planMove(skip map[string]bool) (*fleet.Member, *Host) {
	if !c.cfg.Rebalance {
		return nil, nil
	}
	var bestM *fleet.Member
	var bestDst *Host
	var bestShare float64
	for _, h := range c.hosts {
		// Cordoned and draining hosts belong to the autoscaler's drain
		// path; the rebalancer must not fight it over their members.
		if !h.placeable() {
			continue
		}
		share := h.ReservedShare()
		if share <= hotShare || share <= bestShare {
			continue
		}
		m := c.pickVictim(h, skip)
		if m == nil {
			continue
		}
		dst := c.coldDestination(h, m)
		if dst == nil {
			continue
		}
		bestM, bestDst, bestShare = m, dst, share
	}
	return bestM, bestDst
}

// rebalanceNeeded reports whether a pass could do useful work. Moves
// already queued for idle slots don't count: re-planning them every
// rebalanceInterval would queue the same member twice.
func (c *Cluster) rebalanceNeeded() bool {
	m, _ := c.planMove(c.moveQueued)
	return m != nil
}

// maybeScheduleRebalance arms one pass rebalanceInterval out, the same
// state-driven idiom as the fleet's KSM daemon: the timer exists only
// while a pass could help, so a balanced (or idle) cluster leaves the
// event queue empty and the engine drainable.
func (c *Cluster) maybeScheduleRebalance() {
	if c.rebalScheduled || c.rebalancing || !c.rebalanceNeeded() {
		return
	}
	c.rebalScheduled = true
	c.eng.Schedule(rebalanceInterval, func() {
		c.rebalScheduled = false
		if c.rebalancing || !c.rebalanceNeeded() {
			c.notify() // AwaitSettled watches rebalScheduled; wake it
			return
		}
		c.rebalancing = true
		c.eng.Go("cluster/rebalance", func(p *sim.Proc) {
			c.rebalancePass(p)
			c.rebalancing = false
			c.onChange() // re-arm if still hot, wake waiters
		})
	})
}

// rebalancePass plans up to maxMovesPerPass moves off the hottest
// hosts toward the least-loaded cold hosts. While an adaptive sweep
// coordinator runs, approved moves queue for its idle slots, so the
// migration wire rides provider windows the cadence already paid for;
// otherwise each executes here. Migration failures are absorbed: a
// failed destination restore re-queues the nym cluster-wide from its
// vault checkpoint (see MigrateNym), a failed source save leaves the
// nym where it was — and the victim is skipped for the rest of this
// pass, so the budget explores other members instead of burning every
// remaining move on the same failure.
func (c *Cluster) rebalancePass(p *sim.Proc) {
	attempted := make(map[string]bool, len(c.moveQueued))
	for name := range c.moveQueued {
		attempted[name] = true
	}
	batch := adaptive(c.sweepCfg)
	for moves := 0; moves < maxMovesPerPass; moves++ {
		victim, dst := c.planMove(attempted)
		if victim == nil {
			return
		}
		attempted[victim.Name()] = true
		c.movesPlanned++
		if batch {
			c.pendingMoves = append(c.pendingMoves, plannedMove{name: victim.Name(), dst: dst.name})
			c.moveQueued[victim.Name()] = true
			continue
		}
		c.MigrateNym(p, victim.Name(), dst.name)
	}
}

// adaptive reports whether a sweep coordinator config (nil while none
// is installed) runs the adaptive cadence. It is the one switch for
// the idle-slot economy: idle slots prune vault chunks, and the
// rebalancer prices its victims and defers its moves into those slots
// — the cadence that economizes checkpoint wire economizes migration
// wire too.
func adaptive(cfg *SweepConfig) bool {
	return cfg != nil && cfg.Cadence.Mode == fleet.CadenceAdaptive
}

// pickVictim selects the host's next move candidate: the cheapest
// priced move while adaptive sweeps run, the longest-running
// persistent member otherwise. Members already mid-migration or in
// skip are excluded.
func (c *Cluster) pickVictim(h *Host, skip map[string]bool) *fleet.Member {
	if adaptive(c.sweepCfg) {
		return c.cheapestVictim(h, skip)
	}
	return c.coldestPersistent(h, skip)
}

// coldestPersistent returns the host's longest-running persistent
// member — the nym least likely to be mid-interaction, and the one
// whose vault checkpoint is most amortized — or nil.
func (c *Cluster) coldestPersistent(h *Host, skip map[string]bool) *fleet.Member {
	var coldest *fleet.Member
	for _, m := range h.orch.Members() {
		if !c.movable(m, skip) {
			continue
		}
		if coldest == nil || m.RunningAt() < coldest.RunningAt() {
			coldest = m
		}
	}
	return coldest
}

// cheapestVictim prices every movable member on the host by the wire
// its migration would actually ship — core.MigrationCost's vault-index
// restore bytes plus the unsaved dirty delta — per byte of host
// pressure relieved (the footprint), and returns the minimum. A cold
// index prices as a full-footprint restore rather than as free: a nym
// this manager has never saved is the most expensive possible move,
// not the best one.
func (c *Cluster) cheapestVictim(h *Host, skip map[string]bool) *fleet.Member {
	var best *fleet.Member
	var bestScore float64
	for _, m := range h.orch.Members() {
		if !c.movable(m, skip) {
			continue
		}
		fp := m.Footprint()
		if fp <= 0 {
			continue
		}
		cost := h.mgr.MigrationCost(m.Nym(), c.cfg.DestFor(m.Name()))
		wire := cost.Wire()
		if cost.RestoreBytes == 0 {
			wire += fp
		}
		score := float64(wire) / float64(fp)
		if best == nil || score < bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// movable reports whether the member is a legal rebalance victim.
func (c *Cluster) movable(m *fleet.Member, skip map[string]bool) bool {
	if m.State() != fleet.StateRunning || m.Nym() == nil || m.Nym().Model() != core.ModelPersistent {
		return false
	}
	return !c.migrating[m.Name()] && !skip[m.Name()]
}

// coldDestination returns the least-loaded host under the cold
// watermark that can admit the member's footprint, or nil.
func (c *Cluster) coldDestination(src *Host, m *fleet.Member) *Host {
	return c.destinationUnder(src, m.Footprint(), coldShare)
}

// destinationUnder returns the least-loaded placeable host (excluding
// src) whose reserved share sits strictly under shareCeiling and that
// can admit the footprint, or nil. The rebalancer caps the ceiling at
// coldShare (migrating onto a warm host would just move the
// hot spot); a drain passes a ceiling above 1 — any host with room
// will do.
func (c *Cluster) destinationUnder(src *Host, footprint int64, shareCeiling float64) *Host {
	var best *Host
	var bestShare float64
	for _, h := range c.hosts {
		if h == src || !h.placeable() || !h.orch.CanAdmit(footprint) {
			continue
		}
		share := h.ReservedShare()
		if share >= shareCeiling {
			continue
		}
		if best == nil || share < bestShare {
			best, bestShare = h, share
		}
	}
	return best
}
