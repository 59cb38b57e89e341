package fleet

import (
	"fmt"
	"sort"

	"nymix/internal/core"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
)

// PreemptStats counts completed preemptions.
type PreemptStats struct {
	// Terminated is ephemeral members killed outright.
	Terminated int
	// Evicted is persistent members vaulted and then stopped.
	Evicted int
}

// Total returns all preemptions.
func (s PreemptStats) Total() int { return s.Terminated + s.Evicted }

// Preemptions returns the orchestrator's preemption counters.
func (o *Orchestrator) Preemptions() PreemptStats { return o.preempted }

// durableModel reports whether a nym's state must survive its nymbox:
// persistent and pre-configured nyms carry durable identity, so
// preemption may only evict them through the vault; ephemeral state is
// disposable by design.
func durableModel(model core.UsageModel) bool {
	return model != core.ModelEphemeral
}

// victims returns the Running members a demand of class pri may
// sacrifice, cheapest first: lowest priority, then coldest (longest
// time since last transition to Running — the member least likely to
// be mid-interaction, the same heuristic the cluster rebalancer uses).
func (o *Orchestrator) victims(pri Priority) []*Member {
	var out []*Member
	for _, name := range o.order {
		m := o.members[name]
		if m.state != StateRunning || m.nym == nil || m.pri >= pri {
			continue
		}
		if m.saving != nil {
			// A sweep or migration checkpoint holds the member; evicting
			// it now would double-save the nym mid-flight. The save's
			// completion notifies, and the cluster's host watcher
			// re-evaluates its preemption pass.
			continue
		}
		out = append(out, m)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].pri != out[j].pri {
			return out[i].pri < out[j].pri
		}
		return out[i].runningAt < out[j].runningAt
	})
	return out
}

// PreemptibleBytes returns how much running footprint members
// strictly below the given class could free, durable ones included. A
// cluster placement layer reads it to decide which host a queued
// high-priority launch should preempt on.
func (o *Orchestrator) PreemptibleBytes(pri Priority) int64 {
	var sum int64
	for _, m := range o.victims(pri) {
		sum += m.footprint
	}
	return sum
}

// PreemptOne sacrifices the single cheapest member strictly below the
// given class (ephemeral before persistent, coldest first) and returns
// its freed footprint, or 0 when no member is preemptible. Callers
// that need more than one victim's worth of capacity re-evaluate their
// demand between kills — a single-victim primitive cannot overkill
// when the demand is admitted concurrently (the host's own admission
// queue and a cluster dispatcher both place launches the moment a
// reservation is released, mid-pass). Ephemeral victims are terminated
// outright (their state is disposable by design); durable victims
// (persistent, pre-configured) are first checkpointed under password
// to destFor's vault destination and then evicted, so their durable
// identity survives in the cloud and a later launch can restore it.
func (o *Orchestrator) PreemptOne(p *sim.Proc, pri Priority, password string, destFor func(*Member) core.VaultDest) int64 {
	o.opStarted()
	defer o.opDone()
	for {
		vs := o.victims(pri)
		if len(vs) == 0 {
			return 0
		}
		if err := o.preemptMember(p, vs[0], password, destFor); err == nil {
			return vs[0].footprint
		}
		// The victim changed state under us (crashed, stopped); the
		// next plan excludes it.
	}
}

// preemptMember sacrifices one Running member: durable nyms
// (persistent, pre-configured) are vault-checkpointed first (the
// eviction half of scale-down — durable identity survives in the
// cloud), then the nymbox is terminated and the reservation released.
// The member lands in StatePreempted, a terminal state: preemption
// must not fight the restart policy over the capacity it just freed.
// A non-nil return means the member was NOT preempted (it changed
// state under us, or its eviction save failed); a partial teardown
// failure does not count — TerminateNym always retires the nym, so
// the preemption succeeded and the error is recorded on the member.
func (o *Orchestrator) preemptMember(p *sim.Proc, m *Member, password string, destFor func(*Member) core.VaultDest) error {
	if m.state != StateRunning || m.nym == nil {
		return fmt.Errorf("%w: %q is %v", ErrNotRunning, m.spec.Name, m.state)
	}
	if m.saving != nil {
		return nymerr.Newf(CodeEvictBusy, "fleet: evict %q: checkpoint in flight", m.spec.Name)
	}
	durable := durableModel(m.nym.Model())
	if durable {
		dest := destFor(m)
		claim := &saveClaim{}
		m.saving = claim
		_, err := o.mgr.StoreNymVault(p, m.nym, password, dest)
		o.releaseClaim(m, claim)
		if err != nil {
			// An unsaveable member is not evictable; leave it running.
			werr := fmt.Errorf("fleet: evict %q: %w", m.spec.Name, err)
			o.recordFailure(m.spec.Name, "evict", werr)
			return werr
		}
		m.checkpoint = &Checkpoint{Password: password, Dest: dest}
	}
	// The checkpoint above yields; the member may have crashed or been
	// stopped meanwhile.
	if m.state != StateRunning || m.nym == nil {
		return fmt.Errorf("%w: %q is %v", ErrNotRunning, m.spec.Name, m.state)
	}
	nym := m.nym
	m.nym = nil
	o.setState(m, StateStopping)
	m.lastErr = o.mgr.TerminateNym(p, nym) // best effort; the nym is retired regardless
	o.recordFailure(m.spec.Name, "evict", m.lastErr)
	o.releaseAdmission(m)
	o.setState(m, StatePreempted)
	if durable {
		o.preempted.Evicted++
	} else {
		o.preempted.Terminated++
	}
	return nil
}
