package core

import (
	"nymix/internal/anonnet"
	"nymix/internal/sim"
	"nymix/internal/vault"
)

// Footprint returns the host RAM a nymbox with these options will
// reserve, after defaults are applied. Every byte of a nymbox lives in
// host RAM — "the host allocates disk and RAM from its own stash of
// RAM" (section 5.2) — so the requested footprint is both VMs' RAM
// plus both writable disks. Fleet admission control (internal/fleet)
// reserves against this figure; KSM later recovers the mergeable
// share, so actual physical use is lower.
func (o Options) Footprint() int64 {
	o.fillDefaults()
	return o.AnonRAM + o.AnonDisk + o.CommRAM + o.CommDisk
}

// WireFootprint returns the idle uplink rate in bytes per second a
// nymbox with these options holds on the host's wire even when no
// request is in flight — the mixnet's constant-rate cover traffic.
// Zero for demand-driven transports. The fleet reports it as the
// member's share of the standing cover-traffic rate; admission is by
// Footprint alone.
func (o Options) WireFootprint() float64 {
	o.fillDefaults()
	kinds := o.Chain
	if len(kinds) == 0 {
		kinds = []string{o.Anonymizer}
	}
	var sum float64
	for _, kind := range kinds {
		sum += anonnet.IdleWireRate(kind)
	}
	return sum
}

// TerminateNymAsync tears a nymbox down on its own simulated process.
// The secure memory wipe charges time proportional to the resident
// set, so parallel teardown of a large fleet overlaps the wipes.
func (m *Manager) TerminateNymAsync(n *Nym) *sim.Future[struct{}] {
	fut := sim.NewFuture[struct{}](m.eng)
	m.eng.Go("terminate/"+n.name, func(bp *sim.Proc) {
		fut.Complete(struct{}{}, m.TerminateNym(bp, n))
	})
	return fut
}

// StoreNymVaultAsync checkpoints a nym through the vault on its own
// simulated process, returning a future for the save stats. The fleet
// save sweep uses this to overlap a bounded number of staggered saves.
func (m *Manager) StoreNymVaultAsync(n *Nym, password string, dest VaultDest) *sim.Future[SaveResult] {
	fut := sim.NewFuture[SaveResult](m.eng)
	m.eng.Go("save/"+n.name, func(bp *sim.Proc) {
		stats, err := m.StoreNymVault(bp, n, password, dest)
		fut.Complete(SaveResult{Nym: n.Name(), Stats: stats}, err)
	})
	return fut
}

// SaveResult pairs a vault save's stats with the nym it belongs to,
// for fan-out callers awaiting many saves.
type SaveResult struct {
	Nym   string
	Stats vault.SaveStats
}
