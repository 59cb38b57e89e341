package experiments

import (
	"fmt"
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/sim"
	"nymix/internal/tracker"
	"nymix/internal/webworld"
)

// The anonymity-vs-cost frontier: every transport backend run over the
// identical seeded browsing workload (two pseudonyms, the same site
// list, the same rig seed), measured on four axes — fetch latency,
// wire overhead, what an idle hour costs on the uplink, and how much
// of the pseudonym population a log-aggregating tracker can link. The
// mixnet buys the strongest position on the linkability axis with
// constant-rate cover traffic, and the other three axes show exactly
// what that costs.

// frontierBackends are the transports compared, cheapest wire first.
var frontierBackends = []string{"incognito", "tor", "dissent", "sweet", "mixnet"}

// frontierSites is the per-pseudonym visit list. Both pseudonyms walk
// it in order, so every backend sees the same payload demand.
var frontierSites = []string{"bbc.co.uk", "slashdot.org", "espn.com"}

// frontierThinkTime separates consecutive visits: a user reads the
// page before clicking on. Demand-driven transports go quiet between
// fetches; the mixnet keeps paying its cover rate, which is exactly
// the wire-overhead difference the frontier is after.
const frontierThinkTime = 30 * time.Second

// MixnetFrontierRow is one backend's position on the frontier.
type MixnetFrontierRow struct {
	Backend         string  `json:"backend"`
	FetchP50Seconds float64 `json:"fetch_p50_seconds"`
	FetchP95Seconds float64 `json:"fetch_p95_seconds"`
	// WireOverheadRatio is uplink wire bytes moved during the active
	// browsing window divided by the payload bytes the browsers saw.
	// For the mixnet this includes the cover frames sent between
	// fetches — overhead a wire observer genuinely pays for.
	WireOverheadRatio float64 `json:"wire_overhead_ratio"`
	// IdleHourUplinkMB is the uplink tap delta over one simulated hour
	// with both nyms up and no browsing: the standing cover-traffic
	// bill, ~0 for demand-driven transports.
	IdleHourUplinkMB float64 `json:"idle_hour_uplink_mb"`
	// LinkedIdentities is the tracker's largest cluster over both
	// pseudonyms' visits (1 = fully unlinkable).
	LinkedIdentities int `json:"linked_identities"`
	// CoverMB is the cover traffic the transports self-reported
	// (mixnet only; 0 elsewhere).
	CoverMB float64 `json:"cover_mb"`
	// TapMatch is the double-entry check: the uplink NIC tap agrees
	// with the link's flow-detach ledger.
	TapMatch bool `json:"tap_match"`
}

// MixnetFrontierResult is the whole comparison.
type MixnetFrontierResult struct {
	Seed   uint64              `json:"seed"`
	Visits int                 `json:"visits_per_backend"`
	Rows   []MixnetFrontierRow `json:"rows"`
}

// MixnetFrontier runs the frontier experiment.
func MixnetFrontier(seed uint64) (*MixnetFrontierResult, error) {
	res := &MixnetFrontierResult{Seed: seed, Visits: 2 * len(frontierSites)}
	for _, backend := range frontierBackends {
		row, err := frontierRun(seed, backend)
		if err != nil {
			return nil, fmt.Errorf("frontier %s: %w", backend, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// frontierRun measures one backend on a fresh rig with the shared
// seed, so every backend faces the same world and the same workload.
func frontierRun(seed uint64, backend string) (*MixnetFrontierRow, error) {
	eng, world, mgr, err := newRig(seed + 900)
	if err != nil {
		return nil, err
	}
	row := &MixnetFrontierRow{Backend: backend}

	uplink := mgr.Host().Uplink()
	tap := uplink.NICFor(mgr.Host().Node()).WireTap()

	var lats []time.Duration
	var payload int64
	if err := eng.RunProc("frontier-"+backend, func(p *sim.Proc) error {
		alice, err := mgr.StartNym(p, "alice", core.Options{Anonymizer: backend})
		if err != nil {
			return err
		}
		bob, err := mgr.StartNym(p, "bob", core.Options{Anonymizer: backend})
		if err != nil {
			return err
		}

		// Active window: both pseudonyms walk the site list in order,
		// pausing to read between visits.
		activeStart := tap.Bytes()
		for i, site := range frontierSites {
			if i > 0 {
				p.Sleep(frontierThinkTime)
			}
			for _, nym := range []*core.Nym{alice, bob} {
				r, err := nym.Visit(p, site)
				if err != nil {
					return fmt.Errorf("visit %s: %w", site, err)
				}
				lats = append(lats, r.Elapsed)
				payload += r.Bytes
			}
		}
		active := tap.Bytes() - activeStart
		if payload > 0 {
			row.WireOverheadRatio = float64(active) / float64(payload)
		}

		// Idle hour: nothing browses, the wire keeps whatever standing
		// rate the transport imposes.
		idleStart := tap.Bytes()
		p.Sleep(time.Hour)
		row.IdleHourUplinkMB = float64(tap.Bytes()-idleStart) / (1 << 20)

		for _, nym := range []*core.Nym{alice, bob} {
			if cov, ok := nym.Anonymizer().(interface{ CoverWireBytes() int64 }); ok {
				row.CoverMB += float64(cov.CoverWireBytes()) / (1 << 20)
			}
			if err := mgr.TerminateNym(p, nym); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	fetch := fleet.SpreadOf(lats)
	row.FetchP50Seconds = fetch.P50.Seconds()
	row.FetchP95Seconds = fetch.P95.Seconds()
	clusters := tracker.Link(frontierAdversary(world), append(world.AllVisits(), world.TrackerLog()...))
	row.LinkedIdentities = tracker.LargestCluster(clusters)
	row.TapMatch = diff64(uplink.WireBytesTotal(), uplink.LedgerBytesTotal()) <= 1
	return row, nil
}

// frontierAdversary marks every piece of shared anonymizer
// infrastructure — Tor relays, Dissent servers, the mix cascade, the
// SWEET mail path — as addresses that never link. What remains
// identifying is exactly what each backend actually exposes: the
// incognito proxy exits from the user's own host address.
func frontierAdversary(world *webworld.World) tracker.Config {
	cfg := tracker.DefaultConfig()
	for _, r := range world.Relays() {
		cfg.SharedAddrs[r.NodeName] = true
	}
	for _, s := range world.DissentServers() {
		cfg.SharedAddrs[s] = true
	}
	for _, m := range world.MixCascade() {
		cfg.SharedAddrs[m] = true
	}
	cfg.SharedAddrs[world.MailGateway().Name()] = true
	cfg.SharedAddrs[world.SweetProxy().Name()] = true
	return cfg
}

// RenderMixnetFrontier prints the frontier table.
func RenderMixnetFrontier(r *MixnetFrontierResult) string {
	var t table
	t.row("# Anonymity-vs-cost frontier: one workload, five transports")
	t.row("backend", "fetch_p50_s", "fetch_p95_s", "wire_overhead", "idle_hr_mb", "linked", "cover_mb")
	for _, row := range r.Rows {
		t.row(row.Backend, f1(row.FetchP50Seconds), f1(row.FetchP95Seconds),
			fmt.Sprintf("%.2fx", row.WireOverheadRatio), f1(row.IdleHourUplinkMB),
			fmt.Sprint(row.LinkedIdentities), f1(row.CoverMB))
	}
	return t.String()
}
