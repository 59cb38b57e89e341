package experiments

import (
	"fmt"
	"sort"

	"nymix/internal/core"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vnet"
)

// The censorship rerun, measured: instead of asserting a forwarding
// policy (the original examples/censorship demo), the state ISP now
// runs a DPIEngine on the host uplink. The experiment measures what
// the censor actually did — flows dropped and throttled per wire
// protocol, bytes affected — and what each escape hatch cost: a
// bridged (StegoTorus-style, wire shows HTTPS) nym under drop-only
// and under drop+throttle rules, and SWEET over SMTP when everything
// but mail is squeezed. Ground truth again comes from the fabric: the
// uplink WireTap must agree with the link's flow-detach ledger.

// censorThrottleRate is the censor's HTTPS rate cap in bytes/s (2
// Mbit/s) once it escalates from dropping Tor to also squeezing
// encrypted web traffic.
const censorThrottleRate = 256e3

// CensorDPIResult is the measured censorship rerun.
type CensorDPIResult struct {
	Seed uint64 `json:"seed"`

	// Phase 0: no censor yet — the baseline bridged fetch.
	BaselineFetchSeconds float64 `json:"baseline_fetch_seconds"`

	// Phase 1: DPI drops "tor". Plain Tor cannot bootstrap; the
	// bridged nym (wire shows "https") is untouched.
	PlainTorBlocked     bool    `json:"plain_tor_blocked"`
	PlainTorCode        string  `json:"plain_tor_code"`
	PlainTorCensored    bool    `json:"plain_tor_censored"` // chain carries vnet.censored
	BridgedFetchSeconds float64 `json:"bridged_fetch_seconds"`

	// Phase 2: the censor escalates — drop "tor", throttle "https".
	// The bridge still works, measurably slower.
	ThrottledFetchSeconds float64 `json:"throttled_fetch_seconds"`

	// Phase 3: SWEET over SMTP rides below both rules.
	SweetFetchSeconds float64 `json:"sweet_fetch_seconds"`

	// Measured censor activity (DPIEngine counters).
	DroppedFlows     int      `json:"dropped_flows"`
	DroppedMB        float64  `json:"dropped_mb"`
	ThrottledFlows   int      `json:"throttled_flows"`
	ThrottledMB      float64  `json:"throttled_mb"`
	RuledProtos      []string `json:"ruled_protos"`
	CaptureProtos    []string `json:"capture_protos"` // what the censor's capture saw on the wire
	CaptureSawTor    bool     `json:"capture_saw_tor"`
	BridgedExitIsTor bool     `json:"bridged_exit_is_tor"`

	// Uplink double-entry check.
	TapMB    float64 `json:"tap_mb"`
	LedgerMB float64 `json:"ledger_mb"`
	TapMatch bool    `json:"tap_match"`
}

// CensorshipDPI runs the measured censorship scenario.
func CensorshipDPI(seed uint64) (*CensorDPIResult, error) {
	eng, _, mgr, err := newRig(seed + 800)
	if err != nil {
		return nil, err
	}
	res := &CensorDPIResult{Seed: seed}

	uplink := mgr.Host().Uplink()
	tap := uplink.NICFor(mgr.Host().Node()).WireTap()
	cap := uplink.Tap()
	net := mgr.Host().Net()

	// Two censor postures over the run: drop-only, then an escalated
	// engine that also throttles. Counters are summed over both.
	dropDPI := vnet.NewDPI(vnet.DropProto("tor"))
	escalatedDPI := vnet.NewDPI(vnet.FirstMatch(
		vnet.DropProto("tor"),
		vnet.ThrottleProto(censorThrottleRate, "https"),
	))

	if err := eng.RunProc("censorship-dpi", func(p *sim.Proc) error {
		// Phase 0: baseline, censor not yet deployed.
		base, err := mgr.StartNym(p, "baseline", core.Options{Anonymizer: "tor-bridge"})
		if err != nil {
			return fmt.Errorf("baseline nym: %w", err)
		}
		r0, err := base.Visit(p, "twitter.com")
		if err != nil {
			return fmt.Errorf("baseline visit: %w", err)
		}
		res.BaselineFetchSeconds = r0.Elapsed.Seconds()
		if err := mgr.TerminateNym(p, base); err != nil {
			return err
		}

		// Phase 1: the ISP deploys DPI at the uplink, dropping Tor.
		uplink.SetDPI(net, dropDPI)
		if _, err := mgr.StartNym(p, "plain-tor", core.Options{Anonymizer: "tor"}); err != nil {
			res.PlainTorBlocked = true
			res.PlainTorCode = string(nymerr.Classify(err))
			res.PlainTorCensored = nymerr.HasCode(err, vnet.CodeCensored)
		} else {
			return fmt.Errorf("plain tor bootstrapped through the censor")
		}

		bridged, err := mgr.StartNym(p, "bridged", core.Options{Anonymizer: "tor-bridge"})
		if err != nil {
			return fmt.Errorf("bridged nym: %w", err)
		}
		r1, err := bridged.Visit(p, "twitter.com")
		if err != nil {
			return fmt.Errorf("bridged visit: %w", err)
		}
		res.BridgedFetchSeconds = r1.Elapsed.Seconds()
		res.BridgedExitIsTor = bridged.Anonymizer().ExitIdentity() != ""
		if err := mgr.TerminateNym(p, bridged); err != nil {
			return err
		}

		// Phase 2: the censor escalates to throttling encrypted web.
		uplink.SetDPI(net, escalatedDPI)
		throttled, err := mgr.StartNym(p, "bridged-throttled", core.Options{Anonymizer: "tor-bridge"})
		if err != nil {
			return fmt.Errorf("throttled nym: %w", err)
		}
		r2, err := throttled.Visit(p, "twitter.com")
		if err != nil {
			return fmt.Errorf("throttled visit: %w", err)
		}
		res.ThrottledFetchSeconds = r2.Elapsed.Seconds()
		if err := mgr.TerminateNym(p, throttled); err != nil {
			return err
		}

		// Phase 3: web over email rides below both rules.
		sweet, err := mgr.StartNym(p, "mail-tunnel", core.Options{Anonymizer: "sweet"})
		if err != nil {
			return fmt.Errorf("sweet nym: %w", err)
		}
		r3, err := sweet.Visit(p, "bbc.co.uk")
		if err != nil {
			return fmt.Errorf("sweet visit: %w", err)
		}
		res.SweetFetchSeconds = r3.Elapsed.Seconds()
		return mgr.TerminateNym(p, sweet)
	}); err != nil {
		return nil, err
	}

	const mb = float64(1 << 20)
	ruled := map[string]bool{}
	for _, e := range []*vnet.DPIEngine{dropDPI, escalatedDPI} {
		res.DroppedFlows += e.Dropped()
		res.ThrottledFlows += e.Throttled()
		for _, proto := range e.Protos() {
			s := e.Stat(proto)
			res.DroppedMB += float64(s.DroppedBytes) / mb
			res.ThrottledMB += float64(s.ThrottledBytes) / mb
			ruled[proto] = true
		}
	}
	for proto := range ruled {
		res.RuledProtos = append(res.RuledProtos, proto)
	}
	sort.Strings(res.RuledProtos)
	res.CaptureProtos = cap.Protos()
	for _, proto := range res.CaptureProtos {
		if proto == "tor" {
			res.CaptureSawTor = true
		}
	}
	tapB := tap.Bytes()
	ledgerB := uplink.LedgerBytesTotal()
	res.TapMB = float64(tapB) / mb
	res.LedgerMB = float64(ledgerB) / mb
	res.TapMatch = diff64(tapB, ledgerB) <= 1 && diff64(tapB, uplink.WireBytesTotal()) <= 1
	return res, nil
}

// RenderCensorshipDPI prints the measured censorship rerun.
func RenderCensorshipDPI(r *CensorDPIResult) string {
	var t table
	t.row("# Censorship, measured: DPI engine on the host uplink")
	t.row(fmt.Sprintf("baseline bridged fetch (no censor):     %5.1f s", r.BaselineFetchSeconds))
	t.row(fmt.Sprintf("plain tor under drop rule:              blocked=%v code=%s (vnet.censored in chain=%v)",
		r.PlainTorBlocked, r.PlainTorCode, r.PlainTorCensored))
	t.row(fmt.Sprintf("bridged fetch under drop rule:          %5.1f s (wire shows https)", r.BridgedFetchSeconds))
	t.row(fmt.Sprintf("bridged fetch under drop+throttle:      %5.1f s (https capped at %.0f KB/s)",
		r.ThrottledFetchSeconds, censorThrottleRate/1e3))
	t.row(fmt.Sprintf("sweet fetch over smtp:                  %5.1f s (slow, but uncensorable)", r.SweetFetchSeconds))
	t.row(fmt.Sprintf("censor counters: dropped %d flows (%.2f MB), throttled %d flows (%.1f MB), ruled protos %v",
		r.DroppedFlows, r.DroppedMB, r.ThrottledFlows, r.ThrottledMB, r.RuledProtos))
	t.row(fmt.Sprintf("censor capture protos %v (saw tor=%v); bridged exit is a tor relay=%v",
		r.CaptureProtos, r.CaptureSawTor, r.BridgedExitIsTor))
	t.row(fmt.Sprintf("uplink tap %.1f MB vs ledger %.1f MB, match=%v", r.TapMB, r.LedgerMB, r.TapMatch))
	return t.String()
}
