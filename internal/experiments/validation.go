package experiments

import (
	"fmt"
	"strings"
	"time"

	"nymix/internal/core"
	"nymix/internal/sim"
)

// ProbeResult is one cell of the section 5.1 isolation matrix.
type ProbeResult struct {
	Src, Dst string
	Reached  bool
	Expected bool
}

// OK reports whether the probe behaved as the architecture requires.
func (p ProbeResult) OK() bool { return p.Reached == p.Expected }

// ValidationReport reproduces the section 5.1 validation: the
// idle-traffic capture on the host uplink and the cross-VM
// communication matrix.
type ValidationReport struct {
	UplinkProtos []string // protocols observed on the uplink
	LeakedVMIDs  []string // VM names visible on the uplink (must be empty)
	Matrix       []ProbeResult
}

// Passed reports overall success.
func (r *ValidationReport) Passed() bool {
	for _, p := range r.UplinkProtos {
		if p != "dhcp" && p != "tor" {
			return false
		}
	}
	if len(r.LeakedVMIDs) != 0 {
		return false
	}
	for _, p := range r.Matrix {
		if !p.OK() {
			return false
		}
	}
	return true
}

// Validation runs the leak checks: two simultaneous nyms, a DHCP
// beacon, browsing traffic, a Wireshark-style capture on the uplink,
// and the full probe matrix.
func Validation(seed uint64) (*ValidationReport, error) {
	eng, _, mgr, err := newRig(seed + 500)
	if err != nil {
		return nil, err
	}
	cap := mgr.Host().Uplink().Tap()
	var nyms []*core.Nym
	err = eng.RunProc("validation", func(p *sim.Proc) error {
		for i := 0; i < 2; i++ {
			nym, err := mgr.StartNym(p, fmt.Sprintf("val-%d", i), core.Options{})
			if err != nil {
				return err
			}
			nyms = append(nyms, nym)
		}
		// Idle period with periodic DHCP renewals, then one page load.
		for i := 0; i < 3; i++ {
			mgr.Host().EmitDHCP()
			p.Sleep(30 * time.Second)
		}
		_, err := nyms[0].Visit(p, "twitter.com")
		return err
	})
	if err != nil {
		return nil, err
	}
	report := &ValidationReport{UplinkProtos: cap.Protos()}
	for _, e := range cap.Entries {
		if strings.HasPrefix(e.ObservedSrc, "nym") {
			report.LeakedVMIDs = append(report.LeakedVMIDs, e.ObservedSrc)
		}
	}
	a0, c0 := nyms[0].AnonVM().Name(), nyms[0].CommVM().Name()
	a1, c1 := nyms[1].AnonVM().Name(), nyms[1].CommVM().Name()
	net := mgr.World().Net()
	probes := []struct {
		src, dst string
		expected bool
	}{
		{a0, c0, true},  // own CommVM over the virtual wire
		{a0, a1, false}, // other AnonVM
		{a0, c1, false}, // other CommVM
		{a0, "host", false},
		{a0, "site:twitter.com", false},
		{a0, "intranet-fileserver", false},
		{c0, c1, false},
		{c0, a1, false},
		{c0, "intranet-fileserver", false},
		{c0, "site:twitter.com", true}, // Internet via NAT
	}
	for _, pr := range probes {
		report.Matrix = append(report.Matrix, ProbeResult{
			Src: pr.src, Dst: pr.dst,
			Reached:  net.CanReach(pr.src, pr.dst, "tcp"),
			Expected: pr.expected,
		})
	}
	return report, nil
}

// RenderValidation prints the report.
func RenderValidation(r *ValidationReport) string {
	var t table
	t.row("# Section 5.1 validation")
	t.row(fmt.Sprintf("uplink protocols: %v (want only dhcp + anonymizer)", r.UplinkProtos))
	t.row(fmt.Sprintf("VM identities leaked on uplink: %d", len(r.LeakedVMIDs)))
	t.row("src", "dst", "reached", "expected", "ok")
	for _, p := range r.Matrix {
		t.row(p.Src, p.Dst, fmt.Sprint(p.Reached), fmt.Sprint(p.Expected), fmt.Sprint(p.OK()))
	}
	t.row(fmt.Sprintf("PASSED: %v", r.Passed()))
	return t.String()
}
