package experiments

import (
	"fmt"
	"time"

	"nymix/internal/core"
	"nymix/internal/sim"
)

// Figure7Row is one startup configuration's phase breakdown, averaged
// over five runs (the paper's methodology).
type Figure7Row struct {
	Config       string // "fresh", "pre-configured", "persisted"
	EphemeralNym time.Duration
	BootVM       time.Duration
	StartTor     time.Duration
	LoadPage     time.Duration
}

// Total sums the phases.
func (r Figure7Row) Total() time.Duration {
	return r.EphemeralNym + r.BootVM + r.StartTor + r.LoadPage
}

// Figure7 reproduces the startup experiment (section 5.4): visit
// Twitter from an ephemeral, a pre-configured, and a persistent nym,
// timing each startup phase over five runs.
func Figure7(seed uint64) ([]Figure7Row, error) {
	const runs = 5
	eng, _, mgr, err := newRig(seed + 300)
	if err != nil {
		return nil, err
	}
	dest := core.StoreDest{Provider: "dropbin", Account: "fig7", AccountPassword: "cpw"}

	average := func(phases []core.StartPhases, config string) Figure7Row {
		var row Figure7Row
		row.Config = config
		for _, ph := range phases {
			row.EphemeralNym += ph.EphemeralNym
			row.BootVM += ph.BootVM
			row.StartTor += ph.StartAnon
			row.LoadPage += ph.FirstPage
		}
		n := time.Duration(len(phases))
		row.EphemeralNym /= n
		row.BootVM /= n
		row.StartTor /= n
		row.LoadPage /= n
		return row
	}

	var rows []Figure7Row

	// Fresh: a brand-new ephemeral nym each run.
	var freshPhases []core.StartPhases
	if err := eng.RunProc("fig7-fresh", func(p *sim.Proc) error {
		for i := 0; i < runs; i++ {
			nym, err := mgr.StartNym(p, fmt.Sprintf("fresh-%d", i), core.Options{})
			if err != nil {
				return err
			}
			if _, err := nym.Visit(p, "twitter.com"); err != nil {
				return err
			}
			freshPhases = append(freshPhases, nym.Phases())
			if err := mgr.TerminateNym(p, nym); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rows = append(rows, average(freshPhases, "fresh"))

	// Prepare a quasi-persistent nym once: boot, sign in to Twitter,
	// snapshot to the cloud.
	if err := eng.RunProc("fig7-prep", func(p *sim.Proc) error {
		nym, err := mgr.StartNym(p, "quasi", core.Options{Model: core.ModelPreconfigured})
		if err != nil {
			return err
		}
		if _, err := nym.Browser().Login(p, "twitter.com", "fig7-user", "pw"); err != nil {
			return err
		}
		if _, err := mgr.StoreNym(p, nym, "pw", dest); err != nil {
			return err
		}
		return mgr.TerminateNym(p, nym)
	}); err != nil {
		return nil, err
	}

	// Pre-configured: load the golden snapshot each run, never save.
	var prePhases []core.StartPhases
	if err := eng.RunProc("fig7-pre", func(p *sim.Proc) error {
		for i := 0; i < runs; i++ {
			nym, err := mgr.LoadNym(p, "quasi", "pw", core.Options{Model: core.ModelPreconfigured}, dest)
			if err != nil {
				return err
			}
			if _, err := nym.Visit(p, "twitter.com"); err != nil {
				return err
			}
			prePhases = append(prePhases, nym.Phases())
			if err := mgr.TerminateNym(p, nym); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rows = append(rows, average(prePhases, "pre-configured"))

	// Persisted: load, browse, save back each run.
	var perPhases []core.StartPhases
	if err := eng.RunProc("fig7-per", func(p *sim.Proc) error {
		for i := 0; i < runs; i++ {
			nym, err := mgr.LoadNym(p, "quasi", "pw", core.Options{Model: core.ModelPersistent}, dest)
			if err != nil {
				return err
			}
			if _, err := nym.Visit(p, "twitter.com"); err != nil {
				return err
			}
			perPhases = append(perPhases, nym.Phases())
			if err := mgr.EndSession(p, nym, "pw", dest); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rows = append(rows, average(perPhases, "persisted"))
	return rows, nil
}

// RenderFigure7 prints the phase breakdown.
func RenderFigure7(rows []Figure7Row) string {
	var t table
	t.row("# Figure 7: average startup time by phase (seconds, 5 runs)")
	t.row("config", "boot_vm", "start_tor", "load_page", "ephemeral", "total")
	for _, r := range rows {
		t.row(r.Config, f1(r.BootVM.Seconds()), f1(r.StartTor.Seconds()),
			f1(r.LoadPage.Seconds()), f1(r.EphemeralNym.Seconds()), f1(r.Total().Seconds()))
	}
	return t.String()
}
