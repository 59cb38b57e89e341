package experiments

import (
	"fmt"

	"nymix/internal/core"
	"nymix/internal/guestos"
	"nymix/internal/sim"
	"nymix/internal/workload"
)

// Figure6Sites are the four sites of the storage experiment.
var Figure6Sites = []string{"gmail.com", "facebook.com", "twitter.com", "blog.torproject.org"}

// Figure6Series is one site's archive sizes across save/restore
// cycles.
type Figure6Series struct {
	Site      string
	SizesMB   []float64
	AnonShare float64 // fraction of the final archive from the AnonVM
}

// Figure6 reproduces the quasi-persistent storage experiment (section
// 5.3): four persistent nyms, each bound to one site, measured across
// ten save/restore cycles. Both VMs get 256 MB disks, per the paper.
func Figure6(seed uint64) ([]Figure6Series, error) {
	const cycles = 10
	opts := core.Options{
		Model:    core.ModelPersistent,
		AnonDisk: 256 * guestos.MiB,
		CommDisk: 256 * guestos.MiB,
	}
	var out []Figure6Series
	for si, site := range Figure6Sites {
		eng, world, mgr, err := newRig(seed + uint64(200+si))
		if err != nil {
			return nil, err
		}
		dest := core.StoreDest{Provider: "dropbin", Account: fmt.Sprintf("acct-%d", si), AccountPassword: "cpw"}
		series := Figure6Series{Site: site}
		name := "fig6-" + site
		prof := world.Site(site).Profile
		err = eng.RunProc("fig6", func(p *sim.Proc) error {
			// Cycle 1: fresh nym, visit, sign in where applicable,
			// remember the login, save to cloud.
			nym, err := mgr.StartNym(p, name, opts)
			if err != nil {
				return err
			}
			if err := workload.VisitAndMaybeLogin(p, nym.Browser(), prof.RequiresLogin, site, "persona-"+site); err != nil {
				return err
			}
			size, err := mgr.StoreNym(p, nym, "pw", dest)
			if err != nil {
				return err
			}
			series.SizesMB = append(series.SizesMB, float64(size)/float64(guestos.MiB))
			if err := mgr.TerminateNym(p, nym); err != nil {
				return err
			}
			// Cycles 2..10: restore, fetch updates, save back.
			for c := 1; c < cycles; c++ {
				nym, err := mgr.LoadNym(p, name, "pw", opts, dest)
				if err != nil {
					return fmt.Errorf("cycle %d load: %w", c, err)
				}
				if _, err := nym.Visit(p, site); err != nil {
					return fmt.Errorf("cycle %d visit: %w", c, err)
				}
				size, err := mgr.StoreNym(p, nym, "pw", dest)
				if err != nil {
					return fmt.Errorf("cycle %d store: %w", c, err)
				}
				series.SizesMB = append(series.SizesMB, float64(size)/float64(guestos.MiB))
				if c == cycles-1 {
					// Apportion the final archive between the two VMs.
					anon := nym.AnonVM().Disk().Used()
					comm := nym.CommVM().Disk().Used()
					if anon+comm > 0 {
						series.AnonShare = float64(anon) / float64(anon+comm)
					}
				}
				if err := mgr.TerminateNym(p, nym); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, series)
	}
	return out, nil
}

// RenderFigure6 prints the series.
func RenderFigure6(series []Figure6Series) string {
	var t table
	t.row("# Figure 6: encrypted quasi-persistent nym size (MB) across save/restore cycles")
	header := []string{"cycle"}
	for _, s := range series {
		header = append(header, s.Site)
	}
	t.row(header...)
	if len(series) == 0 {
		return t.String()
	}
	for c := range series[0].SizesMB {
		row := []string{fmt.Sprint(c + 1)}
		for _, s := range series {
			row = append(row, f1(s.SizesMB[c]))
		}
		t.row(row...)
	}
	for _, s := range series {
		t.row(fmt.Sprintf("# %s: AnonVM share of final archive %.0f%%", s.Site, 100*s.AnonShare))
	}
	return t.String()
}
