package experiments

import (
	"fmt"

	"nymix/internal/core"
	"nymix/internal/guestos"
	"nymix/internal/sim"
	"nymix/internal/workload"
)

// Figure3Row is one measurement pair of the memory experiment: used
// memory and KSM shared pages before and after interacting with the
// k-th nym's web site.
type Figure3Row struct {
	Nyms         int
	UsedBeforeMB float64
	UsedAfterMB  float64
	SharedBefore int64 // KSM pages_sharing before interaction
	SharedAfter  int64
	ExpectedMB   float64 // baseline + k * per-nymbox estimate (the dashed line)
	SavedMB      float64 // memory KSM reclaimed at this point
}

// PerNymboxMB is the dashed estimate: AnonVM RAM+disk plus CommVM
// RAM+disk (384+128+128+16 = 656 MB, the "approximately 600 MB per
// nymbox" of the abstract).
const PerNymboxMB = float64(core.DefaultAnonRAM+core.DefaultAnonDisk+core.DefaultCommRAM+core.DefaultCommDisk) / float64(guestos.MiB)

// Figure3 reproduces the RAM/KSM experiment (section 5.2): launch
// eight nyms in succession, measuring before and after interacting
// with each one's site (Gmail, Twitter, YouTube, Tor Blog, BBC,
// Facebook, Slashdot, ESPN).
func Figure3(seed uint64) ([]Figure3Row, error) {
	eng, world, mgr, err := newRig(seed)
	if err != nil {
		return nil, err
	}
	var rows []Figure3Row
	baselineMB := float64(mgr.Host().Mem().UsedBytes()) / float64(guestos.MiB)
	err = eng.RunProc("figure3", func(p *sim.Proc) error {
		for k, site := range workload.Figure3Sites {
			nym, err := mgr.StartNym(p, fmt.Sprintf("fig3-%d", k), core.Options{})
			if err != nil {
				return fmt.Errorf("nym %d: %w", k, err)
			}
			before := mgr.Host().MemStats()
			row := Figure3Row{
				Nyms:         k + 1,
				UsedBeforeMB: float64(before.UsedBytes) / float64(guestos.MiB),
				SharedBefore: before.PagesSharing,
				ExpectedMB:   baselineMB + float64(k+1)*PerNymboxMB,
			}
			prof := world.Site(site).Profile
			account := fmt.Sprintf("user-%d", k)
			if err := workload.VisitAndMaybeLogin(p, nym.Browser(), prof.RequiresLogin, site, account); err != nil {
				return fmt.Errorf("visit %s: %w", site, err)
			}
			// Interacting dirties browser heap and page cache beyond the
			// fetch itself.
			if err := nym.AnonVM().DirtyActive(); err != nil {
				return err
			}
			after := mgr.Host().MemStats()
			row.UsedAfterMB = float64(after.UsedBytes) / float64(guestos.MiB)
			row.SharedAfter = after.PagesSharing
			row.SavedMB = float64(after.SavedBytes) / float64(guestos.MiB)
			rows = append(rows, row)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure3 prints the series in the figure's layout.
func RenderFigure3(rows []Figure3Row) string {
	var t table
	t.row("# Figure 3: RAM usage and shared pages vs. number of pseudonyms")
	t.row("nyms", "expected_MB", "used_before", "used_after", "shared_before", "shared_after", "ksm_saved_MB")
	for _, r := range rows {
		t.row(fmt.Sprint(r.Nyms), f0(r.ExpectedMB), f0(r.UsedBeforeMB), f0(r.UsedAfterMB),
			fmt.Sprint(r.SharedBefore), fmt.Sprint(r.SharedAfter), f1(r.SavedMB))
	}
	return t.String()
}
