package experiments

import (
	"fmt"

	"nymix/internal/core"
	"nymix/internal/guestos"
	"nymix/internal/sim"
	"nymix/internal/vault"
	"nymix/internal/workload"
)

// VaultCycle is one save cycle of the incremental-save experiment:
// what the NymVault delta save shipped versus what the monolithic
// archive of the same state would have cost.
type VaultCycle struct {
	Cycle        int
	MonolithicMB float64 // full sealed archive of this cycle's state
	UploadedMB   float64 // vault wire bytes actually sent (chunks + manifest)
	TotalChunks  int
	NewChunks    int
	DedupPct     float64 // share of the chunk set's wire bytes already stored
}

// VaultIncremental measures the vault against the monolithic archiver
// on a multi-session browsing workload: one persistent nym, a rich
// first session, then revisit sessions with small mutations — the
// usage pattern of section 3.5's quasi-persistent nyms. Cycle 1 pays
// the full state either way; from cycle 2 on the vault ships only
// changed chunks while the monolithic path would re-ship everything.
func VaultIncremental(seed uint64) ([]VaultCycle, error) {
	const cycles = 5
	eng, world, mgr, err := newRig(seed + 900)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Model: core.ModelPersistent, AnonDisk: 256 * guestos.MiB}
	dest := core.VaultDest{Providers: []string{"dropbin"}, Account: "vault-bench", AccountPassword: "cpw"}
	var out []VaultCycle
	record := func(c int, stats vault.SaveStats) {
		out = append(out, VaultCycle{
			Cycle:        c,
			MonolithicMB: float64(stats.BaselineWireBytes) / float64(guestos.MiB),
			UploadedMB:   float64(stats.UploadedBytes) / float64(guestos.MiB),
			TotalChunks:  stats.TotalChunks,
			NewChunks:    stats.NewChunks,
			DedupPct:     100 * stats.DedupFrac(),
		})
	}
	err = eng.RunProc("vault-bench", func(p *sim.Proc) error {
		nym, err := mgr.StartNym(p, "vault-nym", opts)
		if err != nil {
			return err
		}
		for _, site := range []string{"twitter.com", "gmail.com", "facebook.com"} {
			prof := world.Site(site).Profile
			if err := workload.VisitAndMaybeLogin(p, nym.Browser(), prof.RequiresLogin, site, "persona"); err != nil {
				return err
			}
		}
		stats, err := mgr.StoreNymVault(p, nym, "pw", dest)
		if err != nil {
			return err
		}
		record(1, stats)
		if err := mgr.TerminateNym(p, nym); err != nil {
			return err
		}
		for c := 2; c <= cycles; c++ {
			nym, err := mgr.LoadNymVault(p, "vault-nym", "pw", opts, dest)
			if err != nil {
				return fmt.Errorf("cycle %d load: %w", c, err)
			}
			if _, err := nym.Visit(p, "twitter.com"); err != nil {
				return fmt.Errorf("cycle %d visit: %w", c, err)
			}
			stats, err := mgr.StoreNymVault(p, nym, "pw", dest)
			if err != nil {
				return fmt.Errorf("cycle %d store: %w", c, err)
			}
			record(c, stats)
			if _, err := mgr.VaultGC(p, nym, "pw", dest); err != nil {
				return fmt.Errorf("cycle %d gc: %w", c, err)
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
	return out, nil
}

// VaultSteadyStateFrac returns the cycle-2+ upload cost as a fraction
// of the monolithic baseline (averaged over those cycles).
func VaultSteadyStateFrac(rows []VaultCycle) float64 {
	var up, full float64
	for _, r := range rows[1:] {
		up += r.UploadedMB
		full += r.MonolithicMB
	}
	if full == 0 {
		return 0
	}
	return up / full
}

// RenderVaultIncremental prints the experiment.
func RenderVaultIncremental(rows []VaultCycle) string {
	var t table
	t.row("# NymVault incremental save: wire MB per cycle vs the monolithic archive")
	t.row("cycle", "monolithic", "vault-upload", "chunks", "new", "dedup%")
	for _, r := range rows {
		t.row(fmt.Sprint(r.Cycle), f1(r.MonolithicMB), f1(r.UploadedMB),
			fmt.Sprint(r.TotalChunks), fmt.Sprint(r.NewChunks), f0(r.DedupPct))
	}
	if len(rows) > 1 {
		t.row(fmt.Sprintf("# steady-state upload: %.0f%% of monolithic", 100*VaultSteadyStateFrac(rows)))
	}
	return t.String()
}
