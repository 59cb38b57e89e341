package experiments

import (
	"fmt"

	"nymix/internal/core"
	"nymix/internal/guestos"
	"nymix/internal/sim"
	"nymix/internal/workload"
)

// Figure4Row is one point of the CPU experiment: k nyms running
// Peacekeeper simultaneously (k=0 is the native run).
type Figure4Row struct {
	Nyms        int
	Accumulated float64 // sum of per-nym scores (the "Actual" series)
	Expected    float64 // single-nym score x min(k, cores): perfect
	// parallelism on physical cores without the SMT bonus
	PerNym float64
}

// peacekeeperRAM: the paper raised AnonVM RAM to ~1 GB because
// "certain experiments with Peacekeeper consume too much memory
// causing Chrome to crash".
const peacekeeperRAM = 1024 * guestos.MiB

// Figure4 reproduces the Peacekeeper experiment (section 5.2) for
// k = 0 (native) through 8 concurrent nyms.
func Figure4(seed uint64) ([]Figure4Row, error) {
	var rows []Figure4Row
	var singleNym float64
	for k := 0; k <= 8; k++ {
		eng, _, mgr, err := newRig(seed + uint64(k))
		if err != nil {
			return nil, err
		}
		if k == 0 {
			var native float64
			if err := eng.RunProc("fig4-native", func(p *sim.Proc) error {
				native = workload.RunPeacekeeperNative(p, mgr.Host())
				return nil
			}); err != nil {
				return nil, err
			}
			rows = append(rows, Figure4Row{Nyms: 0, Accumulated: native, Expected: native, PerNym: native})
			continue
		}
		var scores []float64
		err = eng.RunProc("fig4", func(p *sim.Proc) error {
			var nyms []*core.Nym
			for i := 0; i < k; i++ {
				nym, err := mgr.StartNym(p, fmt.Sprintf("pk-%d", i), core.Options{AnonRAM: peacekeeperRAM})
				if err != nil {
					return err
				}
				nyms = append(nyms, nym)
			}
			// Launch every benchmark before awaiting any, so all k
			// contend for the chip simultaneously.
			var futs []*sim.Future[float64]
			for _, nym := range nyms {
				fut, err := workload.StartPeacekeeperVM(mgr.Host(), nym.AnonVM())
				if err != nil {
					return err
				}
				futs = append(futs, fut)
			}
			for _, fut := range futs {
				score, err := sim.Await(p, fut)
				if err != nil {
					return err
				}
				scores = append(scores, score)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, s := range scores {
			sum += s
		}
		if k == 1 {
			singleNym = sum
		}
		cores := mgr.Host().CPU().Config().Cores
		expected := singleNym * float64(min(k, cores))
		rows = append(rows, Figure4Row{
			Nyms:        k,
			Accumulated: sum,
			Expected:    expected,
			PerNym:      sum / float64(k),
		})
	}
	return rows, nil
}

// RenderFigure4 prints the series.
func RenderFigure4(rows []Figure4Row) string {
	var t table
	t.row("# Figure 4: accumulated Peacekeeper score vs. parallel pseudonyms (0 = native)")
	t.row("nyms", "actual", "expected", "per_nym")
	for _, r := range rows {
		t.row(fmt.Sprint(r.Nyms), f0(r.Accumulated), f0(r.Expected), f0(r.PerNym))
	}
	return t.String()
}
