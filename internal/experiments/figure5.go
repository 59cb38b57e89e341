package experiments

import (
	"fmt"
	"time"

	"nymix/internal/core"
	"nymix/internal/sim"
	"nymix/internal/workload"
)

// Figure5Row is one point of the bandwidth experiment: k nyms
// downloading the Linux kernel in parallel through independent Tor
// instances over the shared 10 Mbit/s uplink.
type Figure5Row struct {
	Nyms      int
	ActualSec float64 // slowest download's completion time
	IdealSec  float64 // single-nym time x k (perfect linear scaling)
}

// Figure5 reproduces the download experiment (section 5.2).
func Figure5(seed uint64) ([]Figure5Row, error) {
	var rows []Figure5Row
	var single float64
	for k := 1; k <= 8; k++ {
		eng, _, mgr, err := newRig(seed + uint64(100+k))
		if err != nil {
			return nil, err
		}
		var worst time.Duration
		err = eng.RunProc("fig5", func(p *sim.Proc) error {
			var nyms []*core.Nym
			for i := 0; i < k; i++ {
				nym, err := mgr.StartNym(p, fmt.Sprintf("dl-%d", i), core.Options{})
				if err != nil {
					return err
				}
				nyms = append(nyms, nym)
			}
			// Start every download in its own process so they truly
			// overlap, then join.
			durs := make([]time.Duration, k)
			errs := make([]error, k)
			var joins []*sim.Future[struct{}]
			for i, nym := range nyms {
				i, nym := i, nym
				joins = append(joins, p.Engine().Go(fmt.Sprintf("dl-%d", i), func(dp *sim.Proc) {
					durs[i], errs[i] = workload.DownloadKernel(dp, nym.Browser())
				}))
			}
			if err := sim.AwaitAll(p, joins...); err != nil {
				return err
			}
			for i := 0; i < k; i++ {
				if errs[i] != nil {
					return errs[i]
				}
				if durs[i] > worst {
					worst = durs[i]
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if k == 1 {
			single = worst.Seconds()
		}
		rows = append(rows, Figure5Row{
			Nyms:      k,
			ActualSec: worst.Seconds(),
			IdealSec:  single * float64(k),
		})
	}
	return rows, nil
}

// TorFixedOverhead computes the measured fixed Tor cost from the
// single-nym row: the paper reports ~12%.
func TorFixedOverhead(rows []Figure5Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	// Raw wire time for the kernel over the 10 Mbit/s uplink.
	raw := float64(workload.KernelBytes) / (10e6 / 8)
	return rows[0].ActualSec/raw - 1
}

// RenderFigure5 prints the series.
func RenderFigure5(rows []Figure5Row) string {
	var t table
	t.row("# Figure 5: kernel download time vs. parallel downloading nyms")
	t.row("nyms", "actual_s", "ideal_s")
	for _, r := range rows {
		t.row(fmt.Sprint(r.Nyms), f1(r.ActualSec), f1(r.IdealSec))
	}
	t.row(fmt.Sprintf("# fixed Tor overhead at 1 nym: %.1f%%", 100*TorFixedOverhead(rows)))
	return t.String()
}
