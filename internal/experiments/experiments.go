package experiments

import (
	"fmt"
	"strings"

	"nymix/internal/core"
	"nymix/internal/hypervisor"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// newRig builds the standard evaluation setup: the default world and
// a Nymix host with the paper's 16 GB / quad-core configuration.
func newRig(seed uint64) (*sim.Engine, *webworld.World, *core.Manager, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	mgr, err := core.NewManager(eng, world, hypervisor.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	return eng, world, mgr, nil
}

// table is a tiny fixed-width renderer for paper-style output.
type table struct {
	b strings.Builder
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			t.b.WriteString("  ")
		}
		fmt.Fprintf(&t.b, "%-14s", c)
	}
	t.b.WriteByte('\n')
}

func (t *table) String() string { return t.b.String() }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
