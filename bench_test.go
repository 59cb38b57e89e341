package nymix

// One testing.B sub-benchmark per registered experiment (Figures 3-7,
// Table 1, the section 5.1 validation, the ablations and the scale-out
// runs), at each experiment's default size. Each iteration regenerates
// the full experiment from a fresh seed; nymbench prints the same
// results and its -json flag records them.

import (
	"testing"

	"nymix/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Run(uint64(i+1), experiments.Size{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
