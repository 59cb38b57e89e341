package vnet

import (
	"fmt"
	"time"

	"nymix/internal/sim"
)

// Fault is one scripted event in a fault schedule: at At (relative to
// when the schedule is played), Apply mutates the fabric. The
// constructors below sever and heal region boundaries; any other
// fault is built directly.
type Fault struct {
	At    time.Duration
	Label string
	Apply func(*Network)
}

// AppliedFault records a fault the network actually executed.
type AppliedFault struct {
	At    sim.Time
	Label string
}

// Play schedules every fault relative to now. Faults fire in At
// order; each application is appended to the fault log.
func (n *Network) Play(faults ...Fault) {
	for _, f := range faults {
		f := f
		n.eng.Schedule(f.At, func() {
			f.Apply(n)
			n.faultLog = append(n.faultLog, AppliedFault{At: n.eng.Now(), Label: f.Label})
		})
	}
}

// FaultLog returns the faults applied so far, in execution order.
func (n *Network) FaultLog() []AppliedFault { return n.faultLog }

// SeverFault severs the region boundary a|b in both directions.
func SeverFault(at time.Duration, a, b string) Fault {
	return Fault{At: at, Label: fmt.Sprintf("sever %s<->%s", a, b),
		Apply: func(n *Network) { n.SeverRegions(a, b) }}
}

// SeverOneWayFault severs only the from→to direction of a region
// boundary (asymmetric partition).
func SeverOneWayFault(at time.Duration, from, to string) Fault {
	return Fault{At: at, Label: fmt.Sprintf("sever %s->%s", from, to),
		Apply: func(n *Network) { n.SeverRegionsOneWay(from, to) }}
}

// HealFault heals the region boundary a|b in both directions.
func HealFault(at time.Duration, a, b string) Fault {
	return Fault{At: at, Label: fmt.Sprintf("heal %s<->%s", a, b),
		Apply: func(n *Network) { n.HealRegions(a, b) }}
}
