package fleet

import (
	"testing"

	"nymix/internal/anonnet"
	"nymix/internal/core"
	"nymix/internal/sim"
)

// mixOpts is a small nymbox whose transport holds a standing uplink
// rate — the mixnet cover clock.
func mixOpts(name string) core.Options {
	opts := smallOpts(core.ModelPersistent)
	opts.GuardSeed = name
	opts.Anonymizer = "mixnet"
	return opts
}

// TestWireReservedRateTracksAdmission: the standing cover rate counts
// every launched mixnet member (queued ones too), drops when one stops
// or crashes, comes back with a restart, and ends at zero; demand-driven
// members add nothing.
func TestWireReservedRateTracksAdmission(t *testing.T) {
	rate := WireRateFor(mixOpts("x"))
	if rate <= 0 {
		t.Fatalf("mixnet wire rate = %d, want > 0", rate)
	}
	if r := WireRateFor(smallOpts(core.ModelEphemeral)); r != 0 {
		t.Fatalf("default transport wire rate = %d, want 0", r)
	}

	eng, o := newFleet(t, 51, 16<<30, Config{Restart: DefaultRestartPolicy()})
	run(t, eng, func(p *sim.Proc) {
		for _, name := range []string{"amy", "ben", "cas"} {
			if _, err := o.Launch(Spec{Name: name, Opts: mixOpts(name)}); err != nil {
				t.Errorf("launch %s: %v", name, err)
				return
			}
		}
		if _, err := o.Launch(Spec{Name: "tor", Opts: smallOpts(core.ModelEphemeral)}); err != nil {
			t.Errorf("launch tor: %v", err)
			return
		}
		if got := o.WireReservedRate(); got != 3*rate {
			t.Errorf("reserved rate at launch = %d, want %d", got, 3*rate)
		}
		if err := o.AwaitRunning(p, 4); err != nil {
			t.Errorf("await 4: %v", err)
			return
		}
		if got := o.WireReservedRate(); got != 3*rate {
			t.Errorf("reserved rate running = %d, want %d", got, 3*rate)
		}

		if err := o.Stop(p, "amy"); err != nil {
			t.Errorf("stop amy: %v", err)
			return
		}
		if got := o.WireReservedRate(); got != 2*rate {
			t.Errorf("reserved rate after stop = %d, want %d", got, 2*rate)
		}

		if err := o.FailNym(p, "ben", nil); err != nil {
			t.Errorf("fail ben: %v", err)
			return
		}
		if got := o.WireReservedRate(); got != rate {
			t.Errorf("reserved rate while ben restarts = %d, want %d", got, rate)
		}
		for o.Member("ben").State() != StateRunning {
			if o.Member("ben").State() == StateFailed {
				t.Errorf("ben failed instead of restarting: %v", o.Member("ben").LastErr())
				return
			}
			sim.Await(p, o.ChangeFuture())
		}
		if got := o.WireReservedRate(); got != 2*rate {
			t.Errorf("reserved rate after restart = %d, want %d", got, 2*rate)
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop all: %v", err)
		}
	})
	if got := o.WireReservedRate(); got != 0 {
		t.Fatalf("wire reservation leaked: %d", got)
	}
}

// TestWireRateForMatchesRegistry pins the rate arithmetic to the
// transport registry's self-declared idle rates.
func TestWireRateForMatchesRegistry(t *testing.T) {
	opts := mixOpts("x")
	if got, want := float64(WireRateFor(opts)), anonnet.IdleWireRate("mixnet"); got < want || got > want+1 {
		t.Fatalf("WireRateFor = %v, want ceil of registry rate %v", got, want)
	}
	chained := opts
	chained.Chain = []string{"mixnet", "tor"}
	if got := WireRateFor(chained); got != WireRateFor(opts) {
		t.Fatalf("chain wire rate = %d, want mixnet-only %d (tor adds no standing rate)", got, WireRateFor(opts))
	}
}
