package sim

import (
	"testing"
	"time"
)

// scheduleBatch is how many timers one BenchmarkEngineSchedule
// iteration schedules.
const scheduleBatch = 1024

// BenchmarkEngineSchedule measures the event queue alone: one op
// schedules scheduleBatch timers at scattered times, cancels every
// other one, and runs the engine dry, so the queue sees pushes,
// mid-heap removals and pops in heap order.
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	fired := 0
	fn := func() { fired++ }
	timers := make([]Timer, scheduleBatch)
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := range timers {
			// A multiplicative scatter keeps insertion order unrelated
			// to firing order.
			timers[j] = e.Schedule(time.Duration(j*7919%scheduleBatch)*time.Millisecond, fn)
		}
		for j := 0; j < len(timers); j += 2 {
			timers[j].Cancel()
		}
		e.Run()
	}
	if want := b.N * scheduleBatch / 2; fired != want {
		b.Fatalf("fired %d timers, want %d", fired, want)
	}
}

// BenchmarkProcSleep measures one process handoff: a single proc
// sleeps b.N times, so each op is one scheduled wake-up plus the
// engine-to-proc round trip.
func BenchmarkProcSleep(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	e.Run()
	if want := Time(b.N) * time.Millisecond; e.Now() != want {
		b.Fatalf("clock = %v, want %v", e.Now(), want)
	}
}
