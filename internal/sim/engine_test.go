package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(-time.Hour, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v for clamped event", e.Now())
	}
}

func TestRunUntilAdvancesClockExactly(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Schedule(time.Second, func() { fired++ })
	e.Schedule(10*time.Second, func() { fired++ })
	e.RunUntil(5 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	tm.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
	// Double-cancel and the zero Timer are no-ops.
	tm.Cancel()
	var zero Timer
	zero.Cancel()
	if e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("pending = %d, processed = %d after canceling, want 0, 0", e.Pending(), e.Processed())
	}
}

// TestCanceledOrFiredTimerNeverCancelsRecycledEvent checks that a
// handle outlives its event safely: once the event fired or was
// canceled, a new schedule reuses it, and the old handle's Cancel must
// leave the new callback alone.
func TestCanceledOrFiredTimerNeverCancelsRecycledEvent(t *testing.T) {
	for _, fire := range []bool{true, false} {
		e := NewEngine(1)
		old := e.Schedule(time.Second, func() {})
		if fire {
			e.Run()
		} else {
			old.Cancel()
		}
		fired := false
		fresh := e.Schedule(time.Second, func() { fired = true })
		if fresh.ev != old.ev {
			t.Fatalf("fire=%v: new event did not reuse the released one", fire)
		}
		old.Cancel()
		if e.Pending() != 1 {
			t.Fatalf("fire=%v: stale Cancel removed the new event (pending = %d)", fire, e.Pending())
		}
		e.Run()
		if !fired {
			t.Fatalf("fire=%v: stale Cancel suppressed the new callback", fire)
		}
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
}

func TestEventsScheduledInsideEvents(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Schedule(time.Second, func() {
		e.Schedule(time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 1 || times[0] != 2*time.Second {
		t.Fatalf("nested event fired at %v, want [2s]", times)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var marks []Time
	e.Go("sleeper", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(3 * time.Second)
		marks = append(marks, p.Now())
		p.Sleep(2 * time.Second)
		marks = append(marks, p.Now())
	})
	e.Run()
	want := []Time{0, 3 * time.Second, 5 * time.Second}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(time.Second)
				}
			})
		}
		e.Run()
		return trace
	}
	first := run()
	second := run()
	if len(first) != 9 {
		t.Fatalf("trace length = %d, want 9", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("nondeterministic traces:\n%v\n%v", first, second)
		}
	}
}

func TestFutureAwait(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[int](e)
	e.Schedule(4*time.Second, func() { f.Complete(99, nil) })
	var got int
	var at Time
	e.Go("waiter", func(p *Proc) {
		got, _ = Await(p, f)
		at = p.Now()
	})
	e.Run()
	if got != 99 || at != 4*time.Second {
		t.Fatalf("got %d at %v, want 99 at 4s", got, at)
	}
}

func TestAwaitCompletedFutureDoesNotBlock(t *testing.T) {
	e := NewEngine(1)
	f := CompletedFuture(e, "hello", nil)
	var got string
	e.Go("waiter", func(p *Proc) { got, _ = Await(p, f) })
	e.Run()
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestGoFutureCompletesWhenProcExits(t *testing.T) {
	e := NewEngine(1)
	done := e.Go("worker", func(p *Proc) { p.Sleep(7 * time.Second) })
	var at Time = -1
	e.Go("watcher", func(p *Proc) {
		Await(p, done)
		at = p.Now()
	})
	e.Run()
	if at != 7*time.Second {
		t.Fatalf("worker completion observed at %v, want 7s", at)
	}
}

func TestAwaitAllCollectsFirstError(t *testing.T) {
	e := NewEngine(1)
	f1 := NewFuture[int](e)
	f2 := NewFuture[int](e)
	e.Schedule(time.Second, func() { f1.Complete(1, nil) })
	e.Schedule(2*time.Second, func() { f2.Complete(0, errSentinel) })
	var err error
	e.Go("w", func(p *Proc) { err = AwaitAll(p, f1, f2) })
	e.Run()
	if err != errSentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

type sentinelError struct{}

func (sentinelError) Error() string { return "sentinel" }

var errSentinel = sentinelError{}

func TestFutureDoubleCompletePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double complete")
		}
	}()
	e := NewEngine(1)
	f := NewFuture[int](e)
	f.Complete(1, nil)
	f.Complete(2, nil)
}

// Complete runs subscribers in registration order: the first one,
// held inline, before the rest, and a completed future runs a late
// subscriber at once.
func TestFutureRunsSubscribersInRegistrationOrder(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[int](e)
	var order []int
	for i := 0; i < 3; i++ {
		f.OnDone(func() { order = append(order, i) })
	}
	f.Complete(1, nil)
	f.OnDone(func() { order = append(order, 3) })
	e.Run()
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("subscribers ran in order %v, want [0 1 2 3]", order)
	}
}

func TestProcCompletingFutureWakesAnotherProc(t *testing.T) {
	e := NewEngine(1)
	f := NewFuture[string](e)
	var order []string
	e.Go("producer", func(p *Proc) {
		p.Sleep(time.Second)
		order = append(order, "produce")
		f.Complete("v", nil)
		order = append(order, "after-complete")
	})
	e.Go("consumer", func(p *Proc) {
		v, _ := Await(p, f)
		order = append(order, "consume-"+v)
	})
	e.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != "produce" {
		t.Fatalf("order = %v", order)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(3)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandJitterSpread(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("jitter out of range: %v", v)
		}
	}
	if r.Jitter(100, 0) != 100 {
		t.Fatal("zero spread must be identity")
	}
}

func TestRandBytesDeterministic(t *testing.T) {
	a := make([]byte, 37)
	b := make([]byte, 37)
	NewRand(9).Bytes(a)
	NewRand(9).Bytes(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Bytes not deterministic")
		}
	}
	nonzero := 0
	for _, v := range a {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 20 {
		t.Fatalf("suspiciously many zero bytes: %d nonzero of %d", nonzero, len(a))
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(13)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("variance = %v, want ~1", variance)
	}
}

// TestWarmEngineAllocs pins the kernel's steady state: once an engine's
// free list and queue have grown, scheduling an event and firing it,
// scheduling one and canceling it, one Proc.Sleep, and a future's
// single OnDone through Complete allocate nothing.
func TestWarmEngineAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	if n := testing.AllocsPerRun(100, func() { e.Schedule(time.Millisecond, fn); e.Run() }); n != 0 {
		t.Errorf("schedule and fire: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { e.Schedule(time.Millisecond, fn).Cancel() }); n != 0 {
		t.Errorf("schedule and cancel: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		f := NewFuture[int](e)
		f.OnDone(fn)
		f.Complete(1, nil)
		e.Run()
	}); n != 0 {
		t.Errorf("future with one OnDone: %v allocs, want 0", n)
	}

	e = NewEngine(1)
	stop := false
	e.Go("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(time.Millisecond)
		}
	})
	e.RunUntil(0)
	// Each run fires the sleeper's pending wake-up, and it sleeps again.
	if n := testing.AllocsPerRun(100, func() { e.RunUntil(e.Now() + time.Millisecond) }); n != 0 {
		t.Errorf("Proc.Sleep: %v allocs, want 0", n)
	}
	stop = true
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("%d events left after the sleeper exited", e.Pending())
	}
}
