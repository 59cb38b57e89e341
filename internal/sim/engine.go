// Package sim provides the deterministic discrete-event simulation
// kernel underneath every Nymix substrate: a virtual clock, an event
// queue, cooperative processes, futures, and a seeded random source.
//
// All simulated components — virtual machines, network links, CPU
// schedulers, anonymizers — advance time exclusively through an Engine.
// Exactly one process or event callback executes at a time, so shared
// simulation state needs no locking and every run is reproducible from
// its seed.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in simulated time, measured as an offset from the
// start of the simulation (t = 0).
type Time = time.Duration

// Engine is a discrete-event simulation executor. The zero value is
// not usable; construct one with NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     int64
	rand    *Rand
	stopped bool
	// events processed since construction, for introspection and tests.
	processed int64
}

// event is a scheduled callback. Events at equal times fire in
// scheduling order (seq) so runs are deterministic.
type event struct {
	at  Time
	seq int64
	fn  func()
	// canceled events stay in the heap but are skipped when popped.
	canceled bool
}

// Timer is a handle to a scheduled event that may be canceled.
type Timer struct{ ev *event }

// Cancel prevents the timer's callback from running. Canceling an
// already-fired or already-canceled timer is a no-op.
func (t *Timer) Cancel() {
	if t != nil && t.ev != nil {
		t.ev.canceled = true
	}
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// NewEngine returns an engine whose clock reads zero and whose random
// source is seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rand: NewRand(seed)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rand }

// Processed reports how many events the engine has executed.
func (e *Engine) Processed() int64 { return e.processed }

// Schedule runs fn after delay d of simulated time. A negative delay is
// treated as zero. It returns a Timer that can cancel the callback.
func (e *Engine) Schedule(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now+d, fn)
}

// ScheduleAt runs fn at absolute simulated time t. Times in the past
// are clamped to the present.
func (e *Engine) ScheduleAt(t Time, fn func()) *Timer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &event{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return &Timer{ev: ev}
}

// Run processes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		e.step()
	}
}

// RunUntil processes events with timestamps at or before t, then
// advances the clock to exactly t.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped && e.queue[0].at <= t {
		e.step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event completes. Pending
// events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued (non-canceled) events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.canceled {
			n++
		}
	}
	return n
}

func (e *Engine) step() {
	ev := heap.Pop(&e.queue).(*event)
	if ev.canceled {
		return
	}
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v but clock is %v", ev.at, e.now))
	}
	e.now = ev.at
	e.processed++
	ev.fn()
}
