// Package sim provides the deterministic discrete-event simulation
// kernel underneath every Nymix substrate: a virtual clock, an event
// queue, cooperative processes, futures, and a seeded random source.
//
// All simulated components — virtual machines, network links, CPU
// schedulers, anonymizers — advance time exclusively through an Engine.
// Exactly one process or event callback executes at a time, so shared
// simulation state needs no locking and every run is reproducible from
// its seed.
//
// The event queue is a binary min-heap on (time, scheduling order) that
// allocates nothing in steady state: fired and canceled events go on a
// per-engine free list that later schedules reuse. Schedule returns a
// Timer by value. Canceling it removes the event from the queue at
// once; canceling a zero Timer, or one whose event already fired or was
// canceled, is a no-op, even after the event has been reused.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured as an offset from the
// start of the simulation (t = 0).
type Time = time.Duration

// Engine is a discrete-event simulation executor. The zero value is
// not usable; construct one with NewEngine.
type Engine struct {
	now Time
	// queue is a binary min-heap ordered by before; every queued event
	// records its position in index.
	queue []*event
	// free holds released events for ScheduleAt to reuse.
	free    []*event
	seq     int64
	rand    *Rand
	stopped bool
	// events processed since construction, for introspection and tests.
	processed int64
}

// event is a scheduled callback. Events at equal times fire in
// scheduling order (seq) so runs are deterministic. A released event
// has seq 0, which no Timer carries.
type event struct {
	at    Time
	seq   int64
	fn    func()
	index int
}

// before is the queue order: time, then scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timer is a handle to a scheduled event. It is a value: copy it
// freely. The zero Timer refers to no event.
type Timer struct {
	eng *Engine
	ev  *event
	seq int64
}

// Cancel removes the timer's event from the queue, so its callback
// never runs. Canceling the zero Timer, or a timer whose event already
// fired or was canceled, is a no-op: the handle carries its event's
// scheduling number, and a reused event carries a new one.
func (t Timer) Cancel() {
	if t.ev == nil || t.ev.seq != t.seq {
		return
	}
	t.eng.remove(t.ev.index)
	t.eng.release(t.ev)
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
func (e *Engine) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now+d, fn)
}

// ScheduleAt runs fn at absolute simulated time t. Times in the past
// are clamped to the present.
func (e *Engine) ScheduleAt(t Time, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
	return Timer{eng: e, ev: ev, seq: e.seq}
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

// Pending reports the number of queued events. Canceled events leave
// the queue at once, so none of them count.
func (e *Engine) Pending() int { return len(e.queue) }

func (e *Engine) step() {
	ev := e.queue[0]
	e.remove(0)
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v but clock is %v", ev.at, e.now))
	}
	e.now = ev.at
	e.processed++
	fn := ev.fn
	e.release(ev)
	fn()
}

// release clears a dequeued event and puts it on the free list. Its
// seq becomes 0, so every Timer still naming it is stale.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.seq = 0
	e.free = append(e.free, ev)
}

// remove takes the event at heap position i out of the queue, moving
// the last event into its place and re-sifting it.
func (e *Engine) remove(i int) {
	last := len(e.queue) - 1
	moved := e.queue[last]
	e.queue[last] = nil
	e.queue = e.queue[:last]
	if i == last {
		return
	}
	e.queue[i] = moved
	moved.index = i
	if !e.down(i) {
		e.up(i)
	}
}

// up sifts the event at heap position i toward the root.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down sifts the event at heap position i toward the leaves and
// reports whether it moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
	return i != start
}
