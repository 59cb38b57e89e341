package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
)

// refEngine, refEvent and refTimer are a frozen copy of the original
// event queue: events boxed through container/heap on the (at, seq)
// order, and lazy cancellation that leaves a canceled event in the
// heap until it is popped. They are a test-only oracle;
// TestQueueMatchesReference drives Engine and refEngine through the
// same operations and requires identical results.

type refEngine struct {
	now       Time
	queue     refQueue
	seq       int64
	stopped   bool
	processed int64
}

type refEvent struct {
	at       Time
	seq      int64
	fn       func()
	canceled bool
}

type refTimer struct{ ev *refEvent }

func (t *refTimer) Cancel() {
	if t != nil && t.ev != nil {
		t.ev.canceled = true
	}
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func (e *refEngine) Schedule(d time.Duration, fn func()) *refTimer {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now+d, fn)
}

func (e *refEngine) ScheduleAt(t Time, fn func()) *refTimer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return &refTimer{ev: ev}
}

func (e *refEngine) Run() {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		e.step()
	}
}

func (e *refEngine) RunUntil(t Time) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped && e.queue[0].at <= t {
		e.step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.canceled {
			n++
		}
	}
	return n
}

func (e *refEngine) step() {
	ev := heap.Pop(&e.queue).(*refEvent)
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

// diffQueue is the surface the differential test drives on both
// engines. A scheduled event is handed back as its Cancel method
// value, which reads the same whatever shape the Timer handle has.
type diffQueue interface {
	schedule(d time.Duration, fn func()) (cancel func())
	scheduleAt(t Time, fn func()) (cancel func())
	run()
	runUntil(t Time)
	stop()
	now() Time
	processed() int64
	pending() int
}

type engQ struct{ e *Engine }

func (q engQ) schedule(d time.Duration, fn func()) func() { return q.e.Schedule(d, fn).Cancel }
func (q engQ) scheduleAt(t Time, fn func()) func()        { return q.e.ScheduleAt(t, fn).Cancel }
func (q engQ) run()                                       { q.e.Run() }
func (q engQ) runUntil(t Time)                            { q.e.RunUntil(t) }
func (q engQ) stop()                                      { q.e.Stop() }
func (q engQ) now() Time                                  { return q.e.Now() }
func (q engQ) processed() int64                           { return q.e.Processed() }
func (q engQ) pending() int                               { return q.e.Pending() }

type refQ struct{ e *refEngine }

func (q refQ) schedule(d time.Duration, fn func()) func() { return q.e.Schedule(d, fn).Cancel }
func (q refQ) scheduleAt(t Time, fn func()) func()        { return q.e.ScheduleAt(t, fn).Cancel }
func (q refQ) run()                                       { q.e.Run() }
func (q refQ) runUntil(t Time)                            { q.e.RunUntil(t) }
func (q refQ) stop()                                      { q.e.Stop() }
func (q refQ) now() Time                                  { return q.e.now }
func (q refQ) processed() int64                           { return q.e.processed }
func (q refQ) pending() int                               { return q.e.Pending() }

// Operation kinds of the differential test. Times are in milliseconds
// from a small range, so equal timestamps (the seq tie-break) and
// times in the past (the clamp) are both common.
const (
	opSchedule   = iota // Schedule with a delay in [-4, 12) ms
	opScheduleAt        // ScheduleAt at now + [-4, 12) ms
	opCancel            // Cancel a handle: pending, fired or canceled
	opRun               // Run to empty or Stop
	opRunUntil          // RunUntil now + [0, 16) ms
	opStop              // Stop from outside a callback
	opKinds
)

// diffOp is one outer step. arg picks the time offset or the handle.
type diffOp struct {
	kind int
	arg  int
}

// childBudget bounds the events callbacks may schedule on one side,
// so every Run terminates.
const childBudget = 400

// diffSide is one engine under test with its own record of handles
// and firings. Event ids are assigned in scheduling order, so two
// sides that agree give every event the same id.
type diffSide struct {
	q       diffQueue
	seed    uint64
	cancels []func()
	fired   []int
	budget  int
}

// add schedules event id through sched and records its handle.
func (s *diffSide) add(sched func(fn func()) func()) {
	id := len(s.cancels)
	s.cancels = append(s.cancels, nil)
	s.cancels[id] = sched(func() { s.fire(id) })
}

// fire records the firing and plays the event's plan. The plan is a
// pure function of the seed and the id, so both sides play the same
// plan for the same event: up to three actions among scheduling a
// child (past, equal or future time), canceling any handle (itself,
// one already fired, one canceled, one pending, possibly twice) and
// stopping the engine.
func (s *diffSide) fire(id int) {
	s.fired = append(s.fired, id)
	r := splitmix(s.seed ^ uint64(id+1)*0x9e3779b97f4a7c15)
	for n := r % 4; n > 0; n-- {
		r = splitmix(r)
		arg := int(r>>8) % 1024
		switch r % 8 {
		case 0, 1:
			if s.budget > 0 {
				s.budget--
				s.add(func(fn func()) func() { return s.q.schedule(time.Duration(arg%16-4)*time.Millisecond, fn) })
			}
		case 2:
			if s.budget > 0 {
				s.budget--
				at := s.q.now() + time.Duration(arg%16-4)*time.Millisecond
				s.add(func(fn func()) func() { return s.q.scheduleAt(at, fn) })
			}
		case 3, 4, 5:
			s.cancels[arg%len(s.cancels)]()
		case 6:
			s.cancels[id]()
		default:
			s.q.stop()
		}
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (s *diffSide) apply(op diffOp) {
	offset := time.Duration(op.arg%16-4) * time.Millisecond
	switch op.kind {
	case opSchedule:
		s.add(func(fn func()) func() { return s.q.schedule(offset, fn) })
	case opScheduleAt:
		at := s.q.now() + offset
		s.add(func(fn func()) func() { return s.q.scheduleAt(at, fn) })
	case opCancel:
		if len(s.cancels) > 0 {
			s.cancels[op.arg%len(s.cancels)]()
		}
	case opRun:
		s.q.run()
	case opRunUntil:
		s.q.runUntil(s.q.now() + time.Duration(op.arg%16)*time.Millisecond)
	case opStop:
		s.q.stop()
	}
}

// queueDiff drives an Engine and a refEngine in lockstep.
type queueDiff struct{ got, want *diffSide }

func newQueueDiff(seed uint64) *queueDiff {
	return &queueDiff{
		got:  &diffSide{q: engQ{NewEngine(seed)}, seed: seed, budget: childBudget},
		want: &diffSide{q: refQ{&refEngine{}}, seed: seed, budget: childBudget},
	}
}

// step applies op to both engines and compares the firing order, the
// clock, the processed count and the pending count.
func (d *queueDiff) step(t *testing.T, where string, op diffOp) {
	t.Helper()
	d.got.apply(op)
	d.want.apply(op)
	g, w := d.got, d.want
	if len(g.fired) != len(w.fired) {
		t.Fatalf("%s: op %+v fired %d events, reference %d", where, op, len(g.fired), len(w.fired))
	}
	for i := range g.fired {
		if g.fired[i] != w.fired[i] {
			t.Fatalf("%s: op %+v firing %d is event %d, reference %d", where, op, i, g.fired[i], w.fired[i])
		}
	}
	if g.q.now() != w.q.now() {
		t.Fatalf("%s: op %+v Now = %v, reference %v", where, op, g.q.now(), w.q.now())
	}
	if g.q.processed() != w.q.processed() {
		t.Fatalf("%s: op %+v Processed = %d, reference %d", where, op, g.q.processed(), w.q.processed())
	}
	if g.q.pending() != w.q.pending() {
		t.Fatalf("%s: op %+v Pending = %d, reference %d", where, op, g.q.pending(), w.q.pending())
	}
}

// TestQueueMatchesReference drives seeded interleavings of Schedule,
// ScheduleAt, Cancel, Run, RunUntil and Stop (and the same operations
// from inside callbacks) through Engine and the frozen reference queue,
// and requires the same firing order, Now, Processed and Pending after
// every step.
func TestQueueMatchesReference(t *testing.T) {
	const seeds, steps = 200, 200
	for seed := uint64(1); seed <= seeds; seed++ {
		d := newQueueDiff(seed)
		r := seed
		for step := 0; step < steps; step++ {
			r = splitmix(r)
			op := diffOp{arg: int(r>>8) % 1024}
			// Schedules outnumber runs, so the heap grows deep enough
			// for mid-heap cancels to need a re-sift.
			switch k := r % 16; {
			case k < 6:
				op.kind = opSchedule
			case k < 9:
				op.kind = opScheduleAt
			case k < 12:
				op.kind = opCancel
			case k < 13:
				op.kind = opRun
			case k < 15:
				op.kind = opRunUntil
			default:
				op.kind = opStop
			}
			d.step(t, fmt.Sprintf("seed %d step %d", seed, step), op)
		}
		d.step(t, fmt.Sprintf("seed %d final", seed), diffOp{kind: opRun})
	}
}

// FuzzQueueMatchesReference runs the differential test's op set from
// fuzzed bytes: the first byte seeds the callback plans, then each pair
// of bytes is one op (kind, argument).
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 5, 0, 5, 1, 5, 2, 0, 4, 3, 3, 0})
	f.Add([]byte{7, 0, 9, 0, 9, 0, 9, 2, 1, 2, 2, 4, 6, 0, 1, 3, 0, 2, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := newQueueDiff(uint64(data[0]))
		ops := data[1:]
		for step := 0; len(ops) >= 2 && step < 400; step++ {
			op := diffOp{kind: int(ops[0]) % opKinds, arg: int(ops[1])}
			ops = ops[2:]
			d.step(t, fmt.Sprintf("step %d", step), op)
		}
		d.step(t, "final", diffOp{kind: opRun})
	})
}
