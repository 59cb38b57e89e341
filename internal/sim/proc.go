package sim

import "fmt"

// Proc is a cooperative simulated process. A Proc runs in its own
// goroutine but the engine guarantees that at most one Proc (or event
// callback) executes at a time: a Proc only runs between Sleep/await
// points, and the engine blocks while it does. This gives linear,
// blocking-style code (boot the VM, then start Tor, then load the
// page) deterministic discrete-event semantics without locks.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	parked chan struct{}
	// wake is p.handoff, built once so Sleep and Await schedule it
	// without allocating a method value per wake-up.
	wake func()
	dead bool
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Rand returns the engine's random source.
func (p *Proc) Rand() *Rand { return p.eng.Rand() }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Go starts fn as a simulated process at the current simulated time.
// The returned future completes (with the zero value) when fn returns.
// fn must interact with simulated time only through p.
func (e *Engine) Go(name string, fn func(p *Proc)) *Future[struct{}] {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
	}
	p.wake = p.handoff
	done := NewFuture[struct{}](e)
	e.Schedule(0, func() {
		go func() {
			<-p.resume
			fn(p)
			p.dead = true
			done.Complete(struct{}{}, nil)
			p.parked <- struct{}{}
		}()
		p.handoff()
	})
	return done
}

// RunProc runs fn as a simulated process, drains the engine, and
// returns fn's error.
func (e *Engine) RunProc(name string, fn func(p *Proc) error) error {
	var err error
	e.Go(name, func(p *Proc) { err = fn(p) })
	e.Run()
	return err
}

// handoff transfers control from the engine to the process goroutine
// and blocks until the process parks again (sleeps, awaits, or exits).
// It must be called from the engine goroutine.
func (p *Proc) handoff() {
	p.resume <- struct{}{}
	<-p.parked
}

// yield parks the process, returning control to the engine, and blocks
// until the engine resumes it. It must be called from the process
// goroutine, after arranging a wake-up.
func (p *Proc) yield() {
	p.parked <- struct{}{}
	<-p.resume
}

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Time) {
	if p.dead {
		panic("sim: Sleep on dead proc " + p.name)
	}
	p.eng.Schedule(d, p.wake)
	p.yield()
}

// Await blocks the process until f completes and returns its result.
func Await[T any](p *Proc, f *Future[T]) (T, error) {
	if !f.done {
		f.onDone(p.wake, false)
		p.yield()
	}
	if !f.done {
		panic(fmt.Sprintf("sim: proc %s woke before future completed", p.name))
	}
	return f.val, f.err
}

// AwaitAll blocks until every future in fs completes, returning the
// first error encountered (all futures are still drained).
func AwaitAll[T any](p *Proc, fs ...*Future[T]) error {
	var firstErr error
	for _, f := range fs {
		if _, err := Await(p, f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Future is a one-shot container for a value produced at a later
// simulated time. Completion callbacks run as zero-delay events.
type Future[T any] struct {
	eng  *Engine
	done bool
	val  T
	err  error
	// first is the first subscriber, held inline: most futures get
	// exactly one (an Await or an OnDone), and it costs no allocation.
	// more holds the rest in registration order; it is a pointer so
	// the rare second subscriber pays for the list, not every future.
	first subscriber
	more  *[]subscriber
}

// subscriber is one completion callback. A deferred one runs as a
// zero-delay event; the rest run inside Complete.
type subscriber struct {
	fn       func()
	deferred bool
}

// NewFuture returns an incomplete future bound to e.
func NewFuture[T any](e *Engine) *Future[T] { return &Future[T]{eng: e} }

// CompletedFuture returns a future that is already complete.
func CompletedFuture[T any](e *Engine, val T, err error) *Future[T] {
	return &Future[T]{eng: e, done: true, val: val, err: err}
}

// Complete resolves the future. Completing a future twice panics:
// futures are one-shot by contract.
func (f *Future[T]) Complete(val T, err error) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = val
	f.err = err
	first, more := f.first, f.more
	f.first, f.more = subscriber{}, nil
	if first.fn != nil {
		first.run(f.eng)
	}
	if more != nil {
		for _, sub := range *more {
			sub.run(f.eng)
		}
	}
}

func (s subscriber) run(e *Engine) {
	if s.deferred {
		e.Schedule(0, s.fn)
	} else {
		s.fn()
	}
}

// Done reports whether the future has completed.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the result; it panics if the future is not done.
func (f *Future[T]) Value() (T, error) {
	if !f.done {
		panic("sim: Value on incomplete future")
	}
	return f.val, f.err
}

// onDone registers fn to run when the future completes (immediately if
// it already has). Complete runs subscribers in registration order:
// it calls fn directly, or schedules it as a zero-delay event when
// deferred is set.
func (f *Future[T]) onDone(fn func(), deferred bool) {
	sub := subscriber{fn: fn, deferred: deferred}
	switch {
	case f.done:
		sub.run(f.eng)
	case f.first.fn == nil:
		f.first = sub
	case f.more == nil:
		f.more = &[]subscriber{sub}
	default:
		*f.more = append(*f.more, sub)
	}
}

// OnDone schedules fn as a zero-delay event when the future completes.
func (f *Future[T]) OnDone(fn func()) { f.onDone(fn, true) }

// Broadcast is a reusable wake-all condition: waiters take a Future
// (or Park), and Notify completes every outstanding one. It is the
// watcher idiom shared by the fleet orchestrator and the cluster
// placement layer — state changes wake everyone parked on progress.
type Broadcast struct {
	eng  *Engine
	subs []*Future[struct{}]
}

// NewBroadcast returns a broadcast bound to e.
func NewBroadcast(e *Engine) *Broadcast { return &Broadcast{eng: e} }

// Future returns a future completed at the next Notify.
func (b *Broadcast) Future() *Future[struct{}] {
	f := NewFuture[struct{}](b.eng)
	b.subs = append(b.subs, f)
	return f
}

// Park suspends the process until the next Notify.
func (b *Broadcast) Park(p *Proc) { Await(p, b.Future()) }

// Notify wakes every outstanding waiter.
func (b *Broadcast) Notify() {
	subs := b.subs
	b.subs = nil
	for _, f := range subs {
		f.Complete(struct{}{}, nil)
	}
}
