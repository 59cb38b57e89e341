package fleet

import (
	"fmt"

	"nymix/internal/nymerr"
	"nymix/internal/sim"
)

// ErrOversized is returned (on the reservation future) for a request
// that exceeds the semaphore's total capacity: it could never be
// granted, and letting it queue would wedge everyone behind it.
var ErrOversized = nymerr.New(CodeOversizedReservation, "fleet: reservation exceeds semaphore capacity")

// sem is a weighted semaphore native to the simulation: acquisition
// returns a future the caller awaits, so oversubscribed requests queue
// in priority order instead of failing. The engine's single-threaded
// execution model makes the bookkeeping lock-free.
//
// Fairness is strict priority-FIFO: waiters are ordered by descending
// priority, FIFO among equals, and only the head of the queue is ever
// admitted. A large request at the head blocks smaller same-priority
// ones behind it, so a 4 GB nym cannot be starved by a stream of
// 256 MB nyms slipping past it — but a higher-priority arrival is
// inserted ahead of the head and admitted as soon as it fits.
type sem struct {
	eng      *sim.Engine
	capacity int64
	used     int64
	q        []*semWaiter
}

type semWaiter struct {
	need int64
	pri  int
	fut  *sim.Future[struct{}]
}

// unlimited is the semaphore capacity used when the underlying
// resource is uncapped.
const unlimited = int64(1) << 62

// newSem builds a semaphore with the given capacity. A negative
// capacity means uncapped; zero is a real (nothing-admissible)
// capacity — a host already saturated past its headroom must reject
// launches, not wave them all through.
func newSem(eng *sim.Engine, capacity int64) *sem {
	if capacity < 0 {
		capacity = unlimited
	}
	return &sem{eng: eng, capacity: capacity}
}

// reserve returns a future that completes once need units are held by
// the caller, at the lowest priority. See reservePri.
func (s *sem) reserve(need int64) *sim.Future[struct{}] {
	return s.reservePri(need, 0)
}

// reservePri returns a future that completes once need units are held
// by the caller. The grant is immediate (an already-completed future)
// when capacity is free and no earlier-or-higher request is still
// queued. A request larger than the whole capacity fails fast with
// ErrOversized instead of queueing forever at the head and starving
// the queue.
func (s *sem) reservePri(need int64, pri int) *sim.Future[struct{}] {
	if need > s.capacity {
		return sim.CompletedFuture(s.eng, struct{}{}, fmt.Errorf("%w: need %d, capacity %d", ErrOversized, need, s.capacity))
	}
	w := &semWaiter{need: need, pri: pri, fut: sim.NewFuture[struct{}](s.eng)}
	// Insert before the first strictly-lower-priority waiter; equals
	// keep arrival order, so same-class admission stays FIFO.
	at := len(s.q)
	for i, x := range s.q {
		if x.pri < pri {
			at = i
			break
		}
	}
	s.q = append(s.q, nil)
	copy(s.q[at+1:], s.q[at:])
	s.q[at] = w
	s.admit()
	return w.fut
}

// release returns units and admits queued waiters in priority-FIFO
// order.
func (s *sem) release(n int64) {
	s.used -= n
	if s.used < 0 {
		panic("fleet: semaphore over-released")
	}
	s.admit()
}

// admit grants the queue head while it fits. Only the head is ever
// admitted: no lower-priority or later request barges past a head
// that does not fit.
func (s *sem) admit() {
	for len(s.q) > 0 && s.used+s.q[0].need <= s.capacity {
		w := s.q[0]
		s.q = s.q[1:]
		s.used += w.need
		w.fut.Complete(struct{}{}, nil)
	}
}

// queued reports how many requests are waiting for capacity.
func (s *sem) queued() int { return len(s.q) }
