// Package cpusched models the host CPU the paper's evaluation ran on:
// a quad-core desktop with hardware virtualization and SMT
// (hyper-threading). Each Nymix AnonVM exposes a single vCPU ("a QEMU
// Virtual CPU"), and virtualization costs roughly 20% (Figure 4), so a
// vCPU-bound task progresses at 0.8 of native speed.
//
// Like internal/vnet, the scheduler is a fluid model: runnable tasks
// receive fair shares of chip throughput, recomputed whenever a task
// starts or finishes. With n tasks on c physical cores the chip
// delivers min(n, c) core-units of throughput, rising toward
// c*SMTFactor as SMT threads fill — which is why the paper found
// parallel nyms outperforming the "expected" no-SMT projection.
package cpusched

import (
	"time"

	"nymix/internal/sim"
)

// Config describes the simulated chip.
type Config struct {
	Cores     int     // physical cores
	SMTFactor float64 // aggregate per-core throughput with both threads busy (e.g. 1.3)
}

// DefaultConfig matches the paper's testbed: an Intel i7 quad core
// with hyper-threading.
func DefaultConfig() Config { return Config{Cores: 4, SMTFactor: 1.3} }

// Host schedules CPU-bound tasks on the simulated chip.
type Host struct {
	eng   *sim.Engine
	cfg   Config
	tasks []*Task
	// peak is the high-water mark of concurrently runnable tasks, the
	// chip-pressure figure fleet-scale experiments report.
	peak int
}

// NewHost returns a CPU host on eng.
func NewHost(eng *sim.Engine, cfg Config) *Host {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.SMTFactor < 1 {
		cfg.SMTFactor = 1
	}
	return &Host{eng: eng, cfg: cfg}
}

// Config returns the chip parameters.
func (h *Host) Config() Config { return h.cfg }

// Running returns the number of runnable tasks.
func (h *Host) Running() int { return len(h.tasks) }

// PeakRunning returns the lifetime high-water mark of concurrently
// runnable tasks.
func (h *Host) PeakRunning() int { return h.peak }

// Utilization returns the fraction of the chip's maximum throughput
// (cores times the SMT factor) the current runnable set can consume.
// 1.0 means every core and SMT thread is saturated.
func (h *Host) Utilization() float64 {
	return h.chipThroughput(len(h.tasks)) / (float64(h.cfg.Cores) * h.cfg.SMTFactor)
}

// TaskResult describes a finished task.
type TaskResult struct {
	Work    float64
	Started sim.Time
	Ended   sim.Time
}

// Duration returns elapsed simulated time.
func (r TaskResult) Duration() time.Duration { return r.Ended - r.Started }

// Task is a runnable CPU-bound computation.
type Task struct {
	host       *Host
	name       string
	eff        float64
	remaining  float64
	rate       float64
	lastUpdate sim.Time
	timer      sim.Timer
	fut        *sim.Future[TaskResult]
	started    sim.Time
	finished   bool
}

// Submit starts a task needing work core-seconds of native CPU, run at
// efficiency eff (1.0 native, ~0.8 inside a VM). The future completes
// when the work is done.
func (h *Host) Submit(name string, work, eff float64) *sim.Future[TaskResult] {
	if work <= 0 {
		work = 1e-9
	}
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	t := &Task{
		host:      h,
		name:      name,
		eff:       eff,
		remaining: work,
		fut:       sim.NewFuture[TaskResult](h.eng),
		started:   h.eng.Now(),
	}
	h.eng.Schedule(0, func() {
		t.lastUpdate = h.eng.Now()
		h.tasks = append(h.tasks, t)
		if len(h.tasks) > h.peak {
			h.peak = len(h.tasks)
		}
		h.recompute()
	})
	return t.fut
}

// chipThroughput returns total core-units available to n runnable
// single-threaded tasks: linear up to the core count, then growing
// with the SMT bonus as sibling threads fill, capped at
// cores*SMTFactor.
func (h *Host) chipThroughput(n int) float64 {
	c := float64(h.cfg.Cores)
	if n <= 0 {
		return 0
	}
	if float64(n) <= c {
		return float64(n)
	}
	extra := float64(n) - c
	maxExtra := c * (h.cfg.SMTFactor - 1)
	bonus := extra * (h.cfg.SMTFactor - 1)
	if bonus > maxExtra {
		bonus = maxExtra
	}
	return c + bonus
}

func (h *Host) recompute() {
	now := h.eng.Now()
	for _, t := range h.tasks {
		elapsed := (now - t.lastUpdate).Seconds()
		if elapsed > 0 && t.rate > 0 {
			t.remaining -= t.rate * elapsed
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
		t.lastUpdate = now
		t.timer.Cancel()
	}
	n := len(h.tasks)
	if n == 0 {
		return
	}
	share := h.chipThroughput(n) / float64(n)
	if share > 1 {
		share = 1 // one single-threaded task cannot use more than a core
	}
	for _, t := range h.tasks {
		t := t
		t.rate = share * t.eff
		eta := time.Duration(t.remaining / t.rate * float64(time.Second))
		if eta < 0 {
			eta = 0
		}
		t.timer = h.eng.Schedule(eta, func() { h.finish(t) })
	}
}

func (h *Host) finish(t *Task) {
	if t.finished {
		return
	}
	t.finished = true
	t.timer.Cancel()
	for i, other := range h.tasks {
		if other == t {
			h.tasks = append(h.tasks[:i], h.tasks[i+1:]...)
			break
		}
	}
	t.fut.Complete(TaskResult{Work: 0, Started: t.started, Ended: h.eng.Now()}, nil)
	h.recompute()
}
