package main

import (
	"sync"
	"time"
)

// The reference kernel measures how fast the shared machine is right
// now. Its speed drifts by tens of percent over minutes as neighbours
// come and go, which no amount of repetition inside one run averages
// away. The parent times this fixed, stdlib-only kernel between
// children, and every host time is reported in reference-machine
// seconds: raw seconds × refNominalS / the kernel's time around that
// repetition. The kernel mixes the simulator's host-cost profile
// (cache-missing pointer chasing, allocation churn that keeps the
// collector busy, and map building) on two goroutines, because on this
// mix its time tracks every workload's time far better than pure
// computation does. It never calls nymix code, so no change to the
// simulator can move it.

// refNominalS is the kernel's time on the reference machine: a
// 2-vCPU Xeon (Sapphire Rapids) KVM guest at a quiet moment.
const refNominalS = 0.15

var (
	refOnce  sync.Once
	refTable []uint32 // one random cycle through every slot
	refMu    sync.Mutex
	refSink  uint64 // keeps the kernel's results live
)

// refKernel runs the reference work on two goroutines and returns its
// wall time in seconds.
func refKernel() float64 {
	refOnce.Do(buildRefTable)
	t0 := time.Now()
	done := make(chan struct{})
	go func() {
		refWork(uint32(len(refTable) / 2))
		close(done)
	}()
	refWork(0)
	<-done
	return time.Since(t0).Seconds()
}

// buildRefTable lays one pseudo-random cycle through 16 MiB (Sattolo's
// algorithm with a fixed xorshift seed), larger than the caches, so
// each step of the chase is a cache miss.
func buildRefTable() {
	const n = 1 << 22
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	refTable = make([]uint32, n)
	for i := range perm {
		refTable[perm[i]] = perm[(i+1)%n]
	}
}

// refObj holds a pointer so the collector must scan it, as it scans
// the simulator's objects.
type refObj struct {
	a, b int64
	next *refObj
}

// refWork is one goroutine's share: a pointer chase, short-lived
// allocations through a small live ring, and a map of pointers.
func refWork(start uint32) {
	i := start
	for n := 0; n < 400_000; n++ {
		i = refTable[i]
	}
	ring := make([]*refObj, 1<<14)
	for n := 0; n < 800_000; n++ {
		o := &refObj{a: int64(n)}
		if old := ring[n%len(ring)]; old != nil {
			o.b = old.a
		}
		ring[n%len(ring)] = o
	}
	m := make(map[int64]*refObj)
	for k := int64(0); k < 80_000; k++ {
		m[k*7919] = &refObj{a: k, b: k * 3}
	}
	var s int64
	for k, v := range m {
		s += k ^ v.a
	}
	refMu.Lock()
	refSink += uint64(i) + uint64(ring[7].b) + uint64(s)
	refMu.Unlock()
}
