package mem

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// refHost, refSpace and friends are a frozen copy of the original
// page model: heap frames in the stable tree, a generation counter on
// every page, and a scan queue that skips stale generations. They are
// a test-only oracle; TestDifferentialAgainstReference drives Host and
// refHost through the same operations and requires identical results.

type refFrame struct {
	hash uint64
	refs int64
}

type refPage struct {
	hash uint64
	f    *refFrame
	gen  uint64
}

type refPageRef struct {
	space *refSpace
	idx   int64
	gen   uint64
}

type refHost struct {
	capacity      int64
	spaces        map[string]*refSpace
	stable        map[uint64]*refFrame
	pending       []refPageRef
	framesPrivate int64
	scrubbed      int64
	merged        int64
	cowBreaks     int64
}

func newRefHost(capacity int64) *refHost {
	return &refHost{
		capacity: capacity,
		spaces:   make(map[string]*refSpace),
		stable:   make(map[uint64]*refFrame),
	}
}

func (h *refHost) NewSpace(name string) (*refSpace, error) {
	if _, ok := h.spaces[name]; ok {
		return nil, fmt.Errorf("mem: space %q already exists", name)
	}
	s := &refSpace{host: h, name: name, pages: make(map[int64]*refPage)}
	h.spaces[name] = s
	return s, nil
}

func (h *refHost) UsedBytes() int64 {
	return (h.framesPrivate + int64(len(h.stable))) * PageSize
}

func (h *refHost) Stats() Stats {
	var shared, sharing, saved int64
	for _, f := range h.stable {
		if f.refs >= 2 {
			shared++
			sharing += f.refs
			saved += (f.refs - 1) * PageSize
		}
	}
	return Stats{
		UsedBytes:     h.UsedBytes(),
		PagesShared:   shared,
		PagesSharing:  sharing,
		SavedBytes:    saved,
		PendingScan:   int64(len(h.pending)),
		ScrubbedBytes: h.scrubbed,
		MergedPages:   h.merged,
		COWBreaks:     h.cowBreaks,
	}
}

func (h *refHost) Scan(maxPages int) int {
	mergedNow := 0
	processed := 0
	for len(h.pending) > 0 && (maxPages < 0 || processed < maxPages) {
		ref := h.pending[0]
		h.pending = h.pending[1:]
		pg, ok := ref.space.pages[ref.idx]
		if !ok || pg.gen != ref.gen || pg.f != nil {
			continue
		}
		processed++
		if f, ok := h.stable[pg.hash]; ok {
			f.refs++
			pg.f = f
			h.framesPrivate--
			h.merged++
			mergedNow++
			continue
		}
		f := &refFrame{hash: pg.hash, refs: 1}
		h.stable[pg.hash] = f
		pg.f = f
		h.framesPrivate--
	}
	return mergedNow
}

func (h *refHost) ScanAll() int { return h.Scan(-1) }

type refSpace struct {
	host   *refHost
	name   string
	pages  map[int64]*refPage
	nextUn uint64
	dead   bool
}

func (s *refSpace) TouchedBytes() int64 { return int64(len(s.pages)) * PageSize }

func refClassHash(class string, i int64) uint64 {
	hsh := fnv.New64a()
	hsh.Write([]byte(class))
	var b [8]byte
	for k := 0; k < 8; k++ {
		b[k] = byte(uint64(i) >> (8 * k))
	}
	hsh.Write(b[:])
	return hsh.Sum64()
}

const refZeroHash = 0x5a45524f50414745

func (s *refSpace) WriteClass(start, n int64, class string, classBase int64) error {
	return s.write(start, n, func(i int64) uint64 {
		return refClassHash(class, classBase+i)
	})
}

func (s *refSpace) WriteZero(start, n int64) error {
	return s.write(start, n, func(int64) uint64 { return refZeroHash })
}

func (s *refSpace) WriteUnique(start, n int64) error {
	return s.write(start, n, func(int64) uint64 {
		s.nextUn++
		return refClassHash("unique/"+s.name, int64(s.nextUn))
	})
}

func (s *refSpace) write(start, n int64, content func(i int64) uint64) error {
	if s.dead {
		return fmt.Errorf("mem: write to released space %q", s.name)
	}
	if n < 0 || start < 0 {
		return fmt.Errorf("mem: invalid write range start=%d n=%d", start, n)
	}
	h := s.host
	for i := int64(0); i < n; i++ {
		idx := start + i
		hash := content(i)
		pg, exists := s.pages[idx]
		if exists {
			if pg.hash == hash {
				continue
			}
			s.detach(pg)
			pg.hash = hash
			pg.gen++
			h.pending = append(h.pending, refPageRef{s, idx, pg.gen})
			continue
		}
		if h.capacity != 0 && h.UsedBytes()+PageSize > h.capacity {
			return fmt.Errorf("%w: space %q at %d pages", ErrOutOfMemory, s.name, len(s.pages))
		}
		pg = &refPage{hash: hash}
		s.pages[idx] = pg
		h.framesPrivate++
		h.pending = append(h.pending, refPageRef{s, idx, pg.gen})
	}
	return nil
}

func (s *refSpace) detach(pg *refPage) {
	if pg.f == nil {
		return
	}
	h := s.host
	if pg.f.refs >= 2 {
		h.cowBreaks++
	}
	pg.f.refs--
	if pg.f.refs == 0 {
		delete(h.stable, pg.f.hash)
	}
	pg.f = nil
	h.framesPrivate++
}

func (s *refSpace) Release() {
	h := s.host
	for idx, pg := range s.pages {
		s.detach(pg)
		h.framesPrivate--
		h.scrubbed += PageSize
		delete(s.pages, idx)
	}
	s.dead = true
	delete(h.spaces, s.name)
}

// diffOp is one step of the differential test: a write, a release
// and re-creation, or a full scan, on one of the spaces diffNames.
type diffOp struct {
	kind     int
	space    int
	start, n int64
	class    string
	base     int64
}

const (
	opWriteClass = iota
	opWriteZero
	opWriteUnique
	opRecreate
	opScanAll
)

var (
	diffNames   = []string{"a", "b", "c"}
	diffClasses = []string{"base", "lib"} // overlapping offsets, distinct content
)

// differential is a Host and a refHost driven in lockstep.
type differential struct {
	h      *Host
	ref    *refHost
	spaces []*Space
	refs   []*refSpace
}

func newDifferential(capacity int64) *differential {
	d := &differential{h: NewHost(capacity), ref: newRefHost(capacity)}
	for _, name := range diffNames {
		s, _ := d.h.NewSpace(name)
		r, _ := d.ref.NewSpace(name)
		d.spaces, d.refs = append(d.spaces, s), append(d.refs, r)
	}
	return d
}

// step applies op to both models and fails t, naming the step by at,
// unless the write error text, ScanAll's return, the full Stats and
// every space's TouchedBytes agree afterwards.
func (d *differential) step(t *testing.T, at string, op diffOp) {
	t.Helper()
	i, name := op.space, diffNames[op.space]
	s, r := d.spaces[i], d.refs[i]
	var desc string
	var got, want error
	switch op.kind {
	case opWriteClass:
		desc = fmt.Sprintf("%s.WriteClass(%d, %d, %q, %d)", name, op.start, op.n, op.class, op.base)
		got, want = s.WriteClass(op.start, op.n, op.class, op.base), r.WriteClass(op.start, op.n, op.class, op.base)
	case opWriteZero:
		desc = fmt.Sprintf("%s.WriteZero(%d, %d)", name, op.start, op.n)
		got, want = s.WriteZero(op.start, op.n), r.WriteZero(op.start, op.n)
	case opWriteUnique:
		desc = fmt.Sprintf("%s.WriteUnique(%d, %d)", name, op.start, op.n)
		got, want = s.WriteUnique(op.start, op.n), r.WriteUnique(op.start, op.n)
	case opRecreate:
		desc = name + ".Release+NewSpace"
		s.Release()
		r.Release()
		var err error
		if d.spaces[i], err = d.h.NewSpace(name); err != nil {
			t.Fatalf("%s %s: %v", at, desc, err)
		}
		if d.refs[i], err = d.ref.NewSpace(name); err != nil {
			t.Fatalf("%s %s: reference: %v", at, desc, err)
		}
	default:
		desc = "ScanAll"
		if g, w := d.h.ScanAll(), d.ref.ScanAll(); g != w {
			t.Fatalf("%s %s: merged %d, reference %d", at, desc, g, w)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s %s: err %v, reference %v", at, desc, got, want)
	}
	if g, w := d.h.Stats(), d.ref.Stats(); g != w {
		t.Fatalf("%s %s: stats\n got %+v\nwant %+v", at, desc, g, w)
	}
	for j, name := range diffNames {
		if g, w := d.spaces[j].TouchedBytes(), d.refs[j].TouchedBytes(); g != w {
			t.Fatalf("%s %s: %s touched %d, reference %d", at, desc, name, g, w)
		}
	}
}

// TestDifferentialAgainstReference drives Host and refHost through the
// same seeded random sequence of writes (two overlapping classes, zero
// and unique ranges, rewrites onto merged pages), releases and
// re-creations, and full scans, on capped and uncapped hosts, and
// compares every observable result after each step.
func TestDifferentialAgainstReference(t *testing.T) {
	const seeds, steps = 300, 150
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var capacity int64
		if seed%3 == 0 {
			capacity = int64(40+rng.Intn(80)) * PageSize
		}
		d := newDifferential(capacity)
		for step := 0; step < steps; step++ {
			op := diffOp{space: rng.Intn(len(diffNames)), start: int64(rng.Intn(48)), n: int64(rng.Intn(16) + 1)}
			switch k := rng.Intn(10); {
			case k < 4:
				op.kind = opWriteClass
				op.class = diffClasses[rng.Intn(len(diffClasses))]
				op.base = int64(rng.Intn(24))
			case k < 5:
				op.kind = opWriteZero
			case k < 7:
				op.kind = opWriteUnique
			case k < 8:
				op.kind = opRecreate
			default:
				op.kind = opScanAll
			}
			d.step(t, fmt.Sprintf("seed %d step %d", seed, step), op)
		}
	}
}

// FuzzDifferentialAgainstReference runs the differential test's op set
// on sequences decoded from the fuzz input. The first byte picks the
// host (odd: capped at 40-119 pages); then every four bytes are one op:
// kind and space, start page, page count, and class and class offset.
func FuzzDifferentialAgainstReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 9, 0, 3, 4, 9, 0, 4, 0, 0, 0, 11, 2, 3, 2})
	f.Add([]byte{1, 5, 10, 15, 0, 2, 40, 15, 0, 4, 0, 0, 0, 8, 0, 15, 1, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var capacity int64
		if data[0]%2 == 1 {
			capacity = int64(40+int(data[0]>>1)%80) * PageSize
		}
		d := newDifferential(capacity)
		ops := data[1:]
		for step := 0; len(ops) >= 4 && step < 300; step++ {
			b := ops[:4]
			ops = ops[4:]
			op := diffOp{
				kind:  int(b[0]) % 5,
				space: int(b[0]/5) % len(diffNames),
				start: int64(b[1] % 64),
				n:     int64(b[2]%24) + 1,
				class: diffClasses[b[3]%2],
				base:  int64(b[3]>>1) % 32,
			}
			d.step(t, fmt.Sprintf("step %d", step), op)
		}
	})
}

// TestReferenceHashesDistinct pins the one semantic edge between the
// models. The reference identifies content by a 64-bit FNV hash, so two
// contents whose hashes collide would merge there; Host compares
// content structurally and never merges them. No such collision exists
// among the base-image offsets the workloads write (at most 9000, the
// hypervisor's and the largest guest profile's) and the zero page, so
// both models agree on every workload.
func TestReferenceHashesDistinct(t *testing.T) {
	const baseOffsets = 9000
	seen := make(map[uint64]int64, baseOffsets+1)
	seen[refZeroHash] = -1 // the zero page
	for i := int64(0); i < baseOffsets; i++ {
		hash := refClassHash("baseimg", i)
		if j, ok := seen[hash]; ok {
			t.Fatalf("baseimg offset %d collides with %d (-1 = zero page): %#x", i, j, hash)
		}
		seen[hash] = i
	}
}
