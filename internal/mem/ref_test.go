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

// TestDifferentialAgainstReference drives Host and refHost through the
// same seeded random sequence of writes (two overlapping classes, zero
// and unique ranges, rewrites onto merged pages), releases and
// re-creations, and full scans, on capped and uncapped hosts, and
// compares every observable result after each step.
func TestDifferentialAgainstReference(t *testing.T) {
	const seeds, steps = 300, 150
	names := []string{"a", "b", "c"}
	classes := []string{"base", "lib"}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var capacity int64
		if seed%3 == 0 {
			capacity = int64(40+rng.Intn(80)) * PageSize
		}
		h, ref := NewHost(capacity), newRefHost(capacity)
		spaces := make([]*Space, len(names))
		refs := make([]*refSpace, len(names))
		for i, name := range names {
			spaces[i], _ = h.NewSpace(name)
			refs[i], _ = ref.NewSpace(name)
		}
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(names))
			s, r := spaces[i], refs[i]
			start := int64(rng.Intn(48))
			n := int64(rng.Intn(16) + 1)
			var op string
			var got, want error
			switch k := rng.Intn(10); {
			case k < 4:
				class := classes[rng.Intn(len(classes))]
				base := int64(rng.Intn(24))
				op = fmt.Sprintf("%s.WriteClass(%d, %d, %q, %d)", names[i], start, n, class, base)
				got, want = s.WriteClass(start, n, class, base), r.WriteClass(start, n, class, base)
			case k < 5:
				op = fmt.Sprintf("%s.WriteZero(%d, %d)", names[i], start, n)
				got, want = s.WriteZero(start, n), r.WriteZero(start, n)
			case k < 7:
				op = fmt.Sprintf("%s.WriteUnique(%d, %d)", names[i], start, n)
				got, want = s.WriteUnique(start, n), r.WriteUnique(start, n)
			case k < 8:
				op = fmt.Sprintf("%s.Release+NewSpace", names[i])
				s.Release()
				r.Release()
				var err error
				if spaces[i], err = h.NewSpace(names[i]); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if refs[i], err = ref.NewSpace(names[i]); err != nil {
					t.Fatalf("seed %d step %d: ref: %v", seed, step, err)
				}
			default:
				op = "ScanAll"
				if g, w := h.ScanAll(), ref.ScanAll(); g != w {
					t.Fatalf("seed %d step %d %s: merged %d, reference %d", seed, step, op, g, w)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d %s: err %v, reference %v", seed, step, op, got, want)
			}
			if g, w := h.Stats(), ref.Stats(); g != w {
				t.Fatalf("seed %d step %d %s: stats\n got %+v\nwant %+v", seed, step, op, g, w)
			}
			for j := range names {
				if g, w := spaces[j].TouchedBytes(), refs[j].TouchedBytes(); g != w {
					t.Fatalf("seed %d step %d %s: %s touched %d, reference %d", seed, step, op, names[j], g, w)
				}
			}
		}
	}
}
