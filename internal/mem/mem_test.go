package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func mustSpace(t *testing.T, h *Host, name string) *Space {
	t.Helper()
	s, err := h.NewSpace(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteAccountsPages(t *testing.T) {
	h := NewHost(0)
	s := mustSpace(t, h, "vm0")
	if err := s.WriteClass(0, 100, "base", 0); err != nil {
		t.Fatal(err)
	}
	if got := s.TouchedPages(); got != 100 {
		t.Fatalf("touched = %d, want 100", got)
	}
	if got := h.UsedBytes(); got != 100*PageSize {
		t.Fatalf("used = %d, want %d", got, 100*PageSize)
	}
}

func TestKSMMergesIdenticalClassPages(t *testing.T) {
	h := NewHost(0)
	a := mustSpace(t, h, "a")
	b := mustSpace(t, h, "b")
	a.WriteClass(0, 50, "base", 0)
	b.WriteClass(0, 50, "base", 0)
	if h.UsedBytes() != 100*PageSize {
		t.Fatalf("pre-scan used = %d", h.UsedBytes())
	}
	merged := h.ScanAll()
	if merged != 50 {
		t.Fatalf("merged = %d, want 50", merged)
	}
	if h.UsedBytes() != 50*PageSize {
		t.Fatalf("post-scan used = %d, want %d", h.UsedBytes(), 50*PageSize)
	}
	st := h.Stats()
	if st.PagesShared != 50 || st.PagesSharing != 100 {
		t.Fatalf("shared=%d sharing=%d, want 50/100", st.PagesShared, st.PagesSharing)
	}
	if st.SavedBytes != 50*PageSize {
		t.Fatalf("saved = %d", st.SavedBytes)
	}
}

func TestUniquePagesNeverMerge(t *testing.T) {
	h := NewHost(0)
	a := mustSpace(t, h, "a")
	b := mustSpace(t, h, "b")
	a.WriteUnique(0, 30)
	b.WriteUnique(0, 30)
	if merged := h.ScanAll(); merged != 0 {
		t.Fatalf("unique pages merged: %d", merged)
	}
	if h.UsedBytes() != 60*PageSize {
		t.Fatalf("used = %d", h.UsedBytes())
	}
}

func TestZeroPagesMergeHostWide(t *testing.T) {
	h := NewHost(0)
	a := mustSpace(t, h, "a")
	b := mustSpace(t, h, "b")
	c := mustSpace(t, h, "c")
	a.WriteZero(0, 10)
	b.WriteZero(0, 20)
	c.WriteZero(5, 30)
	h.ScanAll()
	if h.UsedBytes() != 1*PageSize {
		t.Fatalf("zero pages use %d bytes, want one frame", h.UsedBytes())
	}
	st := h.Stats()
	if st.PagesSharing != 60 {
		t.Fatalf("sharing = %d, want 60", st.PagesSharing)
	}
}

func TestCOWBreakOnWriteToSharedPage(t *testing.T) {
	h := NewHost(0)
	a := mustSpace(t, h, "a")
	b := mustSpace(t, h, "b")
	a.WriteClass(0, 10, "base", 0)
	b.WriteClass(0, 10, "base", 0)
	h.ScanAll()
	// b dirties 4 of its shared pages with unique content.
	b.WriteUnique(0, 4)
	st := h.Stats()
	if st.COWBreaks != 4 {
		t.Fatalf("cow breaks = %d, want 4", st.COWBreaks)
	}
	// 10 shared frames still exist (a holds refs; 6 still shared by b),
	// plus 4 private pages in b.
	if h.UsedBytes() != 14*PageSize {
		t.Fatalf("used = %d, want %d", h.UsedBytes(), 14*PageSize)
	}
	h.ScanAll()
	if h.UsedBytes() != 14*PageSize {
		t.Fatalf("unique rewrites must not re-merge; used = %d", h.UsedBytes())
	}
}

func TestIdempotentRewriteKeepsSharing(t *testing.T) {
	h := NewHost(0)
	a := mustSpace(t, h, "a")
	b := mustSpace(t, h, "b")
	a.WriteClass(0, 10, "base", 0)
	b.WriteClass(0, 10, "base", 0)
	h.ScanAll()
	before := h.Stats()
	// Rewriting the same content must not break sharing.
	b.WriteClass(0, 10, "base", 0)
	after := h.Stats()
	if after.PagesSharing != before.PagesSharing || after.COWBreaks != before.COWBreaks {
		t.Fatalf("idempotent rewrite changed stats: %+v -> %+v", before, after)
	}
}

func TestFreeReleasesFrames(t *testing.T) {
	h := NewHost(0)
	a := mustSpace(t, h, "a")
	b := mustSpace(t, h, "b")
	a.WriteClass(0, 10, "base", 0)
	b.WriteClass(0, 10, "base", 0)
	h.ScanAll()
	a.Release()
	if a.TouchedPages() != 0 {
		t.Fatalf("a still has pages")
	}
	// b's pages still exist; its 10 frames survive with refs=1 each:
	// 10 frames for 10 logical pages, none of them shared.
	st := h.Stats()
	if st.UsedBytes != 10*PageSize || b.TouchedPages() != 10 {
		t.Fatalf("used = %d for %d pages, want %d for 10", st.UsedBytes, b.TouchedPages(), 10*PageSize)
	}
	if st.PagesShared != 0 || st.PagesSharing != 0 || st.SavedBytes != 0 {
		t.Fatalf("frames still shared after a's release: %+v", st)
	}
	b.Release()
	st = h.Stats()
	if st.UsedBytes != 0 || st.PagesShared != 0 || st.PagesSharing != 0 {
		t.Fatalf("stable tree not empty after both releases: %+v", st)
	}
	// A fresh copy of the same content finds no frame left to merge into.
	c := mustSpace(t, h, "c")
	c.WriteClass(0, 10, "base", 0)
	if merged := h.ScanAll(); merged != 0 || h.UsedBytes() != 10*PageSize {
		t.Fatalf("stale frames: merged %d, used %d", merged, h.UsedBytes())
	}
}

func TestReleaseScrubsAndFrees(t *testing.T) {
	h := NewHost(0)
	a := mustSpace(t, h, "a")
	a.WriteClass(0, 25, "base", 0)
	a.WriteUnique(100, 5)
	h.ScanAll()
	a.Release()
	if h.UsedBytes() != 0 {
		t.Fatalf("used = %d after release", h.UsedBytes())
	}
	st := h.Stats()
	if st.ScrubbedBytes != 30*PageSize {
		t.Fatalf("scrubbed = %d, want %d", st.ScrubbedBytes, 30*PageSize)
	}
	if h.Space("a") != nil {
		t.Fatal("released space still registered")
	}
	if err := a.WriteZero(0, 1); err == nil {
		t.Fatal("write to released space succeeded")
	}
}

func TestReleaseOnStaleHandleKeepsNewSpace(t *testing.T) {
	h := NewHost(0)
	a := mustSpace(t, h, "a")
	a.Release()
	b := mustSpace(t, h, "a")
	b.WriteClass(0, 5, "base", 0)
	a.Release()
	if h.Space("a") != b {
		t.Fatal("releasing a stale handle unregistered the live space")
	}
	if _, err := h.NewSpace("a"); err == nil {
		t.Fatal("second space named a created beside a live one")
	}
	if b.TouchedPages() != 5 || h.UsedBytes() != 5*PageSize {
		t.Fatalf("live space lost pages: touched %d, used %d", b.TouchedPages(), h.UsedBytes())
	}
}

func TestCapacityEnforced(t *testing.T) {
	h := NewHost(10 * PageSize)
	a := mustSpace(t, h, "a")
	if err := a.WriteUnique(0, 10); err != nil {
		t.Fatalf("within-capacity write failed: %v", err)
	}
	err := a.WriteUnique(10, 1)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// KSM can reclaim room: merge with another space's identical pages
	// is impossible here (unique), but zero pages dedup within space.
	b := NewHost(10 * PageSize)
	s, _ := b.NewSpace("s")
	if err := s.WriteZero(0, 10); err != nil {
		t.Fatal(err)
	}
	b.ScanAll()
	if err := s.WriteZero(10, 5); err != nil {
		t.Fatalf("post-merge write failed despite free frames: %v", err)
	}
}

func TestDuplicateSpaceNameRejected(t *testing.T) {
	h := NewHost(0)
	mustSpace(t, h, "x")
	if _, err := h.NewSpace("x"); err == nil {
		t.Fatal("duplicate space name accepted")
	}
}

func TestInvalidWriteRange(t *testing.T) {
	h := NewHost(0)
	s := mustSpace(t, h, "s")
	if err := s.WriteZero(-1, 5); err == nil {
		t.Fatal("negative start accepted")
	}
	if err := s.WriteZero(0, -5); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestStaleScanEntriesSkipped(t *testing.T) {
	h := NewHost(0)
	a := mustSpace(t, h, "a")
	b := mustSpace(t, h, "b")
	a.WriteClass(0, 10, "base", 0)
	b.WriteClass(0, 10, "base", 0)
	// Rewrite b's pages before any scan: the original queue entries
	// are stale and must not merge the old content.
	b.WriteUnique(0, 10)
	h.ScanAll()
	st := h.Stats()
	if st.PagesSharing != 0 {
		t.Fatalf("stale entries merged: %+v", st)
	}
	if h.UsedBytes() != 20*PageSize {
		t.Fatalf("used = %d", h.UsedBytes())
	}
}

// A booted space plus DirtyPages-style one-page unique appends, with
// KSM scans between them, stays a handful of extents: the appends
// coalesce with the unique range before them whether merged or not.
func TestUniqueAppendsCoalesce(t *testing.T) {
	h := NewHost(0)
	s := mustSpace(t, h, "vm")
	s.WriteClass(0, 6400, "baseimg", 0)
	s.WriteZero(6400, 2048)
	s.WriteUnique(8448, 1000)
	s.WriteUnique(20000, 500) // RAM-backed disk beyond the RAM pages
	h.ScanAll()
	for i := int64(0); i < 64; i++ {
		s.WriteUnique(9448+i, 1)
		if i%8 == 7 {
			h.ScanAll()
		}
	}
	h.ScanAll()
	if len(s.ext) > 4 {
		t.Fatalf("%d extents after 64 appends, want <= 4: %+v", len(s.ext), s.ext)
	}
	if s.TouchedPages() != 6400+2048+1000+64+500 {
		t.Fatalf("touched = %d", s.TouchedPages())
	}
}

// Property: for any interleaving of identical-class writes across
// spaces, after a full scan, used frames equal the number of distinct
// (class offset) hashes, and logical bytes are conserved.
func TestPropertyMergePreservesLogicalPages(t *testing.T) {
	f := func(aPages, bPages, overlap uint8) bool {
		h := NewHost(0)
		a, _ := h.NewSpace("a")
		b, _ := h.NewSpace("b")
		na := int64(aPages%64) + 1
		nb := int64(bPages%64) + 1
		ov := int64(overlap) % min64(na, nb)
		// a writes [0,na) of class base; b writes [0,ov) of base (mergeable
		// with a) and [ov,nb) unique.
		if err := a.WriteClass(0, na, "base", 0); err != nil {
			return false
		}
		if err := b.WriteClass(0, ov, "base", 0); err != nil {
			return false
		}
		if err := b.WriteUnique(ov, nb-ov); err != nil {
			return false
		}
		h.ScanAll()
		wantFrames := na + (nb - ov) // distinct contents
		if h.UsedBytes() != wantFrames*PageSize {
			return false
		}
		return a.TouchedPages() == na && b.TouchedPages() == nb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: release always returns the host to zero usage, and shared
// accounting never goes negative along the way.
func TestPropertyReleaseAlwaysDrains(t *testing.T) {
	f := func(ops []uint16) bool {
		h := NewHost(0)
		spaces := make([]*Space, 4)
		for i := range spaces {
			spaces[i], _ = h.NewSpace(string(rune('a' + i)))
		}
		for _, op := range ops {
			i := int(op) % len(spaces)
			s := spaces[i]
			start := int64(op>>2) % 32
			n := int64(op>>7)%16 + 1
			switch (op >> 11) % 4 {
			case 0:
				s.WriteClass(start, n, "base", start)
			case 1:
				s.WriteZero(start, n)
			case 2:
				s.WriteUnique(start, n)
			case 3:
				s.Release()
				spaces[i], _ = h.NewSpace(s.Name())
			}
			if (op>>13)%5 == 0 {
				h.ScanAll()
			}
			st := h.Stats()
			if st.PagesShared < 0 || st.PagesSharing < 0 || st.SavedBytes < 0 || st.UsedBytes < 0 {
				return false
			}
		}
		for _, s := range spaces {
			s.Release()
		}
		if st := h.Stats(); st.UsedBytes != 0 || st.PagesShared != 0 || st.PagesSharing != 0 || st.SavedBytes != 0 {
			return false
		}
		// The stable tree is empty: every content the ops could have
		// written finds no frame to merge into, and each new page costs
		// exactly one frame.
		p, _ := h.NewSpace("probe")
		p.WriteClass(0, 48, "base", 0)
		p.WriteZero(48, 1)
		p.WriteUnique(49, 1)
		return h.ScanAll() == 0 && h.UsedBytes() == 50*PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// BenchmarkNymboxBoot boots two Figure-3-sized AnonVM spaces (the
// guestos AnonVM boot profile on 384 MiB of RAM: base image, zero pool
// and private pages), merges them through a full scan, and releases
// both.
func BenchmarkNymboxBoot(b *testing.B) {
	const (
		basePages   = 6400
		zeroPages   = 2048
		uniquePages = (384<<20/PageSize - basePages - zeroPages) * 86 / 100
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHost(0)
		for _, name := range []string{"anon", "comm"} {
			s, _ := h.NewSpace(name)
			s.WriteClass(0, basePages, "base", 0)
			s.WriteZero(basePages, zeroPages)
			s.WriteUnique(basePages+zeroPages, uniquePages)
		}
		h.ScanAll()
		h.Space("anon").Release()
		h.Space("comm").Release()
	}
}
