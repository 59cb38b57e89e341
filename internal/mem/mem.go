// Package mem models host physical memory at page granularity,
// including KSM (kernel samepage merging). Nymix enables KSM because
// every AnonVM, CommVM and the hypervisor boot from the same base
// image, so a large fraction of their resident pages have identical
// contents and can share a single physical frame (paper section 4.2,
// Figure 3).
//
// Pages are not stored as real 4 KiB buffers. A space is a sorted list
// of run-length extents, each a run of pages of one content kind:
// class pages (page i of the extent holds offset base+i of a named
// content class, such as the base image), zero pages, or unique pages
// (private state that never matches any other page). Content identity
// is structural: two pages are identical exactly when they hold the
// same class at the same offset, or are both zero pages, which is the
// property KSM keys on.
//
// The stable tree mirrors that: each class keeps interval refcounts
// over its offsets, the zero page keeps one refcount, and scanned
// unique pages are a plain frame count. A merged page holds one
// reference on its content, and each referenced content is one
// physical frame. Every scan drains the whole queue: it merges every
// unmerged extent. Writes, scans, releases and Stats cost time in
// extents and refcount runs, not in pages.
package mem

import (
	"errors"
	"fmt"
	"sort"
)

// PageSize is the size of one page in bytes (4 KiB, as on x86-64).
const PageSize = 4096

// ErrOutOfMemory is returned when an allocation would exceed the
// host's physical capacity.
var ErrOutOfMemory = errors.New("mem: out of host memory")

// kind is the content kind of an extent's pages.
type kind uint8

const (
	kindClass kind = iota
	kindZero
	kindUnique
)

// extent is a run of n logical pages starting at page start, all of
// one kind. For a class extent, page start+i holds class offset
// base+i.
type extent struct {
	start, n int64
	kind     kind
	class    *classTree
	base     int64
	merged   bool // holds references in the stable tree
}

func (e extent) end() int64 { return e.start + e.n }

// slice returns the part of e covering pages [lo, hi).
func (e extent) slice(lo, hi int64) extent {
	e.base += lo - e.start
	e.start, e.n = lo, hi-lo
	return e
}

// sameContent reports whether e and f, covering the same pages, hold
// identical content page for page.
func (e extent) sameContent(f extent) bool {
	switch e.kind {
	case kindClass:
		return f.kind == kindClass && e.class == f.class && e.base == f.base
	case kindZero:
		return f.kind == kindZero
	}
	return false // unique content never repeats
}

// joins reports whether f continues e without a break, so the two can
// be one extent.
func (e extent) joins(f extent) bool {
	return e.end() == f.start && e.kind == f.kind && e.merged == f.merged &&
		e.class == f.class && (e.kind != kindClass || e.base+e.n == f.base)
}

// appendExtent appends e to list, coalescing it into the last extent
// when it continues that one.
func appendExtent(list []extent, e extent) []extent {
	if k := len(list) - 1; k >= 0 && list[k].joins(e) {
		list[k].n += e.n
		return list
	}
	return append(list, e)
}

// run is a maximal range [lo, hi) of class offsets whose pages all hold
// refs references on their frames.
type run struct{ lo, hi, refs int64 }

// classTree is one content class and its part of the stable tree: sorted,
// disjoint, coalesced runs of offsets with at least one reference.
type classTree struct {
	runs, spare []run
}

// adjust adds d (+1 or -1) references to every offset in [lo, hi) and
// returns how many of those offsets have a frame both before and after
// the change: for d = +1 the pages that merge into an existing frame,
// for d = -1 the references dropped from a frame others still share.
func (c *classTree) adjust(lo, hi, d int64) (kept int64) {
	out := c.spare[:0]
	emit := func(r run) {
		if r.lo >= r.hi || r.refs <= 0 {
			return
		}
		if k := len(out) - 1; k >= 0 && out[k].hi == r.lo && out[k].refs == r.refs {
			out[k].hi = r.hi
			return
		}
		out = append(out, r)
	}
	cur := lo // offsets of [lo, cur) are already emitted
	for _, r := range c.runs {
		if r.lo > cur && cur < hi {
			gap := min(r.lo, hi)
			emit(run{cur, gap, d})
			cur = gap
		}
		emit(run{r.lo, min(r.hi, lo), r.refs})
		if olo, ohi := max(r.lo, lo), min(r.hi, hi); olo < ohi {
			emit(run{olo, ohi, r.refs + d})
			if r.refs+d > 0 {
				kept += ohi - olo
			}
			cur = ohi
		}
		emit(run{max(r.lo, hi), r.hi, r.refs})
	}
	if cur < hi {
		emit(run{cur, hi, d})
	}
	c.runs, c.spare = out, c.runs[:0]
	return kept
}

// Host models a machine's physical memory and its KSM daemon state.
type Host struct {
	capacity int64 // bytes; 0 means unlimited
	spaces   map[string]*Space
	classes  map[string]*classTree
	order    []*classTree // classes in first-use order, for a fixed Stats walk
	zeroRefs int64        // logical pages sharing the zero frame
	// frames counts stable-tree frames: referenced class offsets, the
	// zero frame, and scanned unique pages.
	frames int64
	// framesPrivate counts logical pages not yet absorbed into the
	// stable tree; each occupies its own physical frame.
	framesPrivate int64
	dirty         []*Space // spaces written since the last scan
	pending       int64    // pages queued since the last scan
	scrubbed      int64    // bytes securely erased over the host's lifetime
	merged        int64    // pages merged by KSM over the host's lifetime
	cowBreaks     int64    // copy-on-write breaks of shared frames
}

// NewHost returns a host with the given physical capacity in bytes.
// A capacity of zero disables the limit.
func NewHost(capacity int64) *Host {
	return &Host{
		capacity: capacity,
		spaces:   make(map[string]*Space),
		classes:  make(map[string]*classTree),
	}
}

// Capacity returns the host's physical memory size in bytes (0 =
// unlimited).
func (h *Host) Capacity() int64 { return h.capacity }

// NewSpace creates a named address space (one per VM, plus one for the
// hypervisor itself). Space names must be unique on a host.
func (h *Host) NewSpace(name string) (*Space, error) {
	if _, ok := h.spaces[name]; ok {
		return nil, fmt.Errorf("mem: space %q already exists", name)
	}
	s := &Space{host: h, name: name}
	h.spaces[name] = s
	return s, nil
}

// Space returns the named space, or nil.
func (h *Host) Space(name string) *Space { return h.spaces[name] }

// UsedBytes returns physical memory in use: one frame per unscanned
// page plus one frame per stable-tree entry (shared or not).
func (h *Host) UsedBytes() int64 {
	return (h.framesPrivate + h.frames) * PageSize
}

// Stats is a snapshot of the host's memory accounting, mirroring the
// counters Linux exposes under /sys/kernel/mm/ksm.
type Stats struct {
	UsedBytes     int64 // physical bytes in use
	PagesShared   int64 // physical frames backing 2+ logical pages
	PagesSharing  int64 // logical pages backed by shared frames
	SavedBytes    int64 // bytes reclaimed by merging
	PendingScan   int64 // pages queued for the KSM scanner
	ScrubbedBytes int64 // lifetime securely-erased bytes
	MergedPages   int64 // lifetime pages merged
	COWBreaks     int64 // lifetime copy-on-write breaks
}

// Stats returns the current accounting snapshot.
func (h *Host) Stats() Stats {
	var shared, sharing, saved int64
	count := func(frames, refs int64) {
		if refs >= 2 {
			shared += frames
			sharing += frames * refs
			saved += frames * (refs - 1) * PageSize
		}
	}
	for _, c := range h.order {
		for _, r := range c.runs {
			count(r.hi-r.lo, r.refs)
		}
	}
	count(1, h.zeroRefs)
	return Stats{
		UsedBytes:     h.UsedBytes(),
		PagesShared:   shared,
		PagesSharing:  sharing,
		SavedBytes:    saved,
		PendingScan:   h.pending,
		ScrubbedBytes: h.scrubbed,
		MergedPages:   h.merged,
		COWBreaks:     h.cowBreaks,
	}
}

// ref adds d (+1 or -1) references to the content of e's pages and
// returns how many of them have a frame both before and after (see
// classTree.adjust). Unique pages each own their frame, so none is kept.
func (h *Host) ref(e extent, d int64) (kept int64) {
	switch e.kind {
	case kindClass:
		kept = e.class.adjust(e.base, e.base+e.n, d)
	case kindZero:
		before := h.zeroRefs
		h.zeroRefs += d * e.n
		kept = e.n
		if before == 0 || h.zeroRefs == 0 {
			kept-- // the zero frame is created or freed
		}
	}
	h.frames += d * (e.n - kept)
	return kept
}

// ScanAll runs the KSM scanner over the whole queue and returns the
// number of pages merged into existing frames. Every unmerged page was
// queued when written, and how many pages of one content merge does
// not depend on scan order, so merging whole unmerged extents matches
// a page-by-page scan.
func (h *Host) ScanAll() int {
	var mergedNow int64
	for _, s := range h.dirty {
		s.queued = false
		out := s.ext[:0]
		for _, e := range s.ext {
			if !e.merged {
				mergedNow += h.ref(e, +1)
				h.framesPrivate -= e.n
				e.merged = true
			}
			out = appendExtent(out, e)
		}
		s.ext = out
	}
	clear(h.dirty)
	h.dirty = h.dirty[:0]
	h.pending = 0
	h.merged += mergedNow
	return int(mergedNow)
}

// Space is one address space (a VM's RAM plus its RAM-backed writable
// disk, since Nymix VMs store all file-system writes in host RAM).
type Space struct {
	host       *Host
	name       string
	ext, spare []extent // ext: sorted, disjoint, coalesced
	pages      int64
	queued     bool // listed in host.dirty
	dead       bool
}

// Name returns the space's name.
func (s *Space) Name() string { return s.name }

// TouchedPages returns the number of resident logical pages.
func (s *Space) TouchedPages() int64 { return s.pages }

// TouchedBytes returns resident logical bytes (before any sharing).
func (s *Space) TouchedBytes() int64 { return s.pages * PageSize }

// WriteClass writes n pages starting at page index start with content
// drawn from the named class. Pages written from the same class and
// offset in any space are identical and thus KSM-mergeable. The i-th
// page gets the content of class offset classBase+i.
func (s *Space) WriteClass(start, n int64, class string, classBase int64) error {
	h := s.host
	c := h.classes[class]
	if c == nil {
		c = &classTree{}
		h.classes[class] = c
		h.order = append(h.order, c)
	}
	return s.write(extent{start: start, n: n, kind: kindClass, class: c, base: classBase})
}

// WriteZero writes n zero pages starting at start. Zero pages merge
// host-wide.
func (s *Space) WriteZero(start, n int64) error {
	return s.write(extent{start: start, n: n, kind: kindZero})
}

// WriteUnique dirties n pages starting at start with content that can
// never merge with any other page (models private, modified state such
// as browser heaps).
func (s *Space) WriteUnique(start, n int64) error {
	return s.write(extent{start: start, n: n, kind: kindUnique})
}

// write stores w's content over its pages, in page order as a
// page-by-page model would: a page already holding identical content
// is left alone and not queued, a merged page with other content is
// detached first, and a new page needs a free frame, so a write that
// runs out of memory keeps the pages before the first one that does
// not fit.
func (s *Space) write(w extent) error {
	if s.dead {
		return fmt.Errorf("mem: write to released space %q", s.name)
	}
	if w.n < 0 || w.start < 0 {
		return fmt.Errorf("mem: invalid write range start=%d n=%d", w.start, w.n)
	}
	h := s.host
	end := w.end()
	i := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].end() > w.start })
	out := append(s.spare[:0], s.ext[:i]...)
	var queued int64
	var err error
	for pos := w.start; pos < end && err == nil; {
		if i < len(s.ext) && s.ext[i].start <= pos {
			e := s.ext[i]
			i++
			hi := min(e.end(), end)
			if e.start < pos {
				out = appendExtent(out, e.slice(e.start, pos))
			}
			old, neu := e.slice(pos, hi), w.slice(pos, hi)
			if old.sameContent(neu) {
				out = appendExtent(out, old)
			} else {
				if old.merged {
					h.detach(old)
				}
				out = appendExtent(out, neu)
				queued += neu.n
			}
			if e.end() > end {
				out = appendExtent(out, e.slice(end, e.end()))
			}
			pos = hi
			continue
		}
		hi := end
		if i < len(s.ext) && s.ext[i].start < end {
			hi = s.ext[i].start
		}
		if h.capacity != 0 {
			var fit int64
			if room := h.capacity - h.UsedBytes(); room > 0 {
				fit = room / PageSize
			}
			if hi-pos > fit {
				hi = pos + fit
				err = fmt.Errorf("%w: space %q at %d pages", ErrOutOfMemory, s.name, s.pages+fit)
			}
		}
		if hi > pos {
			out = appendExtent(out, w.slice(pos, hi))
			h.framesPrivate += hi - pos
			s.pages += hi - pos
			queued += hi - pos
		}
		pos = hi
	}
	for _, e := range s.ext[i:] {
		out = appendExtent(out, e)
	}
	s.ext, s.spare = out, s.ext[:0]
	if queued > 0 {
		h.pending += queued
		if !s.queued {
			s.queued = true
			h.dirty = append(h.dirty, s)
		}
	}
	return err
}

// detach drops the references of merged extent e's pages on their
// stable-tree entries (copy-on-write breaks where a frame was shared)
// and counts the pages in framesPrivate again. The caller overwrites
// or deletes the pages.
func (h *Host) detach(e extent) {
	h.cowBreaks += h.ref(e, -1)
	h.framesPrivate += e.n
}

// Release securely erases and frees the entire space, as Nymix does
// when a pseudonym is shut down: "Nymix wipes any traces that the
// pseudonym ever existed and securely erases the AnonVM's and
// CommVM's memory immediately" (section 3.4). Releasing an already
// released space is a no-op, so a stale handle cannot unregister a
// newer space of the same name.
func (s *Space) Release() {
	if s.dead {
		return
	}
	h := s.host
	for _, e := range s.ext {
		if e.merged {
			h.detach(e)
		}
		h.framesPrivate -= e.n
		h.scrubbed += e.n * PageSize
	}
	s.ext, s.spare, s.pages = nil, nil, 0
	s.dead = true
	delete(h.spaces, s.name)
}
