// Package mem models host physical memory at page granularity,
// including KSM (kernel samepage merging). Nymix enables KSM because
// every AnonVM, CommVM and the hypervisor boot from the same base
// image, so a large fraction of their resident pages have identical
// contents and can share a single physical frame (paper section 4.2,
// Figure 3).
//
// Pages are not stored as real 4 KiB buffers; each logical page carries
// a 64-bit content hash. Pages written from the same content class
// (for example, the same base-image block) hash equally across address
// spaces and are therefore mergeable, exactly the property KSM keys on.
//
// Every scan drains the whole queue, and the stable tree is a refcount
// per content hash: a merged page holds one reference on its content's
// entry, and each entry is one physical frame.
package mem

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// PageSize is the size of one page in bytes (4 KiB, as on x86-64).
const PageSize = 4096

// ErrOutOfMemory is returned when an allocation would exceed the
// host's physical capacity.
var ErrOutOfMemory = errors.New("mem: out of host memory")

// page is one logical page in a Space.
type page struct {
	hash   uint64
	merged bool // holds a reference in the stable tree
}

// pageRef identifies a logical page awaiting a KSM scan. A page
// rewritten before the scan is queued again; whichever entry the scan
// reaches first merges it and the later one finds it already merged.
type pageRef struct {
	space *Space
	idx   int64
}

// Host models a machine's physical memory and its KSM daemon state.
type Host struct {
	capacity int64 // bytes; 0 means unlimited
	spaces   map[string]*Space
	stable   map[uint64]int64 // content hash -> logical pages sharing its frame
	pending  []pageRef
	// framesPrivate counts logical pages not yet absorbed into the
	// stable tree; each occupies its own physical frame.
	framesPrivate int64
	scrubbed      int64 // bytes securely erased over the host's lifetime
	merged        int64 // pages merged by KSM over the host's lifetime
	cowBreaks     int64 // copy-on-write breaks of shared frames
}

// NewHost returns a host with the given physical capacity in bytes.
// A capacity of zero disables the limit.
func NewHost(capacity int64) *Host {
	return &Host{
		capacity: capacity,
		spaces:   make(map[string]*Space),
		stable:   make(map[uint64]int64),
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
	s := &Space{host: h, name: name, pages: make(map[int64]page)}
	h.spaces[name] = s
	return s, nil
}

// Space returns the named space, or nil.
func (h *Host) Space(name string) *Space { return h.spaces[name] }

// UsedBytes returns physical memory in use: one frame per unscanned
// page plus one frame per stable-tree entry (shared or not).
func (h *Host) UsedBytes() int64 {
	return (h.framesPrivate + int64(len(h.stable))) * PageSize
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
	for _, refs := range h.stable {
		if refs >= 2 {
			shared++
			sharing += refs
			saved += (refs - 1) * PageSize
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

// ScanAll runs the KSM scanner over the whole queue and returns the
// number of pages merged into existing frames.
func (h *Host) ScanAll() int {
	mergedNow := 0
	for _, ref := range h.pending {
		pg, ok := ref.space.pages[ref.idx]
		if !ok || pg.merged {
			continue // page released or already scanned
		}
		if h.stable[pg.hash] > 0 {
			h.merged++
			mergedNow++
		}
		h.stable[pg.hash]++
		pg.merged = true
		ref.space.pages[ref.idx] = pg
		h.framesPrivate--
	}
	h.pending = nil
	return mergedNow
}

// Space is one address space (a VM's RAM plus its RAM-backed writable
// disk, since Nymix VMs store all file-system writes in host RAM).
type Space struct {
	host   *Host
	name   string
	pages  map[int64]page
	nextUn uint64 // counter for unique (never-mergeable) content
	dead   bool
}

// Name returns the space's name.
func (s *Space) Name() string { return s.name }

// TouchedPages returns the number of resident logical pages.
func (s *Space) TouchedPages() int64 { return int64(len(s.pages)) }

// TouchedBytes returns resident logical bytes (before any sharing).
func (s *Space) TouchedBytes() int64 { return int64(len(s.pages)) * PageSize }

// classHash hashes a content class name and page offset to a stable
// 64-bit content identifier.
func classHash(class string, i int64) uint64 {
	hsh := fnv.New64a()
	hsh.Write([]byte(class))
	var b [8]byte
	for k := 0; k < 8; k++ {
		b[k] = byte(uint64(i) >> (8 * k))
	}
	hsh.Write(b[:])
	return hsh.Sum64()
}

// zeroHash is the content hash of the all-zero page. All zero pages on
// a host are mergeable with each other.
const zeroHash = 0x5a45524f50414745 // "ZEROPAGE"

// WriteClass writes n pages starting at page index start with content
// drawn from the named class. Pages written from the same class and
// offset in any space are identical and thus KSM-mergeable. The i-th
// page gets the content of class offset classBase+i.
func (s *Space) WriteClass(start, n int64, class string, classBase int64) error {
	return s.write(start, n, func(i int64) uint64 {
		return classHash(class, classBase+i)
	})
}

// WriteZero writes n zero pages starting at start. Zero pages merge
// host-wide.
func (s *Space) WriteZero(start, n int64) error {
	return s.write(start, n, func(int64) uint64 { return zeroHash })
}

// WriteUnique dirties n pages starting at start with content that can
// never merge with any other page (models private, modified state such
// as browser heaps).
func (s *Space) WriteUnique(start, n int64) error {
	return s.write(start, n, func(int64) uint64 {
		s.nextUn++
		return classHash("unique/"+s.name, int64(s.nextUn))
	})
}

func (s *Space) write(start, n int64, content func(i int64) uint64) error {
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
				continue // idempotent rewrite of identical content
			}
			s.detach(pg)
		} else {
			if h.capacity != 0 && h.UsedBytes()+PageSize > h.capacity {
				return fmt.Errorf("%w: space %q at %d pages", ErrOutOfMemory, s.name, len(s.pages))
			}
			h.framesPrivate++
		}
		s.pages[idx] = page{hash: hash}
		h.pending = append(h.pending, pageRef{s, idx})
	}
	return nil
}

// detach drops a page's reference on its stable-tree entry (a
// copy-on-write break when the frame was shared) and counts the page
// in framesPrivate again; detaching an unmerged page is a no-op. The
// caller overwrites or deletes the page.
func (s *Space) detach(pg page) {
	if !pg.merged {
		return
	}
	h := s.host
	if refs := h.stable[pg.hash]; refs >= 2 {
		h.cowBreaks++
		h.stable[pg.hash] = refs - 1
	} else {
		delete(h.stable, pg.hash)
	}
	h.framesPrivate++
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
	for idx, pg := range s.pages {
		s.detach(pg)
		h.framesPrivate--
		h.scrubbed += PageSize
		delete(s.pages, idx)
	}
	s.dead = true
	delete(h.spaces, s.name)
}
