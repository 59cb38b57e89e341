// Package unionfs implements the layered, copy-on-write union file
// system at the heart of Nymix's image management (paper sections 3.4
// and 4.2, modeled on Linux OverlayFS).
//
// Every Nymix VM stacks three layers: the read-only base image (the
// same OS partition the hypervisor booted from), a read-only
// configuration layer that masks the handful of files differentiating
// an AnonVM from a CommVM or SaniVM, and a RAM-backed writable layer
// that absorbs all writes and is discarded (or archived as
// quasi-persistent nym state) when the pseudonym ends.
//
// Files carry either real bytes (data) or a virtual size plus an
// entropy coefficient. Virtual files model bulk content such as a
// browser cache, whose footprint matters for the evaluation but whose
// bytes do not. Entropy feeds the compression model used when nym
// state is archived (see internal/nymstate).
package unionfs

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
)

// ErrNotExist is returned when a path is absent from every layer.
var ErrNotExist = errors.New("unionfs: file does not exist")

// ErrReadOnly is returned on writes when the top layer is sealed.
var ErrReadOnly = errors.New("unionfs: top layer is read-only")

// File is one file's content: real bytes, or a virtual size with an
// entropy coefficient in [0,1] (0 = perfectly compressible, 1 =
// incompressible).
type File struct {
	Data        []byte
	VirtualSize int64
	Entropy     float64
}

// Size returns the file's logical size in bytes.
func (f *File) Size() int64 {
	if f.Data != nil {
		return int64(len(f.Data))
	}
	return f.VirtualSize
}

// clone returns a deep copy of the file. Nil-ness of Data is
// significant (nil = virtual file), so empty real files stay real.
func (f *File) clone() *File {
	c := &File{VirtualSize: f.VirtualSize, Entropy: f.Entropy}
	if f.Data != nil {
		c.Data = make([]byte, len(f.Data))
		copy(c.Data, f.Data)
	}
	return c
}

// Info describes a file in a union view.
type Info struct {
	Path    string
	Size    int64
	Entropy float64
	Layer   string // name of the layer providing the content
	Virtual bool
}

// Layer is a single file-system layer.
type Layer struct {
	name      string
	files     map[string]*File
	whiteouts map[string]bool
	sealed    bool
	onDelta   func(int64) // byte-usage accounting hook (may be nil)
	// onMutate fires when an existing file's content is rewritten (may
	// be nil) — the mutation the delta hook underreports or misses
	// entirely. The argument is the rewritten content beyond what the
	// delta hook already saw, so delta + mutate together account the
	// full rewrite.
	onMutate func(int64)
}

// NewLayer returns an empty, writable layer.
func NewLayer(name string) *Layer {
	return &Layer{
		name:      name,
		files:     make(map[string]*File),
		whiteouts: make(map[string]bool),
	}
}

// Name returns the layer's name.
func (l *Layer) Name() string { return l.name }

// Seal marks the layer read-only. Sealing is irreversible.
func (l *Layer) Seal() *Layer { l.sealed = true; return l }

// Sealed reports whether the layer is read-only.
func (l *Layer) Sealed() bool { return l.sealed }

// SetDeltaFunc registers fn to be called with the byte delta of every
// mutation, so a hypervisor can charge RAM-backed layers against host
// memory.
func (l *Layer) SetDeltaFunc(fn func(int64)) { l.onDelta = fn }

// SetMutateFunc registers fn for content rewrites of existing files —
// the mutation the delta hook underreports (a grown file's rewritten
// prefix) or misses entirely (a same-size rewrite). Dirty tracking
// (internal/vm) listens on both hooks; writing a file with the bytes
// it already holds fires neither.
func (l *Layer) SetMutateFunc(fn func(int64)) { l.onMutate = fn }

// UsedBytes returns the total logical bytes stored in this layer.
func (l *Layer) UsedBytes() int64 {
	var n int64
	for _, f := range l.files {
		n += f.Size()
	}
	return n
}

func (l *Layer) delta(d int64) {
	if l.onDelta != nil && d != 0 {
		l.onDelta(d)
	}
}

func (l *Layer) put(p string, f *File) error {
	if l.sealed {
		return fmt.Errorf("%w (%s)", ErrReadOnly, l.name)
	}
	var old int64
	prev, existed := l.files[p]
	if existed {
		old = prev.Size()
	}
	l.files[p] = f
	delete(l.whiteouts, p)
	d := f.Size() - old
	l.delta(d)
	// Rewriting an existing file's content is more mutation than the
	// size delta conveys: the whole new content must be re-chunked by
	// a checkpoint, not just the grown tail. Report the portion the
	// delta hook did not already carry (all of it for a same-size or
	// shrinking rewrite, the retained prefix for a growing one). A new
	// zero-byte file is likewise a zero-delta image change: it adds an
	// entry (and may clear a whiteout) the exported image carries.
	if l.onMutate != nil {
		if existed {
			if !sameContent(prev, f) {
				c := f.Size()
				if d > 0 {
					c -= d
				}
				if c > 0 {
					l.onMutate(c)
				}
			}
		} else if d == 0 {
			l.onMutate(0)
		}
	}
	return nil
}

// sameContent reports whether two files hold identical content: equal
// bytes for real files, equal size and entropy for virtual ones. A
// kind change (real <-> virtual) is always a content change.
func sameContent(a, b *File) bool {
	if (a.Data == nil) != (b.Data == nil) {
		return false
	}
	if a.Data != nil {
		return bytes.Equal(a.Data, b.Data)
	}
	return a.VirtualSize == b.VirtualSize && a.Entropy == b.Entropy
}

// Clone returns a deep copy of the layer (unsealed, no delta hook).
func (l *Layer) Clone() *Layer {
	c := NewLayer(l.name)
	for p, f := range l.files {
		c.files[p] = f.clone()
	}
	for p := range l.whiteouts {
		c.whiteouts[p] = true
	}
	return c
}

// Clear removes all files and whiteouts, reporting freed bytes via the
// delta hook. Clear works even on sealed layers (it models discarding
// a RAM-backed layer wholesale, not file-level writes).
func (l *Layer) Clear() {
	var freed int64
	for _, f := range l.files {
		freed += f.Size()
	}
	l.files = make(map[string]*File)
	l.whiteouts = make(map[string]bool)
	l.delta(-freed)
}

// Image is the serializable form of a layer, used when nym state is
// compressed, encrypted, and shipped to cloud storage.
type Image struct {
	Name      string
	Files     map[string]FileImage
	Whiteouts []string
}

// FileImage is the serializable form of one file. Real marks a file
// with actual bytes; it exists because serializers (gob) cannot
// distinguish a nil Data slice from an empty real file.
type FileImage struct {
	Data        []byte
	Real        bool
	VirtualSize int64
	Entropy     float64
}

// Export converts the layer to its serializable image.
func (l *Layer) Export() Image {
	img := Image{Name: l.name, Files: make(map[string]FileImage, len(l.files))}
	for p, f := range l.files {
		fi := FileImage{VirtualSize: f.VirtualSize, Entropy: f.Entropy}
		if f.Data != nil {
			fi.Real = true
			fi.Data = make([]byte, len(f.Data))
			copy(fi.Data, f.Data)
		}
		img.Files[p] = fi
	}
	for p := range l.whiteouts {
		img.Whiteouts = append(img.Whiteouts, p)
	}
	sort.Strings(img.Whiteouts)
	return img
}

// Import reconstructs a layer from its serialized image.
func Import(img Image) *Layer {
	l := NewLayer(img.Name)
	for p, fi := range img.Files {
		f := &File{VirtualSize: fi.VirtualSize, Entropy: fi.Entropy}
		if fi.Real {
			f.Data = make([]byte, len(fi.Data))
			copy(f.Data, fi.Data)
		}
		l.files[p] = f
	}
	for _, p := range img.Whiteouts {
		l.whiteouts[p] = true
	}
	return l
}

// FS is a stack of layers; layers[0] is the top (writable) layer, and
// reads fall through the stack exactly as in OverlayFS: "the union
// file system responds to file read accesses with the contents of that
// file as it exists in the top most stack" (section 3.4).
type FS struct {
	layers []*Layer
}

// Stack builds a union from layers given top-first. All layers below
// the top must be sealed; the paper is explicit that the host OS
// partition "is always mounted read-only and never modified for any
// reason".
func Stack(layers ...*Layer) (*FS, error) {
	if len(layers) == 0 {
		return nil, errors.New("unionfs: empty stack")
	}
	for _, l := range layers[1:] {
		if !l.Sealed() {
			return nil, fmt.Errorf("unionfs: lower layer %q must be sealed", l.name)
		}
	}
	return &FS{layers: layers}, nil
}

// Top returns the writable top layer.
func (fs *FS) Top() *Layer { return fs.layers[0] }

// Layers returns the stack, top-first.
func (fs *FS) Layers() []*Layer { return fs.layers }

// clean canonicalizes a path: absolute, slash-separated, no trailing
// slash.
func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// lookup finds the topmost layer entry for p, honoring whiteouts.
func (fs *FS) lookup(p string) (*File, *Layer, bool) {
	for _, l := range fs.layers {
		if f, ok := l.files[p]; ok {
			return f, l, true
		}
		if l.whiteouts[p] {
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// Stat returns metadata for the file at p.
func (fs *FS) Stat(p string) (Info, error) {
	p = clean(p)
	f, l, ok := fs.lookup(p)
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return Info{Path: p, Size: f.Size(), Entropy: f.Entropy, Layer: l.name, Virtual: f.Data == nil}, nil
}

// Exists reports whether p resolves to a file.
func (fs *FS) Exists(p string) bool {
	_, _, ok := fs.lookup(clean(p))
	return ok
}

// ReadFile returns the file's real bytes. Virtual files have no bytes
// and return an error; callers interested only in footprint use Stat.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	p = clean(p)
	f, _, ok := fs.lookup(p)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if f.Data == nil {
		return nil, fmt.Errorf("unionfs: %s is virtual (size %d)", p, f.VirtualSize)
	}
	out := make([]byte, len(f.Data))
	copy(out, f.Data)
	return out, nil
}

// WriteFile stores real bytes at p in the top layer. Empty content is
// still a real file (Data non-nil), distinct from a virtual file.
func (fs *FS) WriteFile(p string, data []byte) error {
	buf := make([]byte, len(data))
	copy(buf, data)
	return fs.Top().put(clean(p), &File{Data: buf})
}

// WriteVirtual stores a virtual file of the given size and entropy at
// p in the top layer.
func (fs *FS) WriteVirtual(p string, size int64, entropy float64) error {
	if size < 0 {
		return fmt.Errorf("unionfs: negative size for %s", p)
	}
	if entropy < 0 || entropy > 1 {
		return fmt.Errorf("unionfs: entropy %v out of [0,1] for %s", entropy, p)
	}
	return fs.Top().put(clean(p), &File{VirtualSize: size, Entropy: entropy})
}

// GrowVirtual extends (or shrinks, with negative delta) the virtual
// file at p, copying it up from a lower layer if needed. The file's
// entropy becomes the size-weighted mix of old and new content.
func (fs *FS) GrowVirtual(p string, delta int64, entropy float64) error {
	p = clean(p)
	f, l, ok := fs.lookup(p)
	if !ok {
		if delta < 0 {
			return fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		return fs.WriteVirtual(p, delta, entropy)
	}
	if f.Data != nil {
		return fmt.Errorf("unionfs: %s holds real data, cannot grow virtually", p)
	}
	newSize := f.VirtualSize + delta
	if newSize < 0 {
		newSize = 0
	}
	newEntropy := f.Entropy
	if delta > 0 && newSize > 0 {
		newEntropy = (f.Entropy*float64(f.VirtualSize) + entropy*float64(delta)) / float64(newSize)
	}
	if l == fs.Top() {
		// In-place update on the top layer.
		if fs.Top().sealed {
			return fmt.Errorf("%w (%s)", ErrReadOnly, fs.Top().name)
		}
		fs.Top().delta(newSize - f.VirtualSize)
		f.VirtualSize = newSize
		f.Entropy = newEntropy
		return nil
	}
	// Copy-up from a lower layer.
	return fs.Top().put(p, &File{VirtualSize: newSize, Entropy: newEntropy})
}

// Remove deletes p from the union view. If the file exists in a lower
// layer, a whiteout in the top layer masks it.
func (fs *FS) Remove(p string) error {
	p = clean(p)
	top := fs.Top()
	if top.sealed {
		return fmt.Errorf("%w (%s)", ErrReadOnly, top.name)
	}
	_, _, visible := fs.lookup(p)
	if !visible {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	// Track image changes the delta hook cannot see: removing a
	// zero-byte top-layer file, or deleting a file that lives only in
	// a lower layer (the removal is purely a new whiteout). Both
	// change the exported image — a checkpoint must record them, so
	// dirty tracking must fire.
	mutated := false
	if f, ok := top.files[p]; ok {
		top.delta(-f.Size())
		if f.Size() == 0 {
			mutated = true
		}
		delete(top.files, p)
	}
	// Mask any lower-layer copy.
	for _, l := range fs.layers[1:] {
		if _, ok := l.files[p]; ok {
			if !top.whiteouts[p] {
				mutated = true
			}
			top.whiteouts[p] = true
			break
		}
		if l.whiteouts[p] {
			break
		}
	}
	if mutated && top.onMutate != nil {
		top.onMutate(0)
	}
	return nil
}

// List returns the union view of all files under dir (recursively),
// sorted by path. Files masked by whiteouts or shadowed by upper
// layers are excluded.
func (fs *FS) List(dir string) []Info {
	dir = clean(dir)
	prefix := dir
	if prefix != "/" {
		prefix += "/"
	}
	seen := make(map[string]bool)
	hidden := make(map[string]bool)
	var out []Info
	for _, l := range fs.layers {
		for p, f := range l.files {
			if seen[p] || hidden[p] {
				continue
			}
			if p != dir && !strings.HasPrefix(p, prefix) {
				continue
			}
			seen[p] = true
			out = append(out, Info{Path: p, Size: f.Size(), Entropy: f.Entropy, Layer: l.name, Virtual: f.Data == nil})
		}
		for p := range l.whiteouts {
			if !seen[p] {
				hidden[p] = true
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// TotalSize returns the summed logical size of the union view under
// dir.
func (fs *FS) TotalSize(dir string) int64 {
	var n int64
	for _, fi := range fs.List(dir) {
		n += fi.Size
	}
	return n
}
