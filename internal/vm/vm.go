// Package vm models the QEMU/KVM virtual machines a nymbox is made
// of. A VM owns an address space on the host (its RAM plus its
// RAM-backed writable disk, since "the host allocates disk and RAM
// from its own stash of RAM", section 5.2), a union-file-system disk
// stack, and a lifecycle state machine with boot, pause, resume,
// snapshot, and secure-erase transitions.
//
// To keep fingerprints homogeneous (section 4.2), every VM reports a
// single QEMU virtual CPU, a 1024x768 display, and identical
// Ethernet/IP addresses on its private wire.
package vm

import (
	"errors"
	"fmt"

	"nymix/internal/guestos"
	"nymix/internal/mem"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
	"nymix/internal/vdisk"
	"nymix/internal/vnet"
)

// State is a VM lifecycle state.
type State int

// Lifecycle states.
const (
	StateCreated State = iota
	StateRunning
	StatePaused
	StateStopped
)

func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateStopped:
		return "stopped"
	}
	return "unknown"
}

// ErrBadState is returned for illegal lifecycle transitions.
var ErrBadState = errors.New("vm: operation invalid in current state")

// Config describes a VM to be launched.
type Config struct {
	Name       string
	Role       guestos.Role
	RAMBytes   int64
	DiskBytes  int64 // writable layer capacity
	Anonymizer string
}

// Fingerprint is what guest-visible probing reveals. Nymix pins these
// to identical values on every machine so that VMs cannot be told
// apart (section 4.2: "we want Nymix to run the same on every
// machine").
type Fingerprint struct {
	CPUModel   string
	CPUCount   int
	Resolution string
	MAC        string
	WireIP     string
}

// HomogeneousFingerprint is the fingerprint every Nymix VM presents.
var HomogeneousFingerprint = Fingerprint{
	CPUModel:   "QEMU Virtual CPU version 2.0.0",
	CPUCount:   1,
	Resolution: "1024x768",
	MAC:        "52:54:00:12:34:56",
	WireIP:     "10.13.37.2",
}

// VM is one virtual machine instance.
type VM struct {
	eng     *sim.Engine
	cfg     Config
	state   State
	space   *mem.Space
	disk    *vdisk.Disk
	node    *vnet.Node
	memProf guestos.MemProfile
	boot    guestos.BootProfile

	ramPages     int64 // page indices [0, ramPages) are RAM
	uniqueCursor int64 // next unique RAM page to dirty
	diskPages    int64 // pages charged for disk content
	diskPageMax  int64
	pendingDisk  int64 // sub-page disk bytes awaiting a full page
	dirty        DirtyStats
}

// DirtyStats is a VM's cumulative mutation accounting: the raw signal
// a checkpoint scheduler needs to tell a mutated nymbox from a clean
// one without exporting or hashing any state. All three counters are
// monotonic over the VM's lifetime; a checkpointing layer snapshots
// them at save time and compares later readings against the snapshot,
// so concurrent mutation between snapshot and comparison is never
// lost to a reset.
type DirtyStats struct {
	// Gen is the mutation generation stamp, bumped on every
	// state-mutating write (unique RAM dirtying or a writable-disk
	// change). Two equal readings mean no mutation happened between
	// them.
	Gen uint64
	// RAMPages counts unique RAM pages dirtied (boot's private
	// fraction, session activity, workload writes).
	RAMPages int64
	// DiskBytes counts absolute writable-disk byte churn: grown,
	// shrunk, and discarded bytes all accumulate, because any of them
	// changes the disk image a checkpoint would export.
	DiskBytes int64
}

// New creates a VM: allocates its address space on host memory,
// builds its disk from the supplied sealed lower layers (config layer
// first, then base image), and wires disk usage accounting into the
// space. The VM is not yet booted.
func New(eng *sim.Engine, host *mem.Host, cfg Config, lower ...*unionfs.Layer) (*VM, error) {
	if cfg.RAMBytes <= 0 {
		return nil, fmt.Errorf("vm %s: non-positive RAM", cfg.Name)
	}
	space, err := host.NewSpace(cfg.Name)
	if err != nil {
		return nil, err
	}
	disk, err := vdisk.New(cfg.Name, cfg.DiskBytes, lower...)
	if err != nil {
		space.Release()
		return nil, err
	}
	v := &VM{
		eng:         eng,
		cfg:         cfg,
		space:       space,
		disk:        disk,
		memProf:     guestos.MemProfileFor(cfg.Role),
		boot:        guestos.BootProfileFor(cfg.Role),
		ramPages:    cfg.RAMBytes / mem.PageSize,
		diskPageMax: cfg.DiskBytes / mem.PageSize,
	}
	disk.SetDeltaFunc(v.chargeDisk)
	disk.SetMutateFunc(v.noteDiskRewrite)
	return v, nil
}

// Name returns the VM's name.
func (v *VM) Name() string { return v.cfg.Name }

// Role returns the VM's role.
func (v *VM) Role() guestos.Role { return v.cfg.Role }

// Config returns the VM's configuration.
func (v *VM) Config() Config { return v.cfg }

// State returns the lifecycle state.
func (v *VM) State() State { return v.state }

// Disk returns the VM's virtual disk.
func (v *VM) Disk() *vdisk.Disk { return v.disk }

// Fingerprint returns the guest-visible hardware identity.
func (v *VM) Fingerprint() Fingerprint { return HomogeneousFingerprint }

// AttachNode binds the VM to its network identity.
func (v *VM) AttachNode(n *vnet.Node) { v.node = n }

// Node returns the VM's network node (nil for the non-networked
// SaniVM).
func (v *VM) Node() *vnet.Node { return v.node }

// DirtyStats returns the VM's cumulative mutation counters.
func (v *VM) DirtyStats() DirtyStats { return v.dirty }

// chargeDisk exists for the accounting hook; with Nymix's KVM
// configuration the writable disk is preallocated from host RAM at VM
// initialization ("the host allocates disk and RAM from its own stash
// of RAM", section 5.2), so individual file writes change nothing.
// The hook still tracks logical usage for introspection, and feeds
// the dirty counters: any writable-layer delta means the disk image a
// checkpoint would export has changed.
func (v *VM) chargeDisk(delta int64) {
	v.pendingDisk += delta
	if delta != 0 {
		v.dirty.Gen++
		if delta < 0 {
			delta = -delta
		}
		v.dirty.DiskBytes += delta
	}
}

// noteDiskRewrite covers what the delta hook underreports: rewriting
// an existing file changes content a checkpoint must re-chunk beyond
// the size delta — all of it for a same-size or shrinking rewrite,
// the retained prefix for a growing one. (Writing a file with the
// content it already holds fires neither hook — a no-op save-path
// re-export must not mark the nym dirty.)
func (v *VM) noteDiskRewrite(rewritten int64) {
	v.dirty.Gen++
	v.dirty.DiskBytes += rewritten
}

// Boot starts the VM: KVM touches most of the requested memory at
// initialization (the Figure 3 observation), then the guest runs its
// boot sequence for the role's boot duration.
func (v *VM) Boot(p *sim.Proc) error {
	if v.state != StateCreated {
		return fmt.Errorf("%w: boot from %v", ErrBadState, v.state)
	}
	if err := v.touchInitMemory(); err != nil {
		return err
	}
	v.state = StateRunning
	d := sim.Time(p.Rand().Jitter(float64(v.boot.Base), v.boot.Jitter))
	p.Sleep(d)
	return nil
}

// touchInitMemory populates the address space per the role's profile:
// shared base-image pages, the zeroed pool, and the private unique
// portion.
func (v *VM) touchInitMemory() error {
	prof := v.memProf
	shared := prof.BootSharedPages
	zero := prof.BootZeroPages
	if shared+zero > v.ramPages {
		shared = v.ramPages
		zero = 0
	}
	if err := v.space.WriteClass(0, shared, "baseimg", 0); err != nil {
		return err
	}
	if err := v.space.WriteZero(shared, zero); err != nil {
		return err
	}
	v.uniqueCursor = shared + zero
	rest := v.ramPages - v.uniqueCursor
	uniq := int64(float64(rest) * prof.BootUniqueFrac)
	if err := v.dirtyUnique(uniq); err != nil {
		return err
	}
	// The RAM-backed writable disk is preallocated at init; its pages
	// are private (tmpfs contents never merge).
	if v.diskPageMax > 0 {
		if err := v.space.WriteUnique(v.ramPages, v.diskPageMax); err != nil {
			return err
		}
		v.diskPages = v.diskPageMax
	}
	return nil
}

// dirtyUnique advances the unique-page cursor by up to n pages.
func (v *VM) dirtyUnique(n int64) error {
	room := v.ramPages - v.uniqueCursor
	if n > room {
		n = room
	}
	if n <= 0 {
		return nil
	}
	if err := v.space.WriteUnique(v.uniqueCursor, n); err != nil {
		return err
	}
	v.uniqueCursor += n
	v.dirty.Gen++
	v.dirty.RAMPages += n
	return nil
}

// DirtyActive models a session interacting with the guest (the
// "after" measurements of Figure 3): the guest dirties its
// active-extra fraction of RAM with private content.
func (v *VM) DirtyActive() error {
	if v.state != StateRunning {
		return fmt.Errorf("%w: dirty in %v", ErrBadState, v.state)
	}
	extra := int64(float64(v.ramPages) * v.memProf.ActiveExtraFrac)
	return v.dirtyUnique(extra)
}

// DirtyPages dirties exactly n unique RAM pages (workload-driven).
func (v *VM) DirtyPages(n int64) error {
	if v.state != StateRunning {
		return fmt.Errorf("%w: dirty in %v", ErrBadState, v.state)
	}
	return v.dirtyUnique(n)
}

// ResidentBytes returns the VM's logical resident size (before KSM).
func (v *VM) ResidentBytes() int64 { return v.space.TouchedBytes() }

// Pause suspends the VM (used while its file systems are synced for a
// nym snapshot, section 3.5).
func (v *VM) Pause() error {
	if v.state != StateRunning {
		return fmt.Errorf("%w: pause from %v", ErrBadState, v.state)
	}
	v.state = StatePaused
	return nil
}

// Resume continues a paused VM.
func (v *VM) Resume() error {
	if v.state != StatePaused {
		return fmt.Errorf("%w: resume from %v", ErrBadState, v.state)
	}
	v.state = StateRunning
	return nil
}

// eraseRate is the simulated throughput of the secure memory wipe.
const eraseRate = 4 << 30 // 4 GiB/s

// Shutdown stops the VM and securely erases its memory: "Nymix wipes
// any traces that the pseudonym ever existed and securely erases the
// AnonVM's and CommVM's memory immediately on shutting down a
// pseudonym" (section 3.4). The wipe takes simulated time proportional
// to the resident set.
func (v *VM) Shutdown(p *sim.Proc) error {
	if v.state == StateStopped {
		return fmt.Errorf("%w: already stopped", ErrBadState)
	}
	resident := v.space.TouchedBytes()
	wipe := sim.Time(float64(resident) / float64(eraseRate) * float64(sim.Time(1e9)))
	p.Sleep(wipe)
	v.space.Release()
	v.disk.Discard()
	v.state = StateStopped
	return nil
}
