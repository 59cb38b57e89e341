// Package core implements the Nym Manager, the heart of the Nymix
// architecture (paper section 3): supervisory control over nymbox
// creation, longevity, and destruction.
//
// Each nym the user starts gets a nymbox — an AnonVM for browsing and
// a CommVM running a pluggable anonymizer, joined by a private virtual
// wire — so that all client-side state and network identity bind to
// exactly one pseudonym. Nyms follow one of three usage models:
// ephemeral (amnesia on termination), persistent (state re-archived
// after every session), or pre-configured (a golden snapshot restored
// each session, so stains are scrubbed on the next boot). Archived
// state is compressed, encrypted, and stored on cloud providers
// through the nym's own anonymizer, or on local media. Files cross
// into a nym only through the SaniVM's scrubbing pipeline.
package core

import (
	"errors"
	"fmt"
	"time"

	"nymix/internal/anonnet"

	// Transport implementations register their factories from init;
	// importing them is what makes their kinds buildable.
	_ "nymix/internal/anonnet/dissent"
	_ "nymix/internal/anonnet/incognito"
	_ "nymix/internal/anonnet/mixnet"
	_ "nymix/internal/anonnet/sweet"
	_ "nymix/internal/anonnet/tor"

	"nymix/internal/browser"
	"nymix/internal/buddies"
	"nymix/internal/cloud"
	"nymix/internal/guestos"
	"nymix/internal/hypervisor"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vault"
	"nymix/internal/vm"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// UsageModel selects a nym's persistence behaviour (section 3.5).
type UsageModel string

// The three usage models.
const (
	ModelEphemeral     UsageModel = "ephemeral"
	ModelPersistent    UsageModel = "persistent"
	ModelPreconfigured UsageModel = "preconfigured"
)

// Options parameterizes a new nym.
type Options struct {
	Model      UsageModel
	Anonymizer string   // "tor", "dissent", "incognito"
	Chain      []string // optional serial chain (section 3.3); overrides Anonymizer
	// VM sizing; zero values take the paper's evaluation defaults.
	AnonRAM  int64
	AnonDisk int64
	CommRAM  int64
	CommDisk int64
	// GuardSeed, when set, derives the Tor entry guard
	// deterministically (section 3.5's fix for the ephemeral-loader
	// intersection hole).
	GuardSeed string
}

// Evaluation-default VM sizes (section 5.2): "we allocated 16 MB disk
// space and 128 MB RAM to each CommVM and 128 MB disk space to each
// AnonVM", with 384 MB AnonVM RAM for web workloads.
const (
	DefaultAnonRAM  = 384 * guestos.MiB
	DefaultAnonDisk = 128 * guestos.MiB
	DefaultCommRAM  = 128 * guestos.MiB
	DefaultCommDisk = 16 * guestos.MiB
)

func (o *Options) fillDefaults() {
	if o.Model == "" {
		o.Model = ModelEphemeral
	}
	if o.Anonymizer == "" && len(o.Chain) == 0 {
		o.Anonymizer = "tor"
	}
	if o.AnonRAM == 0 {
		o.AnonRAM = DefaultAnonRAM
	}
	if o.AnonDisk == 0 {
		o.AnonDisk = DefaultAnonDisk
	}
	if o.CommRAM == 0 {
		o.CommRAM = DefaultCommRAM
	}
	if o.CommDisk == 0 {
		o.CommDisk = DefaultCommDisk
	}
}

// Manager is the Nym Manager.
type Manager struct {
	eng   *sim.Engine
	net   *vnet.Network
	world *webworld.World
	host  *hypervisor.Host
	// vmPrefix scopes VM (and so network node) names to this manager's
	// host, so several managers can share one simulated Internet. The
	// default single-host deployment keeps the paper's bare names.
	vmPrefix string
	nyms     map[string]*Nym
	// starting reserves names while a nymbox is mid-launch, so
	// concurrent StartNym pipelines (internal/fleet) cannot race two
	// nyms onto one name.
	starting  map[string]bool
	nextID    int
	providers map[string]*cloud.Provider
	// localStore models a second USB drive / local partition for
	// quasi-persistent state kept off the cloud.
	localStore map[string][]byte
	// vaultIndexes caches, per nym, which chunk addresses each
	// provider already holds — what makes vault saves delta saves.
	vaultIndexes map[string]*vault.Index
	sani         *vm.VM
}

// ManagerConfig carries the host-scoped wiring that distinguishes one
// Nymix machine from another when several share a simulated Internet.
// The zero value reproduces the paper's single-host deployment.
type ManagerConfig struct {
	// Uplink overrides the host's uplink link parameters (default:
	// the paper's rate-limited webworld.UplinkConfig). A production
	// cluster host gets a datacenter-grade uplink, not a DSL line.
	Uplink *vnet.LinkConfig
	// Providers is a shared cloud-provider set. When nil the manager
	// creates the default providers itself (valid only once per
	// world); a cluster builds one set with DefaultProviders and hands
	// it to every manager, so a vault checkpoint stored through host A
	// is visible to a restore on host B.
	Providers map[string]*cloud.Provider
	// Gateway overrides the node the host uplinks to (default: the
	// world's LAN gateway). A multi-region cluster attaches each host
	// to its region's gateway router (webworld.EnsureRegion); the host
	// node then inherits the gateway's region label, so region severs
	// partition the host along with its region.
	Gateway *vnet.Node
}

// DefaultProviders registers the standard cloud providers (dropbin,
// gdrive) on the world's backbone, with quota bytes per account. Call
// it once per world and share the result among managers.
func DefaultProviders(world *webworld.World, quota int64) map[string]*cloud.Provider {
	providerCfg := vnet.LinkConfig{Latency: 2 * time.Millisecond, Capacity: 1e9 / 8}
	out := make(map[string]*cloud.Provider)
	for _, name := range []string{"dropbin", "gdrive"} {
		out[name] = cloud.NewProvider(world.Net(), world.Internet(), name, quota, providerCfg)
	}
	return out
}

// NewManager boots a Nymix host attached to the world's gateway and
// registers the default cloud providers.
func NewManager(eng *sim.Engine, world *webworld.World, hostCfg hypervisor.Config) (*Manager, error) {
	return NewManagerWith(eng, world, hostCfg, ManagerConfig{})
}

// NewManagerWith boots a Nymix host with explicit host-scoped wiring;
// see ManagerConfig. A host named anything but the default prefixes
// its VMs' names, so many hosts coexist on one network.
func NewManagerWith(eng *sim.Engine, world *webworld.World, hostCfg hypervisor.Config, cfg ManagerConfig) (*Manager, error) {
	host, err := hypervisor.New(eng, world.Net(), hostCfg)
	if err != nil {
		return nil, err
	}
	uplink := webworld.UplinkConfig
	if cfg.Uplink != nil {
		uplink = *cfg.Uplink
	}
	gateway := world.Gateway()
	if cfg.Gateway != nil {
		gateway = cfg.Gateway
		host.Node().SetRegion(gateway.Region())
	}
	host.ConnectUplink(gateway, uplink)
	m := &Manager{
		eng:          eng,
		net:          world.Net(),
		world:        world,
		host:         host,
		nyms:         make(map[string]*Nym),
		starting:     make(map[string]bool),
		providers:    cfg.Providers,
		localStore:   make(map[string][]byte),
		vaultIndexes: make(map[string]*vault.Index),
	}
	if name := host.Node().Name(); name != "host" {
		m.vmPrefix = name + "."
	}
	if m.providers == nil {
		m.providers = DefaultProviders(world, 2<<30)
	}
	return m, nil
}

// Host returns the hypervisor.
func (m *Manager) Host() *hypervisor.Host { return m.host }

// World returns the simulated Internet.
func (m *Manager) World() *webworld.World { return m.world }

// Engine returns the simulation engine.
func (m *Manager) Engine() *sim.Engine { return m.eng }

// Provider returns a registered cloud provider.
func (m *Manager) Provider(name string) (*cloud.Provider, error) {
	p, ok := m.providers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoProvider, name)
	}
	return p, nil
}

// Nym returns a running nym by name, or nil.
func (m *Manager) Nym(name string) *Nym { return m.nyms[name] }

// RunningNyms returns the number of live nyms.
func (m *Manager) RunningNyms() int { return len(m.nyms) }

// StartPhases records a nym's startup phase durations — the bars of
// Figure 7.
type StartPhases struct {
	EphemeralNym time.Duration // cloud-restore helper nym (quasi-persistent loads only)
	BootVM       time.Duration
	StartAnon    time.Duration
	FirstPage    time.Duration // filled by the first Visit
}

// Total sums the phases.
func (s StartPhases) Total() time.Duration {
	return s.EphemeralNym + s.BootVM + s.StartAnon + s.FirstPage
}

// Nym is one running pseudonym bound to its nymbox.
type Nym struct {
	mgr     *Manager
	name    string
	model   UsageModel
	opts    Options
	anonVM  *vm.VM
	commVM  *vm.VM
	anon    anonnet.Transport
	browser *browser.Browser
	phases  StartPhases
	cycles  int
	// restore carries the vault download stats when this nym was
	// restored through LoadNymVault; zero for fresh or monolithic
	// starts. Cluster migration sums it into cross-host wire cost.
	restore vault.LoadStats
	// markAnon/markComm snapshot both VMs' dirty counters at the last
	// successful checkpoint (or vault restore): the nym is clean — its
	// checkpointable state unchanged — while the current counters
	// still equal the marks. A fresh nym's zero marks always compare
	// dirty, because booting itself dirties pages.
	markAnon   vm.DirtyStats
	markComm   vm.DirtyStats
	terminated bool
	buddiesMon *buddies.Monitor // optional intersection-attack guard (section 7)
}

// Name returns the nym's name.
func (n *Nym) Name() string { return n.name }

// Model returns the usage model.
func (n *Nym) Model() UsageModel { return n.model }

// AnonVM returns the nym's browsing VM.
func (n *Nym) AnonVM() *vm.VM { return n.anonVM }

// CommVM returns the nym's anonymizer VM.
func (n *Nym) CommVM() *vm.VM { return n.commVM }

// Anonymizer returns the nym's communication tool.
func (n *Nym) Anonymizer() anonnet.Transport { return n.anon }

// Browser returns the nym's browser.
func (n *Nym) Browser() *browser.Browser { return n.browser }

// Phases returns the startup phase timings.
func (n *Nym) Phases() StartPhases { return n.phases }

// Cycles returns completed save/restore cycles.
func (n *Nym) Cycles() int { return n.cycles }

// RestoreStats returns the vault download stats of the restore that
// produced this nym (zero unless it came through LoadNymVault).
func (n *Nym) RestoreStats() vault.LoadStats { return n.restore }

// DirtyState reports a nym's mutation state relative to its last
// recorded checkpoint — what a checkpoint scheduler reads to decide
// whether saving this nym would ship anything new.
type DirtyState struct {
	// Dirty is true when any state-mutating write happened since the
	// last checkpoint (or restore). A never-checkpointed nym is
	// always dirty: its boot alone mutated state.
	Dirty bool
	// Gen is the combined mutation generation of both VMs.
	Gen uint64
	// RAMPages counts unique RAM pages dirtied since the checkpoint.
	RAMPages int64
	// DiskBytes counts writable-disk bytes churned since the
	// checkpoint — the portion of the dirt a vault save would
	// actually re-chunk.
	DiskBytes int64
}

// DirtyState returns the nym's dirt relative to its last checkpoint.
func (n *Nym) DirtyState() DirtyState {
	a, c := n.anonVM.DirtyStats(), n.commVM.DirtyStats()
	return DirtyState{
		Dirty:     a.Gen != n.markAnon.Gen || c.Gen != n.markComm.Gen,
		Gen:       a.Gen + c.Gen,
		RAMPages:  (a.RAMPages - n.markAnon.RAMPages) + (c.RAMPages - n.markComm.RAMPages),
		DiskBytes: (a.DiskBytes - n.markAnon.DiskBytes) + (c.DiskBytes - n.markComm.DiskBytes),
	}
}

// StateDirty reports whether the nym mutated since its last
// checkpoint. Clean nyms are safe for a checkpoint sweep to skip:
// their last save already holds everything a restore would need.
func (n *Nym) StateDirty() bool { return n.DirtyState().Dirty }

// DirtyDiskTotal returns the cumulative writable-disk bytes churned
// over both VMs' lifetimes — the raw vm.DirtyStats counters, NOT
// reset by checkpoints. Successive snapshots of this total are what
// the adaptive sweep cadence differentiates into a per-nym dirty
// byte-rate: only disk churn prices checkpoint wire (RAM dirt marks
// the nym dirty but never ships), so the rate deliberately excludes
// RAMPages. The counters restart from zero when the nym is rebuilt
// (crash-restore, migration); rate observers clamp negative deltas.
func (n *Nym) DirtyDiskTotal() int64 {
	return n.anonVM.DirtyStats().DiskBytes + n.commVM.DirtyStats().DiskBytes
}

// CheckpointGen returns the nym's checkpoint generation: how many
// state checkpoints have been recorded over its lifetime. It is the
// save-cycle counter (Cycles) under its scheduling-domain name — the
// counter persists inside the sealed state, so the generation is
// monotonic per nym even across crash-restores and cross-host
// migrations through the vault.
func (n *Nym) CheckpointGen() int { return n.Cycles() }

// markClean records the given VM dirty snapshots as the nym's
// checkpoint baseline. Callers snapshot the counters at export time,
// so mutations racing the (yielding) upload stay dirty.
func (n *Nym) markClean(anon, comm vm.DirtyStats) {
	n.markAnon, n.markComm = anon, comm
}

// StartNym creates, wires, and boots a fresh nymbox, then bootstraps
// its anonymizer. It blocks the calling process for the full startup.
func (m *Manager) StartNym(p *sim.Proc, name string, opts Options) (*Nym, error) {
	return m.startNym(p, name, opts, nil)
}

// startNym optionally restores archived state (restore != nil).
func (m *Manager) startNym(p *sim.Proc, name string, opts Options, restore *restoredState) (*Nym, error) {
	if m.nyms[name] != nil || m.starting[name] {
		return nil, fmt.Errorf("%w: %q", ErrNymExists, name)
	}
	m.starting[name] = true
	defer delete(m.starting, name)
	// Section 3.4: verify the host partition against its well-known
	// Merkle root and "safely shut down rather than risk vulnerability
	// if a modified block is detected".
	if err := m.host.VerifyBaseImage(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHostTampered, err)
	}
	opts.fillDefaults()
	m.nextID++
	id := m.nextID
	anonName := fmt.Sprintf("%snym%d-anon", m.vmPrefix, id)
	commName := fmt.Sprintf("%snym%d-comm", m.vmPrefix, id)
	anonVM, err := m.host.LaunchVM(vm.Config{
		Name: anonName, Role: guestos.RoleAnonVM,
		RAMBytes: opts.AnonRAM, DiskBytes: opts.AnonDisk, Anonymizer: opts.Anonymizer,
	})
	if err != nil {
		return nil, nymerr.Wrap(CodeLaunchRejected, err, "launch AnonVM").AddContext("nym", name)
	}
	commVM, err := m.host.LaunchVM(vm.Config{
		Name: commName, Role: guestos.RoleCommVM,
		RAMBytes: opts.CommRAM, DiskBytes: opts.CommDisk, Anonymizer: opts.Anonymizer,
	})
	if err != nil {
		m.host.DestroyVM(p, anonVM)
		return nil, nymerr.Wrap(CodeLaunchRejected, err, "launch CommVM").AddContext("nym", name)
	}
	// From here on every error path must tear down the half-built
	// nymbox; the deferred guard makes leaking it impossible by
	// construction.
	launched := false
	defer func() {
		if !launched {
			m.host.DestroyVM(p, anonVM)
			m.host.DestroyVM(p, commVM)
		}
	}()
	if err := m.host.WireNymbox(anonVM, commVM); err != nil {
		return nil, nymerr.Wrap(CodeLaunchRejected, err, "wire nymbox").AddContext("nym", name)
	}

	// Boot both VMs in parallel; the phase is the slower of the two.
	bootStart := p.Now()
	var anonErr, commErr error
	anonDone := m.eng.Go(anonName+"/boot", func(bp *sim.Proc) { anonErr = m.bootVM(bp, anonVM) })
	commDone := m.eng.Go(commName+"/boot", func(bp *sim.Proc) { commErr = m.bootVM(bp, commVM) })
	sim.Await(p, anonDone)
	sim.Await(p, commDone)
	if anonErr != nil {
		return nil, nymerr.Wrap(CodeBootCrashed, anonErr, "boot AnonVM").AddContext("nym", name)
	}
	if commErr != nil {
		return nil, nymerr.Wrap(CodeBootCrashed, commErr, "boot CommVM").AddContext("nym", name)
	}
	bootDur := p.Now() - bootStart

	// Restore archived disks before the anonymizer starts, so Tor sees
	// its cached state.
	if restore != nil {
		if err := anonVM.Disk().Restore(restore.state.AnonDisk); err != nil {
			return nil, nymerr.Wrap(CodeBadRestore, err, "restore AnonVM disk").AddContext("nym", name)
		}
		if err := commVM.Disk().Restore(restore.state.CommDisk); err != nil {
			return nil, nymerr.Wrap(CodeBadRestore, err, "restore CommVM disk").AddContext("nym", name)
		}
	}

	anon, err := m.buildAnonymizer(opts, commName)
	if err != nil {
		return nil, err
	}
	if restore != nil && restore.state.AnonState != nil {
		anon.ImportState(restore.state.AnonState)
	}
	anonStart := p.Now()
	if err := anon.Start(p); err != nil {
		return nil, nymerr.Wrapf(CodeAnonymizerStalled, err, "start %s", anon.Name()).
			AddContext("nym", name)
	}
	anonDur := p.Now() - anonStart

	n := &Nym{
		mgr:    m,
		name:   name,
		model:  opts.Model,
		opts:   opts,
		anonVM: anonVM,
		commVM: commVM,
		anon:   anon,
		phases: StartPhases{BootVM: bootDur, StartAnon: anonDur},
	}
	if restore != nil {
		n.cycles = restore.state.Cycles
		n.phases.EphemeralNym = restore.ephemeralPhase
	}
	n.browser = browser.New(m.world, m.net, anonVM, commName, anon, browser.Config{
		RenderCPU: m.host.SubmitVMTask,
	})
	m.nyms[name] = n
	launched = true
	return n, nil
}

// bootCPUFrac is the share of a guest's boot duration that is vCPU
// work rather than I/O waiting. On an uncontended chip the CPU leg
// finishes well inside the boot sleep (0.35/0.8 of the base), so
// single-nym startup timings are unchanged; when a fleet ramp packs
// more booting VMs than the chip has threads, boots become CPU-bound
// and stretch — which is what the fleet start gate exists to contain.
const bootCPUFrac = 0.35

// bootVM runs one guest's boot: the boot sleep and the boot's vCPU
// work proceed in parallel, and the boot completes when both have.
// The chip task is drained even when the boot fails — otherwise a
// failed boot (the host OOM wall on an oversubscribed ramp) would
// leave a phantom task stealing fair-share throughput from surviving
// nyms for the rest of its run.
func (m *Manager) bootVM(p *sim.Proc, v *vm.VM) error {
	base := guestos.BootProfileFor(v.Role()).Base
	cpu := m.host.SubmitVMTask(v.Name()+"/boot-cpu", bootCPUFrac*base.Seconds())
	if err := v.Boot(p); err != nil {
		sim.Await(p, cpu)
		return err
	}
	_, err := sim.Await(p, cpu)
	return err
}

// buildAnonymizer constructs the pluggable communication tool through
// the anonnet transport registry.
func (m *Manager) buildAnonymizer(opts Options, commName string) (anonnet.Transport, error) {
	env := anonnet.Env{
		Net:       m.net,
		World:     m.world,
		CommNode:  commName,
		HostNode:  m.host.Node().Name(),
		GuardSeed: opts.GuardSeed,
	}
	build := func(kind string) (anonnet.Transport, error) {
		t, err := anonnet.NewTransport(kind, env)
		if err != nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownAnon, kind)
		}
		return t, nil
	}
	if len(opts.Chain) > 0 {
		var stages []anonnet.Transport
		for _, kind := range opts.Chain {
			s, err := build(kind)
			if err != nil {
				return nil, err
			}
			stages = append(stages, s)
		}
		return anonnet.NewChain(stages...), nil
	}
	return build(opts.Anonymizer)
}

// Visit loads a page in the nym's browser, recording the first-page
// phase.
func (n *Nym) Visit(p *sim.Proc, host string) (browser.VisitResult, error) {
	if n.terminated {
		return browser.VisitResult{}, ErrNymTerminated
	}
	res, err := n.browser.Visit(p, host)
	if err == nil && n.phases.FirstPage == 0 {
		n.phases.FirstPage = res.Elapsed
	}
	return res, err
}

// EnableBuddies attaches the section 7 anonymity monitor: linkable
// posts from this nym are gated so its intersection-attack candidate
// set never falls below the policy floor.
func (n *Nym) EnableBuddies(mon *buddies.Monitor, policy buddies.Policy) {
	mon.Register(n.name, policy)
	n.buddiesMon = mon
}

// Post publishes to a site through the nym's browser. With Buddies
// enabled, the post is first cleared against the anonymity policy and
// suppressed (with ErrBelowThreshold wrapped) when publishing now
// would identify the user too narrowly.
func (n *Nym) Post(p *sim.Proc, host, content string) (browser.VisitResult, error) {
	if n.terminated {
		return browser.VisitResult{}, ErrNymTerminated
	}
	if n.buddiesMon != nil {
		if err := n.buddiesMon.RequestPost(n.name); err != nil {
			return browser.VisitResult{}, err
		}
	}
	return n.browser.Post(p, host, content)
}

// TerminateNym shuts a nym down: the anonymizer stops, both VMs are
// destroyed with their memory securely erased, and — for an ephemeral
// nym — every trace is gone ("turning off a pseudonym results in
// amnesia", section 3.4). Teardown always attempts both destroys and
// always retires the nym: a half-dead nymbox (anonymizer stopped, one
// VM gone) must never linger in the running set where it would pin
// host memory and block a restart under the same name.
func (m *Manager) TerminateNym(p *sim.Proc, n *Nym) error {
	if n.terminated {
		return ErrNymTerminated
	}
	n.anon.Stop()
	anonErr := m.host.DestroyVM(p, n.anonVM)
	commErr := m.host.DestroyVM(p, n.commVM)
	n.terminated = true
	delete(m.nyms, n.name)
	if err := errors.Join(anonErr, commErr); err != nil {
		return nymerr.Wrapf(CodeTeardownIncomplete, err, "terminate %q", n.name)
	}
	return nil
}
