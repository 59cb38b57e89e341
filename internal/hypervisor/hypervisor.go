// Package hypervisor models the Nymix host: the machine booted from
// the Nymix USB drive, running Ubuntu 14.04 with QEMU/KVM. The
// hypervisor owns host RAM (from which all VM RAM and RAM-backed
// disks are allocated), the physical CPU, the host's single NAT'd
// uplink, KSM, and the VirtFS shared folders used to move sanitized
// files between VMs.
//
// Isolation is structural, mirroring section 4.2: each AnonVM has
// exactly one link — a host-only virtual wire to its CommVM — and each
// CommVM reaches the Internet only through the host's masquerading
// uplink. The host forwards exclusively between CommVM wires and the
// uplink, so no VM can reach another nymbox's VMs, the hypervisor, or
// the local intranet.
package hypervisor

import (
	"errors"
	"fmt"
	"time"

	"nymix/internal/cpusched"
	"nymix/internal/guestos"
	"nymix/internal/mem"
	"nymix/internal/merkle"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
	"nymix/internal/vm"
	"nymix/internal/vnet"
)

// VirtualizationEfficiency is the fraction of native CPU speed a vCPU
// achieves (Figure 4 measures ~20% overhead).
const VirtualizationEfficiency = 0.8

// Config sizes the host.
type Config struct {
	RAMBytes int64           // physical memory (paper testbed: 16 GiB)
	CPU      cpusched.Config // chip model
	// Name is the host's network identity. The default ("host")
	// matches the paper's single-machine deployment; a cluster of
	// simulated hosts on one network gives each a distinct name.
	Name string
}

// DefaultConfig is the paper's evaluation desktop: an Intel i7 quad
// core with 16 GB of RAM.
func DefaultConfig() Config {
	return Config{RAMBytes: 16 << 30, CPU: cpusched.DefaultConfig()}
}

// Host is the Nymix machine.
type Host struct {
	eng       *sim.Engine
	cfg       Config
	mem       *mem.Host
	cpu       *cpusched.Host
	net       *vnet.Network
	node      *vnet.Node
	uplink    *vnet.Link
	baseImage *unionfs.Layer
	baseRoot  merkle.Hash // well-known root stamped at distribution time
	hostSpace *mem.Space
	vms       map[string]*vm.VM
	commLinks map[*vnet.Link]bool
	wires     map[string]*vnet.Link // AnonVM name -> virtual wire
}

// hypervisor baseline footprint: the host Ubuntu system itself.
const (
	hostSharedPages = 9000   // base-image pages resident in the host (~35 MiB)
	hostZeroPages   = 4096   // ~16 MiB
	hostUniquePages = 170000 // ~665 MiB of host-private state
)

// New boots a Nymix host on the engine and network. The base image is
// built once and shared — it is the very partition the host booted
// from, reused read-only as every VM's bottom layer (section 3.4).
func New(eng *sim.Engine, net *vnet.Network, cfg Config) (*Host, error) {
	if cfg.Name == "" {
		cfg.Name = "host"
	}
	h := &Host{
		eng:       eng,
		cfg:       cfg,
		mem:       mem.NewHost(cfg.RAMBytes),
		cpu:       cpusched.NewHost(eng, cfg.CPU),
		net:       net,
		baseImage: guestos.BuildBaseImage(),
		vms:       make(map[string]*vm.VM),
		commLinks: make(map[*vnet.Link]bool),
		wires:     make(map[string]*vnet.Link),
	}
	h.baseRoot = merkle.BuildLayer(h.baseImage).Root()
	h.node = net.AddNode(cfg.Name)
	space, err := h.mem.NewSpace("hypervisor")
	if err != nil {
		return nil, err
	}
	h.hostSpace = space
	if err := space.WriteClass(0, hostSharedPages, "baseimg", 0); err != nil {
		return nil, err
	}
	if err := space.WriteZero(hostSharedPages, hostZeroPages); err != nil {
		return nil, err
	}
	if err := space.WriteUnique(hostSharedPages+hostZeroPages, hostUniquePages); err != nil {
		return nil, err
	}
	h.node.SetPolicy(h.forward).SetMasquerade(true)
	return h, nil
}

// Engine returns the simulation engine.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Mem returns the host memory manager.
func (h *Host) Mem() *mem.Host { return h.mem }

// CPU returns the host CPU scheduler.
func (h *Host) CPU() *cpusched.Host { return h.cpu }

// Net returns the network the host lives on.
func (h *Host) Net() *vnet.Network { return h.net }

// Node returns the host's network identity.
func (h *Host) Node() *vnet.Node { return h.node }

// BaseImage returns the sealed shared base image.
func (h *Host) BaseImage() *unionfs.Layer { return h.baseImage }

// VerifyBaseImage checks the host partition against the well-known
// Merkle root (the section 3.4 integrity mechanism). Nymix refuses to
// launch VMs from a modified partition, since "those modifications,
// however minute... would manifest in the initial states of all
// AnonVMs subsequently created, potentially offering adversaries a way
// to track the user".
func (h *Host) VerifyBaseImage() error {
	return merkle.VerifyLayer(h.baseImage, h.baseRoot)
}

// ReplaceBaseImage models the USB partition having been modified
// while plugged into another machine: the next boot reads the
// attacker's layer. Verification is expected to catch it.
func (h *Host) ReplaceBaseImage(tampered *unionfs.Layer) { h.baseImage = tampered }

// VM returns a VM by name, or nil.
func (h *Host) VM(name string) *vm.VM { return h.vms[name] }

// VMCount returns the number of live (not destroyed) VMs.
func (h *Host) VMCount() int { return len(h.vms) }

// LANTag marks intranet nodes. The host's NAT firewall refuses to
// forward CommVM traffic to destinations carrying it, implementing
// "the CommVM could only communicate with the Internet not local
// intranets" (section 5.1) by filtering private address ranges.
const LANTag = "lan"

// forward is the host's forwarding policy: CommVM wire <-> uplink
// only, and never toward the local intranet. Everything else — VM to
// VM, VM to hypervisor, intranet to VM — is silently dropped.
//
// vnet memoizes routes until a route-visible mutator runs, so forward
// reads only state that changes next to one: h.uplink is set by
// ConnectUplink right after its Connect, a commLinks entry is added
// by WireNymbox right after its Connect and removed by DestroyVM
// right after the link's SetDown, and the LAN tag is set by AddTag.
func (h *Host) forward(in, out *vnet.Iface, proto string, dst *vnet.Node) bool {
	if in == nil || out == nil || h.uplink == nil {
		return false
	}
	if dst != nil && dst.HasTag(LANTag) {
		return false
	}
	if h.commLinks[in.Link()] && out.Link() == h.uplink {
		return true
	}
	if in.Link() == h.uplink && h.commLinks[out.Link()] {
		return true
	}
	return false
}

// ConnectUplink joins the host to its gateway (the physical NIC). The
// paper's evaluation rate-limits this path to 10 Mbit/s.
func (h *Host) ConnectUplink(gateway *vnet.Node, cfg vnet.LinkConfig) *vnet.Link {
	h.uplink = h.net.Connect(h.node, gateway, cfg)
	return h.uplink
}

// Uplink returns the host's uplink link (nil before ConnectUplink).
func (h *Host) Uplink() *vnet.Link { return h.uplink }

// EmitDHCP sends one DHCP renewal toward the gateway — the only
// traffic an idle Nymix host originates (section 5.1 validation).
func (h *Host) EmitDHCP() *sim.Future[vnet.Result] {
	gw, _ := h.uplink.Endpoints()
	if gw == h.node {
		_, gw = h.uplink.Endpoints()
	}
	return h.net.StartTransfer(vnet.TransferOpts{
		From: h.node.Name(), To: gw.Name(),
		Bytes: 590, Proto: "dhcp", NoHandshake: true,
	})
}

// LaunchVM creates a VM of the given role with the standard layer
// stack (role config over the shared base image) and a network node.
// The SaniVM is deliberately not given a node: it is non-networked by
// construction.
func (h *Host) LaunchVM(cfg vm.Config) (*vm.VM, error) {
	if _, exists := h.vms[cfg.Name]; exists {
		return nil, fmt.Errorf("hypervisor: VM %q already exists", cfg.Name)
	}
	conf := guestos.ConfigLayer(cfg.Role, cfg.Anonymizer)
	v, err := vm.New(h.eng, h.mem, cfg, conf, h.baseImage)
	if err != nil {
		return nil, err
	}
	if cfg.Role != guestos.RoleSaniVM {
		// VM nodes live in the host's region: a region sever cuts the
		// host's guests off along with the host itself.
		v.AttachNode(h.net.AddNode(cfg.Name).SetRegion(h.node.Region()))
	}
	h.vms[cfg.Name] = v
	return v, nil
}

// wire parameters: the AnonVM-CommVM UDP "virtual wire" lives entirely
// in hypervisor memory, and the CommVM-host leg is KVM user-mode NAT.
var (
	wireCfg     = vnet.LinkConfig{Latency: 200 * time.Microsecond, Capacity: 500e6}
	natLegCfg   = vnet.LinkConfig{Latency: 150 * time.Microsecond, Capacity: 500e6}
	errNotAnon  = errors.New("hypervisor: first VM must be an AnonVM")
	errNotComm  = errors.New("hypervisor: second VM must be a CommVM")
	errNoUplink = errors.New("hypervisor: uplink not connected")
)

// WireNymbox connects an AnonVM to its CommVM with the private virtual
// wire and gives the CommVM its NAT leg to the host. This is the
// entire network fabric a nymbox gets.
func (h *Host) WireNymbox(anon, comm *vm.VM) error {
	if anon.Role() != guestos.RoleAnonVM {
		return errNotAnon
	}
	if comm.Role() != guestos.RoleCommVM {
		return errNotComm
	}
	if h.uplink == nil {
		return errNoUplink
	}
	wire := h.net.Connect(anon.Node(), comm.Node(), wireCfg)
	// Connect clears vnet's route memo; forward reads commLinks, so the
	// entry is added before any route can be computed again.
	natLeg := h.net.Connect(comm.Node(), h.node, natLegCfg)
	h.commLinks[natLeg] = true
	h.wires[anon.Name()] = wire
	return nil
}

// DestroyVM shuts the VM down (securely erasing its memory), tears
// down its links, and forgets it.
func (h *Host) DestroyVM(p *sim.Proc, v *vm.VM) error {
	if _, ok := h.vms[v.Name()]; !ok {
		return fmt.Errorf("hypervisor: unknown VM %q", v.Name())
	}
	if v.State() != vm.StateStopped {
		if err := v.Shutdown(p); err != nil {
			return err
		}
	}
	if n := v.Node(); n != nil {
		for _, l := range allLinks(n) {
			// SetDown clears vnet's route memo. A route computed between
			// it and the delete below cannot depend on l's commLinks
			// entry: l is down both ways, so no route crosses it.
			l.SetDown(h.net, true)
			delete(h.commLinks, l)
		}
	}
	delete(h.wires, v.Name())
	delete(h.vms, v.Name())
	return nil
}

// allLinks lists a node's links.
func allLinks(n *vnet.Node) []*vnet.Link {
	var out []*vnet.Link
	seen := map[*vnet.Link]bool{}
	for _, ifc := range n.Ifaces() {
		if !seen[ifc.Link()] {
			seen[ifc.Link()] = true
			out = append(out, ifc.Link())
		}
	}
	return out
}

// MoveFile copies a file between two VMs' disks through hypervisor
// shared folders (VirtFS): "the SaniVM moves it into a shared folder
// with the hypervisor. The hypervisor, then in turn, moves it into a
// shared folder with the specific AnonVM" (section 4.3).
func (h *Host) MoveFile(from *vm.VM, fromPath string, to *vm.VM, toPath string) error {
	data, err := from.Disk().FS().ReadFile(fromPath)
	if err != nil {
		return fmt.Errorf("hypervisor: virtfs read: %w", err)
	}
	if err := to.Disk().WriteFile(toPath, data); err != nil {
		return fmt.Errorf("hypervisor: virtfs write: %w", err)
	}
	return nil
}

// MemStats returns the host memory snapshot after letting KSM catch
// up, which is how the Figure 3 measurements are taken.
func (h *Host) MemStats() mem.Stats {
	h.mem.ScanAll()
	return h.mem.Stats()
}

// SubmitVMTask runs CPU work on behalf of a VM at virtualized
// efficiency.
func (h *Host) SubmitVMTask(name string, work float64) *sim.Future[cpusched.TaskResult] {
	return h.cpu.Submit(name, work, VirtualizationEfficiency)
}

// SubmitNativeTask runs CPU work natively on the host.
func (h *Host) SubmitNativeTask(name string, work float64) *sim.Future[cpusched.TaskResult] {
	return h.cpu.Submit(name, work, 1.0)
}
