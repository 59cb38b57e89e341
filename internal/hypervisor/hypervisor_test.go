package hypervisor

import (
	"testing"
	"time"

	"nymix/internal/guestos"
	"nymix/internal/sim"
	"nymix/internal/vm"
	"nymix/internal/vnet"
)

// testRig builds a host with an uplink to a small internet: gateway ->
// internet router -> site, plus an intranet host hanging off the
// gateway.
type testRig struct {
	eng  *sim.Engine
	net  *vnet.Network
	host *Host
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	eng := sim.NewEngine(1)
	net := vnet.New(eng)
	host, err := New(eng, net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gw := net.AddNode("gateway").SetForwarding(true)
	inet := net.AddNode("internet").SetForwarding(true)
	net.AddNode("site")
	net.AddNode("intranet-host").AddTag(LANTag)
	net.Connect(gw, inet, vnet.LinkConfig{Latency: 5 * time.Millisecond, Capacity: 100e6})
	net.Connect(net.Node("internet"), net.Node("site"), vnet.LinkConfig{Latency: time.Millisecond, Capacity: 100e6})
	net.Connect(gw, net.Node("intranet-host"), vnet.LinkConfig{Latency: time.Millisecond, Capacity: 100e6})
	host.ConnectUplink(gw, vnet.LinkConfig{Latency: 5 * time.Millisecond, Capacity: 10e6 / 8})
	return &testRig{eng: eng, net: net, host: host}
}

func (r *testRig) launchNymbox(t *testing.T, id string) (*vm.VM, *vm.VM) {
	t.Helper()
	anon, err := r.host.LaunchVM(vm.Config{
		Name: "anon-" + id, Role: guestos.RoleAnonVM,
		RAMBytes: 384 * guestos.MiB, DiskBytes: 128 * guestos.MiB, Anonymizer: "tor",
	})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := r.host.LaunchVM(vm.Config{
		Name: "comm-" + id, Role: guestos.RoleCommVM,
		RAMBytes: 128 * guestos.MiB, DiskBytes: 16 * guestos.MiB, Anonymizer: "tor",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.host.WireNymbox(anon, comm); err != nil {
		t.Fatal(err)
	}
	return anon, comm
}

func TestHostBaselineFootprint(t *testing.T) {
	r := newRig(t)
	used := r.host.Mem().UsedBytes()
	if used < 500*guestos.MiB || used > 900*guestos.MiB {
		t.Fatalf("host baseline = %d MiB, want a plausible Ubuntu footprint", used/guestos.MiB)
	}
}

func TestIsolationMatrix(t *testing.T) {
	// The section 5.1 validation: "The AnonVM can only communicate with
	// a functional CommVM and the CommVM could only communicate with
	// the Internet not local intranets."
	r := newRig(t)
	r.launchNymbox(t, "0")
	r.launchNymbox(t, "1")

	cases := []struct {
		src, dst string
		want     bool
	}{
		{"anon-0", "comm-0", true},  // own CommVM: the virtual wire
		{"anon-0", "anon-1", false}, // other AnonVM
		{"anon-0", "comm-1", false}, // other CommVM
		{"anon-0", "host", false},   // hypervisor
		{"anon-0", "site", false},   // direct Internet escape
		{"anon-0", "intranet-host", false},
		{"comm-0", "site", true}, // Internet via NAT
		{"comm-0", "intranet-host", false},
		{"comm-0", "comm-1", false},
		{"comm-0", "anon-1", false},
		{"comm-0", "host", true}, // its NAT gateway (the host itself)
	}
	for _, c := range cases {
		if got := r.net.CanReach(c.src, c.dst, "tcp"); got != c.want {
			t.Errorf("CanReach(%s -> %s) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestUplinkCaptureShowsOnlyNATSource(t *testing.T) {
	r := newRig(t)
	_, comm := r.launchNymbox(t, "0")
	cap := r.host.Uplink().Tap()
	fut := r.net.StartTransfer(vnet.TransferOpts{
		From: comm.Name(), To: "site", Bytes: 1000, Proto: "tor",
	})
	r.eng.Run()
	if _, err := fut.Value(); err != nil {
		t.Fatal(err)
	}
	if len(cap.Entries) != 1 {
		t.Fatalf("capture = %d entries", len(cap.Entries))
	}
	if cap.Entries[0].ObservedSrc != "host" {
		t.Fatalf("uplink saw src %q, want masqueraded host", cap.Entries[0].ObservedSrc)
	}
}

func TestDHCPBeacon(t *testing.T) {
	r := newRig(t)
	cap := r.host.Uplink().Tap()
	fut := r.host.EmitDHCP()
	r.eng.Run()
	if _, err := fut.Value(); err != nil {
		t.Fatal(err)
	}
	if protos := cap.Protos(); len(protos) != 1 || protos[0] != "dhcp" {
		t.Fatalf("protos = %v", protos)
	}
}

func TestDestroyVMDropsLinksAndMemory(t *testing.T) {
	r := newRig(t)
	anon, comm := r.launchNymbox(t, "0")
	r.eng.Go("life", func(p *sim.Proc) {
		if err := anon.Boot(p); err != nil {
			t.Errorf("boot anon: %v", err)
		}
		if err := comm.Boot(p); err != nil {
			t.Errorf("boot comm: %v", err)
		}
		if err := r.host.DestroyVM(p, anon); err != nil {
			t.Errorf("destroy anon: %v", err)
		}
		if err := r.host.DestroyVM(p, comm); err != nil {
			t.Errorf("destroy comm: %v", err)
		}
	})
	r.eng.Run()
	if r.host.VMCount() != 0 {
		t.Fatalf("vm count = %d", r.host.VMCount())
	}
	if r.net.CanReach("anon-0", "comm-0", "tcp") {
		t.Fatal("virtual wire survived destruction")
	}
	// Only the hypervisor's own baseline remains.
	used := r.host.Mem().UsedBytes()
	if used > 900*guestos.MiB {
		t.Fatalf("memory not reclaimed: %d MiB", used/guestos.MiB)
	}
}

// The network memoizes routes, and forward reads h.commLinks. A route
// from a CommVM to the internet that was memoized while its nymbox was
// wired must not outlive DestroyVM, and a newly wired nymbox must get
// its route.
func TestForwardPolicyFollowsRouteMemo(t *testing.T) {
	r := newRig(t)
	_, comm := r.launchNymbox(t, "0")
	if !r.net.CanReach("comm-0", "site", "tcp") {
		t.Fatal("wired CommVM cannot reach the internet")
	}
	if _, err := r.net.PathLatency("comm-0", "site"); err != nil {
		t.Fatalf("wired CommVM has no path: %v", err)
	}
	r.eng.Go("destroy", func(p *sim.Proc) {
		if err := r.host.DestroyVM(p, comm); err != nil {
			t.Errorf("destroy comm: %v", err)
		}
	})
	r.eng.Run()
	if r.net.CanReach("comm-0", "site", "tcp") {
		t.Fatal("destroyed CommVM still reaches the internet through a memoized route")
	}
	if _, err := r.net.PathLatency("comm-0", "site"); err == nil {
		t.Fatal("destroyed CommVM still has a path")
	}
	// Probe the second nymbox's CommVM before it is wired, so the
	// memo holds its no-route answer when WireNymbox connects it.
	anon1, err := r.host.LaunchVM(vm.Config{Name: "anon-1", Role: guestos.RoleAnonVM, RAMBytes: 384 * guestos.MiB})
	if err != nil {
		t.Fatal(err)
	}
	comm1, err := r.host.LaunchVM(vm.Config{Name: "comm-1", Role: guestos.RoleCommVM, RAMBytes: 128 * guestos.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if r.net.CanReach("comm-1", "site", "tcp") {
		t.Fatal("unwired CommVM reaches the internet")
	}
	if err := r.host.WireNymbox(anon1, comm1); err != nil {
		t.Fatal(err)
	}
	if !r.net.CanReach("comm-1", "site", "tcp") {
		t.Fatal("newly wired CommVM cannot reach the internet")
	}
	if r.net.CanReach("comm-1", "intranet-host", "tcp") {
		t.Fatal("newly wired CommVM reaches the intranet")
	}
}

func TestVirtFSMoveFile(t *testing.T) {
	r := newRig(t)
	sani, err := r.host.LaunchVM(vm.Config{
		Name: "sanivm", Role: guestos.RoleSaniVM,
		RAMBytes: 256 * guestos.MiB, DiskBytes: 64 * guestos.MiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sani.Node() != nil {
		t.Fatal("SaniVM must be non-networked")
	}
	anon, _ := r.launchNymbox(t, "0")
	if err := sani.Disk().WriteFile("/outbox/photo.jpg", []byte("scrubbed-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := r.host.MoveFile(sani, "/outbox/photo.jpg", anon, "/media/inbox/photo.jpg"); err != nil {
		t.Fatal(err)
	}
	got, err := anon.Disk().FS().ReadFile("/media/inbox/photo.jpg")
	if err != nil || string(got) != "scrubbed-bytes" {
		t.Fatalf("moved file = %q, %v", got, err)
	}
}

func TestDuplicateVMRejected(t *testing.T) {
	r := newRig(t)
	r.launchNymbox(t, "0")
	_, err := r.host.LaunchVM(vm.Config{Name: "anon-0", Role: guestos.RoleAnonVM, RAMBytes: guestos.MiB})
	if err == nil {
		t.Fatal("duplicate VM accepted")
	}
}

func TestWireNymboxValidatesRoles(t *testing.T) {
	r := newRig(t)
	anon, comm := r.launchNymbox(t, "0")
	if err := r.host.WireNymbox(comm, anon); err == nil {
		t.Fatal("role-swapped wiring accepted")
	}
}

func TestCPUTaskEfficiency(t *testing.T) {
	r := newRig(t)
	nat := r.host.SubmitNativeTask("native", 10)
	r.eng.Run()
	rn, _ := nat.Value()
	vmf := r.host.SubmitVMTask("invm", 10)
	r.eng.Run()
	rv, _ := vmf.Value()
	ratio := rv.Duration().Seconds() / rn.Duration().Seconds()
	if ratio < 1.2 || ratio > 1.3 {
		t.Fatalf("vm/native duration ratio = %.3f, want ~1.25 (20%% overhead)", ratio)
	}
}

func TestMemStatsScansBeforeReporting(t *testing.T) {
	r := newRig(t)
	a, c := r.launchNymbox(t, "0")
	r.eng.Go("boot", func(p *sim.Proc) {
		a.Boot(p)
		c.Boot(p)
	})
	r.eng.Run()
	st := r.host.MemStats()
	if st.PendingScan != 0 {
		t.Fatalf("pending scan = %d after MemStats", st.PendingScan)
	}
	if st.PagesSharing == 0 {
		t.Fatal("no sharing after booting a nymbox next to the hypervisor")
	}
}
