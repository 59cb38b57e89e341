package core

import (
	"errors"
	"reflect"
	"testing"

	"nymix/internal/guestos"
	"nymix/internal/nymstate"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
	"nymix/internal/vault"
	"nymix/internal/vm"
)

// unnamed strips the VM-scoped layer name for content comparison.
func unnamed(img unionfs.Image) unionfs.Image {
	img.Name = ""
	return img
}

func vaultDest(providers ...string) VaultDest {
	if len(providers) == 0 {
		providers = []string{"dropbin"}
	}
	return VaultDest{Providers: providers, Account: "vault-acct", AccountPassword: "cpw"}
}

func TestStoreNymVaultRoundTrip(t *testing.T) {
	eng, m := newManager(t)
	dest := vaultDest()
	var stats vault.SaveStats
	var anonImg, commImg unionfs.Image
	var guard string
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "alice-blog", Options{Model: ModelPersistent})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		nym.Browser().Login(p, "twitter.com", "alice", "pw")
		nym.Visit(p, "gmail.com")
		guard = nym.Anonymizer().ExportState()["guard"]
		stats, err = m.StoreNymVault(p, nym, "nym-password", dest)
		if err != nil {
			t.Errorf("store: %v", err)
			return
		}
		// The state as stored: what the paused-and-synced disks held.
		anonImg = nym.AnonVM().Disk().Snapshot()
		commImg = nym.CommVM().Disk().Snapshot()
		if err := m.TerminateNym(p, nym); err != nil {
			t.Errorf("terminate: %v", err)
		}
	})
	if stats.TotalChunks == 0 || stats.UploadedBytes == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.NewChunks != stats.TotalChunks {
		t.Fatalf("first save must upload everything: %+v", stats)
	}
	if stats.BaselineWireBytes == 0 {
		t.Fatal("no monolithic baseline priced")
	}

	var restored *Nym
	run(t, eng, func(p *sim.Proc) {
		var err error
		restored, err = m.LoadNymVault(p, "alice-blog", "nym-password", Options{Model: ModelPersistent}, dest)
		if err != nil {
			t.Errorf("load: %v", err)
		}
	})
	if restored == nil {
		t.Fatal("no restored nym")
	}
	// Byte-identical state: the restored writable layers equal the
	// stored ones exactly. The layer name carries the (fresh) VM's id
	// and is not part of the persisted state; blank it for comparison.
	if got := restored.AnonVM().Disk().Snapshot(); !reflect.DeepEqual(unnamed(anonImg), unnamed(got)) {
		t.Fatalf("AnonVM disk differs after vault restore:\nwant %+v\ngot  %+v", anonImg, got)
	}
	if got := restored.CommVM().Disk().Snapshot(); !reflect.DeepEqual(unnamed(commImg), unnamed(got)) {
		t.Fatalf("CommVM disk differs after vault restore:\nwant %+v\ngot  %+v", commImg, got)
	}
	if restored.Cycles() != 1 {
		t.Fatalf("cycles = %d", restored.Cycles())
	}
	if got := restored.Anonymizer().ExportState()["guard"]; got != guard {
		t.Fatalf("guard = %q, want %q", got, guard)
	}
	if cred, ok := restored.Browser().Credentials("twitter.com"); !ok || cred.Account != "alice" {
		t.Fatalf("credentials lost: %+v %v", cred, ok)
	}
	if restored.Phases().EphemeralNym <= 0 {
		t.Fatal("vault cloud load must include the ephemeral-nym phase")
	}
}

// TestVaultIncrementalSaveBeatsMonolithic is the dedup acceptance
// criterion: a persistent nym saved over several sessions with small
// per-session mutations must, from cycle 2 on, ship under 25% of what
// the monolithic archive of the same state would cost.
func TestVaultIncrementalSaveBeatsMonolithic(t *testing.T) {
	eng, m := newManager(t)
	dest := vaultDest()
	opts := Options{Model: ModelPersistent, AnonDisk: 256 * guestos.MiB}
	const cycles = 4
	var all []vault.SaveStats
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "heavy", opts)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		// Session 1: a rich browsing session builds up real state.
		for _, site := range []string{"twitter.com", "gmail.com", "facebook.com"} {
			if _, err := nym.Browser().Login(p, site, "persona", "pw"); err != nil {
				t.Errorf("login %s: %v", site, err)
				return
			}
		}
		nym.Visit(p, "blog.torproject.org")
		stats, err := m.StoreNymVault(p, nym, "pw", dest)
		if err != nil {
			t.Errorf("store 1: %v", err)
			return
		}
		all = append(all, stats)
		if err := m.TerminateNym(p, nym); err != nil {
			t.Errorf("terminate: %v", err)
			return
		}
		// Sessions 2+: restore, catch up on two sites, save back.
		for c := 1; c < cycles; c++ {
			nym, err := m.LoadNymVault(p, "heavy", "pw", opts, dest)
			if err != nil {
				t.Errorf("cycle %d load: %v", c, err)
				return
			}
			nym.Visit(p, "twitter.com")
			nym.Visit(p, "blog.torproject.org")
			stats, err := m.StoreNymVault(p, nym, "pw", dest)
			if err != nil {
				t.Errorf("cycle %d store: %v", c, err)
				return
			}
			all = append(all, stats)
			if err := m.TerminateNym(p, nym); err != nil {
				t.Errorf("cycle %d terminate: %v", c, err)
				return
			}
		}
	})
	if len(all) != cycles {
		t.Fatalf("completed %d cycles, want %d", len(all), cycles)
	}
	for i, stats := range all[1:] {
		frac := float64(stats.UploadedBytes) / float64(stats.BaselineWireBytes)
		if frac >= 0.25 {
			t.Errorf("cycle %d uploaded %d of %d monolithic bytes (%.0f%%), want < 25%%",
				i+2, stats.UploadedBytes, stats.BaselineWireBytes, 100*frac)
		}
		if stats.DedupFrac() < 0.75 {
			t.Errorf("cycle %d dedup fraction %.2f, want >= 0.75", i+2, stats.DedupFrac())
		}
	}
}

func TestLoadNymVaultWrongPassword(t *testing.T) {
	eng, m := newManager(t)
	dest := vaultDest("gdrive")
	run(t, eng, func(p *sim.Proc) {
		nym, _ := m.StartNym(p, "n", Options{Model: ModelPersistent})
		if _, err := m.StoreNymVault(p, nym, "right", dest); err != nil {
			t.Errorf("store: %v", err)
			return
		}
		m.TerminateNym(p, nym)
		if _, err := m.LoadNymVault(p, "n", "wrong", Options{}, dest); !errors.Is(err, nymstate.ErrBadPassword) {
			t.Errorf("wrong password: %v, want ErrBadPassword", err)
		}
	})
	// The failed loader must not leak a running nym.
	if m.RunningNyms() != 0 {
		t.Fatalf("running nyms = %d", m.RunningNyms())
	}
}

func TestVaultGCReclaimsStaleChunksOnly(t *testing.T) {
	eng, m := newManager(t)
	dest := vaultDest()
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "gcnym", Options{Model: ModelPersistent})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		// A large scratch file that the next session deletes.
		if err := nym.AnonVM().Disk().WriteVirtual("/home/user/Downloads/video.mp4", 8<<20, 0.99); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if _, err := m.StoreNymVault(p, nym, "pw", dest); err != nil {
			t.Errorf("store 1: %v", err)
			return
		}
		if err := nym.AnonVM().Disk().Remove("/home/user/Downloads/video.mp4"); err != nil {
			t.Errorf("remove: %v", err)
			return
		}
		if _, err := m.StoreNymVault(p, nym, "pw", dest); err != nil {
			t.Errorf("store 2: %v", err)
			return
		}
		gc, err := m.VaultGC(p, nym, "pw", dest)
		if err != nil {
			t.Errorf("gc: %v", err)
			return
		}
		if gc.Deleted == 0 || gc.FreedBytes < 4<<20 {
			t.Errorf("gc reclaimed too little: %+v", gc)
		}
		m.TerminateNym(p, nym)
		// The nym still restores perfectly after GC.
		if _, err := m.LoadNymVault(p, "gcnym", "pw", Options{Model: ModelPersistent}, dest); err != nil {
			t.Errorf("load after gc: %v", err)
		}
	})
}

// TestExportStateResumesVMsOnError is the regression test for the
// paused-VM leak: a failed file-system sync during a save must resume
// both VMs, not leave the nymbox wedged in StatePaused.
func TestExportStateResumesVMsOnError(t *testing.T) {
	eng, m := newManager(t)
	run(t, eng, func(p *sim.Proc) {
		// A CommVM disk too small for the ~2.2 MB consensus cache makes
		// exportState's WriteVirtual fail partway through the sync.
		nym, err := m.StartNym(p, "wedge", Options{Model: ModelPersistent, CommDisk: 256 << 10})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		if _, err := m.StoreNym(p, nym, "pw", Local); err == nil {
			t.Error("store into a too-small CommVM disk should fail")
			return
		}
		if got := nym.AnonVM().State(); got != vm.StateRunning {
			t.Errorf("AnonVM state after failed store = %v, want running", got)
		}
		if got := nym.CommVM().State(); got != vm.StateRunning {
			t.Errorf("CommVM state after failed store = %v, want running", got)
		}
		// The nymbox still works: browsing and a later local save with
		// enough room both succeed.
		if _, err := nym.Visit(p, "twitter.com"); err != nil {
			t.Errorf("visit after failed store: %v", err)
		}
		// The vault path shares exportState and must fail-resume too.
		if _, err := m.StoreNymVault(p, nym, "pw", vaultDest()); err == nil {
			t.Error("vault store should also fail on the full disk")
		}
		if got := nym.CommVM().State(); got != vm.StateRunning {
			t.Errorf("CommVM state after failed vault store = %v, want running", got)
		}
	})
}

// TestDirtyMarksFollowCheckpointLifecycle: a fresh nym is dirty,
// StoreNymVault cleans it, browsing re-dirties it, and a nym restored
// from the vault starts clean — its state is byte-identical to the
// checkpoint it was rebuilt from.
func TestDirtyMarksFollowCheckpointLifecycle(t *testing.T) {
	eng, m := newManager(t)
	dest := vaultDest()
	run(t, eng, func(p *sim.Proc) {
		nym, err := m.StartNym(p, "dirty-nym", Options{Model: ModelPersistent})
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		if !nym.StateDirty() {
			t.Error("fresh nym reads clean; its boot alone mutated state")
		}
		if _, err := m.StoreNymVault(p, nym, "pw", dest); err != nil {
			t.Errorf("store: %v", err)
			return
		}
		if nym.StateDirty() {
			t.Errorf("nym dirty right after its checkpoint: %+v", nym.DirtyState())
		}
		gen := nym.CheckpointGen()
		if _, err := nym.Visit(p, "twitter.com"); err != nil {
			t.Errorf("visit: %v", err)
			return
		}
		d := nym.DirtyState()
		if !d.Dirty || d.RAMPages <= 0 || d.DiskBytes <= 0 {
			t.Errorf("browsing left no dirt: %+v", d)
		}
		if _, err := m.StoreNymVault(p, nym, "pw", dest); err != nil {
			t.Errorf("second store: %v", err)
			return
		}
		if nym.StateDirty() {
			t.Error("nym dirty after its delta checkpoint")
		}
		if got := nym.CheckpointGen(); got != gen+1 {
			t.Errorf("checkpoint generation = %d, want %d", got, gen+1)
		}
		if err := m.TerminateNym(p, nym); err != nil {
			t.Errorf("terminate: %v", err)
			return
		}
		restored, err := m.LoadNymVault(p, "dirty-nym", "pw", Options{Model: ModelPersistent}, dest)
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		if restored.StateDirty() {
			t.Errorf("restored nym dirty: %+v — its state equals the checkpoint it came from", restored.DirtyState())
		}
		if got := restored.CheckpointGen(); got != gen+1 {
			t.Errorf("restored checkpoint generation = %d, want %d (persisted in the manifest)", got, gen+1)
		}
		if err := m.TerminateNym(p, restored); err != nil {
			t.Errorf("terminate restored: %v", err)
		}
	})
}
