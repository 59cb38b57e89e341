package core

import (
	"errors"
	"fmt"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/cloud"
	"nymix/internal/nymerr"
	"nymix/internal/nymstate"
	"nymix/internal/sim"
	"nymix/internal/vault"
)

// StoreDest names where quasi-persistent state goes.
type StoreDest struct {
	Provider        string // cloud provider name; "" means local media
	Account         string // pseudonymous cloud account
	AccountPassword string
}

// Local is the local-media destination (a second USB partition),
// trading the cloud's deniability for immunity to the
// ephemeral-loader intersection hole (section 3.5).
var Local = StoreDest{}

// restoredState carries an opened archive into startNym.
type restoredState struct {
	state          *nymstate.State
	ephemeralPhase time.Duration
}

// archiveBlobName is the stored object name for a nym.
func archiveBlobName(nymName string) string { return "nym-" + nymName + ".enc" }

// torConsensusBytes is the cached directory state written into the
// CommVM disk at save time, so the CommVM accounts for ~15% of a
// stored nym (Figure 6's complement to "the AnonVM content accounting
// for 85% of the pseudonym size").
const torConsensusBytes = 2200 << 10

// exportState pauses the nymbox, syncs file systems, and exports the
// writable layers plus anonymizer state (the section 3.5 save path).
// Both VMs resume on every exit path — a failed sync must not leave
// the nymbox wedged in StatePaused.
func (m *Manager) exportState(p *sim.Proc, n *Nym) (*nymstate.State, error) {
	if err := n.anonVM.Pause(); err != nil {
		return nil, err
	}
	defer n.anonVM.Resume()
	if err := n.commVM.Pause(); err != nil {
		return nil, err
	}
	defer n.commVM.Resume()
	// Sync: flush anonymizer state into the CommVM's file system so the
	// disk image is self-contained.
	st := n.anon.ExportState()
	for k, v := range st {
		if err := n.commVM.Disk().WriteFile("/var/lib/anonymizer/"+k, []byte(v)); err != nil {
			return nil, err
		}
	}
	if st["consensus"] == "cached" && !n.commVM.Disk().FS().Exists("/var/lib/anonymizer/cached-consensus.d") {
		if err := n.commVM.Disk().WriteVirtual("/var/lib/anonymizer/cached-consensus.d", torConsensusBytes, 0.62); err != nil {
			return nil, err
		}
	}
	return &nymstate.State{
		Name:      n.name,
		Model:     string(n.model),
		Cycles:    n.cycles,
		AnonDisk:  n.anonVM.Disk().Snapshot(),
		CommDisk:  n.commVM.Disk().Snapshot(),
		AnonState: st,
	}, nil
}

// chargeHostCPU models compression/crypto work the Nym Manager runs
// natively on the host: a full core to itself when the chip has a
// thread free (identical to the old flat sleep), a fair share when a
// fleet's parallel saves contend for the chip.
func (m *Manager) chargeHostCPU(p *sim.Proc, name string, seconds float64) error {
	if seconds <= 0 {
		return nil
	}
	_, err := sim.Await(p, m.host.SubmitNativeTask(name, seconds))
	return err
}

// sealArchive compresses and encrypts, charging simulated CPU time.
func (m *Manager) sealArchive(p *sim.Proc, st *nymstate.State, password string) (*nymstate.Archive, error) {
	logical := nymstate.LogicalSize(st)
	if err := m.chargeHostCPU(p, "compress/"+st.Name, float64(logical)/nymstate.CompressRate); err != nil {
		return nil, err
	}
	arch, err := nymstate.Seal(st, password, m.eng.Rand())
	if err != nil {
		return nil, err
	}
	if err := m.chargeHostCPU(p, "encrypt/"+st.Name, float64(arch.WireSize)/nymstate.CryptoRate); err != nil {
		return nil, err
	}
	return arch, nil
}

// openArchive decrypts and decompresses, charging simulated CPU time.
func (m *Manager) openArchive(p *sim.Proc, arch *nymstate.Archive, password, name string) (*nymstate.State, error) {
	if err := m.chargeHostCPU(p, "decrypt/"+name, float64(arch.WireSize)/nymstate.CryptoRate); err != nil {
		return nil, err
	}
	st, err := nymstate.Open(arch, password, name)
	if err != nil {
		return nil, err
	}
	if err := m.chargeHostCPU(p, "decompress/"+name, float64(nymstate.LogicalSize(st))/nymstate.CompressRate); err != nil {
		return nil, err
	}
	return st, nil
}

// StoreNym archives a nym's state under the password: paused, synced,
// sealed, then uploaded through the nym's own anonymizer (or written
// to local media for Local). The nym keeps running afterwards.
func (m *Manager) StoreNym(p *sim.Proc, n *Nym, password string, dest StoreDest) (int64, error) {
	if n.terminated {
		return 0, ErrNymTerminated
	}
	st, err := m.exportState(p, n)
	if err != nil {
		return 0, err
	}
	// Snapshot dirt now: the export above is what this checkpoint
	// contains, so anything dirtied while the (yielding) seal and
	// upload below run must still read dirty afterwards.
	dirtyAnon, dirtyComm := n.anonVM.DirtyStats(), n.commVM.DirtyStats()
	st.Cycles = n.cycles + 1
	arch, err := m.sealArchive(p, st, password)
	if err != nil {
		return 0, err
	}
	if dest.Provider == "" {
		data, err := arch.Encode()
		if err != nil {
			return 0, err
		}
		m.localStore[archiveBlobName(n.name)] = data
		n.cycles++
		n.markClean(dirtyAnon, dirtyComm)
		return arch.WireSize, nil
	}
	pr, err := m.Provider(dest.Provider)
	if err != nil {
		return 0, err
	}
	if err := pr.CreateAccount(dest.Account, dest.AccountPassword); err != nil {
		return 0, err
	}
	sess, err := cloud.Login(p, n.anon, pr, dest.Account, dest.AccountPassword)
	if err != nil {
		return 0, err
	}
	data, err := arch.Encode()
	if err != nil {
		return 0, err
	}
	if err := sess.Put(p, archiveBlobName(n.name), cloud.Blob{Data: data, WireSize: arch.WireSize}); err != nil {
		return 0, err
	}
	n.cycles++
	n.markClean(dirtyAnon, dirtyComm)
	return arch.WireSize, nil
}

// LoadNym restores a stored nym. For cloud sources this follows the
// paper's workflow exactly: a throwaway ephemeral nym is started just
// to download the archive anonymously, then terminated; the real nym
// then boots from the decrypted images. The ephemeral phase is
// recorded in the result's StartPhases (Figure 7's "Ephemeral Nym"
// bar).
func (m *Manager) LoadNym(p *sim.Proc, name, password string, opts Options, src StoreDest) (*Nym, error) {
	var raw []byte
	var ephemeral time.Duration
	if src.Provider == "" {
		data, ok := m.localStore[archiveBlobName(name)]
		if !ok {
			return nil, nymerr.Newf(CodeNoLocalArchive, "no local archive for %q", name)
		}
		raw = data
	} else {
		start := p.Now()
		loader, err := m.StartNym(p, "loader-"+name, Options{
			Model:      ModelEphemeral,
			Anonymizer: loaderAnonymizer(opts),
			GuardSeed:  opts.GuardSeed, // section 3.5: seeded guards close the loader hole
		})
		if err != nil {
			return nil, fmt.Errorf("core: ephemeral loader: %w", err)
		}
		// On every failure below the loader teardown's own error joins
		// the primary one instead of being dropped: a destroy that
		// failed leaves the throwaway nymbox pinning host RAM, which
		// the caller must see.
		pr, err := m.Provider(src.Provider)
		if err != nil {
			return nil, errors.Join(err, m.TerminateNym(p, loader))
		}
		sess, err := cloud.Login(p, loader.Anonymizer(), pr, src.Account, src.AccountPassword)
		if err != nil {
			return nil, errors.Join(err, m.TerminateNym(p, loader))
		}
		blob, err := sess.Get(p, archiveBlobName(name))
		if err != nil {
			return nil, errors.Join(err, m.TerminateNym(p, loader))
		}
		if err := m.TerminateNym(p, loader); err != nil {
			return nil, err
		}
		raw = blob.Data
		ephemeral = p.Now() - start
	}
	arch, err := nymstate.DecodeArchive(raw)
	if err != nil {
		return nil, err
	}
	st, err := m.openArchive(p, arch, password, name)
	if err != nil {
		return nil, err
	}
	return m.startNym(p, name, opts, &restoredState{state: st, ephemeralPhase: ephemeral})
}

// loaderAnonymizer picks the throwaway loader's transport: the same
// kind as the nym itself so traffic blends.
func loaderAnonymizer(opts Options) string {
	if len(opts.Chain) > 0 {
		return opts.Chain[len(opts.Chain)-1]
	}
	if opts.Anonymizer == "" {
		return "tor"
	}
	return opts.Anonymizer
}

// EndSession closes out a browsing session per the nym's usage model:
// persistent nyms are re-archived (state accretes), pre-configured
// nyms discard everything since their golden snapshot, and ephemeral
// nyms just terminate. In every case the nymbox is destroyed.
func (m *Manager) EndSession(p *sim.Proc, n *Nym, password string, dest StoreDest) error {
	if n.model == ModelPersistent {
		if _, err := m.StoreNym(p, n, password, dest); err != nil {
			return err
		}
	}
	return m.TerminateNym(p, n)
}

// VaultDest names a chunked, deduplicating cloud destination for
// quasi-persistent state: one pseudonymous account per provider, with
// the chunk set replicated to every one of them.
type VaultDest struct {
	Providers       []string
	Account         string
	AccountPassword string
}

// vaultSessions opens one authenticated session per provider through
// the given anonymizer, creating the pseudonymous accounts on first
// use.
func (m *Manager) vaultSessions(p *sim.Proc, anon anonnet.Transport, dest VaultDest) ([]*cloud.Session, error) {
	if len(dest.Providers) == 0 {
		return nil, nymerr.New(CodeNoVaultProviders, "vault destination names no providers")
	}
	sessions := make([]*cloud.Session, 0, len(dest.Providers))
	for _, name := range dest.Providers {
		pr, err := m.Provider(name)
		if err != nil {
			return nil, err
		}
		if err := pr.CreateAccount(dest.Account, dest.AccountPassword); err != nil {
			return nil, err
		}
		sess, err := cloud.Login(p, anon, pr, dest.Account, dest.AccountPassword)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, sess)
	}
	return sessions, nil
}

// vaultStore returns the nym's vault bound to its cached chunk index,
// creating the index on first use.
func (m *Manager) vaultStore(name string) *vault.Store {
	idx, ok := m.vaultIndexes[name]
	if !ok {
		idx = vault.NewIndex()
		m.vaultIndexes[name] = idx
	}
	return vault.NewStore(name, idx)
}

// StoreNymVault checkpoints a nym through the content-addressed vault:
// the state is chunked, chunks the providers already hold are skipped
// via the locally cached index, and only the delta plus the sealed
// manifest travel through the anonymizer. The returned stats carry the
// wire bytes actually uploaded and, for comparison, what the
// monolithic archive of the same state would have cost.
func (m *Manager) StoreNymVault(p *sim.Proc, n *Nym, password string, dest VaultDest) (vault.SaveStats, error) {
	if n.terminated {
		return vault.SaveStats{}, ErrNymTerminated
	}
	st, err := m.exportState(p, n)
	if err != nil {
		return vault.SaveStats{}, err
	}
	// Snapshot dirt at export: this is the state the checkpoint will
	// hold, so the clean mark commits exactly this much — mutations
	// racing the upload (the save yields for CPU and wire) read dirty
	// against it afterwards, never silently absorbed.
	dirtyAnon, dirtyComm := n.anonVM.DirtyStats(), n.commVM.DirtyStats()
	st.Cycles = n.cycles + 1
	// The chunker (like the monolithic compressor) chews through the
	// full logical state; dedup saves wire and crypto, not compression.
	if err := m.chargeHostCPU(p, "chunk/"+n.name, float64(nymstate.LogicalSize(st))/nymstate.CompressRate); err != nil {
		return vault.SaveStats{}, err
	}
	sessions, err := m.vaultSessions(p, n.anon, dest)
	if err != nil {
		return vault.SaveStats{}, err
	}
	vs := m.vaultStore(n.name)
	stats, err := vs.Save(p, st, password, sessions, m.eng.Rand())
	if err != nil {
		return stats, err
	}
	// Encryption is charged only for bytes that actually shipped.
	if err := m.chargeHostCPU(p, "encrypt/"+n.name, float64(stats.UploadedBytes)/nymstate.CryptoRate); err != nil {
		return stats, err
	}
	// Price the monolithic baseline for the same state without sealing
	// (or uploading) it: the dedup comparison every caller wants.
	base, err := nymstate.EstimateArchiveWireSize(st)
	if err != nil {
		return stats, err
	}
	stats.BaselineWireBytes = base
	n.cycles++
	n.markClean(dirtyAnon, dirtyComm)
	return stats, nil
}

// LoadNymVault restores a nym from the vault, following the paper's
// cloud-restore workflow: a throwaway ephemeral nym downloads the
// manifest and chunks anonymously, then the real nym boots from the
// verified, reassembled images.
func (m *Manager) LoadNymVault(p *sim.Proc, name, password string, opts Options, dest VaultDest) (*Nym, error) {
	start := p.Now()
	loader, err := m.StartNym(p, "loader-"+name, Options{
		Model:      ModelEphemeral,
		Anonymizer: loaderAnonymizer(opts),
		GuardSeed:  opts.GuardSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: ephemeral loader: %w", err)
	}
	sessions, err := m.vaultSessions(p, loader.Anonymizer(), dest)
	if err != nil {
		return nil, errors.Join(err, m.TerminateNym(p, loader))
	}
	vs := m.vaultStore(name)
	st, stats, err := vs.Load(p, password, sessions)
	if err != nil {
		return nil, errors.Join(err, m.TerminateNym(p, loader))
	}
	if err := m.TerminateNym(p, loader); err != nil {
		return nil, err
	}
	ephemeral := p.Now() - start
	// Decryption and decompression charge over what came off the wire
	// and what it expands into.
	if err := m.chargeHostCPU(p, "decrypt/"+name, float64(stats.DownloadedBytes)/nymstate.CryptoRate); err != nil {
		return nil, err
	}
	if err := m.chargeHostCPU(p, "decompress/"+name, float64(nymstate.LogicalSize(st))/nymstate.CompressRate); err != nil {
		return nil, err
	}
	n, err := m.startNym(p, name, opts, &restoredState{state: st, ephemeralPhase: ephemeral})
	if err != nil {
		return nil, err
	}
	n.restore = stats
	// The nym's state is byte-identical to the checkpoint it was just
	// rebuilt from, so it starts clean: the first scheduled sweep after
	// a restore (or migration) skips it instead of re-uploading a
	// checkpoint the vault already holds.
	n.markClean(n.anonVM.DirtyStats(), n.commVM.DirtyStats())
	return n, nil
}

// VaultGC prunes chunks the latest manifest no longer references from
// every provider, through the nym's own anonymizer. Run it after a
// save to reclaim space freed by deleted or rewritten files.
func (m *Manager) VaultGC(p *sim.Proc, n *Nym, password string, dest VaultDest) (vault.GCStats, error) {
	if n.terminated {
		return vault.GCStats{}, ErrNymTerminated
	}
	sessions, err := m.vaultSessions(p, n.anon, dest)
	if err != nil {
		return vault.GCStats{}, err
	}
	return m.vaultStore(n.name).GC(p, password, sessions)
}

// MigrationCost is the priced wire a live migration of one nym would
// put on the shared providers, read entirely from local state — no
// provider round trip.
type MigrationCost struct {
	// RestoreBytes is what the destination's restore would download:
	// the full chunk set the vault index believes the first reachable
	// provider holds. Zero when the index is cold (a nym never saved
	// or loaded through this manager) — callers should fall back to a
	// footprint-derived guess rather than treating the move as free.
	RestoreBytes int64
	// DirtyBytes is the un-checkpointed disk churn a fresh source save
	// would have to ship before the restore can begin — the true delta
	// (pre-compression upper bound) between the nym and its vault.
	DirtyBytes int64
}

// Wire is the candidate move's total priced wire.
func (c MigrationCost) Wire() int64 { return c.RestoreBytes + c.DirtyBytes }

// MigrationCost prices what migrating n through dest would actually
// move over the wire, using the per-nym vault chunk index that delta
// saves maintain. The cost-aware rebalancer ranks candidate victims
// with this — a freshly-checkpointed nym with a warm index is nearly
// free on the save side, while a churning nym pays its whole delta.
func (m *Manager) MigrationCost(n *Nym, dest VaultDest) MigrationCost {
	cost := MigrationCost{DirtyBytes: n.DirtyState().DiskBytes}
	idx, ok := m.vaultIndexes[n.name]
	if !ok {
		return cost
	}
	// The restore is served by the first provider that answers; price
	// the largest single holder.
	for _, provider := range dest.Providers {
		cost.RestoreBytes = max(cost.RestoreBytes, idx.KnownBytes(provider))
	}
	return cost
}

// LocalArchiveSize returns the stored wire size of a local archive.
func (m *Manager) LocalArchiveSize(name string) (int64, bool) {
	data, ok := m.localStore[archiveBlobName(name)]
	if !ok {
		return 0, false
	}
	arch, err := nymstate.DecodeArchive(data)
	if err != nil {
		return 0, false
	}
	return arch.WireSize, true
}
