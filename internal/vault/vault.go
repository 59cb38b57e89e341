package vault

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"sort"
	"strings"

	"nymix/internal/cloud"
	"nymix/internal/merkle"
	"nymix/internal/nymerr"
	"nymix/internal/nymstate"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
)

// gob wire type IDs come from a process-global registry in
// first-encode order and are varint-encoded into every stream, so a
// manifest's byte length would depend on encode history. nymstate
// (imported above, so its init runs first) pins its wire types;
// pinning manifestWire here fixes the combined assignment order in
// every binary, making blob sizes a pure function of content.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(&manifestWire{}); err != nil {
		panic(err)
	}
}

// Addr is a keyed content address: HMAC-SHA256 over a chunk's content
// identity under the nym's addressing key.
type Addr [sha256.Size]byte

// String returns the hex form used in blob names.
func (a Addr) String() string { return hex.EncodeToString(a[:]) }

// ChunkRef is one chunk as the manifest records it.
type ChunkRef struct {
	Addr     Addr
	Virtual  bool
	Size     int64   // logical bytes
	Entropy  float64 // virtual chunks: compressibility of the content
	WireSize int64   // modeled stored/transferred size of the sealed blob
}

// FileEntry maps one file of a disk image onto the chunk list.
type FileEntry struct {
	Disk        int // 0 = AnonDisk, 1 = CommDisk
	Path        string
	Real        bool
	VirtualSize int64
	Entropy     float64
	Chunks      []int // indexes into Manifest.Chunks, in file order
}

// Manifest is the vault's only mutable object: everything needed to
// rebuild a nym state from the chunk store, sealed under the nym
// password. Root commits to the chunk list so a restore can verify
// each fetched chunk's address against a Merkle proof.
type Manifest struct {
	Name          string
	Model         string
	Cycles        int
	Seq           int // save-cycle sequence number of this manifest
	AnonDiskName  string
	CommDiskName  string
	AnonWhiteouts []string
	CommWhiteouts []string
	AnonState     map[string]string
	Files         []FileEntry
	Chunks        []ChunkRef
	Root          merkle.Hash
}

// keys is the per-nym vault key material derived from the password:
// one key for sealing chunks and the manifest, one for addressing.
// Every address and chunk nonce is an HMAC under mac; prf is that one
// keyed HMAC, Reset per digest, and buf its reusable input and output
// scratch. A keys value serves one Save, Load or GC on one goroutine.
type keys struct {
	enc []byte
	mac []byte
	prf hash.Hash
	buf []byte
}

func deriveKeys(password, name string) *keys {
	raw := nymstate.DeriveKey([]byte(password), []byte("nymix-vault-v1\x00"+name), nymstate.KDFIterations, 64)
	mac := raw[32:]
	return &keys{enc: raw[:32], mac: mac, prf: hmac.New(sha256.New, mac)}
}

// digest returns HMAC(mac, buf || tail). The digest overwrites buf and
// the result aliases it until the next call. HMAC input is a byte
// stream, so building the message in buf hashes the same bytes as
// writing its parts one by one.
func (ks *keys) digest(tail []byte) []byte {
	ks.prf.Reset()
	ks.prf.Write(ks.buf)
	ks.prf.Write(tail)
	ks.buf = ks.prf.Sum(ks.buf[:0])
	return ks.buf
}

// chunkSealOverhead is the stored per-chunk overhead: the 16-byte GCM
// tag (the nonce is derived from the address, never stored).
const chunkSealOverhead = 16

// realAddr addresses a real chunk by its bytes.
func (ks *keys) realAddr(data []byte) Addr {
	ks.buf = append(ks.buf[:0], "real\x00"...)
	return Addr(ks.digest(data))
}

// virtAddr addresses a virtual segment by (disk, path, segment index,
// segment size). Entropy is deliberately NOT part of the address: a
// virtual file's entropy is a lossy aggregate that unionfs.GrowVirtual
// re-mixes on every append, while the bytes an interior segment stands
// for did not change — real content-defined chunking would keep their
// addresses stable, so the vault does too. Entropy still restores
// exactly (it rides in the sealed manifest's FileEntry) and prices the
// segment's wire size; only the dedup identity ignores it.
func (ks *keys) virtAddr(disk int, path string, seg int, size int64) Addr {
	b := append(ks.buf[:0], "virt\x00"...)
	b = append(b, byte(disk))
	b = append(b, path...)
	b = binary.BigEndian.AppendUint64(b, uint64(seg))
	ks.buf = binary.BigEndian.AppendUint64(b, uint64(size))
	return Addr(ks.digest(nil))
}

// sealChunk encrypts a real chunk convergently: AES-256-GCM with the
// nonce derived from the address, so identical content always yields
// an identical blob. The AEAD is hoisted by the caller (one per
// Save/Load, not one per chunk).
func (ks *keys) sealChunk(gcm cipher.AEAD, addr Addr, data []byte) []byte {
	return gcm.Seal(nil, ks.chunkNonce(addr, gcm.NonceSize()), data, addr[:])
}

// openChunk decrypts and authenticates a real chunk blob. Because the
// manifest already authenticated under the password, a failure here is
// tamper evidence, reported as merkle.ErrTampered.
func (ks *keys) openChunk(gcm cipher.AEAD, addr Addr, blob []byte) ([]byte, error) {
	plain, err := gcm.Open(nil, ks.chunkNonce(addr, gcm.NonceSize()), blob, addr[:])
	if err != nil {
		return nil, nymerr.Wrapf(CodeTampered, merkle.ErrTampered, "chunk %s", addr)
	}
	return plain, nil
}

func (ks *keys) aead() (cipher.AEAD, error) {
	block, err := aes.NewCipher(ks.enc)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// chunkNonce derives a chunk's GCM nonce from its address. The result
// aliases ks.buf: use it before the next call on ks.
func (ks *keys) chunkNonce(addr Addr, n int) []byte {
	ks.buf = append(append(ks.buf[:0], "nonce\x00"...), addr[:]...)
	return ks.digest(nil)[:n]
}

// Index is the per-nym local cache of which chunk addresses each
// provider is known to hold, and at what wire size. It lets a delta
// save decide what to upload without a provider round trip (a cold
// index falls back to the provider's own metadata listing), and lets
// the cluster rebalancer price a migration — KnownBytes is the wire a
// destination restore would pull from that provider — without
// touching the providers at all.
type Index struct {
	present map[string]map[Addr]int64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{present: make(map[string]map[Addr]int64)}
}

// Has reports whether the provider is known to hold addr.
func (ix *Index) Has(provider string, a Addr) bool {
	_, ok := ix.present[provider][a]
	return ok
}

// Add records that the provider holds addr at the given wire size.
func (ix *Index) Add(provider string, a Addr, wireSize int64) {
	set, ok := ix.present[provider]
	if !ok {
		set = make(map[Addr]int64)
		ix.present[provider] = set
	}
	set[a] = wireSize
}

// Forget drops addr from the provider's set (after GC deletes it).
func (ix *Index) Forget(provider string, a Addr) {
	delete(ix.present[provider], a)
}

// Drop forgets everything cached about a provider. Called on evidence
// the provider lost data (a failed chunk fetch): keeping stale entries
// would make later delta saves skip re-uploading there and silently
// break the replication guarantee. Dropping is cheap — the next save
// falls back to per-chunk provider metadata, so chunks the provider
// does still hold are not re-shipped.
func (ix *Index) Drop(provider string) { delete(ix.present, provider) }

// KnownBytes returns the total wire size of the chunks the index
// believes the provider holds — what a restore served entirely by that
// provider would download, before the manifest and batch framing.
func (ix *Index) KnownBytes(provider string) int64 {
	var total int64
	for _, size := range ix.present[provider] {
		total += size
	}
	return total
}

// Store is a vault bound to one nym. Sessions are supplied per
// operation (each save or restore logs in through the nym's own
// anonymizer). Every chunk is replicated to every session's provider,
// so any single surviving provider can restore the nym.
type Store struct {
	name  string
	index *Index
}

// NewStore returns a vault for the named nym. A nil index is replaced
// by a fresh one (every save then consults provider metadata).
func NewStore(name string, index *Index) *Store {
	if index == nil {
		index = NewIndex()
	}
	return &Store{name: name, index: index}
}

// Index exposes the store's chunk-presence cache.
func (v *Store) Index() *Index { return v.index }

// manifestBlobName is the per-nym manifest object.
func (v *Store) manifestBlobName() string { return "vault-" + v.name + ".manifest" }

// chunkBlobName is the stored name of one chunk.
func (v *Store) chunkBlobName(a Addr) string {
	var h [2 * len(Addr{})]byte
	hex.Encode(h[:], a[:])
	return "vault-" + v.name + "-c-" + string(h[:])
}

// chunkPrefix scopes provider listings to this nym's chunks.
func (v *Store) chunkPrefix() string { return "vault-" + v.name + "-c-" }

// SaveStats reports one delta save cycle.
type SaveStats struct {
	TotalChunks    int   // chunks in the manifest
	NewChunks      int   // chunk uploads performed (summed over providers)
	LogicalBytes   int64 // uncompressed state content the chunker consumed
	ChunkWireBytes int64 // wire size of the full chunk set (one copy)
	// ChunkUploadBytes is the chunk wire actually sent — including the
	// per-blob batch framing the transfer charges — summed over
	// providers. ColdChunkBytes is what a dedup-free save would have
	// sent to the same providers (one copy each), framed identically,
	// so DedupFrac compares like with like.
	ChunkUploadBytes int64
	ColdChunkBytes   int64
	UploadedBytes    int64 // total wire sent: framed chunk uploads + every manifest copy
	ManifestBytes    int64 // wire size of one sealed manifest
	// BaselineWireBytes is what a monolithic archive of the same state
	// would have shipped; filled by callers that price the comparison
	// (core.StoreNymVault), zero otherwise.
	BaselineWireBytes int64
}

// DedupFrac is the fraction of the replicated chunk wire that did NOT
// need uploading: 1 - ChunkUploadBytes/ColdChunkBytes.
func (s SaveStats) DedupFrac() float64 {
	if s.ColdChunkBytes == 0 {
		return 0
	}
	return 1 - float64(s.ChunkUploadBytes)/float64(s.ColdChunkBytes)
}

// chunked is the in-memory result of chunking a state.
type chunked struct {
	refs  []ChunkRef
	files []FileEntry
	data  map[Addr][]byte // plaintext of real chunks
}

// chunkState cuts both disk images into chunks, deduplicating within
// the state. Files are walked in sorted path order so the manifest is
// deterministic for identical content.
func chunkState(st *nymstate.State, ks *keys) chunked {
	c := chunked{data: make(map[Addr][]byte)}
	seen := make(map[Addr]int)
	// mk builds the ChunkRef lazily: a duplicate occurrence (the same
	// segment appearing twice in the state) skips the gzip pricing
	// pass entirely.
	ref := func(addr Addr, mk func() ChunkRef) int {
		if i, ok := seen[addr]; ok {
			return i
		}
		i := len(c.refs)
		seen[addr] = i
		c.refs = append(c.refs, mk())
		return i
	}
	for disk, img := range []unionfs.Image{st.AnonDisk, st.CommDisk} {
		paths := make([]string, 0, len(img.Files))
		for p := range img.Files {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, path := range paths {
			f := img.Files[path]
			fe := FileEntry{Disk: disk, Path: path, Real: f.Real, VirtualSize: f.VirtualSize, Entropy: f.Entropy}
			// WireSize stays zero here: pricing is deferred to
			// priceChunks, which skips the gzip pass for every chunk a
			// provider already stores.
			if f.Real {
				for _, seg := range cutReal(f.Data) {
					addr := ks.realAddr(seg)
					fe.Chunks = append(fe.Chunks, ref(addr, func() ChunkRef {
						c.data[addr] = append([]byte(nil), seg...)
						return ChunkRef{Addr: addr, Size: int64(len(seg))}
					}))
				}
			} else {
				for i, n := range cutVirtual(f.VirtualSize) {
					addr := ks.virtAddr(disk, path, i, n)
					fe.Chunks = append(fe.Chunks, ref(addr, func() ChunkRef {
						return ChunkRef{Addr: addr, Virtual: true, Size: n, Entropy: f.Entropy}
					}))
				}
			}
			c.files = append(c.files, fe)
		}
	}
	return c
}

// priceChunks fills each ChunkRef's WireSize. A chunk some provider
// already stores is NOT re-uploaded, so it keeps the wire size it was
// priced at on first upload — adopting that stored size keeps the
// manifest, transfer charges, and provider accounting in one model
// even as a virtual file's aggregate entropy re-mixes (virtAddr
// deliberately ignores entropy to keep dedup working), and skips the
// gzip pricing pass for the steady-state majority of chunks. Absent
// chunks are priced fresh: gzip for real bytes, the entropy model for
// virtual content.
func (v *Store) priceChunks(c *chunked, sessions []*cloud.Session) {
	for i := range c.refs {
		r := &c.refs[i]
		name := v.chunkBlobName(r.Addr)
		stored := false
		for _, sess := range sessions {
			if size, ok := sess.Provider().BlobInfo(sess.User(), name); ok {
				r.WireSize = size
				stored = true
				break
			}
		}
		if stored {
			continue
		}
		if r.Virtual {
			r.WireSize = nymstate.VirtualWireSize(r.Size, r.Entropy) + chunkSealOverhead
		} else {
			r.WireSize = gzipLen(c.data[r.Addr]) + chunkSealOverhead
		}
	}
}

// gzipLen measures a chunk's compressed size exactly.
func gzipLen(data []byte) int64 {
	var buf bytes.Buffer
	zw := nymstate.GetGzipWriter(&buf)
	defer nymstate.PutGzipWriter(zw)
	zw.Write(data)
	zw.Close()
	return int64(buf.Len())
}

// chunkLeaves converts the chunk list to Merkle leaves (the address is
// the content commitment; real chunks' addresses are keyed digests of
// their bytes, so the root transitively commits to all content).
func chunkLeaves(refs []ChunkRef) []merkle.Hash {
	leaves := make([]merkle.Hash, len(refs))
	for i, r := range refs {
		leaves[i] = merkle.Hash(r.Addr)
	}
	return leaves
}

// Save writes a delta checkpoint of st: chunks absent from each
// provider (per the local index, falling back to provider metadata)
// are uploaded in one batch per provider, then the sealed manifest is
// replaced everywhere. rnd supplies the manifest nonce.
func (v *Store) Save(p *sim.Proc, st *nymstate.State, password string, sessions []*cloud.Session, rnd nymstate.RandSource) (SaveStats, error) {
	if len(sessions) == 0 {
		return SaveStats{}, ErrNoSessions
	}
	ks := deriveKeys(password, v.name)
	gcm, err := ks.aead()
	if err != nil {
		return SaveStats{}, err
	}
	c := chunkState(st, ks)
	v.priceChunks(&c, sessions)
	man := &Manifest{
		Name:          st.Name,
		Model:         st.Model,
		Cycles:        st.Cycles,
		AnonDiskName:  st.AnonDisk.Name,
		CommDiskName:  st.CommDisk.Name,
		AnonWhiteouts: append([]string(nil), st.AnonDisk.Whiteouts...),
		CommWhiteouts: append([]string(nil), st.CommDisk.Whiteouts...),
		AnonState:     copyState(st.AnonState),
		Files:         c.files,
		Chunks:        c.refs,
		Root:          merkle.BuildHashes(chunkLeaves(c.refs)).Root(),
	}

	stats := SaveStats{
		TotalChunks:  len(c.refs),
		LogicalBytes: nymstate.LogicalSize(st),
	}
	for _, r := range c.refs {
		stats.ChunkWireBytes += r.WireSize
	}

	// Upload missing chunks, one batch per provider. Sealing is
	// memoized: convergent encryption yields the identical blob for
	// every replica, so a chunk is encrypted once no matter how many
	// providers receive it.
	sealed := make(map[Addr][]byte)
	for _, sess := range sessions {
		batch := make(map[string]cloud.Blob)
		var batchChunks int
		var batchWire int64
		for _, r := range c.refs {
			stats.ColdChunkBytes += r.WireSize + cloud.BatchFrameBytes
			provider := sess.Provider().Name()
			if v.index.Has(provider, r.Addr) {
				continue
			}
			name := v.chunkBlobName(r.Addr)
			if sess.Has(name) {
				v.index.Add(provider, r.Addr, r.WireSize)
				continue
			}
			blob := cloud.Blob{WireSize: r.WireSize}
			if !r.Virtual {
				ct, ok := sealed[r.Addr]
				if !ok {
					ct = ks.sealChunk(gcm, r.Addr, c.data[r.Addr])
					sealed[r.Addr] = ct
				}
				blob.Data = ct
			}
			batch[name] = blob
			batchChunks++
			batchWire += r.WireSize + cloud.BatchFrameBytes
		}
		if err := sess.PutBatch(p, batch); err != nil {
			// The batch is all-or-nothing: nothing pending was sent.
			return stats, fmt.Errorf("vault: save chunks: %w", err)
		}
		stats.NewChunks += batchChunks
		stats.ChunkUploadBytes += batchWire
		stats.UploadedBytes += batchWire
		provider := sess.Provider().Name()
		for _, r := range c.refs {
			if _, ok := batch[v.chunkBlobName(r.Addr)]; ok {
				v.index.Add(provider, r.Addr, r.WireSize)
			}
		}
	}

	// Replace the manifest everywhere (the single mutable object). The
	// sequence number rides the state's own cycle counter — no extra
	// round trip to read back the previous manifest.
	man.Seq = st.Cycles
	blob, err := sealManifest(man, ks, rnd)
	if err != nil {
		return stats, err
	}
	stats.ManifestBytes = blob.WireSize
	for _, sess := range sessions {
		if err := sess.Put(p, v.manifestBlobName(), blob); err != nil {
			return stats, fmt.Errorf("vault: save manifest: %w", err)
		}
		stats.UploadedBytes += blob.WireSize
	}
	return stats, nil
}

// latestManifest fetches the manifest from EVERY reachable provider
// and keeps the highest sequence number. Taking the first copy that
// opens would let one stale or rolled-back provider silently win —
// restoring old state, or worse, feeding GC a live set that misses
// the newest chunks. It returns (nil, 0) when none exists or the
// password cannot open any (a fresh nym, or rotated credentials).
// The returned error distinguishes "no manifest anywhere" from "a
// manifest exists but the password cannot open it"; wire reports the
// manifest bytes downloaded while looking. Every copy opens under the
// caller's ks, so one probe costs one key derivation however many
// providers hold a copy.
func (v *Store) latestManifest(p *sim.Proc, ks *keys, sessions []*cloud.Session) (man *Manifest, wire int64, err error) {
	var best *Manifest
	var openErr, fetchErr error
	for _, sess := range sessions {
		if !sess.Has(v.manifestBlobName()) {
			continue
		}
		blob, err := sess.Get(p, v.manifestBlobName())
		if err != nil {
			// Do not swallow this: a provider that HAS a manifest but
			// cannot serve it is a reachability failure, not absence.
			fetchErr = err
			continue
		}
		wire += blob.WireSize
		m, err := openManifest(blob.Data, ks, v.name)
		if err != nil {
			openErr = err
			continue
		}
		if best == nil || m.Seq > best.Seq {
			best = m
		}
	}
	if best == nil {
		if openErr != nil {
			return nil, wire, openErr
		}
		if fetchErr != nil {
			// Every provider holding a manifest failed its fetch:
			// reporting "no manifest" here would misclassify an outage
			// as a fresh nym (and could feed GC an empty live set).
			return nil, wire, nymerr.Wrap(CodeManifestProbe, fetchErr, "manifest probe").
				AddContext("nym", v.name)
		}
		return nil, wire, fmt.Errorf("%w: %q", ErrNoManifest, v.name)
	}
	return best, wire, nil
}

// LoadStats reports one restore.
type LoadStats struct {
	Chunks          int   // chunks fetched and verified
	DownloadedBytes int64 // wire bytes fetched: manifest + chunks
}

// Load fetches the manifest and every referenced chunk, verifies each
// chunk against the manifest's Merkle root, and rebuilds the state
// byte-identically. Any single reachable provider suffices.
func (v *Store) Load(p *sim.Proc, password string, sessions []*cloud.Session) (*nymstate.State, LoadStats, error) {
	var stats LoadStats
	if len(sessions) == 0 {
		return nil, stats, ErrNoSessions
	}
	ks := deriveKeys(password, v.name)
	gcm, err := ks.aead()
	if err != nil {
		return nil, stats, err
	}

	// Manifest: consult every reachable provider and restore the
	// highest sequence number, so a single stale or rolled-back
	// provider cannot silently win.
	man, manWire, err := v.latestManifest(p, ks, sessions)
	stats.DownloadedBytes += manWire
	if err != nil {
		return nil, stats, err
	}

	// Invariant check: the chunk list must reproduce its committed
	// root. The manifest is already GCM-authenticated as a whole, so
	// this can only fail on an implementation bug in the save path —
	// it is a cheap cross-check, not the tamper defense. Chunk tamper
	// detection is the per-chunk address-bound seal below.
	if merkle.BuildHashes(chunkLeaves(man.Chunks)).Root() != man.Root {
		return nil, stats, nymerr.Wrap(CodeTampered, merkle.ErrTampered, "manifest chunk list")
	}

	// Fetch every chunk in manifest order, in one batch per provider.
	names := make([]string, len(man.Chunks))
	for i, r := range man.Chunks {
		names[i] = v.chunkBlobName(r.Addr)
	}
	plain := make(map[Addr][]byte)
	fetch := func(sess *cloud.Session) error {
		blobs, err := sess.GetBatch(p, names)
		if err != nil {
			return err
		}
		for i, r := range man.Chunks {
			if err := verifyChunk(ks, gcm, r, blobs[names[i]], plain); err != nil {
				return err
			}
			stats.Chunks++
			stats.DownloadedBytes += blobs[names[i]].WireSize + cloud.BatchFrameBytes
		}
		return nil
	}
	// served is the provider that actually delivered the chunks: only a
	// fetch we verified is proof of presence.
	var served *cloud.Session
	base := stats
	for _, sess := range sessions {
		stats = base // count only the attempt that succeeds
		if err = fetch(sess); err == nil {
			served = sess
			break
		}
		if errors.Is(err, merkle.ErrTampered) {
			return nil, stats, err // tampering is not a reachability problem
		}
		// This replica failed to serve the checkpoint: whatever the
		// index believed about it is no longer evidence.
		v.index.Drop(sess.Provider().Name())
	}
	if err != nil {
		return nil, stats, fmt.Errorf("vault: load chunks: %w", err)
	}

	st, err := man.buildState(plain)
	if err != nil {
		return nil, stats, err
	}
	// Warm the index for the next delta save — but only with what this
	// load proved. A replica that failed its fetch (or was never asked)
	// may have lost data; assuming it still holds the chunks would make
	// the next save skip re-uploading there and quietly break the
	// replication guarantee.
	provider := served.Provider().Name()
	for _, r := range man.Chunks {
		v.index.Add(provider, r.Addr, r.WireSize)
	}
	return st, stats, nil
}

// verifyChunk authenticates one fetched real chunk: it must decrypt
// under its address-bound seal and re-derive the same keyed address.
// Since the manifest (and so the expected address) is authenticated
// under the password, a failure here is tamper evidence. No Merkle
// membership proof is checked per chunk: the chunk list travels
// whole inside the sealed manifest, so a proof against the tree the
// list itself generates would verify nothing — proofs only earn
// their keep if a future partial-restore path fetches a chunk list
// subset from an untrusted intermediary.
func verifyChunk(ks *keys, gcm cipher.AEAD, r ChunkRef, blob cloud.Blob, plain map[Addr][]byte) error {
	if r.Virtual {
		return nil // no bytes exist; identity is the manifest entry itself
	}
	data, err := ks.openChunk(gcm, r.Addr, blob.Data)
	if err != nil {
		return err
	}
	if ks.realAddr(data) != r.Addr {
		return nymerr.Wrapf(CodeTampered, merkle.ErrTampered, "chunk %s content mismatch", r.Addr)
	}
	plain[r.Addr] = data
	return nil
}

// buildState reassembles the nym state from the manifest and the
// decrypted real-chunk plaintexts.
func (man *Manifest) buildState(plain map[Addr][]byte) (*nymstate.State, error) {
	anon := unionfs.Image{Name: man.AnonDiskName, Files: make(map[string]unionfs.FileImage), Whiteouts: append([]string(nil), man.AnonWhiteouts...)}
	comm := unionfs.Image{Name: man.CommDiskName, Files: make(map[string]unionfs.FileImage), Whiteouts: append([]string(nil), man.CommWhiteouts...)}
	for _, fe := range man.Files {
		fi := unionfs.FileImage{Real: fe.Real, VirtualSize: fe.VirtualSize, Entropy: fe.Entropy}
		if fe.Real {
			var buf bytes.Buffer
			for _, ci := range fe.Chunks {
				if ci < 0 || ci >= len(man.Chunks) {
					return nil, nymerr.Wrapf(CodeTampered, merkle.ErrTampered, "chunk index %d out of range", ci)
				}
				data, ok := plain[man.Chunks[ci].Addr]
				if !ok {
					return nil, nymerr.Newf(CodeChunkMissing, "chunk %s", man.Chunks[ci].Addr).
						AddContext("file", fe.Path)
				}
				buf.Write(data)
			}
			// make (not append) so an empty real file keeps a non-nil
			// Data slice, exactly as unionfs.Layer.Export produces it.
			fi.Data = make([]byte, buf.Len())
			copy(fi.Data, buf.Bytes())
		}
		switch fe.Disk {
		case 0:
			anon.Files[fe.Path] = fi
		case 1:
			comm.Files[fe.Path] = fi
		default:
			return nil, nymerr.Wrapf(CodeTampered, merkle.ErrTampered, "file %q names disk %d", fe.Path, fe.Disk)
		}
	}
	return &nymstate.State{
		Name:      man.Name,
		Model:     man.Model,
		Cycles:    man.Cycles,
		AnonDisk:  anon,
		CommDisk:  comm,
		AnonState: copyState(man.AnonState),
	}, nil
}

// GCStats reports one garbage-collection pass.
type GCStats struct {
	Scanned    int   // chunk blobs examined across providers
	Deleted    int   // unreferenced chunk blobs removed
	FreedBytes int64 // wire bytes reclaimed
	// ManifestBytes is the wire downloaded probing providers for the
	// latest manifest — the pass's own wire cost (the opportunistic GC
	// scheduler budgets it against idle sweep slots).
	ManifestBytes int64
}

// GC removes chunks no longer referenced by the latest manifest from
// every provider. Chunks the latest manifest names are never touched.
// GC needs the password: the referenced set lives inside the sealed
// manifest.
func (v *Store) GC(p *sim.Proc, password string, sessions []*cloud.Session) (GCStats, error) {
	if len(sessions) == 0 {
		return GCStats{}, ErrNoSessions
	}
	man, manWire, err := v.latestManifest(p, deriveKeys(password, v.name), sessions)
	if err != nil {
		return GCStats{ManifestBytes: manWire}, err
	}
	live := make(map[string]bool, len(man.Chunks))
	for _, r := range man.Chunks {
		live[v.chunkBlobName(r.Addr)] = true
	}
	stats := GCStats{ManifestBytes: manWire}
	for _, sess := range sessions {
		provider := sess.Provider().Name()
		for _, name := range sess.List() {
			if !strings.HasPrefix(name, v.chunkPrefix()) {
				continue
			}
			stats.Scanned++
			if live[name] {
				continue
			}
			if size, ok := sess.Provider().BlobInfo(sess.User(), name); ok {
				stats.FreedBytes += size
			}
			if err := sess.Delete(name); err != nil {
				return stats, err
			}
			stats.Deleted++
			if a, err := parseChunkName(v.chunkPrefix(), name); err == nil {
				v.index.Forget(provider, a)
			}
		}
	}
	return stats, nil
}

// parseChunkName recovers the address from a chunk blob name.
func parseChunkName(prefix, name string) (Addr, error) {
	var a Addr
	raw, err := hex.DecodeString(strings.TrimPrefix(name, prefix))
	if err != nil || len(raw) != len(a) {
		return a, nymerr.Newf(CodeBadChunkName, "%q", name)
	}
	copy(a[:], raw)
	return a, nil
}

// manifestWire is the gob form of a Manifest. The AnonState map is
// flattened to sorted pairs before encoding: gob writes maps in
// iteration order, which Go randomizes per run, and an
// order-dependent encoding would give the identical manifest a
// different gzipped wire size on every run.
type manifestWire struct {
	Name          string
	Model         string
	Cycles        int
	Seq           int
	AnonDiskName  string
	CommDiskName  string
	AnonWhiteouts []string
	CommWhiteouts []string
	AnonState     [][2]string // sorted by key
	Files         []FileEntry
	Chunks        []ChunkRef
	Root          merkle.Hash
}

// wire flattens the manifest to its gob form.
func (man *Manifest) wire() manifestWire {
	return manifestWire{
		Name: man.Name, Model: man.Model, Cycles: man.Cycles, Seq: man.Seq,
		AnonDiskName: man.AnonDiskName, CommDiskName: man.CommDiskName,
		AnonWhiteouts: man.AnonWhiteouts, CommWhiteouts: man.CommWhiteouts,
		AnonState: nymstate.FlattenStateMap(man.AnonState),
		Files:     man.Files, Chunks: man.Chunks, Root: man.Root,
	}
}

// sealManifest serializes, compresses, and seals a manifest. The blob
// layout is nonce || ciphertext; the AAD binds the nym name so a
// manifest cannot be replayed under another nym.
func sealManifest(man *Manifest, ks *keys, rnd nymstate.RandSource) (cloud.Blob, error) {
	wireForm := man.wire()
	var plainBuf bytes.Buffer
	zw := nymstate.GetGzipWriter(&plainBuf)
	defer nymstate.PutGzipWriter(zw)
	if err := gob.NewEncoder(zw).Encode(&wireForm); err != nil {
		return cloud.Blob{}, fmt.Errorf("vault: encode manifest: %w", err)
	}
	if err := zw.Close(); err != nil {
		return cloud.Blob{}, err
	}
	gcm, err := ks.aead()
	if err != nil {
		return cloud.Blob{}, err
	}
	nonce := make([]byte, gcm.NonceSize())
	rnd.Bytes(nonce)
	ct := gcm.Seal(nil, nonce, plainBuf.Bytes(), []byte("manifest\x00"+man.Name))
	data := append(nonce, ct...)
	return cloud.Blob{Data: data, WireSize: int64(len(data))}, nil
}

// openManifest reverses sealManifest under the keys derived for name;
// keys from a wrong password fail authentication with
// nymstate.ErrBadPassword.
func openManifest(data []byte, ks *keys, name string) (*Manifest, error) {
	gcm, err := ks.aead()
	if err != nil {
		return nil, err
	}
	if len(data) <= gcm.NonceSize() {
		// A blob too short to even carry a nonce is a damaged or
		// truncated store, not a password problem.
		return nil, nymerr.Wrap(CodeTampered, nymstate.ErrBadArchive, "manifest truncated").
			AddContext("bytes", len(data))
	}
	plain, err := gcm.Open(nil, data[:gcm.NonceSize()], data[gcm.NonceSize():], []byte("manifest\x00"+name))
	if err != nil {
		// GCM cannot distinguish a wrong key from flipped ciphertext
		// bits; either way the vault fails closed without state.
		return nil, nymerr.Wrap(CodeBadPassword, nymstate.ErrBadPassword, "manifest authentication")
	}
	zr, err := nymstate.GetGzipReader(bytes.NewReader(plain))
	if err != nil {
		return nil, nymerr.Wrapf(CodeTampered, nymstate.ErrBadArchive, "manifest decompress: %v", err)
	}
	defer nymstate.PutGzipReader(zr)
	var wireForm manifestWire
	if err := gob.NewDecoder(zr).Decode(&wireForm); err != nil {
		return nil, nymerr.Wrapf(CodeTampered, nymstate.ErrBadArchive, "manifest decode: %v", err)
	}
	man := Manifest{
		Name: wireForm.Name, Model: wireForm.Model, Cycles: wireForm.Cycles, Seq: wireForm.Seq,
		AnonDiskName: wireForm.AnonDiskName, CommDiskName: wireForm.CommDiskName,
		AnonWhiteouts: wireForm.AnonWhiteouts, CommWhiteouts: wireForm.CommWhiteouts,
		Files: wireForm.Files, Chunks: wireForm.Chunks, Root: wireForm.Root,
	}
	if len(wireForm.AnonState) > 0 {
		man.AnonState = make(map[string]string, len(wireForm.AnonState))
		for _, kv := range wireForm.AnonState {
			man.AnonState[kv[0]] = kv[1]
		}
	}
	return &man, nil
}

func copyState(st map[string]string) map[string]string {
	if st == nil {
		return nil
	}
	out := make(map[string]string, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}
