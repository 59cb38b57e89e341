// Package nymstate implements the quasi-persistent nym archive format
// of paper section 3.5: the nym manager "pauses the nym's AnonVM and
// CommVM, syncs their file systems, compresses and encrypts their
// temporary file system disk images" before uploading them to cloud
// storage under a user-chosen password.
//
// The archive carries the writable disk layers of both VMs plus the
// anonymizer's persistent state (Tor entry guard, consensus cache).
// Encryption is AES-256-GCM under a PBKDF2-HMAC-SHA256 key, so a
// confiscated blob is indistinguishable from random bytes and a wrong
// password fails authentication rather than yielding garbage.
//
// Because bulk content (browser caches) is modeled virtually, archives
// carry real bytes for metadata and small files, plus a compression
// model that prices virtual content by its entropy — producing the
// on-disk sizes Figure 6 plots without materializing gigabytes.
package nymstate

import (
	"bytes"
	"compress/gzip"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"nymix/internal/anonnet"
	"nymix/internal/unionfs"
)

// Errors.
var (
	ErrBadPassword = errors.New("nymstate: wrong password or corrupted archive")
	ErrBadArchive  = errors.New("nymstate: malformed archive")
)

// gob assigns wire type IDs from a process-global registry in
// first-encode order, and those IDs are varint-encoded into every
// stream — so the byte length of an archive would depend on which
// package happened to gob-encode first in the process. Pinning the
// IDs here makes archive wire sizes a pure function of content.
// (internal/vault imports this package and pins its own wire types
// the same way, so the combined assignment order is fixed too.)
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{&stateWire{}, &Archive{}} {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
}

// KDF parameters.
const (
	KDFIterations = 4096
	keyLen        = 32
	saltLen       = 16
)

// State is everything a quasi-persistent nym needs to resume: the
// writable layers of both VMs and the anonymizer's persistent state.
type State struct {
	Name      string
	Model     string // usage model: "persistent" or "preconfigured"
	Cycles    int    // completed save/restore cycles
	AnonDisk  unionfs.Image
	CommDisk  unionfs.Image
	AnonState anonnet.State
}

// Archive is a sealed nym state.
type Archive struct {
	Salt       []byte
	Nonce      []byte
	Ciphertext []byte // real encrypted bytes (gob of State, gzipped)
	// WireSize is the simulated archive footprint: the modeled
	// compressed size of all disk content (virtual files priced by
	// entropy) plus encryption overhead. This is the number Figure 6
	// reports and what cloud storage and transfers charge.
	WireSize int64
}

// --- deterministic serialization ---------------------------------
//
// gob writes Go maps in iteration order, and Go randomizes that order
// per run: encoding a State directly would give the same nym state a
// different gzipped length — and so a different archive wire size —
// on every run. Everything downstream assumes identical state means
// identical bytes (reproducible experiment stats, stable manifest
// sizes), so State is flattened to sorted slices before encoding.

// fileWire is one file of an image in serialization order.
type fileWire struct {
	Path        string
	Data        []byte
	Real        bool
	VirtualSize int64
	Entropy     float64
}

// imageWire is a unionfs.Image with its file map flattened.
type imageWire struct {
	Name      string
	Files     []fileWire // sorted by path
	Whiteouts []string   // sorted
}

// kvWire is one anonymizer-state pair.
type kvWire struct{ K, V string }

// stateWire is the deterministic gob form of State.
type stateWire struct {
	Name      string
	Model     string
	Cycles    int
	AnonDisk  imageWire
	CommDisk  imageWire
	AnonState []kvWire // sorted by key
}

// sortedPaths returns an image's file paths in sorted order — the one
// deterministic walk order shared by serialization and size pricing.
func sortedPaths(files map[string]unionfs.FileImage) []string {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func imageToWire(img unionfs.Image) imageWire {
	w := imageWire{Name: img.Name, Whiteouts: append([]string(nil), img.Whiteouts...)}
	sort.Strings(w.Whiteouts)
	for _, p := range sortedPaths(img.Files) {
		f := img.Files[p]
		w.Files = append(w.Files, fileWire{
			Path: p, Data: f.Data, Real: f.Real,
			VirtualSize: f.VirtualSize, Entropy: f.Entropy,
		})
	}
	return w
}

func wireToImage(w imageWire) unionfs.Image {
	img := unionfs.Image{
		Name:      w.Name,
		Files:     make(map[string]unionfs.FileImage, len(w.Files)),
		Whiteouts: append([]string(nil), w.Whiteouts...),
	}
	for _, f := range w.Files {
		img.Files[f.Path] = unionfs.FileImage{
			Data: f.Data, Real: f.Real, VirtualSize: f.VirtualSize, Entropy: f.Entropy,
		}
	}
	return img
}

// FlattenStateMap converts an anonymizer-state map to sorted pairs —
// the shared deterministic form (internal/vault's manifests flatten
// the same way).
func FlattenStateMap(st map[string]string) [][2]string {
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][2]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, [2]string{k, st[k]})
	}
	return out
}

// encodeState gob-encodes st deterministically into w.
func encodeState(w io.Writer, st *State) error {
	sw := stateWire{
		Name: st.Name, Model: st.Model, Cycles: st.Cycles,
		AnonDisk: imageToWire(st.AnonDisk),
		CommDisk: imageToWire(st.CommDisk),
	}
	for _, kv := range FlattenStateMap(st.AnonState) {
		sw.AnonState = append(sw.AnonState, kvWire{K: kv[0], V: kv[1]})
	}
	return gob.NewEncoder(w).Encode(&sw)
}

// decodeState reverses encodeState.
func decodeState(r io.Reader) (*State, error) {
	var sw stateWire
	if err := gob.NewDecoder(r).Decode(&sw); err != nil {
		return nil, err
	}
	st := &State{
		Name: sw.Name, Model: sw.Model, Cycles: sw.Cycles,
		AnonDisk: wireToImage(sw.AnonDisk),
		CommDisk: wireToImage(sw.CommDisk),
	}
	if len(sw.AnonState) > 0 {
		st.AnonState = make(anonnet.State, len(sw.AnonState))
		for _, kv := range sw.AnonState {
			st.AnonState[kv.K] = kv.V
		}
	}
	return st, nil
}

// DeriveKey is PBKDF2-HMAC-SHA256 (RFC 8018). It is implemented here
// because go.mod and CI pin Go 1.22, and crypto/pbkdf2 arrived in 1.24.
// One HMAC keyed with the password serves every iteration of every
// block: Reset restores its saved inner and outer pad states, so an
// iteration costs two SHA-256 compressions and no allocation.
func DeriveKey(password, salt []byte, iterations, outLen int) []byte {
	if iterations < 1 {
		iterations = 1
	}
	prf := hmac.New(sha256.New, password)
	hashLen := prf.Size()
	blocks := (outLen + hashLen - 1) / hashLen
	dk := make([]byte, 0, blocks*hashLen)
	u := make([]byte, 0, hashLen)
	for block := 1; block <= blocks; block++ {
		prf.Reset()
		prf.Write(salt)
		prf.Write(binary.BigEndian.AppendUint32(u[:0], uint32(block)))
		dk = prf.Sum(dk)
		t := dk[len(dk)-hashLen:]
		u = append(u[:0], t...)
		for i := 1; i < iterations; i++ {
			prf.Reset()
			prf.Write(u)
			u = prf.Sum(u[:0])
			for j := range t {
				t[j] ^= u[j]
			}
		}
	}
	return dk[:outLen]
}

// GuardSeed derives the deterministic Tor guard seed of section 3.5:
// "seed critical CommVM state such as entry guard choices using a
// deterministic hash based on the nym's storage location and
// password".
func GuardSeed(password, location string) string {
	mac := hmac.New(sha256.New, []byte(password))
	mac.Write([]byte("nymix-guard-seed-v1"))
	mac.Write([]byte(location))
	return hex.EncodeToString(mac.Sum(nil)[:16])
}

// compressionFloor is the residual fraction even perfectly
// compressible content retains (container framing, dictionary resets).
const compressionFloor = 0.03

// VirtualWireSize prices virtual content post-compression:
// size*(floor + (1-floor)*entropy). It is the single entropy model
// shared by monolithic archives and internal/vault's chunk store.
func VirtualWireSize(size int64, entropy float64) int64 {
	return int64(float64(size) * (compressionFloor + (1-compressionFloor)*entropy))
}

// gzipWriters recycles gzip writers, each holding about 1 MB of flate
// compressor state, across every archive, estimate and manifest pass.
// It is a plain free list, not a sync.Pool, because a pool is emptied
// every couple of GC cycles and each writer would then be rebuilt.
var gzipWriters struct {
	sync.Mutex
	free []*gzip.Writer
}

// GetGzipWriter returns a pooled gzip writer at the default level,
// compressing into w. Reset restores a writer to exactly its
// gzip.NewWriter state, header included, so its output is
// byte-identical to a fresh writer's. Return it with PutGzipWriter.
func GetGzipWriter(w io.Writer) *gzip.Writer {
	gzipWriters.Lock()
	var zw *gzip.Writer
	if k := len(gzipWriters.free) - 1; k >= 0 {
		zw = gzipWriters.free[k]
		gzipWriters.free = gzipWriters.free[:k]
	}
	gzipWriters.Unlock()
	if zw == nil {
		return gzip.NewWriter(w)
	}
	zw.Reset(w)
	return zw
}

// PutGzipWriter returns a writer from GetGzipWriter to the pool; the
// caller must not use it afterwards.
func PutGzipWriter(zw *gzip.Writer) {
	gzipWriters.Lock()
	gzipWriters.free = append(gzipWriters.free, zw)
	gzipWriters.Unlock()
}

// gzipReaders recycles gzip readers, each holding about 40 KB of flate
// decompressor state, across archive and manifest opens; a plain free
// list for the same reason as gzipWriters.
var gzipReaders struct {
	sync.Mutex
	free []*gzip.Reader
}

// GetGzipReader returns a pooled gzip reader over r, with the same
// result and header error as gzip.NewReader(r). Return it with
// PutGzipReader.
func GetGzipReader(r io.Reader) (*gzip.Reader, error) {
	gzipReaders.Lock()
	var zr *gzip.Reader
	if k := len(gzipReaders.free) - 1; k >= 0 {
		zr = gzipReaders.free[k]
		gzipReaders.free = gzipReaders.free[:k]
	}
	gzipReaders.Unlock()
	if zr == nil {
		return gzip.NewReader(r)
	}
	if err := zr.Reset(r); err != nil {
		PutGzipReader(zr)
		return nil, err
	}
	return zr, nil
}

// PutGzipReader returns a reader from GetGzipReader to the pool; the
// caller must not use it afterwards.
func PutGzipReader(zr *gzip.Reader) {
	gzipReaders.Lock()
	gzipReaders.free = append(gzipReaders.free, zr)
	gzipReaders.Unlock()
}

// compressedSizeModel prices an image's content post-compression: real
// bytes are measured exactly (by gzipping them), virtual bytes via
// VirtualWireSize.
func compressedSizeModel(images ...unionfs.Image) int64 {
	var virtual int64
	var real bytes.Buffer
	zw := GetGzipWriter(&real)
	defer PutGzipWriter(zw)
	for _, img := range images {
		// Walk files in sorted path order: gzip's output length depends
		// on input order, and map iteration would make the same image
		// price differently across runs.
		for _, path := range sortedPaths(img.Files) {
			f := img.Files[path]
			if f.Real {
				zw.Write([]byte(path))
				zw.Write(f.Data)
				continue
			}
			virtual += VirtualWireSize(f.VirtualSize, f.Entropy)
		}
	}
	zw.Close()
	return virtual + int64(real.Len())
}

// gcmNonceLen and gcmTagLen are AES-GCM's standard sizes, used when
// estimating an archive's wire footprint without sealing it.
const (
	gcmNonceLen = 12
	gcmTagLen   = 16
)

// EstimateArchiveWireSize prices the monolithic archive of st without
// sealing it: the same arithmetic as Seal (compression model over the
// disks, plus the gzipped serialized state as ciphertext with GCM tag,
// salt, and nonce) minus the key derivation and encryption work.
// Callers that only need the number — e.g. the vault's dedup
// comparison on every save — use this instead of paying PBKDF2+AES
// for a value they never store.
func EstimateArchiveWireSize(st *State) (int64, error) {
	var plain bytes.Buffer
	zw := GetGzipWriter(&plain)
	defer PutGzipWriter(zw)
	if err := encodeState(zw, st); err != nil {
		return 0, fmt.Errorf("nymstate: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return 0, fmt.Errorf("nymstate: compress: %w", err)
	}
	return compressedSizeModel(st.AnonDisk, st.CommDisk) +
		int64(plain.Len()) + gcmTagLen + saltLen + gcmNonceLen, nil
}

// RandSource supplies nonce/salt bytes (the simulation's deterministic
// RNG in tests, crypto/rand-style in a deployment).
type RandSource interface{ Bytes(b []byte) }

// Seal compresses and encrypts a nym state under the password.
func Seal(st *State, password string, rnd RandSource) (*Archive, error) {
	var plain bytes.Buffer
	zw := GetGzipWriter(&plain)
	defer PutGzipWriter(zw)
	if err := encodeState(zw, st); err != nil {
		return nil, fmt.Errorf("nymstate: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("nymstate: compress: %w", err)
	}
	salt := make([]byte, saltLen)
	rnd.Bytes(salt)
	key := DeriveKey([]byte(password), salt, KDFIterations, keyLen)
	blockCipher, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(blockCipher)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	rnd.Bytes(nonce)
	ct := gcm.Seal(nil, nonce, plain.Bytes(), []byte(st.Name))
	wire := compressedSizeModel(st.AnonDisk, st.CommDisk) + int64(len(ct)) + int64(len(salt)+len(nonce))
	return &Archive{Salt: salt, Nonce: nonce, Ciphertext: ct, WireSize: wire}, nil
}

// Open decrypts an archive; a wrong password fails authentication.
func Open(a *Archive, password string, name string) (*State, error) {
	if a == nil || len(a.Salt) != saltLen || len(a.Ciphertext) == 0 {
		return nil, ErrBadArchive
	}
	key := DeriveKey([]byte(password), a.Salt, KDFIterations, keyLen)
	blockCipher, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(blockCipher)
	if err != nil {
		return nil, err
	}
	if len(a.Nonce) != gcm.NonceSize() {
		return nil, ErrBadArchive
	}
	plain, err := gcm.Open(nil, a.Nonce, a.Ciphertext, []byte(name))
	if err != nil {
		return nil, ErrBadPassword
	}
	zr, err := GetGzipReader(bytes.NewReader(plain))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	defer PutGzipReader(zr)
	st, err := decodeState(zr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	return st, nil
}

// Encode serializes an archive for storage.
func (a *Archive) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeArchive parses a stored archive.
func DecodeArchive(data []byte) (*Archive, error) {
	var a Archive
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&a); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArchive, err)
	}
	return &a, nil
}

// Processing-rate constants for the simulated compress/encrypt work
// the nym manager performs during a save or restore (bytes/second of
// logical content).
const (
	CompressRate = 120 << 20
	CryptoRate   = 300 << 20
)

// LogicalSize returns the uncompressed content footprint of a state:
// what the compressor must chew through.
func LogicalSize(st *State) int64 {
	var n int64
	for _, img := range []unionfs.Image{st.AnonDisk, st.CommDisk} {
		for _, f := range img.Files {
			if f.Real {
				n += int64(len(f.Data))
			} else {
				n += f.VirtualSize
			}
		}
	}
	return n
}
