package vault

import (
	"bytes"
	"errors"
	"testing"

	"nymix/internal/nymerr"
	"nymix/internal/nymstate"
)

// fuzzSeedCorpus is the seed corpus for the chunker fuzzers: empty
// and tiny inputs, boundary-straddling sizes, low-entropy runs the
// rolling hash never fires on, and pseudo-random bytes that exercise
// real content-defined cuts.
func fuzzSeedCorpus(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello, vault"))
	f.Add(bytes.Repeat([]byte{0}, MinChunk-1))
	f.Add(bytes.Repeat([]byte{0xAA}, MinChunk+1))
	f.Add(bytes.Repeat([]byte("abcd"), MaxChunk/4+17))
	f.Add(bytes.Repeat([]byte{0xFF}, 3*MaxChunk))
	// Deterministic pseudo-random content (splitmix64, same generator
	// idiom as the buzhash table) long enough for several cuts.
	rndData := make([]byte, 5*MaxChunk+13)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range rndData {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		rndData[i] = byte(z ^ (z >> 31))
	}
	f.Add(rndData)
}

// FuzzCutReal pins the CDC chunker's contract for arbitrary inputs:
// boundaries are deterministic (the same bytes always cut the same
// way — the property content addressing and dedup stand on),
// reassembling the chunks reproduces the input byte-for-byte, and
// every chunk respects the size bounds (MaxChunk always; MinChunk for
// all but a short tail).
func FuzzCutReal(f *testing.F) {
	fuzzSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks := cutReal(data)
		if len(data) == 0 {
			// An empty real file is still a real file: one empty chunk.
			if len(chunks) != 1 || len(chunks[0]) != 0 {
				t.Fatalf("empty input: got %d chunks", len(chunks))
			}
			return
		}
		var rejoined []byte
		for i, ch := range chunks {
			if len(ch) > MaxChunk {
				t.Fatalf("chunk %d is %d bytes, exceeds MaxChunk %d", i, len(ch), MaxChunk)
			}
			if i < len(chunks)-1 && len(data) > MinChunk && len(ch) < MinChunk {
				t.Fatalf("non-tail chunk %d is %d bytes, below MinChunk %d", i, len(ch), MinChunk)
			}
			rejoined = append(rejoined, ch...)
		}
		if !bytes.Equal(rejoined, data) {
			t.Fatalf("reassembly mismatch: %d bytes in, %d bytes out", len(data), len(rejoined))
		}
		// Boundary determinism: cutting the same bytes again must yield
		// identical boundaries.
		again := cutReal(append([]byte(nil), data...))
		if len(again) != len(chunks) {
			t.Fatalf("non-deterministic cut: %d chunks then %d", len(chunks), len(again))
		}
		for i := range chunks {
			if !bytes.Equal(chunks[i], again[i]) {
				t.Fatalf("non-deterministic boundary at chunk %d", i)
			}
		}
	})
}

// FuzzCutVirtual pins the virtual segmenter: segments sum to the file
// size, all full segments are VirtualChunkBytes, and only the tail
// may be short.
func FuzzCutVirtual(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(1))
	f.Add(int64(VirtualChunkBytes))
	f.Add(int64(VirtualChunkBytes + 1))
	f.Add(int64(10*VirtualChunkBytes - 1))
	f.Fuzz(func(t *testing.T, size int64) {
		if size < 0 || size > 1<<40 {
			t.Skip()
		}
		segs := cutVirtual(size)
		var sum int64
		for i, s := range segs {
			if s <= 0 || s > VirtualChunkBytes {
				t.Fatalf("segment %d has size %d", i, s)
			}
			if i < len(segs)-1 && s != VirtualChunkBytes {
				t.Fatalf("non-tail segment %d is %d bytes", i, s)
			}
			sum += s
		}
		if sum != size {
			t.Fatalf("segments sum to %d, want %d", sum, size)
		}
	})
}

// fuzzRand is a deterministic nonce source for the manifest fuzzers:
// splitmix64 over a seed derived from the input, so every fuzz case is
// reproducible.
type fuzzRand struct{ state uint64 }

func (r *fuzzRand) Bytes(b []byte) {
	for i := range b {
		r.state += 0x9e3779b97f4a7c15
		z := r.state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		b[i] = byte(z ^ (z >> 31))
	}
}

// failsClosedTyped asserts a manifest-open failure carries one of the
// vault's registered tamper codes: whatever bytes an attacker (or a
// bit-rotting provider) hands back, the vault refuses with a typed
// vault.bad_password or vault.tampered, never a success and never an
// unclassified error.
func failsClosedTyped(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("corrupted manifest opened successfully")
	}
	code := nymerr.Classify(err)
	if code != CodeBadPassword && code != CodeTampered {
		t.Fatalf("corrupted manifest failed with code %q, want %s or %s (err: %v)",
			code, CodeBadPassword, CodeTampered, err)
	}
}

// FuzzSealManifest round-trips arbitrary manifests through
// sealManifest/openManifest and then attacks the sealed blob:
// truncations and bit flips must fail closed with a typed code, and
// the untouched blob must decode back to the identical manifest.
func FuzzSealManifest(f *testing.F) {
	f.Add("alice", "pw", 3, "state/browser.db", uint64(7), 64)
	f.Add("bob", "", 0, "", uint64(1), 0)
	f.Add("nym-with-long-name-0123456789", "p@ss\x00word", 9999, "a/b/c/d", uint64(42), 1000)
	f.Fuzz(func(t *testing.T, name, password string, seq int, path string, seed uint64, flip int) {
		man := &Manifest{
			Name: name, Model: "persistent", Cycles: seq % 7, Seq: seq,
			AnonDiskName: "anon.img", CommDiskName: "comm.img",
			AnonState: map[string]string{"guard": name, "path": path},
			Files:     []FileEntry{{Path: path, Real: true, VirtualSize: int64(seq)}},
		}
		ks := deriveKeys(password, name)
		blob, err := sealManifest(man, ks, &fuzzRand{state: seed})
		if err != nil {
			t.Fatalf("seal: %v", err)
		}
		got, err := openManifest(blob.Data, ks, name)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if got.Name != man.Name || got.Seq != man.Seq || got.AnonState["path"] != path {
			t.Fatalf("round trip mutated the manifest: %+v != %+v", got, man)
		}
		if len(got.Files) != 1 || got.Files[0].Path != path {
			t.Fatalf("round trip dropped files: %+v", got.Files)
		}

		// Wrong password fails closed as vault.bad_password.
		_, err = openManifest(blob.Data, deriveKeys(password+"x", name), name)
		if nymerr.Classify(err) != CodeBadPassword {
			t.Fatalf("wrong password classified %q, want %s", nymerr.Classify(err), CodeBadPassword)
		}
		if !errors.Is(err, nymstate.ErrBadPassword) {
			t.Fatalf("wrong password lost the nymstate.ErrBadPassword sentinel: %v", err)
		}

		// Every truncation fails closed with a typed code.
		for _, n := range []int{0, 1, len(blob.Data) / 2, len(blob.Data) - 1} {
			if n >= len(blob.Data) {
				continue
			}
			_, err := openManifest(blob.Data[:n], ks, name)
			failsClosedTyped(t, err)
		}

		// A single flipped bit anywhere fails closed with a typed code.
		mut := append([]byte(nil), blob.Data...)
		i := flip
		if i < 0 {
			i = -i
		}
		i %= len(mut)
		mut[i] ^= 1 << (uint(flip) % 8)
		_, err = openManifest(mut, ks, name)
		failsClosedTyped(t, err)
	})
}

// FuzzOpenManifest hands openManifest arbitrary bytes: it must never
// panic and never succeed-by-accident silently — any failure carries
// a typed vault.bad_password or vault.tampered code.
func FuzzOpenManifest(f *testing.F) {
	fuzzSeedCorpus(f)
	ks := deriveKeys("fuzz-pw", "fuzz-nym")
	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := openManifest(data, ks, "fuzz-nym")
		if err != nil {
			failsClosedTyped(t, err)
			return
		}
		// Authenticating arbitrary bytes under a fixed key would be a
		// GCM forgery; if it ever happens we want the corpus entry.
		t.Fatalf("arbitrary bytes authenticated as a manifest: %+v", man)
	})
}
