package nymstate

import (
	"bytes"
	"compress/gzip"
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"

	"nymix/internal/anonnet"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
)

func sampleState() *State {
	anonDisk := unionfs.NewLayer("anon/writable")
	fsA, _ := unionfs.Stack(anonDisk)
	fsA.WriteFile("/home/user/.config/chromium/cookies.json", []byte(`{"twitter.com":"ck-1"}`))
	fsA.WriteVirtual("/home/user/.cache/chromium/blob", 20<<20, 0.95)
	commDisk := unionfs.NewLayer("comm/writable")
	fsC, _ := unionfs.Stack(commDisk)
	fsC.WriteFile("/var/lib/tor/state", []byte("guard relay-b"))
	fsC.WriteVirtual("/var/lib/tor/cached-consensus", 2200<<10, 0.6)
	return &State{
		Name:      "alice-blog",
		Model:     "persistent",
		Cycles:    3,
		AnonDisk:  anonDisk.Export(),
		CommDisk:  commDisk.Export(),
		AnonState: anonnet.State{"guard": "relay-b", "consensus": "cached"},
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	st := sampleState()
	a, err := Seal(st, "correct horse", sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	back, err := Open(a, "correct horse", "alice-blog")
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != st.Name || back.Model != st.Model || back.Cycles != 3 {
		t.Fatalf("metadata lost: %+v", back)
	}
	if back.AnonState["guard"] != "relay-b" {
		t.Fatalf("anon state lost: %v", back.AnonState)
	}
	restored := unionfs.Import(back.AnonDisk)
	fs, _ := unionfs.Stack(restored)
	data, err := fs.ReadFile("/home/user/.config/chromium/cookies.json")
	if err != nil || !bytes.Contains(data, []byte("ck-1")) {
		t.Fatalf("cookie file lost: %q %v", data, err)
	}
	info, err := fs.Stat("/home/user/.cache/chromium/blob")
	if err != nil || info.Size != 20<<20 {
		t.Fatalf("cache lost: %+v %v", info, err)
	}
}

func TestWrongPasswordRejected(t *testing.T) {
	a, _ := Seal(sampleState(), "right", sim.NewRand(1))
	if _, err := Open(a, "wrong", "alice-blog"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v", err)
	}
}

func TestNameBindingPreventsSwap(t *testing.T) {
	// The nym name is authenticated data: an adversary cannot serve
	// Bob's archive when Alice asks for hers.
	a, _ := Seal(sampleState(), "pw", sim.NewRand(1))
	if _, err := Open(a, "pw", "other-nym"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v", err)
	}
}

func TestCiphertextTamperDetected(t *testing.T) {
	a, _ := Seal(sampleState(), "pw", sim.NewRand(1))
	a.Ciphertext[len(a.Ciphertext)/2] ^= 0xFF
	if _, err := Open(a, "pw", "alice-blog"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v", err)
	}
}

func TestCiphertextLooksRandom(t *testing.T) {
	st := sampleState()
	a, _ := Seal(st, "pw", sim.NewRand(1))
	if bytes.Contains(a.Ciphertext, []byte("twitter")) || bytes.Contains(a.Ciphertext, []byte("guard")) {
		t.Fatal("plaintext visible in ciphertext")
	}
}

func TestWireSizeTracksContent(t *testing.T) {
	small := sampleState()
	a1, _ := Seal(small, "pw", sim.NewRand(1))
	big := sampleState()
	bigDisk := unionfs.Import(big.AnonDisk)
	fs, _ := unionfs.Stack(bigDisk)
	fs.GrowVirtual("/home/user/.cache/chromium/blob", 30<<20, 0.95)
	big.AnonDisk = bigDisk.Export()
	a2, _ := Seal(big, "pw", sim.NewRand(1))
	if a2.WireSize <= a1.WireSize {
		t.Fatalf("wire size did not grow: %d vs %d", a1.WireSize, a2.WireSize)
	}
	// High-entropy cache compresses barely; the 20 MiB cache alone
	// should keep the archive near its logical size.
	if a1.WireSize < 15<<20 {
		t.Fatalf("wire size %d implausibly small", a1.WireSize)
	}
	if a1.WireSize > int64(float64(LogicalSize(small))*1.05) {
		t.Fatalf("wire size %d exceeds logical %d", a1.WireSize, LogicalSize(small))
	}
}

func TestLowEntropyCompressesWell(t *testing.T) {
	st := sampleState()
	disk := unionfs.Import(st.AnonDisk)
	fs, _ := unionfs.Stack(disk)
	fs.Remove("/home/user/.cache/chromium/blob")
	fs.WriteVirtual("/home/user/logs", 20<<20, 0.05)
	st.AnonDisk = disk.Export()
	a, _ := Seal(st, "pw", sim.NewRand(1))
	if a.WireSize > 6<<20 {
		t.Fatalf("low-entropy archive = %d, want strong compression", a.WireSize)
	}
}

func TestArchiveEncodeDecode(t *testing.T) {
	a, _ := Seal(sampleState(), "pw", sim.NewRand(1))
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArchive(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.WireSize != a.WireSize || !bytes.Equal(back.Ciphertext, a.Ciphertext) {
		t.Fatal("archive round trip lost data")
	}
	if _, err := DecodeArchive([]byte("junk")); !errors.Is(err, ErrBadArchive) {
		t.Fatalf("junk decode: %v", err)
	}
}

func TestDeriveKeyKnownProperties(t *testing.T) {
	k1 := DeriveKey([]byte("pw"), []byte("salt"), 1000, 32)
	k2 := DeriveKey([]byte("pw"), []byte("salt"), 1000, 32)
	if !bytes.Equal(k1, k2) {
		t.Fatal("KDF not deterministic")
	}
	if bytes.Equal(k1, DeriveKey([]byte("pw"), []byte("other"), 1000, 32)) {
		t.Fatal("salt ignored")
	}
	if bytes.Equal(k1, DeriveKey([]byte("pw2"), []byte("salt"), 1000, 32)) {
		t.Fatal("password ignored")
	}
	if bytes.Equal(k1, DeriveKey([]byte("pw"), []byte("salt"), 999, 32)) {
		t.Fatal("iteration count ignored")
	}
	if len(DeriveKey([]byte("p"), []byte("s"), 10, 100)) != 100 {
		t.Fatal("multi-block output length wrong")
	}
}

// PBKDF2-HMAC-SHA256 known answers, full output. Nothing else pins the
// key bits: wire sizes and chunk counts (what the experiment goldens
// hash) do not depend on them.
func TestDeriveKeyRFCVector(t *testing.T) {
	for _, tc := range []struct {
		password, salt string
		iterations     int
		want           string
	}{
		// RFC 7914 section 11: two output blocks.
		{"passwd", "salt", 1, "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc" +
			"49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"},
		// The production iteration count.
		{"password", "salt", KDFIterations, "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a"},
	} {
		got := hex.EncodeToString(DeriveKey([]byte(tc.password), []byte(tc.salt), tc.iterations, len(tc.want)/2))
		if got != tc.want {
			t.Errorf("PBKDF2(%q, %q, %d) = %s, want %s", tc.password, tc.salt, tc.iterations, got, tc.want)
		}
	}
}

func TestGuardSeedDeterministicAndDistinct(t *testing.T) {
	a := GuardSeed("pw", "dropbin/alice-blog")
	b := GuardSeed("pw", "dropbin/alice-blog")
	if a != b {
		t.Fatal("guard seed not deterministic")
	}
	if GuardSeed("pw2", "dropbin/alice-blog") == a {
		t.Fatal("password ignored")
	}
	if GuardSeed("pw", "gdrive/alice-blog") == a {
		t.Fatal("location ignored")
	}
}

// Property: seal/open is the identity for any state contents.
func TestPropertySealOpenIdentity(t *testing.T) {
	f := func(name string, cookie []byte, cacheKB uint16, entropyPct uint8, password string) bool {
		if name == "" {
			name = "n"
		}
		disk := unionfs.NewLayer("w")
		fs, _ := unionfs.Stack(disk)
		fs.WriteFile("/c", cookie)
		fs.WriteVirtual("/cache", int64(cacheKB)<<10, float64(entropyPct%101)/100)
		st := &State{Name: name, Model: "persistent", AnonDisk: disk.Export(), CommDisk: unionfs.NewLayer("c").Export()}
		a, err := Seal(st, password, sim.NewRand(42))
		if err != nil {
			return false
		}
		back, err := Open(a, password, name)
		if err != nil {
			return false
		}
		l := unionfs.Import(back.AnonDisk)
		fs2, _ := unionfs.Stack(l)
		got, err := fs2.ReadFile("/c")
		if err != nil || !bytes.Equal(got, cookie) {
			return false
		}
		info, err := fs2.Stat("/cache")
		return err == nil && info.Size == int64(cacheKB)<<10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateArchiveWireSizeMatchesSeal(t *testing.T) {
	// The estimate exists so callers can price the monolithic baseline
	// without paying PBKDF2+AES; it must agree with what Seal reports.
	st := sampleState()
	arch, err := Seal(st, "pw", sim.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	// gob walks maps in nondeterministic order, so two encodings of
	// the same state can gzip to slightly different lengths; the
	// estimate only has to agree to within that noise.
	got, err := EstimateArchiveWireSize(st)
	if err != nil {
		t.Fatal(err)
	}
	diff := got - arch.WireSize
	if diff < 0 {
		diff = -diff
	}
	if diff > 256 {
		t.Fatalf("estimate %d vs sealed wire size %d (|diff| %d > 256)", got, arch.WireSize, diff)
	}
}

// TestDeriveKeyAllocsFlat guards the one-keyed-HMAC structure: the
// allocation count must not grow with the iteration count.
func TestDeriveKeyAllocsFlat(t *testing.T) {
	pw, salt := []byte("correct horse"), []byte("nymix-vault-v1\x00alice")
	one := testing.AllocsPerRun(5, func() { DeriveKey(pw, salt, 1, 64) })
	full := testing.AllocsPerRun(5, func() { DeriveKey(pw, salt, KDFIterations, 64) })
	if full > 16 {
		t.Errorf("DeriveKey(%d iterations) made %.0f allocations, want <= 16", KDFIterations, full)
	}
	if one != full {
		t.Errorf("allocations grow with iterations: %.0f at 1, %.0f at %d", one, full, KDFIterations)
	}
}

var benchKey []byte

func BenchmarkDeriveKey(b *testing.B) {
	pw, salt := []byte("correct horse"), []byte("nymix-vault-v1\x00alice")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchKey = DeriveKey(pw, salt, KDFIterations, 64)
	}
}

// dirtyGzipPool leaves a pooled writer mid-stream on unrelated content,
// so the next GetGzipWriter may hand back a writer with history.
func dirtyGzipPool() {
	zw := GetGzipWriter(io.Discard)
	zw.Write(bytes.Repeat([]byte("unrelated history "), 4096))
	PutGzipWriter(zw)
}

// checkPooledGzipMatchesFresh compares Seal and EstimateArchiveWireSize,
// run after dirtying the writer pool, with the same compression done by
// fresh gzip.NewWriter writers. It reports with t.Error so parallel
// goroutines may call it.
func checkPooledGzipMatchesFresh(t *testing.T, seed uint64) {
	st := sampleState()
	var plain, model bytes.Buffer
	zw := gzip.NewWriter(&plain)
	if err := encodeState(zw, st); err != nil {
		t.Error(err)
		return
	}
	zw.Close()
	zw = gzip.NewWriter(&model)
	var virtual int64
	for _, img := range []unionfs.Image{st.AnonDisk, st.CommDisk} {
		for _, path := range sortedPaths(img.Files) {
			f := img.Files[path]
			if !f.Real {
				virtual += VirtualWireSize(f.VirtualSize, f.Entropy)
				continue
			}
			zw.Write([]byte(path))
			zw.Write(f.Data)
		}
	}
	zw.Close()
	wantModel := virtual + int64(model.Len())

	dirtyGzipPool()
	if got := compressedSizeModel(st.AnonDisk, st.CommDisk); got != wantModel {
		t.Errorf("seed %d: compressedSizeModel = %d, fresh writer gives %d", seed, got, wantModel)
	}
	dirtyGzipPool()
	est, err := EstimateArchiveWireSize(st)
	if err != nil {
		t.Error(err)
		return
	}
	if want := wantModel + int64(plain.Len()) + gcmTagLen + saltLen + gcmNonceLen; est != want {
		t.Errorf("seed %d: EstimateArchiveWireSize = %d, fresh writer gives %d", seed, est, want)
	}

	dirtyGzipPool()
	a, err := Seal(st, "pw", sim.NewRand(seed))
	if err != nil {
		t.Error(err)
		return
	}
	salt, nonce := make([]byte, saltLen), make([]byte, gcmNonceLen)
	rnd := sim.NewRand(seed)
	rnd.Bytes(salt)
	rnd.Bytes(nonce)
	block, err := aes.NewCipher(DeriveKey([]byte("pw"), salt, KDFIterations, keyLen))
	if err != nil {
		t.Error(err)
		return
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		t.Error(err)
		return
	}
	want := gcm.Seal(nil, nonce, plain.Bytes(), []byte(st.Name))
	if !bytes.Equal(a.Salt, salt) || !bytes.Equal(a.Nonce, nonce) || !bytes.Equal(a.Ciphertext, want) {
		t.Errorf("seed %d: Seal ciphertext differs from a fresh writer's", seed)
	}
	if wantWire := wantModel + int64(len(want)+saltLen+gcmNonceLen); a.WireSize != wantWire {
		t.Errorf("seed %d: Seal WireSize = %d, fresh writer gives %d", seed, a.WireSize, wantWire)
	}
}

// TestPooledGzipMatchesFreshWriter pins that pooled writers change no
// output byte, alone and from parallel goroutines sharing the pool.
func TestPooledGzipMatchesFreshWriter(t *testing.T) {
	checkPooledGzipMatchesFresh(t, 1)
	var wg sync.WaitGroup
	for g := uint64(2); g < 6; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			checkPooledGzipMatchesFresh(t, seed)
		}(g)
	}
	wg.Wait()
}

// TestPooledGzipReaderMatchesFresh pins that a pooled reader fails a
// corrupt header with the same error as gzip.NewReader and, reused
// after that and after a stream left half read, opens an archive to
// the same state.
func TestPooledGzipReaderMatchesFresh(t *testing.T) {
	var half bytes.Buffer
	zw := gzip.NewWriter(&half)
	zw.Write(bytes.Repeat([]byte("unrelated history "), 4096))
	zw.Close()
	zr, err := GetGzipReader(&half)
	if err != nil {
		t.Fatal(err)
	}
	zr.Read(make([]byte, 10))
	PutGzipReader(zr)
	garbage := []byte("not a gzip stream")
	_, wantErr := gzip.NewReader(bytes.NewReader(garbage))
	if _, err := GetGzipReader(bytes.NewReader(garbage)); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("GetGzipReader(garbage) error = %v, want %v", err, wantErr)
	}

	a, err := Seal(sampleState(), "pw", sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := encodeState(&want, sampleState()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st, err := Open(a, "pw", "alice-blog")
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		var got bytes.Buffer
		if err := encodeState(&got, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("open %d through a pooled reader changed the state", i)
		}
	}
}
