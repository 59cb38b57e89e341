package vault

import (
	"bytes"
	"compress/gzip"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/anonnet/incognito"
	"nymix/internal/cloud"
	"nymix/internal/merkle"
	"nymix/internal/nymerr"
	"nymix/internal/nymstate"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// rig wires an anonymizer in front of two cloud providers, mirroring
// the topology the nym manager builds: CommVM -> masquerading host ->
// gateway -> Internet -> providers.
type rig struct {
	eng       *sim.Engine
	providers []*cloud.Provider
	relay     *incognito.Relay
}

func newRig(t testing.TB, quota int64) *rig {
	t.Helper()
	eng := sim.NewEngine(71)
	net, world := webworld.BuildDefault(eng)
	comm := net.AddNode("commvm")
	host := net.AddNode("host").SetForwarding(true).SetMasquerade(true)
	net.Connect(comm, host, vnet.LinkConfig{Latency: 200 * time.Microsecond, Capacity: 500e6})
	net.Connect(host, world.Gateway(), webworld.UplinkConfig)
	cfg := vnet.LinkConfig{Latency: 2 * time.Millisecond, Capacity: 1e9 / 8}
	r := &rig{eng: eng}
	for _, name := range []string{"dropbin", "gdrive"} {
		pr := cloud.NewProvider(net, world.Internet(), name, quota, cfg)
		pr.CreateAccount("acct", "cpw")
		r.providers = append(r.providers, pr)
	}
	r.relay = incognito.New(net, "commvm", "host", world.ISPDNS().Name(), world.Resolver())
	return r
}

// run executes fn as a sim process and drains the engine, with the
// relay started and sessions to n providers opened.
func (r *rig) run(t testing.TB, n int, fn func(p *sim.Proc, sessions []*cloud.Session)) {
	t.Helper()
	r.eng.Go("test", func(p *sim.Proc) {
		r.relay.Start(p)
		var sessions []*cloud.Session
		for _, pr := range r.providers[:n] {
			sess, err := cloud.Login(p, r.relay, pr, "acct", "cpw")
			if err != nil {
				t.Errorf("login %s: %v", pr.Name(), err)
				return
			}
			sessions = append(sessions, sess)
		}
		fn(p, sessions)
	})
	r.eng.Run()
}

// patternBytes yields deterministic, chunkable content.
func patternBytes(seed uint64, n int) []byte {
	rnd := sim.NewRand(seed)
	b := make([]byte, n)
	rnd.Bytes(b)
	return b
}

// testState builds a representative nym state: small real files, a
// multi-chunk real file, virtual bulk content, and whiteouts.
func testState(name string) *nymstate.State {
	return &nymstate.State{
		Name:   name,
		Model:  "persistent",
		Cycles: 3,
		AnonDisk: unionfs.Image{
			Name: "anon/writable",
			Files: map[string]unionfs.FileImage{
				"/home/user/.mozilla/cookies": {Real: true, Data: []byte("twitter=abc; gmail=def")},
				"/home/user/history":          {Real: true, Data: patternBytes(7, 100<<10)},
				"/home/user/empty":            {Real: true, Data: []byte{}},
				"/home/user/.cache/browser":   {VirtualSize: 9<<20 + 137, Entropy: 0.93},
			},
			Whiteouts: []string{"/tmp/removed"},
		},
		CommDisk: unionfs.Image{
			Name: "comm/writable",
			Files: map[string]unionfs.FileImage{
				"/var/lib/anonymizer/guard":            {Real: true, Data: []byte("relay-7")},
				"/var/lib/anonymizer/cached-consensus": {VirtualSize: 2200 << 10, Entropy: 0.62},
			},
		},
		AnonState: map[string]string{"guard": "relay-7", "consensus": "cached"},
	}
}

func mustEqualState(t *testing.T, want, got *nymstate.State) {
	t.Helper()
	if got == nil {
		t.Fatal("no state restored")
	}
	if got.Name != want.Name || got.Model != want.Model || got.Cycles != want.Cycles {
		t.Fatalf("header mismatch: got %q/%q/%d want %q/%q/%d",
			got.Name, got.Model, got.Cycles, want.Name, want.Model, want.Cycles)
	}
	if !reflect.DeepEqual(want.AnonDisk, got.AnonDisk) {
		t.Fatalf("AnonDisk differs:\nwant %+v\ngot  %+v", want.AnonDisk, got.AnonDisk)
	}
	if !reflect.DeepEqual(want.CommDisk, got.CommDisk) {
		t.Fatalf("CommDisk differs:\nwant %+v\ngot  %+v", want.CommDisk, got.CommDisk)
	}
	if !reflect.DeepEqual(map[string]string(want.AnonState), map[string]string(got.AnonState)) {
		t.Fatalf("AnonState differs: want %v got %v", want.AnonState, got.AnonState)
	}
}

// TestDeriveKeysKnownAnswer pins the vault key material: every chunk
// address, chunk nonce and manifest seal depends on these bits, while
// the experiment goldens only see sizes and counts.
func TestDeriveKeysKnownAnswer(t *testing.T) {
	ks := deriveKeys("pw", "alice")
	got := hex.EncodeToString(append(append([]byte(nil), ks.enc...), ks.mac...))
	const want = "4bf7bdb0573a3b292f26fe8982ab57b657ad9f75c2fa890d0837aecd7d9e7644" +
		"ad9eb0eae0ba72c8f7711fc971c879b68e2da2a4a3803e8bfa17cf91c55489c5"
	if got != want {
		t.Fatalf("deriveKeys(pw, alice) enc||mac = %s, want %s", got, want)
	}
}

// TestKeyedDigestsReuseOneHMAC checks realAddr, virtAddr and
// chunkNonce against a fresh HMAC per digest, interleaved so the shared
// scratch buffer is exercised, and guards that none builds an HMAC per
// call.
func TestKeyedDigestsReuseOneHMAC(t *testing.T) {
	ks := deriveKeys("pw", "alice")
	fresh := func(parts ...[]byte) []byte {
		mac := hmac.New(sha256.New, ks.mac)
		for _, p := range parts {
			mac.Write(p)
		}
		return mac.Sum(nil)
	}
	data := patternBytes(3, 8<<10)
	const path = "/var/lib/anonymizer/cached-consensus"
	var meta [16]byte
	binary.BigEndian.PutUint64(meta[0:8], 7)
	binary.BigEndian.PutUint64(meta[8:16], 256<<10)
	for i := 0; i < 2; i++ {
		ra := ks.realAddr(data)
		virt := ks.virtAddr(1, path, 7, 256<<10)
		nonce := ks.chunkNonce(ra, 12)
		if !bytes.Equal(ra[:], fresh([]byte("real\x00"), data)) {
			t.Fatalf("realAddr = %x, want a fresh HMAC's", ra)
		}
		if !bytes.Equal(virt[:], fresh([]byte("virt\x00"), []byte{1}, []byte(path), meta[:])) {
			t.Fatalf("virtAddr = %x, want a fresh HMAC's", virt)
		}
		if !bytes.Equal(nonce, fresh([]byte("nonce\x00"), ra[:])[:12]) {
			t.Fatalf("chunkNonce = %x, want a fresh HMAC's", nonce)
		}
	}

	var a Addr
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"realAddr", func() { a = ks.realAddr(data) }},
		{"virtAddr", func() { a = ks.virtAddr(1, path, 7, 256<<10) }},
		{"chunkNonce", func() { ks.chunkNonce(a, 12) }},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n > 1 {
			t.Errorf("%s made %.0f allocations per call, want <= 1", tc.name, n)
		}
	}
}

// dirtyGzipPool leaves a pooled writer mid-stream on unrelated content,
// so the next nymstate.GetGzipWriter may hand back a writer with
// history.
func dirtyGzipPool() {
	zw := nymstate.GetGzipWriter(io.Discard)
	zw.Write(bytes.Repeat([]byte("unrelated history "), 4096))
	nymstate.PutGzipWriter(zw)
}

// checkPooledGzipMatchesFresh compares gzipLen and sealManifest, run
// after dirtying the writer pool, with the same compression done by
// fresh gzip.NewWriter writers. It reports with t.Error so parallel
// goroutines may call it; each call seals under its own engine's RNG.
func checkPooledGzipMatchesFresh(t *testing.T, seed uint64) {
	// Half random, half repetitive, so the match finder has history to
	// get wrong.
	data := append(patternBytes(seed, 20<<10), bytes.Repeat([]byte(fmt.Sprintf("cookie-%d=abc; ", seed)), 1500)...)
	var ref bytes.Buffer
	zw := gzip.NewWriter(&ref)
	zw.Write(data)
	zw.Close()
	dirtyGzipPool()
	if got := gzipLen(data); got != int64(ref.Len()) {
		t.Errorf("seed %d: gzipLen = %d, fresh writer gives %d", seed, got, ref.Len())
	}

	st := testState("alice")
	ks := deriveKeys("pw", st.Name)
	c := chunkState(st, ks)
	man := &Manifest{
		Name: st.Name, Model: st.Model, Cycles: st.Cycles, Seq: int(seed),
		AnonDiskName: st.AnonDisk.Name, CommDiskName: st.CommDisk.Name,
		AnonWhiteouts: st.AnonDisk.Whiteouts, AnonState: st.AnonState,
		Files: c.files, Chunks: c.refs,
	}
	dirtyGzipPool()
	blob, err := sealManifest(man, ks, sim.NewEngine(seed).Rand())
	if err != nil {
		t.Error(err)
		return
	}
	var plain bytes.Buffer
	zw = gzip.NewWriter(&plain)
	wireForm := man.wire()
	if err := gob.NewEncoder(zw).Encode(&wireForm); err != nil {
		t.Error(err)
		return
	}
	zw.Close()
	gcm, err := ks.aead()
	if err != nil {
		t.Error(err)
		return
	}
	nonce := make([]byte, gcm.NonceSize())
	sim.NewEngine(seed).Rand().Bytes(nonce)
	want := gcm.Seal(nonce, nonce, plain.Bytes(), []byte("manifest\x00"+man.Name))
	if !bytes.Equal(blob.Data, want) || blob.WireSize != int64(len(want)) {
		t.Errorf("seed %d: sealed manifest (%d bytes) differs from a fresh writer's (%d bytes)", seed, blob.WireSize, len(want))
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

// BenchmarkVaultDeltaSave times the steady-state save: a warm index and
// one changed real file per save.
func BenchmarkVaultDeltaSave(b *testing.B) {
	r := newRig(b, 0)
	st := testState("alice")
	vs := NewStore("alice", nil)
	r.run(b, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		if _, err := vs.Save(p, st, "pw", sessions, r.eng.Rand()); err != nil {
			b.Errorf("warm save: %v", err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.AnonDisk.Files["/home/user/.mozilla/cookies"] = unionfs.FileImage{Real: true, Data: []byte(fmt.Sprintf("twitter=%d; gmail=def", i))}
			st.Cycles++
			if _, err := vs.Save(p, st, "pw", sessions, r.eng.Rand()); err != nil {
				b.Errorf("save %d: %v", i, err)
				return
			}
		}
		b.StopTimer()
	})
}

func TestCutRealCoversInputExactly(t *testing.T) {
	for _, n := range []int{0, 1, MinChunk, MinChunk + 1, 10 << 10, 200 << 10} {
		data := patternBytes(uint64(n)+1, n)
		chunks := cutReal(data)
		var joined []byte
		for _, c := range chunks {
			joined = append(joined, c...)
			if len(c) > MaxChunk {
				t.Fatalf("n=%d: chunk of %d bytes exceeds MaxChunk", n, len(c))
			}
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("n=%d: chunks do not reassemble input", n)
		}
		if n == 0 && len(chunks) != 1 {
			t.Fatalf("empty input: %d chunks, want 1 empty chunk", len(chunks))
		}
	}
}

func TestCutRealBoundariesSurviveShift(t *testing.T) {
	// The content-defined property: prepending bytes must not reshape
	// chunks far from the edit. Compare chunk sets, not positions.
	base := patternBytes(99, 300<<10)
	shifted := append(append([]byte(nil), patternBytes(17, 1000)...), base...)
	seen := make(map[string]bool)
	for _, c := range cutReal(base) {
		seen[string(c)] = true
	}
	reused := 0
	for _, c := range cutReal(shifted) {
		if seen[string(c)] {
			reused++
		}
	}
	if reused < len(cutReal(base))/2 {
		t.Fatalf("only %d/%d chunks survived a prefix shift", reused, len(cutReal(base)))
	}
}

func TestRoundTripByteIdentical(t *testing.T) {
	r := newRig(t, 0)
	st := testState("alice")
	vs := NewStore("alice", nil)
	r.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		if _, err := vs.Save(p, st, "pw", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		got, stats, err := vs.Load(p, "pw", sessions)
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		mustEqualState(t, st, got)
		if stats.Chunks == 0 || stats.DownloadedBytes == 0 {
			t.Errorf("load stats empty: %+v", stats)
		}
	})
}

func TestEmptyState(t *testing.T) {
	r := newRig(t, 0)
	st := &nymstate.State{
		Name:     "blank",
		Model:    "persistent",
		AnonDisk: unionfs.Image{Name: "anon/writable", Files: map[string]unionfs.FileImage{}},
		CommDisk: unionfs.Image{Name: "comm/writable", Files: map[string]unionfs.FileImage{}},
	}
	vs := NewStore("blank", nil)
	r.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		stats, err := vs.Save(p, st, "pw", sessions, r.eng.Rand())
		if err != nil {
			t.Errorf("save empty: %v", err)
			return
		}
		if stats.TotalChunks != 0 {
			t.Errorf("empty state produced %d chunks", stats.TotalChunks)
		}
		got, _, err := vs.Load(p, "pw", sessions)
		if err != nil {
			t.Errorf("load empty: %v", err)
			return
		}
		mustEqualState(t, st, got)
	})
}

func TestSingleChunkState(t *testing.T) {
	r := newRig(t, 0)
	st := &nymstate.State{
		Name:  "tiny",
		Model: "persistent",
		AnonDisk: unionfs.Image{Name: "anon/writable", Files: map[string]unionfs.FileImage{
			"/note": {Real: true, Data: []byte("just one small file")},
		}},
		CommDisk: unionfs.Image{Name: "comm/writable", Files: map[string]unionfs.FileImage{}},
	}
	vs := NewStore("tiny", nil)
	r.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		stats, err := vs.Save(p, st, "pw", sessions, r.eng.Rand())
		if err != nil {
			t.Errorf("save: %v", err)
			return
		}
		if stats.TotalChunks != 1 || stats.NewChunks != 1 {
			t.Errorf("stats = %+v, want exactly one chunk", stats)
		}
		got, _, err := vs.Load(p, "pw", sessions)
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		mustEqualState(t, st, got)
	})
}

func TestWrongPasswordOnManifest(t *testing.T) {
	r := newRig(t, 0)
	vs := NewStore("alice", nil)
	r.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		if _, err := vs.Save(p, testState("alice"), "right", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		_, _, err := vs.Load(p, "wrong", sessions)
		if !errors.Is(err, nymstate.ErrBadPassword) {
			t.Errorf("wrong password: %v, want ErrBadPassword", err)
		}
	})
}

// flakyAnon wraps a working anonymizer and, once down, fails every
// exchange — a circuit collapse between login and fetch.
type flakyAnon struct {
	anonnet.Transport
	down bool
}

func (f *flakyAnon) Fetch(p *sim.Proc, req anonnet.Request) (anonnet.FetchResult, error) {
	if f.down {
		return anonnet.FetchResult{}, errors.New("anonymizer circuit collapsed")
	}
	return f.Transport.Fetch(p, req)
}

// Regression: a provider that HAS a manifest but cannot serve it used
// to read as "no manifest anywhere" — an anonymizer outage during the
// probe was reported as a fresh nym (and could feed GC an empty live
// set). The probe failure is now its own typed code.
func TestManifestProbeOutageIsNotNoManifest(t *testing.T) {
	r := newRig(t, 0)
	vs := NewStore("alice", nil)
	r.eng.Go("test", func(p *sim.Proc) {
		r.relay.Start(p)
		flaky := &flakyAnon{Transport: r.relay}
		sess, err := cloud.Login(p, flaky, r.providers[0], "acct", "cpw")
		if err != nil {
			t.Errorf("login: %v", err)
			return
		}
		sessions := []*cloud.Session{sess}
		if _, err := vs.Save(p, testState("alice"), "pw", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		flaky.down = true
		_, _, err = vs.Load(p, "pw", sessions)
		if err == nil {
			t.Error("load succeeded through a dead anonymizer")
			return
		}
		if errors.Is(err, ErrNoManifest) {
			t.Errorf("outage misclassified as no-manifest: %v", err)
		}
		if nymerr.Classify(err) != CodeManifestProbe {
			t.Errorf("classified %q, want %s: %v", nymerr.Classify(err), CodeManifestProbe, err)
		}
	})
	r.eng.Run()
}

func TestTamperedChunkFailsMerkleVerification(t *testing.T) {
	r := newRig(t, 0)
	vs := NewStore("alice", nil)
	r.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		sess := sessions[0]
		if _, err := vs.Save(p, testState("alice"), "pw", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		// The provider (or anyone who seizes the account) flips bytes
		// in one stored real chunk.
		tampered := 0
		for _, name := range sess.List() {
			if !strings.HasPrefix(name, vs.chunkPrefix()) {
				continue
			}
			blob, err := sess.Get(p, name)
			if err != nil || len(blob.Data) == 0 {
				continue // virtual chunk: no stored bytes
			}
			blob.Data[0] ^= 0xff
			if err := sess.Put(p, name, blob); err != nil {
				t.Errorf("tamper put: %v", err)
				return
			}
			tampered++
			break
		}
		if tampered == 0 {
			t.Error("no real chunk found to tamper")
			return
		}
		_, _, err := vs.Load(p, "pw", sessions)
		if !errors.Is(err, merkle.ErrTampered) {
			t.Errorf("tampered chunk load: %v, want merkle.ErrTampered", err)
		}
	})
}

func TestDeltaSaveUploadsOnlyChangedChunks(t *testing.T) {
	r := newRig(t, 0)
	st := testState("alice")
	vs := NewStore("alice", nil)
	r.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		first, err := vs.Save(p, st, "pw", sessions, r.eng.Rand())
		if err != nil {
			t.Errorf("save 1: %v", err)
			return
		}
		if first.NewChunks != first.TotalChunks {
			t.Errorf("first save uploaded %d of %d chunks", first.NewChunks, first.TotalChunks)
		}

		// Session 2: cookies change, the cache grows, entropy drifts a
		// little (the GrowVirtual re-mix) — interior segments must keep
		// their addresses.
		st2 := testState("alice")
		st2.AnonDisk.Files["/home/user/.mozilla/cookies"] = unionfs.FileImage{Real: true, Data: []byte("twitter=xyz; gmail=def")}
		st2.AnonDisk.Files["/home/user/.cache/browser"] = unionfs.FileImage{VirtualSize: 10 << 20, Entropy: 0.928}
		second, err := vs.Save(p, st2, "pw", sessions, r.eng.Rand())
		if err != nil {
			t.Errorf("save 2: %v", err)
			return
		}
		if second.NewChunks == 0 || second.NewChunks >= second.TotalChunks/2 {
			t.Errorf("second save uploaded %d of %d chunks, want a small delta", second.NewChunks, second.TotalChunks)
		}
		if second.UploadedBytes*4 > first.UploadedBytes {
			t.Errorf("second save shipped %d bytes vs first %d, want <25%%", second.UploadedBytes, first.UploadedBytes)
		}
		if second.DedupFrac() < 0.75 {
			t.Errorf("dedup fraction = %.2f, want >= 0.75", second.DedupFrac())
		}

		// Unchanged third save: only the manifest moves.
		third, err := vs.Save(p, st2, "pw", sessions, r.eng.Rand())
		if err != nil {
			t.Errorf("save 3: %v", err)
			return
		}
		if third.NewChunks != 0 {
			t.Errorf("unchanged save uploaded %d chunks", third.NewChunks)
		}
		if third.UploadedBytes != third.ManifestBytes {
			t.Errorf("unchanged save shipped %d bytes beyond the manifest", third.UploadedBytes-third.ManifestBytes)
		}

		// The restored state is the latest one.
		got, _, err := vs.Load(p, "pw", sessions)
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		mustEqualState(t, st2, got)
	})
}

func TestColdIndexFallsBackToProviderMetadata(t *testing.T) {
	// A fresh Store (fresh local index — e.g. the user moved to a new
	// machine) must still dedup against what the provider holds.
	r := newRig(t, 0)
	st := testState("alice")
	r.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		if _, err := NewStore("alice", nil).Save(p, st, "pw", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save 1: %v", err)
			return
		}
		cold := NewStore("alice", nil)
		stats, err := cold.Save(p, st, "pw", sessions, r.eng.Rand())
		if err != nil {
			t.Errorf("save 2: %v", err)
			return
		}
		if stats.NewChunks != 0 {
			t.Errorf("cold-index save re-uploaded %d chunks", stats.NewChunks)
		}
	})
}

func TestGCKeepsEverythingTheLatestManifestReferences(t *testing.T) {
	r := newRig(t, 0)
	vs := NewStore("alice", nil)
	r.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		st := testState("alice")
		st.AnonDisk.Files["/home/user/scratch"] = unionfs.FileImage{Real: true, Data: patternBytes(3, 64<<10)}
		if _, err := vs.Save(p, st, "pw", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save 1: %v", err)
			return
		}
		// GC with nothing stale: nothing may be deleted.
		stats, err := vs.GC(p, "pw", sessions)
		if err != nil {
			t.Errorf("gc 1: %v", err)
			return
		}
		if stats.Deleted != 0 {
			t.Errorf("gc deleted %d live chunks", stats.Deleted)
		}

		// The scratch file goes away; its chunks become garbage.
		st2 := testState("alice")
		if _, err := vs.Save(p, st2, "pw", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save 2: %v", err)
			return
		}
		stats, err = vs.GC(p, "pw", sessions)
		if err != nil {
			t.Errorf("gc 2: %v", err)
			return
		}
		if stats.Deleted == 0 || stats.FreedBytes == 0 {
			t.Errorf("gc reclaimed nothing: %+v", stats)
		}
		// Everything the latest manifest needs is intact.
		got, _, err := vs.Load(p, "pw", sessions)
		if err != nil {
			t.Errorf("load after gc: %v", err)
			return
		}
		mustEqualState(t, st2, got)
		// And a delta save after GC does not resurrect-upload live chunks.
		again, err := vs.Save(p, st2, "pw", sessions, r.eng.Rand())
		if err != nil {
			t.Errorf("save 3: %v", err)
			return
		}
		if again.NewChunks != 0 {
			t.Errorf("post-gc save re-uploaded %d chunks", again.NewChunks)
		}
	})
}

func TestGCWrongPasswordReportsBadPassword(t *testing.T) {
	r := newRig(t, 0)
	vs := NewStore("alice", nil)
	r.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		if _, err := vs.Save(p, testState("alice"), "right", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		if _, err := vs.GC(p, "wrong", sessions); !errors.Is(err, nymstate.ErrBadPassword) {
			t.Errorf("gc with wrong password: %v, want ErrBadPassword (not a bogus 'no manifest')", err)
		}
	})
}

func TestReplicateSurvivesProviderLoss(t *testing.T) {
	r := newRig(t, 0)
	st := testState("alice")
	vs := NewStore("alice", nil)
	r.run(t, 2, func(p *sim.Proc, sessions []*cloud.Session) {
		if _, err := vs.Save(p, st, "pw", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save: %v", err)
			return
		}
		// Provider 0 wipes the account (takedown, data loss).
		for _, name := range sessions[0].List() {
			if err := sessions[0].Delete(name); err != nil {
				t.Errorf("wipe: %v", err)
				return
			}
		}
		got, _, err := vs.Load(p, "pw", sessions)
		if err != nil {
			t.Errorf("load after provider loss: %v", err)
			return
		}
		mustEqualState(t, st, got)
		// The failed fetch dropped the wiped provider's index entries;
		// the provider that served the restore is indexed as holding
		// every chunk.
		if n := vs.Index().KnownBytes(sessions[0].Provider().Name()); n != 0 {
			t.Errorf("wiped provider still indexed with %d bytes after its fetch failed", n)
		}
		if vs.Index().KnownBytes(sessions[1].Provider().Name()) == 0 {
			t.Error("serving provider not indexed after the restore")
		}
		// Regression: the load must not have marked the wiped provider
		// as holding chunks it no longer has — the next save has to
		// re-replicate there, restoring the any-single-provider
		// guarantee.
		stats, err := vs.Save(p, st, "pw", sessions, r.eng.Rand())
		if err != nil {
			t.Errorf("save after provider loss: %v", err)
			return
		}
		if stats.NewChunks != stats.TotalChunks {
			t.Errorf("re-replication uploaded %d of %d chunks to the wiped provider", stats.NewChunks, stats.TotalChunks)
		}
		if _, _, err := vs.Load(p, "pw", sessions[:1]); err != nil {
			t.Errorf("wiped provider not restored to self-sufficiency: %v", err)
		}
	})
}

func TestLoadAndGCPreferNewestManifest(t *testing.T) {
	// A provider serving a rolled-back (older) manifest must not win:
	// the restore takes the highest sequence number across providers,
	// and GC's live set comes from that newest manifest — never
	// deleting chunks an older copy no longer references.
	r := newRig(t, 0)
	st1 := testState("alice")
	st1.Cycles = 1
	st2 := testState("alice")
	st2.Cycles = 2
	st2.AnonDisk.Files["/home/user/notes"] = unionfs.FileImage{Real: true, Data: []byte("session-two secrets")}
	vs := NewStore("alice", nil)
	r.run(t, 2, func(p *sim.Proc, sessions []*cloud.Session) {
		if _, err := vs.Save(p, st1, "pw", sessions, r.eng.Rand()); err != nil {
			t.Errorf("save 1: %v", err)
			return
		}
		// The second save only reaches provider 1 (provider 0 is stale
		// or maliciously rolled back to the seq-1 state).
		if _, err := vs.Save(p, st2, "pw", sessions[1:], r.eng.Rand()); err != nil {
			t.Errorf("save 2: %v", err)
			return
		}
		got, _, err := vs.Load(p, "pw", sessions)
		if err != nil {
			t.Errorf("load: %v", err)
			return
		}
		mustEqualState(t, st2, got)
		// GC across both providers must keep every chunk the newest
		// manifest references; the nym must still restore afterwards.
		if _, err := vs.GC(p, "pw", sessions); err != nil {
			t.Errorf("gc: %v", err)
			return
		}
		got, _, err = vs.Load(p, "pw", sessions)
		if err != nil {
			t.Errorf("load after gc: %v", err)
			return
		}
		mustEqualState(t, st2, got)
	})
}

func TestBatchTransfersBeatPerBlobRoundTrips(t *testing.T) {
	// The reason internal/cloud grew PutBatch/GetBatch: a chunk fan-out
	// through a high-latency anonymizer must not pay one round trip per
	// chunk. Save the same state both ways and compare elapsed time.
	rBatch := newRig(t, 0)
	st := testState("alice")
	var batched time.Duration
	vs := NewStore("alice", nil)
	rBatch.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		start := p.Now()
		stats, err := vs.Save(p, st, "pw", sessions, rBatch.eng.Rand())
		if err != nil {
			t.Errorf("save: %v", err)
			return
		}
		batched = time.Duration(p.Now() - start)
		if stats.TotalChunks < 10 {
			t.Errorf("workload too small to exercise batching: %d chunks", stats.TotalChunks)
		}
	})

	rSerial := newRig(t, 0)
	var serial time.Duration
	rSerial.run(t, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		ks := deriveKeys("pw", "alice")
		gcm, err := ks.aead()
		if err != nil {
			t.Errorf("aead: %v", err)
			return
		}
		c := chunkState(st, ks)
		NewStore("alice", nil).priceChunks(&c, nil)
		start := p.Now()
		for _, ref := range c.refs {
			blob := cloud.Blob{WireSize: ref.WireSize}
			if !ref.Virtual {
				blob.Data = ks.sealChunk(gcm, ref.Addr, c.data[ref.Addr])
			}
			if err := sessions[0].Put(p, "serial-"+ref.Addr.String(), blob); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
		serial = time.Duration(p.Now() - start)
	})
	if batched >= serial {
		t.Fatalf("batched save (%v) not faster than per-chunk puts (%v)", batched, serial)
	}
}

// TestChunkBlobNameFormat pins the stored chunk name: the nym's chunk
// prefix followed by the hex chunk address.
func TestChunkBlobNameFormat(t *testing.T) {
	vs := NewStore("alice", nil)
	var a Addr
	for i := range a {
		a[i] = byte(i * 7)
	}
	if got, want := vs.chunkBlobName(a), vs.chunkPrefix()+a.String(); got != want {
		t.Fatalf("chunkBlobName = %q, want %q", got, want)
	}
}
