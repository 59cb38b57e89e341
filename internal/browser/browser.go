// Package browser simulates the Chromium instance inside an AnonVM:
// profile state (cookies, cache with the 83 MB default cap Figure 6
// mentions, history, saved credentials), page fetches proxied through
// the nym's CommVM anonymizer, the homogeneous browser fingerprint
// Nymix enforces, and the client-side attack vectors the paper
// defends against — evercookies and malware "stains".
//
// All profile state is written through to the AnonVM's disk, so
// snapshotting the disk (quasi-persistent nyms) captures exactly what
// a browser would persist, and discarding it scrubs everything.
package browser

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"nymix/internal/anonnet"
	"nymix/internal/cpusched"
	"nymix/internal/sim"
	"nymix/internal/vm"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// DefaultCacheCap is Chromium's default cache size, "which could have
// been configured to be smaller than the default of 83 MB" (section
// 5.3).
const DefaultCacheCap = 83 << 20

// BaseFingerprint is the homogeneous fingerprint every Nymix browser
// presents: same browser build, same virtual CPU, same resolution.
const BaseFingerprint = "chromium-34/qemu-vcpu-1/1024x768/nymix"

// Profile file locations on the AnonVM disk.
const (
	cookiesPath     = "/home/user/.config/chromium/cookies.json"
	evercookiesPath = "/home/user/.config/chromium/evercookies.dat"
	credsPath       = "/home/user/.config/chromium/logins.json"
	historyPath     = "/home/user/.config/chromium/history"
	cachePath       = "/home/user/.cache/chromium/blob"
	cacheIdxPath    = "/home/user/.cache/chromium/index.json"
	stainPath       = "/home/user/.config/chromium/.stain"
	boilerplatePath = "/home/user/.config/chromium/first-run-profile"
)

// boilerplateBytes is the disk footprint Chromium creates on first
// run regardless of browsing: GPU shader cache, safe-browsing lists,
// font cache, Local State. It makes the AnonVM dominate archived nym
// size even for light sites (Figure 6's ~85% AnonVM share).
const boilerplateBytes = 7 << 20

// Credential is a saved site login.
type Credential struct {
	Account  string
	Password string
}

// RenderFunc submits page render/JS CPU work to the host chip on
// behalf of the browser's AnonVM (core wires it to SubmitVMTask, so
// the work runs at virtualized efficiency and contends fairly with
// every other vCPU on the host). work is native core-seconds.
type RenderFunc func(name string, work float64) *sim.Future[cpusched.TaskResult]

// RenderRate is the native parse/layout/JS throughput of a page load:
// bytes of page content rendered per core-second. On an uncontended
// chip the render leg of a typical page finishes well inside its
// network transfer (a 4 MB page costs ~0.2 core-seconds against
// multiple seconds on the rate-limited uplink), so single-nym page
// timings match the flat model; when a fleet's browsers outnumber the
// chip's threads, rendering becomes the bottleneck and page loads
// stretch — honest CPU contention instead of free parallelism.
const RenderRate = 20 << 20

// Config parameterizes a browser.
type Config struct {
	CacheCap    int64  // bytes; 0 means DefaultCacheCap
	Fingerprint string // "" means the homogeneous Nymix BaseFingerprint
	// RenderCPU routes page render/JS time through the host CPU
	// scheduler. Nil keeps page loads network-only (a bare browser in
	// tests); core always wires it.
	RenderCPU RenderFunc
}

// Browser is one browser instance bound to an AnonVM and its
// anonymizer.
type Browser struct {
	world    *webworld.World
	net      *vnet.Network
	anonVM   *vm.VM
	commNode string
	anon     anonnet.Transport
	cacheCap int64
	baseFP   string
	render   RenderFunc

	cookies     map[string]string // site host -> first-party cookie
	evercookies map[string]string // tracker -> evercookie (survives clearing)
	trackerCk   map[string]string // tracker -> live third-party cookie
	creds       map[string]Credential
	loggedIn    map[string]string // site host -> account (session state)
	history     []string
	cacheBySite map[string]int64
	cacheOrder  []string
	cacheTotal  int64
	stain       string
	nextID      int
}

// VisitResult reports one page visit.
type VisitResult struct {
	Bytes      int64
	Elapsed    time.Duration
	FirstVisit bool
	Cookie     string
}

// New creates a browser inside anonVM whose traffic exits through the
// anonymizer running at commNode.
func New(world *webworld.World, net *vnet.Network, anonVM *vm.VM, commNode string, anon anonnet.Transport, cfg Config) *Browser {
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = DefaultCacheCap
	}
	if cfg.Fingerprint == "" {
		cfg.Fingerprint = BaseFingerprint
	}
	b := &Browser{
		world:       world,
		net:         net,
		anonVM:      anonVM,
		commNode:    commNode,
		anon:        anon,
		cacheCap:    cfg.CacheCap,
		baseFP:      cfg.Fingerprint,
		render:      cfg.RenderCPU,
		cookies:     make(map[string]string),
		evercookies: make(map[string]string),
		trackerCk:   make(map[string]string),
		creds:       make(map[string]Credential),
		loggedIn:    make(map[string]string),
		cacheBySite: make(map[string]int64),
	}
	b.LoadFromDisk()
	if !anonVM.Disk().FS().Exists(boilerplatePath) {
		anonVM.Disk().WriteVirtual(boilerplatePath, boilerplateBytes, 0.7)
	}
	return b
}

// Fingerprint returns the fingerprint servers can compute. A stain
// (client-side exploit marker) makes it unique; otherwise every Nymix
// browser looks identical.
func (b *Browser) Fingerprint() string {
	if b.stain != "" {
		return b.baseFP + "/stain:" + b.stain
	}
	return b.baseFP
}

// Stained reports whether a stain marker is present.
func (b *Browser) Stained() bool { return b.stain != "" }

// Stain injects a tracking stain (models the GCHQ "MULLENIZE"-style
// attack of section 3.3): the marker persists on disk and in
// evercookies, so it survives within a persistent nym but dies with an
// ephemeral or pre-configured one.
func (b *Browser) Stain(id string) {
	b.stain = id
	for _, tracker := range []string{"doubleclick.net", "adnet.example", "facebook-pixel"} {
		b.evercookies[tracker] = "ever-" + id
	}
	b.saveToDisk()
}

// CacheBytes returns current cache occupancy.
func (b *Browser) CacheBytes() int64 { return b.cacheTotal }

// History returns the visit history.
func (b *Browser) History() []string { return append([]string(nil), b.history...) }

// Credentials returns the saved login for a site, if any.
func (b *Browser) Credentials(host string) (Credential, bool) {
	c, ok := b.creds[host]
	return c, ok
}

// newID mints a locally unique identifier.
func (b *Browser) newID(prefix string) string {
	b.nextID++
	return fmt.Sprintf("%s-%s-%d-%d", prefix, b.anonVM.Name(), b.nextID, b.net.Engine().Rand().Intn(1<<30))
}

// drainRender awaits an in-flight render task on a failed page load,
// so an aborted fetch does not leave a phantom task stealing chip
// throughput from live nyms (the bootVM lesson).
func (b *Browser) drainRender(p *sim.Proc, render *sim.Future[cpusched.TaskResult]) {
	if render != nil {
		sim.Await(p, render)
	}
}

// wire moves bytes across the AnonVM-CommVM virtual wire.
func (b *Browser) wire(p *sim.Proc, toComm bool, bytes int64) error {
	from, to := b.anonVM.Node().Name(), b.commNode
	if !toComm {
		from, to = to, from
	}
	fut := b.net.StartTransfer(vnet.TransferOpts{
		From: from, To: to, Bytes: bytes, Proto: "socks", NoHandshake: true,
	})
	_, err := sim.Await(p, fut)
	return err
}

// Visit loads a site's page through the anonymizer, updating cookies,
// cache, history, and the server-side observation logs.
func (b *Browser) Visit(p *sim.Proc, host string) (VisitResult, error) {
	return b.request(p, host, "browse", "", 0)
}

// request is the common exchange path for browse/login/post/download.
func (b *Browser) request(p *sim.Proc, host, action, payload string, extraUp int64) (VisitResult, error) {
	site := b.world.Site(host)
	if site == nil {
		return VisitResult{}, fmt.Errorf("browser: unknown site %q", host)
	}
	start := p.Now()
	node, err := b.anon.Resolve(p, host)
	if err != nil {
		return VisitResult{}, err
	}
	prof := site.Profile
	_, visited := b.cacheBySite[host]
	pageBytes := prof.InitialPage
	if visited {
		pageBytes = prof.RevisitPage
	}
	if action == "download" {
		pageBytes = extraUp // callers pass the download size via extraUp for downloads
		extraUp = 0
	}
	upBytes := int64(2048) + extraUp
	// Page render/JS runs on the AnonVM's vCPU concurrently with the
	// transfer (browsers parse and lay out progressively as bytes
	// arrive); the load completes when both network and render have.
	// Downloads bypass the renderer the same way they bypass the cache.
	var render *sim.Future[cpusched.TaskResult]
	if b.render != nil && action != "download" {
		render = b.render(b.anonVM.Name()+"/render", float64(pageBytes)/RenderRate)
	}
	// SOCKS request across the wire, the anonymized exchange, and the
	// response back over the wire.
	if err := b.wire(p, true, upBytes); err != nil {
		b.drainRender(p, render)
		return VisitResult{}, err
	}
	if _, err := b.anon.Fetch(p, anonnet.Request{SiteNode: node, SendBytes: upBytes, RecvBytes: pageBytes}); err != nil {
		b.drainRender(p, render)
		return VisitResult{}, err
	}
	if err := b.wire(p, false, pageBytes); err != nil {
		b.drainRender(p, render)
		return VisitResult{}, err
	}
	if render != nil {
		if _, err := sim.Await(p, render); err != nil {
			return VisitResult{}, err
		}
	}

	// Cookies: present the stored one or accept a fresh one; an
	// evercookie silently resurrects a cleared first-party cookie.
	ck, had := b.cookies[host]
	if !had {
		if ec, ok := b.evercookies[host]; ok {
			ck = ec
		} else {
			ck = b.newID("ck")
		}
		b.cookies[host] = ck
	}

	// Server-side observation.
	site.RecordVisit(webworld.Visit{
		Time:        p.Now(),
		SourceAddr:  b.anon.ExitIdentity(),
		CookieID:    ck,
		Fingerprint: b.Fingerprint(),
		Account:     b.loggedIn[host],
		Action:      action,
		Payload:     payload,
	})
	// Third-party trackers embedded in the page see their own cookie,
	// shared across every site embedding them.
	for _, tracker := range prof.Trackers {
		tck, ok := b.trackerCk[tracker]
		if !ok {
			if ec, ok := b.evercookies[tracker]; ok {
				tck = ec
			} else {
				tck = b.newID("3p")
			}
			b.trackerCk[tracker] = tck
		}
		b.world.RecordTracker(webworld.Visit{
			Time:        p.Now(),
			Site:        tracker,
			SourceAddr:  b.anon.ExitIdentity(),
			CookieID:    tck,
			Fingerprint: b.Fingerprint(),
			Payload:     host,
		})
	}

	// Client-side state: cache growth (halved on warm revisits), LRU
	// eviction at the cap, history, dirtied guest pages.
	fill := prof.CacheFill
	if visited {
		fill /= 2
	}
	if action != "download" { // downloads bypass the cache
		b.addCache(host, fill, prof.CacheEntropy)
	}
	b.history = append(b.history, fmt.Sprintf("%d %s %s", p.Now()/time.Millisecond, action, host))
	if b.anonVM.State() == vm.StateRunning {
		b.anonVM.DirtyPages(pageBytes / 4096 / 2)
	}
	b.saveToDisk()
	return VisitResult{Bytes: pageBytes, Elapsed: p.Now() - start, FirstVisit: !visited, Cookie: ck}, nil
}

// Login visits the site and authenticates. Unknown accounts are
// registered (pseudonymous signup); credentials are saved so the nym
// binds them structurally ("when using the correct nymbox the user
// need not enter those credentials at all", section 1).
func (b *Browser) Login(p *sim.Proc, host, account, password string) (VisitResult, error) {
	site := b.world.Site(host)
	if site == nil {
		return VisitResult{}, fmt.Errorf("browser: unknown site %q", host)
	}
	if !site.CheckLogin(account, password) {
		site.CreateAccount(account, password)
	}
	b.loggedIn[host] = account
	b.creds[host] = Credential{Account: account, Password: password}
	res, err := b.request(p, host, "login", "", 1024)
	if err != nil {
		delete(b.loggedIn, host)
		return res, err
	}
	return res, nil
}

// LoginSaved logs in using the nym's stored credentials.
func (b *Browser) LoginSaved(p *sim.Proc, host string) (VisitResult, error) {
	c, ok := b.creds[host]
	if !ok {
		return VisitResult{}, fmt.Errorf("browser: no saved credentials for %q", host)
	}
	return b.Login(p, host, c.Account, c.Password)
}

// Post publishes content to a site the browser is logged in to.
func (b *Browser) Post(p *sim.Proc, host, content string) (VisitResult, error) {
	if b.loggedIn[host] == "" {
		return VisitResult{}, fmt.Errorf("browser: not logged in to %q", host)
	}
	return b.request(p, host, "post", content, int64(len(content))+2048)
}

// Upload posts a file (e.g. a scrubbed photo) to a site.
func (b *Browser) Upload(p *sim.Proc, host string, data []byte) (VisitResult, error) {
	if b.loggedIn[host] == "" {
		return VisitResult{}, fmt.Errorf("browser: not logged in to %q", host)
	}
	return b.request(p, host, "post", fmt.Sprintf("file[%d bytes]", len(data)), int64(len(data)))
}

// Download fetches a bulk file of the given size (the Figure 5
// workload), bypassing the cache.
func (b *Browser) Download(p *sim.Proc, host string, bytes int64) (VisitResult, error) {
	return b.request(p, host, "download", "", bytes)
}

// ClearCookies deletes first- and third-party cookies — but not
// evercookies, which is precisely why private browsing modes fail
// ("the evercookie that sticks around even if you disable cookies",
// section 2).
func (b *Browser) ClearCookies() {
	b.cookies = make(map[string]string)
	b.trackerCk = make(map[string]string)
	b.saveToDisk()
}

// addCache grows the per-site cache with LRU eviction at the cap.
func (b *Browser) addCache(host string, bytes int64, entropy float64) {
	if _, ok := b.cacheBySite[host]; !ok {
		b.cacheOrder = append(b.cacheOrder, host)
	} else {
		// Move to MRU position.
		for i, h := range b.cacheOrder {
			if h == host {
				b.cacheOrder = append(b.cacheOrder[:i], b.cacheOrder[i+1:]...)
				break
			}
		}
		b.cacheOrder = append(b.cacheOrder, host)
	}
	b.cacheBySite[host] += bytes
	b.cacheTotal += bytes
	for b.cacheTotal > b.cacheCap && len(b.cacheOrder) > 0 {
		victim := b.cacheOrder[0]
		evict := b.cacheBySite[victim]
		need := b.cacheTotal - b.cacheCap
		if evict <= need || victim == host && len(b.cacheOrder) == 1 {
			b.cacheTotal -= evict
			delete(b.cacheBySite, victim)
			b.cacheOrder = b.cacheOrder[1:]
		} else {
			b.cacheBySite[victim] -= need
			b.cacheTotal -= need
		}
	}
	disk := b.anonVM.Disk()
	if disk.FS().Exists(cachePath) {
		delta := b.cacheTotal - b.diskCacheSize()
		disk.GrowVirtual(cachePath, delta, entropy)
	} else {
		disk.WriteVirtual(cachePath, b.cacheTotal, entropy)
	}
}

func (b *Browser) diskCacheSize() int64 {
	if info, err := b.anonVM.Disk().FS().Stat(cachePath); err == nil {
		return info.Size
	}
	return 0
}

// profileDump is the serialized profile metadata.
type profileDump struct {
	Cookies     map[string]string
	Evercookies map[string]string
	TrackerCk   map[string]string
	Creds       map[string]Credential
	CacheBySite map[string]int64
	CacheOrder  []string
	NextID      int
}

// saveToDisk writes profile state through to the AnonVM disk.
func (b *Browser) saveToDisk() {
	disk := b.anonVM.Disk()
	dump := profileDump{
		Cookies:     b.cookies,
		Evercookies: b.evercookies,
		TrackerCk:   b.trackerCk,
		Creds:       b.creds,
		CacheBySite: b.cacheBySite,
		CacheOrder:  b.cacheOrder,
		NextID:      b.nextID,
	}
	meta, err := json.Marshal(dump)
	if err != nil {
		panic(fmt.Sprintf("browser: marshal profile: %v", err))
	}
	disk.WriteFile(cookiesPath, meta)
	histBytes := []byte{}
	for _, h := range b.history {
		histBytes = append(histBytes, h...)
		histBytes = append(histBytes, '\n')
	}
	disk.WriteFile(historyPath, histBytes)
	if b.stain != "" {
		disk.WriteFile(stainPath, []byte(b.stain))
	}
	idx := []byte(strconv.FormatInt(b.cacheTotal, 10))
	disk.WriteFile(cacheIdxPath, idx)
}

// LoadFromDisk restores profile state from the AnonVM disk (after a
// quasi-persistent nym is resumed).
func (b *Browser) LoadFromDisk() {
	fs := b.anonVM.Disk().FS()
	if data, err := fs.ReadFile(cookiesPath); err == nil {
		var dump profileDump
		if json.Unmarshal(data, &dump) == nil {
			if dump.Cookies != nil {
				b.cookies = dump.Cookies
			}
			if dump.Evercookies != nil {
				b.evercookies = dump.Evercookies
			}
			if dump.TrackerCk != nil {
				b.trackerCk = dump.TrackerCk
			}
			if dump.Creds != nil {
				b.creds = dump.Creds
			}
			if dump.CacheBySite != nil {
				b.cacheBySite = dump.CacheBySite
				b.cacheOrder = dump.CacheOrder
				b.cacheTotal = 0
				for _, v := range b.cacheBySite {
					b.cacheTotal += v
				}
			}
			b.nextID = dump.NextID
		}
	}
	if data, err := fs.ReadFile(historyPath); err == nil && len(data) > 0 {
		b.history = nil
		start := 0
		for i, c := range data {
			if c == '\n' {
				b.history = append(b.history, string(data[start:i]))
				start = i + 1
			}
		}
	}
	if data, err := fs.ReadFile(stainPath); err == nil {
		b.stain = string(data)
	}
}
