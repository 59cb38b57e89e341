// Package webworld builds the simulated Internet the evaluation runs
// against: the LAN gateway the Nymix host plugs into, a backbone
// router, the web sites the paper's workloads visit (Gmail, Twitter,
// YouTube, the Tor Blog, BBC, Facebook, Slashdot, ESPN), a
// kernel.org-like file host for the Figure 5 bulk downloads, and a
// DeterLab-like enclave hosting the test Tor relays and Dissent
// servers (reached at the paper's 80 ms RTT).
//
// Sites keep an observation log of every request they serve — source
// address as seen at the server, tracking cookie, browser fingerprint,
// logged-in account — which internal/tracker mines for linkage, the
// adversarial capability Nymix is designed to frustrate.
package webworld

import (
	"time"

	"nymix/internal/sim"
	"nymix/internal/vnet"
)

// LANTag marks intranet nodes; it must match the hypervisor's filter.
const LANTag = "lan"

// CoreRegion labels the backbone: the default gateway, the Internet
// router, the DeterLab enclave, and the mail exchange. Severing a
// hosting region from CoreRegion cuts that region's hosts off from
// every site, provider, and relay attached to the backbone.
const CoreRegion = "core"

// MixRegion labels the mix-cascade enclave: the mixnet gateway router
// and every mix node. It is its own severable region so chaos
// experiments can cut one hosting region off from the cascade while
// the rest of the fleet's cover traffic keeps flowing.
const MixRegion = "mixnet"

// SiteProfile models a web site's weight and behaviour. Sizes are
// bytes.
type SiteProfile struct {
	Host          string // DNS name, e.g. "twitter.com"
	InitialPage   int64  // cold-cache page weight
	RevisitPage   int64  // warm-cache transfer (deltas, APIs)
	CacheFill     int64  // bytes added to the browser cache per visit
	CacheEntropy  float64
	RequiresLogin bool
	Trackers      []string // third-party trackers embedded in pages
}

// Site is one web property attached to the Internet.
type Site struct {
	Profile SiteProfile
	node    *vnet.Node
	visits  []Visit
	// accounts maps account name -> password for login checking.
	accounts map[string]string
}

// Node returns the site's network node.
func (s *Site) Node() *vnet.Node { return s.node }

// NodeName returns the site's network node name.
func (s *Site) NodeName() string { return s.node.Name() }

// Visit is one server-side observation: everything the site (and its
// trackers) can see about a request.
type Visit struct {
	Time        sim.Time
	Site        string
	SourceAddr  string // network source as seen by the server
	CookieID    string // tracking cookie presented ("" = none)
	Fingerprint string // browser/device fingerprint
	Account     string // authenticated account, if logged in
	Action      string // "browse", "login", "post", "download"
	Payload     string // posted content, if any
}

// RecordVisit appends a server-side observation.
func (s *Site) RecordVisit(v Visit) {
	v.Site = s.Profile.Host
	s.visits = append(s.visits, v)
}

// Visits returns the site's observation log.
func (s *Site) Visits() []Visit { return s.visits }

// CreateAccount registers a pseudonymous account.
func (s *Site) CreateAccount(name, password string) { s.accounts[name] = password }

// CheckLogin verifies credentials.
func (s *Site) CheckLogin(name, password string) bool {
	pw, ok := s.accounts[name]
	return ok && pw == password
}

// Relay is one Tor relay in the test deployment.
type Relay struct {
	NodeName string
	Guard    bool
	Exit     bool
}

// World is the whole simulated Internet.
type World struct {
	eng      *sim.Engine
	net      *vnet.Network
	gateway  *vnet.Node
	internet *vnet.Node
	deterlab *vnet.Node
	ispDNS   *vnet.Node
	intranet *vnet.Node
	mailGW   *vnet.Node       // public mail exchange (SWEET's transport)
	sweetPrx *vnet.Node       // SWEET web proxy reachable only by mail
	sites    map[string]*Site // by DNS host name
	fileHost *Site
	relays   []Relay
	dissent  []string              // Dissent anytrust server node names
	mixes    []string              // mix-cascade node names, entry first
	regions  map[string]*vnet.Node // regional gateway routers by region name
	dns      map[string]string
	// trackerLog collects third-party tracker observations: what
	// doubleclick.net and friends see across every first-party site
	// embedding them.
	trackerLog []Visit
}

// DefaultSites are the paper's workload sites, visited in the Figure 3
// order. Weights are calibrated so Figure 6's size ordering holds
// (Facebook heaviest, the Tor Blog lightest).
func DefaultSites() []SiteProfile {
	return []SiteProfile{
		{Host: "gmail.com", InitialPage: 5 << 20, RevisitPage: 1 << 20, CacheFill: 2400 << 10, CacheEntropy: 0.93, RequiresLogin: true, Trackers: []string{"doubleclick.net"}},
		{Host: "twitter.com", InitialPage: 4 << 20, RevisitPage: 1200 << 10, CacheFill: 2000 << 10, CacheEntropy: 0.94, RequiresLogin: true, Trackers: []string{"doubleclick.net", "adnet.example"}},
		{Host: "youtube.com", InitialPage: 9 << 20, RevisitPage: 4 << 20, CacheFill: 5 << 20, CacheEntropy: 0.98, Trackers: []string{"doubleclick.net"}},
		{Host: "blog.torproject.org", InitialPage: 1200 << 10, RevisitPage: 300 << 10, CacheFill: 700 << 10, CacheEntropy: 0.85},
		{Host: "bbc.co.uk", InitialPage: 3 << 20, RevisitPage: 1 << 20, CacheFill: 1800 << 10, CacheEntropy: 0.92, Trackers: []string{"adnet.example"}},
		{Host: "facebook.com", InitialPage: 7 << 20, RevisitPage: 2 << 20, CacheFill: 4600 << 10, CacheEntropy: 0.95, RequiresLogin: true, Trackers: []string{"facebook-pixel"}},
		{Host: "slashdot.org", InitialPage: 2 << 20, RevisitPage: 800 << 10, CacheFill: 1 << 20, CacheEntropy: 0.9, Trackers: []string{"adnet.example"}},
		{Host: "espn.com", InitialPage: 6 << 20, RevisitPage: 2 << 20, CacheFill: 3 << 20, CacheEntropy: 0.96, Trackers: []string{"doubleclick.net", "adnet.example"}},
	}
}

// The paper's testbed (section 5.2): 9 Tor relays and 3 Dissent
// anytrust servers in the DeterLab enclave, extended with a 3-hop mix
// cascade for the mixnet transport. The first third of the relays are
// guards and the last third exits.
const (
	relayCount   = 9
	dissentCount = 3
	mixCount     = 3
	guardCount   = relayCount / 3
)

// Link parameters. The Nymix host's uplink is rate limited to
// 10 Mbit/s and the DeterLab path gives an 80 ms round trip (paper
// section 5.2); everything else is fast enough not to be the
// bottleneck.
var (
	// UplinkConfig is used by callers to connect the Nymix host.
	UplinkConfig = vnet.LinkConfig{Latency: 5 * time.Millisecond, Capacity: 10e6 / 8}

	backboneCfg = vnet.LinkConfig{Latency: 5 * time.Millisecond, Capacity: 1e9 / 8}
	deterCfg    = vnet.LinkConfig{Latency: 20 * time.Millisecond, Capacity: 1e9 / 8}
	relayCfg    = vnet.LinkConfig{Latency: 10 * time.Millisecond, Capacity: 100e6 / 8}
	siteCfg     = vnet.LinkConfig{Latency: time.Millisecond, Capacity: 1e9 / 8}
	lanCfg      = vnet.LinkConfig{Latency: time.Millisecond, Capacity: 1e9 / 8}
)

// Build constructs the paper's testbed on an existing network.
func Build(net *vnet.Network) *World {
	w := &World{
		eng:     net.Engine(),
		net:     net,
		sites:   make(map[string]*Site),
		regions: make(map[string]*vnet.Node),
		dns:     make(map[string]string),
	}
	w.gateway = net.AddRouter("gateway").WithRegion(CoreRegion).Node
	w.internet = net.AddRouter("internet").WithRegion(CoreRegion).Node
	w.deterlab = net.AddRouter("deterlab").WithRegion(CoreRegion).Node
	w.ispDNS = net.AddNode("isp-dns")
	w.intranet = net.AddNode("intranet-fileserver").AddTag(LANTag)
	w.mailGW = net.AddRouter("mail-gateway").WithRegion(CoreRegion).Node
	w.sweetPrx = net.AddNode("sweet-proxy")
	net.Connect(w.gateway, w.internet, backboneCfg)
	net.Connect(w.internet, w.deterlab, deterCfg)
	net.Connect(w.gateway, w.ispDNS, lanCfg)
	net.Connect(w.gateway, w.intranet, lanCfg)
	net.Connect(w.mailGW, w.internet, siteCfg)
	net.Connect(w.sweetPrx, w.mailGW, siteCfg)

	for _, prof := range DefaultSites() {
		w.addSiteAt(prof, w.internet, siteCfg)
	}
	// The bulk-download server lives inside DeterLab, "in order to
	// guarantee the 10 Mbit download rate" (section 5.2).
	w.fileHost = w.addSiteAt(SiteProfile{Host: "kernel.deterlab.net", InitialPage: 64 << 10, RevisitPage: 64 << 10}, w.deterlab, relayCfg)

	for i := 0; i < relayCount; i++ {
		name := relayName(i)
		n := net.AddNode(name)
		net.Connect(n, w.deterlab, relayCfg)
		w.relays = append(w.relays, Relay{
			NodeName: name,
			Guard:    i < guardCount,
			Exit:     i >= relayCount-guardCount,
		})
	}
	for i := 0; i < dissentCount; i++ {
		name := dissentName(i)
		n := net.AddNode(name)
		net.Connect(n, w.deterlab, relayCfg)
		w.dissent = append(w.dissent, name)
	}
	// The mix cascade lives in its own enclave behind a regional
	// gateway, so SeverRegions can cut a hosting region off from the
	// mixes without touching the rest of the backbone.
	mixGW := net.AddRouter("mixnet-gw").WithRegion(MixRegion).Node
	net.Connect(mixGW, w.internet, backboneCfg)
	for i := 0; i < mixCount; i++ {
		name := mixName(i)
		n := net.AddNode(name).SetRegion(MixRegion)
		net.Connect(n, mixGW, relayCfg)
		w.mixes = append(w.mixes, name)
	}
	return w
}

// BuildDefault creates a fresh engine-bound network and its world.
func BuildDefault(eng *sim.Engine) (*vnet.Network, *World) {
	net := vnet.New(eng)
	return net, Build(net)
}

func relayName(i int) string { return "relay-" + string(rune('a'+i)) }

func dissentName(i int) string { return "dissent-srv-" + string(rune('0'+i)) }

func mixName(i int) string { return "mix-" + string(rune('a'+i)) }

func (w *World) addSiteAt(prof SiteProfile, attach *vnet.Node, cfg vnet.LinkConfig) *Site {
	node := w.net.AddNode("site:" + prof.Host)
	w.net.Connect(node, attach, cfg)
	s := &Site{Profile: prof, node: node, accounts: make(map[string]string)}
	w.sites[prof.Host] = s
	w.dns[prof.Host] = node.Name()
	return s
}

// Gateway returns the LAN gateway node the Nymix host uplinks to.
func (w *World) Gateway() *vnet.Node { return w.gateway }

// EnsureRegion returns the regional gateway router for a named
// hosting region, creating it (and its backbone link) on first use.
// Hosts attached to a regional gateway inherit its region label, so
// vnet.SeverRegions can partition whole regions from each other or
// from the CoreRegion backbone.
func (w *World) EnsureRegion(name string) *vnet.Node {
	if gw, ok := w.regions[name]; ok {
		return gw
	}
	gw := w.net.AddRouter("region:" + name).WithRegion(name).Node
	w.net.Connect(gw, w.internet, backboneCfg)
	w.regions[name] = gw
	return gw
}

// Internet returns the backbone router.
func (w *World) Internet() *vnet.Node { return w.internet }

// ISPDNS returns the ISP's resolver node (used by the incognito
// mode's leaky direct DNS path).
func (w *World) ISPDNS() *vnet.Node { return w.ispDNS }

// Intranet returns the LAN-tagged intranet host.
func (w *World) Intranet() *vnet.Node { return w.intranet }

// MailGateway returns the public mail exchange node.
func (w *World) MailGateway() *vnet.Node { return w.mailGW }

// SweetProxy returns the SWEET web proxy, reachable only through the
// mail gateway.
func (w *World) SweetProxy() *vnet.Node { return w.sweetPrx }

// Net returns the underlying network.
func (w *World) Net() *vnet.Network { return w.net }

// Site returns the site for a DNS host name, or nil.
func (w *World) Site(host string) *Site { return w.sites[host] }

// Relays returns the Tor test deployment.
func (w *World) Relays() []Relay { return w.relays }

// DissentServers returns the anytrust server node names.
func (w *World) DissentServers() []string { return w.dissent }

// MixCascade returns the mix-cascade node names in hop order (entry
// first, exit last).
func (w *World) MixCascade() []string { return w.mixes }

// Lookup resolves a DNS host name to a network node name.
func (w *World) Lookup(host string) (string, bool) {
	n, ok := w.dns[host]
	return n, ok
}

// Resolver returns a lookup function suitable for anonymizers.
func (w *World) Resolver() func(string) (string, bool) {
	return func(host string) (string, bool) { return w.Lookup(host) }
}

// RecordTracker logs a third-party tracker observation. v.Site should
// name the tracker (e.g. "doubleclick.net"); Payload names the
// first-party page it was embedded in.
func (w *World) RecordTracker(v Visit) { w.trackerLog = append(w.trackerLog, v) }

// TrackerLog returns all third-party tracker observations.
func (w *World) TrackerLog() []Visit { return w.trackerLog }

// AllVisits gathers every site's observation log, in site order then
// time order — the global adversary's view of the server side.
func (w *World) AllVisits() []Visit {
	var out []Visit
	for _, prof := range DefaultSites() {
		out = append(out, w.sites[prof.Host].visits...)
	}
	return append(out, w.fileHost.visits...)
}
