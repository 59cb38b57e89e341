// Package tracker implements the adversary Nymix defends against: an
// observer who aggregates server-side logs (first-party sites and
// third-party trackers) and tries to link the pseudonyms they contain
// — by shared cookies, by identifying fingerprints, by identifying
// source addresses, and by long-term intersection attacks (paper
// sections 2, 3.3, 3.5 and 7).
//
// The package is pure analysis over webworld observation logs, so the
// same code evaluates Nymix, a Tails-like shared-profile baseline,
// and a Whonix-like static-VM baseline.
package tracker

import (
	"sort"

	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// Config tunes the adversary's linking rules.
type Config struct {
	// SharedAddrs are source addresses known to be shared
	// infrastructure (Tor exits, Dissent servers); they never link.
	SharedAddrs map[string]bool
}

// DefaultConfig returns the standard adversary, which knows no shared
// addresses yet.
func DefaultConfig() Config {
	return Config{SharedAddrs: map[string]bool{}}
}

// fingerprintCrowdMin: a fingerprint seen with at least this many
// distinct cookies is "crowd" (shared hardware/software population)
// and useless as linking evidence. A fingerprint shared by fewer than
// four distinct profiles is treated as identifying — real-world
// fingerprints are close to unique (Eckersley), so only a deliberately
// homogenized population like Nymix's VMs forms a crowd.
const fingerprintCrowdMin = 4

// Identity is a (site, account-or-cookie) pair the adversary tries to
// cluster.
type Identity struct {
	Site string
	ID   string // account name if known, else cookie
}

// Cluster is a set of identities the adversary believes belong to one
// person.
type Cluster struct {
	Identities []Identity
	Evidence   []string // which rules fired
}

// union-find over observation keys.
type dsu struct {
	parent map[string]string
}

func newDSU() *dsu { return &dsu{parent: map[string]string{}} }

func (d *dsu) find(x string) string {
	if d.parent[x] == "" {
		d.parent[x] = x
		return x
	}
	root := x
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[x] != root {
		d.parent[x], x = root, d.parent[x]
	}
	return root
}

func (d *dsu) union(a, b string) { d.parent[d.find(a)] = d.find(b) }

// observationKey gives each visit a clustering key: the account if
// logged in, else the cookie (per site).
func observationKey(v webworld.Visit) string {
	if v.Account != "" {
		return "acct:" + v.Site + "/" + v.Account
	}
	return "ck:" + v.Site + "/" + v.CookieID
}

// Link clusters all observations (first-party + tracker logs) using
// the adversary's rules and returns clusters with 1+ identities.
func Link(cfg Config, visits []webworld.Visit) []Cluster {
	d := newDSU()
	evidence := map[string][]string{}

	// Rule 1: same cookie on the same tracker/site links directly —
	// cookies are unique per browser profile.
	byCookie := map[string][]webworld.Visit{}
	for _, v := range visits {
		if v.CookieID != "" {
			byCookie[v.CookieID] = append(byCookie[v.CookieID], v)
		}
		d.find(observationKey(v))
	}
	for ck, vs := range byCookie {
		for i := 1; i < len(vs); i++ {
			d.union(observationKey(vs[0]), observationKey(vs[i]))
			evidence[ck] = append(evidence[ck], "cookie")
		}
	}

	// Rule 2: identifying fingerprints. Count cookie diversity per
	// fingerprint; below the crowd threshold, the fingerprint links.
	fpCookies := map[string]map[string]bool{}
	for _, v := range visits {
		if v.Fingerprint == "" {
			continue
		}
		if fpCookies[v.Fingerprint] == nil {
			fpCookies[v.Fingerprint] = map[string]bool{}
		}
		fpCookies[v.Fingerprint][v.CookieID] = true
	}
	byFP := map[string][]webworld.Visit{}
	for _, v := range visits {
		if v.Fingerprint == "" {
			continue
		}
		if len(fpCookies[v.Fingerprint]) < fingerprintCrowdMin {
			byFP[v.Fingerprint] = append(byFP[v.Fingerprint], v)
		}
	}
	for fp, vs := range byFP {
		for i := 1; i < len(vs); i++ {
			d.union(observationKey(vs[0]), observationKey(vs[i]))
			evidence[fp] = append(evidence[fp], "fingerprint")
		}
	}

	// Rule 3: identifying source addresses (anything not known-shared).
	byAddr := map[string][]webworld.Visit{}
	for _, v := range visits {
		if v.SourceAddr == "" || cfg.SharedAddrs[v.SourceAddr] {
			continue
		}
		byAddr[v.SourceAddr] = append(byAddr[v.SourceAddr], v)
	}
	for addr, vs := range byAddr {
		for i := 1; i < len(vs); i++ {
			d.union(observationKey(vs[0]), observationKey(vs[i]))
			evidence[addr] = append(evidence[addr], "address")
		}
	}

	// Gather clusters.
	members := map[string]map[Identity]bool{}
	rootEv := map[string]map[string]bool{}
	for _, v := range visits {
		key := observationKey(v)
		root := d.find(key)
		if members[root] == nil {
			members[root] = map[Identity]bool{}
			rootEv[root] = map[string]bool{}
		}
		id := Identity{Site: v.Site, ID: v.CookieID}
		if v.Account != "" {
			id.ID = v.Account
		}
		members[root][id] = true
	}
	for root := range members {
		for _, evs := range evidence {
			for _, e := range evs {
				rootEv[root][e] = true
			}
		}
	}
	var out []Cluster
	roots := make([]string, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, root := range roots {
		var c Cluster
		for id := range members[root] {
			c.Identities = append(c.Identities, id)
		}
		sort.Slice(c.Identities, func(i, j int) bool {
			if c.Identities[i].Site != c.Identities[j].Site {
				return c.Identities[i].Site < c.Identities[j].Site
			}
			return c.Identities[i].ID < c.Identities[j].ID
		})
		for e := range rootEv[root] {
			c.Evidence = append(c.Evidence, e)
		}
		sort.Strings(c.Evidence)
		out = append(out, c)
	}
	return out
}

// Linked reports whether the adversary placed two identities in the
// same cluster.
func Linked(clusters []Cluster, a, b Identity) bool {
	for _, c := range clusters {
		hasA, hasB := false, false
		for _, id := range c.Identities {
			if id == a {
				hasA = true
			}
			if id == b {
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// LargestCluster returns the maximum cluster size (1 = nothing
// linked).
func LargestCluster(clusters []Cluster) int {
	max := 0
	for _, c := range clusters {
		if len(c.Identities) > max {
			max = len(c.Identities)
		}
	}
	return max
}

// --- Long-term intersection attacks (sections 3.5, 7) ---

// IntersectionRound is one epoch of the attack: who was online, and
// whether the pseudonym under attack posted.
type IntersectionRound struct {
	Online []string
	Posted bool
}

// IntersectionAnonymity runs the classic intersection attack: after
// each posting round, the candidate set is intersected with the users
// online during that round. It returns the candidate-set size after
// each posting round — the victim's shrinking anonymity.
func IntersectionAnonymity(rounds []IntersectionRound) []int {
	var candidates map[string]bool
	var sizes []int
	for _, r := range rounds {
		if !r.Posted {
			continue
		}
		online := map[string]bool{}
		for _, u := range r.Online {
			online[u] = true
		}
		if candidates == nil {
			candidates = online
		} else {
			for u := range candidates {
				if !online[u] {
					delete(candidates, u)
				}
			}
		}
		sizes = append(sizes, len(candidates))
	}
	return sizes
}

// --- Guard exposure (section 3.5) ---

// GuardExposure returns the probability that at least one of the
// victim's sessions entered through a malicious guard. With rotation
// (amnesiac nyms: a fresh guard every boot), exposure compounds per
// session; with a persistent guard it is a single draw — the reason
// quasi-persistent nyms preserve Tor state.
func GuardExposure(sessions int, maliciousFrac float64, rotate bool) float64 {
	if sessions <= 0 {
		return 0
	}
	if !rotate {
		return maliciousFrac
	}
	p := 1.0
	for i := 0; i < sessions; i++ {
		p *= 1 - maliciousFrac
	}
	return 1 - p
}

// SimulateGuardExposure Monte-Carlo-validates GuardExposure: it runs
// trials users through the session model and returns the observed
// compromise fraction.
func SimulateGuardExposure(rng *sim.Rand, trials, sessions int, maliciousFrac float64, rotate bool) float64 {
	if trials <= 0 {
		return 0
	}
	compromised := 0
	for t := 0; t < trials; t++ {
		if rotate {
			for s := 0; s < sessions; s++ {
				if rng.Float64() < maliciousFrac {
					compromised++
					break
				}
			}
			continue
		}
		if rng.Float64() < maliciousFrac {
			compromised++
		}
	}
	return float64(compromised) / float64(trials)
}
