package experiments

import (
	"fmt"

	"nymix/internal/buddies"
	"nymix/internal/core"
	"nymix/internal/sim"
	"nymix/internal/tracker"
	"nymix/internal/webworld"
)

// The ablations quantify design decisions the paper argues
// qualitatively: guard persistence (section 3.5), stain lifetime
// under the three usage models (sections 3.3/3.5), and the structural
// unlinkability of separate nymboxes versus a shared browser profile
// (section 3.1).

// GuardExposureRow compares entry-guard strategies against a network
// with the given fraction of malicious guards.
type GuardExposureRow struct {
	Sessions   int
	Rotating   float64 // fresh guard each boot (pure amnesia)
	Persistent float64 // quasi-persistent nym keeps its guard
	MonteCarlo float64 // simulated rotating exposure (sanity check)
}

// AblationGuardExposure computes compromise probability over session
// counts — why "if Alice uses a pure amnesiac system..., Tor is
// forced to choose a new entry relay each time she boots, greatly
// increasing her vulnerability to intersection attacks".
func AblationGuardExposure(seed uint64, maliciousFrac float64) []GuardExposureRow {
	rng := sim.NewRand(seed + 600)
	var rows []GuardExposureRow
	for _, sessions := range []int{1, 5, 10, 20, 30, 50} {
		rows = append(rows, GuardExposureRow{
			Sessions:   sessions,
			Rotating:   tracker.GuardExposure(sessions, maliciousFrac, true),
			Persistent: tracker.GuardExposure(sessions, maliciousFrac, false),
			MonteCarlo: tracker.SimulateGuardExposure(rng, 4000, sessions, maliciousFrac, true),
		})
	}
	return rows
}

// RenderGuardExposure prints the ablation.
func RenderGuardExposure(rows []GuardExposureRow, frac float64) string {
	var t table
	t.row(fmt.Sprintf("# Ablation: entry-guard exposure (%.0f%% malicious guards)", 100*frac))
	t.row("sessions", "rotating", "persistent", "rotating_mc")
	for _, r := range rows {
		t.row(fmt.Sprint(r.Sessions), fmt.Sprintf("%.3f", r.Rotating),
			fmt.Sprintf("%.3f", r.Persistent), fmt.Sprintf("%.3f", r.MonteCarlo))
	}
	return t.String()
}

// StainRow reports whether a stain planted in session 1 still links
// the nym's sessions k sessions later, per usage model.
type StainRow struct {
	Model          core.UsageModel
	StainSurvives  bool // the marker is still in the profile next session
	SessionsLinked bool // the adversary linked session 1 and session 2
}

// AblationStaining runs the stain experiment: an exploit stains the
// browser in session one; does the adversary link the next session?
func AblationStaining(seed uint64) ([]StainRow, error) {
	var rows []StainRow
	for mi, model := range []core.UsageModel{core.ModelEphemeral, core.ModelPreconfigured, core.ModelPersistent} {
		eng, world, mgr, err := newRig(seed + uint64(700+mi))
		if err != nil {
			return nil, err
		}
		dest := core.StoreDest{Provider: "dropbin", Account: fmt.Sprintf("stain-%d", mi), AccountPassword: "c"}
		var row StainRow
		row.Model = model
		err = eng.RunProc("stain", func(p *sim.Proc) error {
			// Session 1: browse, get stained mid-session.
			nym, err := mgr.StartNym(p, "victim", core.Options{Model: model})
			if err != nil {
				return err
			}
			if model == core.ModelPreconfigured {
				// Golden snapshot taken before the exploit lands.
				if _, err := mgr.StoreNym(p, nym, "pw", dest); err != nil {
					return err
				}
			}
			if _, err := nym.Visit(p, "slashdot.org"); err != nil {
				return err
			}
			nym.Browser().Stain("mullenize-7")
			if _, err := nym.Visit(p, "slashdot.org"); err != nil {
				return err
			}
			if model == core.ModelPersistent {
				if _, err := mgr.StoreNym(p, nym, "pw", dest); err != nil {
					return err
				}
			}
			if err := mgr.TerminateNym(p, nym); err != nil {
				return err
			}
			// Session 2: per model.
			var next *core.Nym
			if model == core.ModelEphemeral {
				next, err = mgr.StartNym(p, "victim-2", core.Options{Model: model})
			} else {
				next, err = mgr.LoadNym(p, "victim", "pw", core.Options{Model: model}, dest)
			}
			if err != nil {
				return err
			}
			row.StainSurvives = next.Browser().Stained()
			if _, err := next.Visit(p, "slashdot.org"); err != nil {
				return err
			}
			return mgr.TerminateNym(p, next)
		})
		if err != nil {
			return nil, err
		}
		// The adversary links sessions through identifying fingerprints.
		cfg := sharedExitConfig(world)
		clusters := tracker.Link(cfg, append(world.AllVisits(), world.TrackerLog()...))
		row.SessionsLinked = tracker.LargestCluster(clusters) > 1 && row.StainSurvives
		rows = append(rows, row)
	}
	return rows, nil
}

// sharedExitConfig marks all Tor exits and Dissent servers as shared
// infrastructure the adversary cannot link on.
func sharedExitConfig(world *webworld.World) tracker.Config {
	cfg := tracker.DefaultConfig()
	for _, r := range world.Relays() {
		cfg.SharedAddrs[r.NodeName] = true
	}
	for _, s := range world.DissentServers() {
		cfg.SharedAddrs[s] = true
	}
	return cfg
}

// RenderStaining prints the ablation.
func RenderStaining(rows []StainRow) string {
	var t table
	t.row("# Ablation: stain lifetime by usage model")
	t.row("model", "stain_survives", "sessions_linked")
	for _, r := range rows {
		t.row(string(r.Model), fmt.Sprint(r.StainSurvives), fmt.Sprint(r.SessionsLinked))
	}
	return t.String()
}

// LinkageRow compares role isolation strategies against the tracker.
type LinkageRow struct {
	Strategy       string
	Roles          int
	LargestCluster int // 1 = fully unlinkable
}

// AblationLinkage plays Alice's three roles (work, family, private)
// through (a) three Nymix nyms and (b) one shared browser profile on
// a native fingerprint, and asks the tracker to link them.
func AblationLinkage(seed uint64) ([]LinkageRow, error) {
	sites := []string{"gmail.com", "facebook.com", "twitter.com"}

	// (a) Nymix: one nym per role.
	eng, world, mgr, err := newRig(seed + 800)
	if err != nil {
		return nil, err
	}
	err = eng.RunProc("nymix-roles", func(p *sim.Proc) error {
		for i, site := range sites {
			nym, err := mgr.StartNym(p, fmt.Sprintf("role-%d", i), core.Options{})
			if err != nil {
				return err
			}
			if _, err := nym.Browser().Login(p, site, fmt.Sprintf("alice-role-%d", i), "pw"); err != nil {
				return err
			}
			if err := mgr.TerminateNym(p, nym); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg := sharedExitConfig(world)
	nymixClusters := tracker.Link(cfg, append(world.AllVisits(), world.TrackerLog()...))

	// (b) Baseline: the same three roles from one browser profile
	// (Tails-like single browser: one fingerprint, shared tracker
	// cookies). Modeled directly as observations.
	var baseline []webworld.Visit
	fp := "firefox-24/alice-laptop/1440x900"
	for i, site := range sites {
		baseline = append(baseline, webworld.Visit{
			Site: site, SourceAddr: "exit-shared", CookieID: fmt.Sprintf("ck-%d", i),
			Fingerprint: fp, Account: fmt.Sprintf("alice-role-%d", i),
		})
	}
	baseCfg := tracker.DefaultConfig()
	baseCfg.SharedAddrs["exit-shared"] = true
	baseClusters := tracker.Link(baseCfg, baseline)

	return []LinkageRow{
		{Strategy: "nymix-per-role-nyms", Roles: len(sites), LargestCluster: tracker.LargestCluster(nymixClusters)},
		{Strategy: "single-browser-baseline", Roles: len(sites), LargestCluster: tracker.LargestCluster(baseClusters)},
	}, nil
}

// RenderLinkage prints the ablation.
func RenderLinkage(rows []LinkageRow) string {
	var t table
	t.row("# Ablation: role linkability (largest cluster; 1 = unlinkable)")
	t.row("strategy", "roles", "largest_cluster")
	for _, r := range rows {
		t.row(r.Strategy, fmt.Sprint(r.Roles), fmt.Sprint(r.LargestCluster))
	}
	return t.String()
}

// BuddiesRow is one round of the Buddies ablation: a victim posting
// over many epochs while the online population churns, with and
// without the anonymity gate.
type BuddiesRow struct {
	Round             int
	OnlineUsers       int
	UngatedCandidates int // intersection-attack set without Buddies
	GatedCandidates   int // with Buddies (floor enforced)
	GatedSuppressed   bool
}

// AblationBuddies quantifies the section 7 plan ("we plan to
// integrate Buddies"): the victim tries to post every round; the
// population shrinks over time. Without Buddies the candidate set
// collapses; with a floor of K the monitor suppresses the dangerous
// posts and the set never drops below K.
func AblationBuddies(seed uint64, floor int, rounds int) []BuddiesRow {
	rng := sim.NewRand(seed + 900)
	const population = 24
	users := make([]string, population)
	for i := range users {
		users[i] = fmt.Sprintf("user-%02d", i)
	}
	gated := buddies.NewMonitor()
	gated.Register("victim", buddies.Policy{MinAnonymitySet: floor})
	ungated := buddies.NewMonitor()
	ungated.Register("victim", buddies.Policy{MinAnonymitySet: 1})

	var rows []BuddiesRow
	for r := 0; r < rounds; r++ {
		// Online population shrinks over time; the victim (user-00) is
		// always online when posting.
		online := []string{users[0]}
		for _, u := range users[1:] {
			frac := 0.9 - 0.8*float64(r)/float64(rounds)
			if rng.Float64() < frac {
				online = append(online, u)
			}
		}
		gated.BeginRound(online)
		ungated.BeginRound(online)
		ungated.RequestPost("victim")
		err := gated.RequestPost("victim")
		rows = append(rows, BuddiesRow{
			Round:             r + 1,
			OnlineUsers:       len(online),
			UngatedCandidates: ungated.AnonymitySet("victim"),
			GatedCandidates:   gated.AnonymitySet("victim"),
			GatedSuppressed:   err != nil,
		})
	}
	return rows
}

// RenderBuddies prints the ablation.
func RenderBuddies(rows []BuddiesRow, floor int) string {
	var t table
	t.row(fmt.Sprintf("# Ablation: Buddies post gating (floor %d)", floor))
	t.row("round", "online", "ungated_set", "gated_set", "suppressed")
	for _, r := range rows {
		t.row(fmt.Sprint(r.Round), fmt.Sprint(r.OnlineUsers),
			fmt.Sprint(r.UngatedCandidates), fmt.Sprint(r.GatedCandidates),
			fmt.Sprint(r.GatedSuppressed))
	}
	return t.String()
}
