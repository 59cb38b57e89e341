package slo

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"nymix/internal/cluster"
	"nymix/internal/fleet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
)

// FailureCount is one bucket of the failure taxonomy: how many
// recorded failures classified to a code.
type FailureCount struct {
	Code  nymerr.Code
	Count int
}

// MemberHealth is one member's slice of the report: where it runs and
// its failure history bucketed by code. Only members with a non-empty
// history appear.
type MemberHealth struct {
	Member   string
	Host     string // "" in a single-orchestrator report
	Failures []FailureCount
}

// Report is the fleet-wide SLO snapshot: the restart, sweep, and
// migration machinery aggregated into one typed structure. nymixctl
// status renders it; the chaos suites assert Unclassified == 0 on it.
type Report struct {
	At sim.Time // simulated timestamp of the snapshot

	// Pool shape. A single-orchestrator report is a one-host pool.
	Hosts        int
	ActiveHosts  int
	RetiredHosts int

	// Member population.
	Members int
	Running int
	Failed  int

	// Failure taxonomy over every recorded FailureRecord.
	TotalFailures  int
	Unclassified   int // records whose error carried no registered code
	FailuresByCode []FailureCount
	MemberHealth   []MemberHealth // host order, then name order within a host

	// Ramp latency: admission queue entry to Running, over members
	// that reached Running at least once.
	Ramp fleet.Spread

	// Restart / preemption / migration machinery: absolute counts and
	// events per simulated hour.
	Restarts       int
	Preempted      fleet.PreemptStats
	Migrations     int
	RestartRate    float64
	PreemptionRate float64
	MigrationRate  float64

	// Checkpoint sweep machinery. SweepErrors counts each failed save
	// once, plus the cluster coordinator's own failures (batched moves,
	// idle-slot GC).
	Sweeps         int
	SweepBackoffs  int
	SweepErrors    int
	DirtySkipRatio float64
	SweepLatency   fleet.Spread
	// Staleness: gaps between one host's consecutive completed sweep
	// passes, pooled over hosts — how stale a checkpoint is allowed to
	// get under backoff pressure.
	Staleness fleet.Spread
	// Adaptive checkpoint economy: members the churn-adaptive cadence
	// postponed, and per-save member staleness (how old each saved
	// member's oldest unsaved mutation could have been when its save
	// launched — sample-pooled across hosts).
	SweepDeferred   int
	MemberStaleness fleet.Spread
	// Opportunistic VaultGC spend and recovery (cluster reports only).
	GCRuns           int
	GCReclaimedBytes int64
	GCWireBytes      int64

	// Checkpoint wire budgets: bytes actually shipped vs what
	// monolithic re-uploads would have cost, plus migration traffic.
	CheckpointWireBytes     int64
	CheckpointBaselineBytes int64
	MigrationWireBytes      int64

	// Cover-traffic wire budgets. WireReservedRate is the standing
	// idle uplink (bytes/sec) the admitted fleet holds against
	// WireBudgetRate (-1 = uncapped); CoverWireBytes is what the
	// running members' constant-rate transports have actually sent —
	// uplink the pool pays even when every browser is idle.
	WireReservedRate int64
	WireBudgetRate   int64
	CoverWireBytes   int64
}

// WireSavings is the fraction of the monolithic baseline the
// incremental checkpoint path avoided shipping.
func (r Report) WireSavings() float64 {
	if r.CheckpointBaselineBytes == 0 {
		return 0
	}
	return 1 - float64(r.CheckpointWireBytes)/float64(r.CheckpointBaselineBytes)
}

// FromFleet snapshots one orchestrator as a one-host pool.
func FromFleet(o *fleet.Orchestrator) Report {
	b := builder{}
	b.r.At = o.Manager().Engine().Now()
	b.r.Hosts, b.r.ActiveHosts = 1, 1
	b.addMembers("", o.Members(), nil)
	b.addFailures("", o.Failures())
	b.addSweeps(o.SweepReport())
	b.stale = append(b.stale, o.CheckpointStaleness()...)
	b.r.Preempted = o.Preemptions()
	b.r.WireReservedRate = o.WireReservedRate()
	b.r.WireBudgetRate = o.WireBudgetRate()
	return b.finish()
}

// FromCluster snapshots the whole pool, retired hosts included: their
// failure histories and sweep telemetry are part of the run even
// though the hosts no longer take placements.
func FromCluster(c *cluster.Cluster) Report {
	st := c.Snapshot()
	b := builder{}
	b.r.Hosts, b.r.ActiveHosts, b.r.RetiredHosts = st.Hosts, st.ActiveHosts, st.RetiredHosts
	b.r.Migrations = st.Migrations
	b.r.Preempted = st.Preempted
	b.r.MigrationWireBytes = st.MigrationWireBytes
	b.r.WireReservedRate = st.WireReservedRate
	for _, h := range c.Hosts() {
		budget := h.Fleet().WireBudgetRate()
		if budget < 0 {
			b.r.WireBudgetRate = -1
			break
		}
		b.r.WireBudgetRate += budget
	}
	hosts := append(c.Hosts(), c.RetiredHosts()...)
	if len(hosts) > 0 {
		b.r.At = hosts[0].Manager().Engine().Now()
	}
	for _, h := range hosts {
		// Cluster ramp latency runs from cluster-wide queue entry, not
		// host-side admission: time parked in the cluster queue is
		// latency the user saw.
		b.addMembers(h.Name(), h.Fleet().Members(), c.LaunchedAt)
		b.addFailures(h.Name(), h.Fleet().Failures())
		b.addSweeps(h.Fleet().SweepReport())
		b.stale = append(b.stale, h.Fleet().CheckpointStaleness()...)
	}
	crep := c.SweepReport()
	b.r.GCRuns = crep.GCRuns
	b.r.GCReclaimedBytes = crep.GCReclaimedBytes
	b.r.GCWireBytes = crep.GCWireBytes
	b.r.CheckpointWireBytes += crep.GCWireBytes
	b.r.SweepErrors += crep.CoordinatorErrors
	return b.finish()
}

// builder accumulates raw samples across hosts before the percentile
// and rate math in finish.
type builder struct {
	r         Report
	sweeps    fleet.SweepTally
	ramps     []time.Duration
	sweepLats []time.Duration
	passGaps  []time.Duration
	stale     []time.Duration
}

func (b *builder) addMembers(host string, members []*fleet.Member, launchedAt func(string) (sim.Time, bool)) {
	for _, m := range members {
		b.r.Members++
		switch m.State() {
		case fleet.StateRunning:
			b.r.Running++
		case fleet.StateFailed:
			b.r.Failed++
		}
		b.r.Restarts += m.Restarts()
		if nym := m.Nym(); nym != nil {
			// Constant-rate transports report the cover traffic they
			// have spent; demand-driven backends simply lack the method.
			if cov, ok := nym.Anonymizer().(interface{ CoverWireBytes() int64 }); ok {
				b.r.CoverWireBytes += cov.CoverWireBytes()
			}
		}
		if m.RunningAt() > 0 {
			start := m.QueuedAt()
			if launchedAt != nil {
				if t, ok := launchedAt(m.Name()); ok {
					start = t
				}
			}
			if lat := m.RunningAt() - start; lat >= 0 {
				b.ramps = append(b.ramps, lat)
			}
		}
	}
}

func (b *builder) addFailures(host string, recs []fleet.FailureRecord) {
	byMember := map[string]map[nymerr.Code]int{}
	for _, rec := range recs {
		b.r.TotalFailures++
		if rec.Code == "" {
			b.r.Unclassified++
		}
		if byMember[rec.Member] == nil {
			byMember[rec.Member] = map[nymerr.Code]int{}
		}
		byMember[rec.Member][rec.Code]++
	}
	names := make([]string, 0, len(byMember))
	for name := range byMember {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.r.MemberHealth = append(b.r.MemberHealth, MemberHealth{
			Member:   name,
			Host:     host,
			Failures: sortedCounts(byMember[name]),
		})
	}
}

// addSweeps folds one host's sweep report. Pass gaps are taken within
// the host: gaps between different hosts' passes are slot spacing, not
// staleness.
func (b *builder) addSweeps(rep fleet.SweepReport) {
	b.r.Sweeps += rep.Sweeps
	b.r.SweepBackoffs += rep.Backoffs
	b.sweeps.Add(rep.SweepTally)
	var passAts []sim.Time
	for _, rec := range rep.Records {
		if rec.BackedOff {
			continue
		}
		b.sweepLats = append(b.sweepLats, rec.Elapsed)
		passAts = append(passAts, rec.At)
	}
	slices.Sort(passAts)
	for i := 1; i < len(passAts); i++ {
		b.passGaps = append(b.passGaps, passAts[i]-passAts[i-1])
	}
}

// finish folds the accumulated samples into percentiles and rates.
func (b *builder) finish() Report {
	r := &b.r
	r.SweepErrors += b.sweeps.Errors
	r.SweepDeferred = b.sweeps.Deferred
	r.DirtySkipRatio = b.sweeps.DirtySkipRatio()
	r.CheckpointWireBytes += b.sweeps.WireBytes()
	r.CheckpointBaselineBytes = b.sweeps.BaselineBytes
	r.Ramp = fleet.SpreadOf(b.ramps)
	r.SweepLatency = fleet.SpreadOf(b.sweepLats)
	r.Staleness = fleet.SpreadOf(b.passGaps)
	r.MemberStaleness = fleet.SpreadOf(b.stale)
	if hours := r.At.Hours(); hours > 0 {
		r.RestartRate = float64(r.Restarts) / hours
		r.PreemptionRate = float64(r.Preempted.Total()) / hours
		r.MigrationRate = float64(r.Migrations) / hours
	}
	totals := map[nymerr.Code]int{}
	for _, mh := range r.MemberHealth {
		for _, fc := range mh.Failures {
			totals[fc.Code] += fc.Count
		}
	}
	r.FailuresByCode = sortedCounts(totals)
	return *r
}

// sortedCounts flattens a bucket map, descending count then code.
func sortedCounts(m map[nymerr.Code]int) []FailureCount {
	out := make([]FailureCount, 0, len(m))
	for code, n := range m {
		out = append(out, FailureCount{Code: code, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// Render formats the report the way nymixctl status prints it.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLO report @ %v\n", r.At)
	fmt.Fprintf(&b, "  pool:        %d hosts (%d active, %d retired)\n",
		r.Hosts, r.ActiveHosts, r.RetiredHosts)
	fmt.Fprintf(&b, "  members:     %d (%d running, %d failed)\n",
		r.Members, r.Running, r.Failed)
	fmt.Fprintf(&b, "  ramp:        p50 %v  p95 %v  max %v\n",
		r.Ramp.P50, r.Ramp.P95, r.Ramp.Max)
	fmt.Fprintf(&b, "  restarts:    %d (%.2f/h)   preemptions: %d (%.2f/h)   migrations: %d (%.2f/h)\n",
		r.Restarts, r.RestartRate, r.Preempted.Total(), r.PreemptionRate, r.Migrations, r.MigrationRate)
	fmt.Fprintf(&b, "  sweeps:      %d passes, %d backoffs, %d errors, %d deferred, dirty-skip %.0f%%\n",
		r.Sweeps, r.SweepBackoffs, r.SweepErrors, r.SweepDeferred, 100*r.DirtySkipRatio)
	fmt.Fprintf(&b, "  sweep lat:   p50 %v  p95 %v   staleness p50 %v  max %v\n",
		r.SweepLatency.P50, r.SweepLatency.P95, r.Staleness.P50, r.Staleness.Max)
	if r.MemberStaleness.Max > 0 {
		fmt.Fprintf(&b, "  ckpt stale:  p50 %v  p95 %v  max %v per saved member\n",
			r.MemberStaleness.P50, r.MemberStaleness.P95, r.MemberStaleness.Max)
	}
	if r.GCRuns > 0 {
		fmt.Fprintf(&b, "  vault gc:    %d runs, %s reclaimed for %s of probe wire\n",
			r.GCRuns, fmtBytes(r.GCReclaimedBytes), fmtBytes(r.GCWireBytes))
	}
	fmt.Fprintf(&b, "  ckpt wire:   %s shipped vs %s baseline (%.0f%% saved)   migration wire: %s\n",
		fmtBytes(r.CheckpointWireBytes), fmtBytes(r.CheckpointBaselineBytes),
		100*r.WireSavings(), fmtBytes(r.MigrationWireBytes))
	budget := "uncapped"
	if r.WireBudgetRate >= 0 {
		budget = fmtBytes(r.WireBudgetRate) + "/s"
	}
	fmt.Fprintf(&b, "  cover wire:  %s/s reserved of %s   %s sent while idle or busy\n",
		fmtBytes(r.WireReservedRate), budget, fmtBytes(r.CoverWireBytes))
	fmt.Fprintf(&b, "  failures:    %d recorded, %d unclassified\n", r.TotalFailures, r.Unclassified)
	for _, fc := range r.FailuresByCode {
		fmt.Fprintf(&b, "    %-36s %d\n", string(fc.Code), fc.Count)
	}
	for _, mh := range r.MemberHealth {
		loc := mh.Member
		if mh.Host != "" {
			loc = mh.Member + "@" + mh.Host
		}
		var parts []string
		for _, fc := range mh.Failures {
			parts = append(parts, fmt.Sprintf("%s x%d", fc.Code, fc.Count))
		}
		fmt.Fprintf(&b, "    %-20s %s\n", loc, strings.Join(parts, ", "))
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
