package cluster

import (
	"testing"
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// eastWest places even-indexed hosts in "east" and odd-indexed ones
// in "west".
func eastWest(i int) string {
	if i%2 == 0 {
		return "east"
	}
	return "west"
}

// clusterVault is the vault destination the cluster's sweeps and
// migrations write to (mirrors the cluster default config).
var testVault = core.VaultDest{
	Providers: []string{"dropbin"}, Account: "acct-part", AccountPassword: "cloud-pw",
}

// assertNoLeaks sums host reservations and compares against the
// footprints of the nyms that should still be placed.
func assertNoLeaks(t *testing.T, c *Cluster, want int64) {
	t.Helper()
	var got int64
	for _, h := range c.Hosts() {
		got += h.Fleet().ReservedBytes()
	}
	if got != want {
		t.Errorf("cluster reservations = %d bytes, want %d (leak or double-release)", got, want)
	}
}

// assertAllClassified fails on any failure record without a
// registered code and on any unclassifiable sweep error.
func assertAllClassified(t *testing.T, c *Cluster) {
	t.Helper()
	for _, h := range c.Hosts() {
		for _, f := range h.Fleet().Failures() {
			if f.Code == "" {
				t.Errorf("unclassified failure on %s: %s %s: %v", h.Name(), f.Member, f.Op, f.Err)
			}
		}
	}
	for _, err := range c.SweepErrors() {
		if nymerr.Classify(err) == "" {
			t.Errorf("unclassified sweep error: %v", err)
		}
	}
}

// TestMigrationCrossesAsymmetricPeerPartition: the source host can
// reach the cloud providers but not its migration peer — and in the
// second leg, the peer cannot reach it. Because the vault is the
// migration channel (no host-to-host traffic), both moves must
// succeed without falling back to an older checkpoint, leak nothing,
// and leave every recorded failure typed.
func TestMigrationCrossesAsymmetricPeerPartition(t *testing.T) {
	eng, c := newCluster(t, 31, 2, 16<<30, Config{RegionFor: eastWest})
	net := c.Hosts()[0].Manager().World().Net()
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(2, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := c.AwaitRunning(p, 2); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		east, west := c.Hosts()[0], c.Hosts()[1]
		if got := east.Manager().Host().Node().Region(); got != "east" {
			t.Fatalf("host 0 region = %q", got)
		}
		var eastNym string
		for _, m := range east.Fleet().Members() {
			eastNym = m.Name()
		}
		if eastNym == "" {
			t.Fatal("no nym placed on the east host")
		}

		// Leg 1: the source can see the providers but not the peer.
		net.SeverRegionsOneWay("east", "west")
		if net.CanReach(east.Name(), west.Name(), "probe") {
			t.Error("east->west should be dark")
		}
		if !net.CanReach(west.Name(), east.Name(), "probe") {
			t.Error("west->east should still route")
		}
		if !net.CanReach(east.Name(), "cloud:dropbin", "https") || !net.CanReach(west.Name(), "cloud:dropbin", "https") {
			t.Error("both hosts must still reach the providers")
		}
		rep, err := c.MigrateNym(p, eastNym, west.Name())
		if err != nil {
			t.Errorf("migration across peer partition: %v", err)
			return
		}
		if rep.Retried {
			t.Error("peer partition forced a checkpoint fallback — the vault channel should not care")
		}
		if c.HostOf(eastNym) != west {
			t.Error("placement not updated")
		}

		// Leg 2: the reverse asymmetry — now the destination cannot
		// reach the source.
		net.HealRegions("east", "west")
		net.SeverRegionsOneWay("west", "east")
		rep, err = c.MigrateNym(p, eastNym, east.Name())
		if err != nil {
			t.Errorf("migration against reverse partition: %v", err)
			return
		}
		if rep.Retried {
			t.Error("reverse peer partition forced a fallback")
		}
		if err := c.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	assertNoLeaks(t, c, 0)
	assertAllClassified(t, c)
}

// TestSweepRoundSurvivesPeerPartition: a full peer partition between
// the hosting regions does not touch sweep traffic — sweeps only talk
// to the providers — so rounds complete on both sides with zero
// errors.
func TestSweepRoundSurvivesPeerPartition(t *testing.T) {
	eng, c := newCluster(t, 33, 2, 16<<30, Config{RegionFor: eastWest})
	net := c.Hosts()[0].Manager().World().Net()
	run(t, eng, func(p *sim.Proc) {
		if err := c.LaunchAll(specs(4, core.ModelPersistent)); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := c.AwaitRunning(p, 4); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		net.SeverRegions("east", "west")
		if err := c.StartSweeps(SweepConfig{Interval: 15 * time.Second, Tokens: 1, Cadence: fleet.Cadence{Mode: fleet.CadenceAll}}); err != nil {
			t.Errorf("start sweeps: %v", err)
			return
		}
		p.Sleep(50 * time.Second)
		c.StopSweeps()
		c.AwaitSweepsIdle(p)
		if errs := c.SweepErrors(); len(errs) != 0 {
			t.Errorf("sweeps failed under a peer-only partition: %v", errs)
		}
		hosts := map[string]bool{}
		for _, s := range c.SweepSlots() {
			if !s.Paused && s.End > s.Start {
				hosts[s.Host] = true
			}
		}
		if len(hosts) != 2 {
			t.Errorf("sweeps completed on %d hosts, want both sides of the partition", len(hosts))
		}
		if err := c.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	assertNoLeaks(t, c, 0)
	assertAllClassified(t, c)
}

// TestMigrationFallsBackWhenSourceProvidersSevered: the inverse
// asymmetry — the source host keeps its peer link but loses the
// providers. The migration's fresh save fails typed, the cluster
// falls back to the last vault checkpoint, and the nym lands on the
// destination with no reservation leaked on either side.
func TestMigrationFallsBackWhenSourceProvidersSevered(t *testing.T) {
	eng, c := newCluster(t, 37, 2, 16<<30, Config{RegionFor: eastWest})
	net := c.Hosts()[0].Manager().World().Net()
	var fp int64
	run(t, eng, func(p *sim.Proc) {
		opts := smallOpts(core.ModelPersistent)
		opts.GuardSeed = "carol"
		fp = opts.Footprint()
		if err := c.Launch(fleet.Spec{Name: "carol", Opts: opts}); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := c.AwaitRunning(p, 1); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		src := c.HostOf("carol")
		dst := c.Hosts()[1]
		if src == dst {
			dst = c.Hosts()[0]
		}
		// A durable checkpoint from before the partition.
		if _, err := src.Fleet().CheckpointNym(p, "carol", "cluster-pw", testVault); err != nil {
			t.Errorf("pre-checkpoint: %v", err)
			return
		}
		srcRegion := src.Manager().Host().Node().Region()
		net.SeverRegions(srcRegion, webworld.CoreRegion)
		if net.CanReach(src.Name(), "cloud:dropbin", "https") {
			t.Fatal("source should have lost the providers")
		}
		rep, err := c.MigrateNym(p, "carol", dst.Name())
		if err != nil {
			t.Errorf("migration did not recover from the provider partition: %v", err)
			return
		}
		if !rep.Retried {
			t.Error("migration claims a fresh save succeeded without provider reach")
		}
		net.HealRegions(srcRegion, webworld.CoreRegion)
		m := c.Member("carol")
		if m == nil || m.State() != fleet.StateRunning || c.HostOf("carol") != dst {
			t.Fatal("carol did not land running on the destination")
		}
		if got := src.Fleet().ReservedBytes(); got != 0 {
			t.Errorf("source leaked %d reserved bytes", got)
		}
		if got := dst.Fleet().ReservedBytes(); got != fp {
			t.Errorf("destination reservation = %d, want %d", got, fp)
		}
	})
	assertAllClassified(t, c)
}
