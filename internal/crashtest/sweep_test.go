package crashtest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/xpsim"
)

// sweepConfig is the workload every exhaustive sweep runs: small enough
// that one run is milliseconds, but it still crosses every interesting
// phase — multiple flush epochs (LogCapacity 256 over 400 updates),
// deletions, chunked ingest, and compactions between chunks.
func sweepConfig() Config {
	return Config{
		Name:             "sweep",
		Scale:            6,
		Edges:            400,
		DelRatio:         0.15,
		Seed:             7,
		LogCapacity:      256,
		ArchiveThreshold: 32,
		Chunk:            100,
		CompactEvery:     2,
	}
}

// TestCrashSweepMediaWrites is the exhaustive crash-point sweep: for
// every media-write event N the workload performs and every tear mode,
// crash at N, recover from the durable image, and differentially verify
// the recovered store against the oracle. Under -short it subsamples the
// sweep (a deterministic stride, plus the first and last points).
func TestCrashSweepMediaWrites(t *testing.T) {
	cfg := sweepConfig()
	probe, err := Probe(cfg)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	m := probe.MediaWrites
	if m < 100 {
		t.Fatalf("workload too small to sweep: only %d media writes", m)
	}
	stride := int64(1)
	if testing.Short() {
		stride = m / 40
	}
	for _, tear := range []xpsim.TearMode{xpsim.TearNone, xpsim.TearPrefix, xpsim.TearWords} {
		checked := 0
		for n := int64(1); n <= m; n += stride {
			for _, seed := range tearSeeds(0xDEAD ^ uint64(n)) {
				plan := xpsim.FaultPlan{KillAtMediaWrite: n, Tear: tear, Seed: seed}
				if res, err := Run(cfg, plan); err != nil {
					t.Fatalf("kill at media write %d/%d tear=%s seed=%#x: %v (crash: %s)", n, m, tear, seed, err, res.CrashDesc)
				}
			}
			checked++
		}
		// The very last write is the most interesting boundary; make sure a
		// strided sweep still covers it.
		if (m-1)%stride != 0 {
			plan := xpsim.FaultPlan{KillAtMediaWrite: m, Tear: tear, Seed: 0xDEAD ^ uint64(m)}
			if res, err := Run(cfg, plan); err != nil {
				t.Fatalf("kill at final media write %d tear=%s: %v (crash: %s)", m, tear, err, res.CrashDesc)
			}
			checked++
		}
		t.Logf("tear=%s: %d/%d crash points verified", tear, checked, m)
	}
}

// TestCrashSweepSites kills at every named crash-site hook the workload
// reaches — the protocol-boundary points (between ack and barrier,
// between barrier and commit, after compaction, ...) that the media-write
// sweep hits only incidentally.
func TestCrashSweepSites(t *testing.T) {
	cfg := sweepConfig()
	probe, err := Probe(cfg)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if len(probe.Sites) == 0 {
		t.Fatal("workload hit no crash sites")
	}
	for _, site := range faultSites(probe) {
		total := probe.Sites[site]
		hits := []int64{1}
		if total > 1 {
			hits = append(hits, total)
		}
		if total > 2 && !testing.Short() {
			hits = append(hits, 2, (total+1)/2)
		}
		for _, hit := range hits {
			plan := xpsim.FaultPlan{KillAtSite: site, KillAtSiteHit: hit}
			if res, err := Run(cfg, plan); err != nil {
				t.Fatalf("kill at site %q hit %d/%d: %v (crash: %s)", site, hit, total, err, res.CrashDesc)
			}
		}
	}
	t.Logf("sites verified: %v", faultSites(probe))
}

// faultSites lists the probe's hit sites in deterministic order.
func faultSites(probe *Result) []string {
	sites := make([]string, 0, len(probe.Sites))
	for _, s := range []string{
		"core.New:done", "buffer:staged", "buffer:marked",
		"flush:drained", "flush:acked", "flush:barrier", "flush:committed",
		"compact:done",
	} {
		if probe.Sites[s] > 0 {
			sites = append(sites, s)
		}
	}
	return sites
}

// TestCrashSweepNoCompaction sweeps a compaction-free schedule so log
// replay and flush acknowledgment are verified in isolation (compaction
// journals never enter the picture). Strided even without -short: the
// main sweep already covers every point of the richer schedule.
func TestCrashSweepNoCompaction(t *testing.T) {
	cfg := sweepConfig()
	cfg.Name = "sweep-nc"
	cfg.CompactEvery = 0
	probe, err := Probe(cfg)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	m := probe.MediaWrites
	stride := m / 60
	if testing.Short() {
		stride = m / 15
	}
	if stride == 0 {
		stride = 1
	}
	for n := int64(1); n <= m; n += stride {
		plan := xpsim.FaultPlan{KillAtMediaWrite: n, Tear: xpsim.TearWords, Seed: uint64(n) * 0x5EED}
		if res, err := Run(cfg, plan); err != nil {
			t.Fatalf("kill at media write %d/%d: %v (crash: %s)", n, m, err, res.CrashDesc)
		}
	}
}

// wideSweepConfigs is sweepConfig on 16 archive threads under both NUMA
// bindings — 4 workers per group with sub-graph partitioning, 8 with
// out/in placement — so every flush commit splits each group's pending
// blocks over several bound ack workers. The default two-thread configs
// only ever run the one-worker case of that split.
func wideSweepConfigs() []Config {
	var cfgs []Config
	for _, numa := range []struct {
		name string
		mode core.NUMAMode
	}{{"sweep-w-sg", core.NUMASubgraph}, {"sweep-w-oi", core.NUMAOutIn}} {
		cfg := sweepConfig()
		cfg.Name = numa.name
		cfg.ArchiveThreads = 16
		cfg.NUMA = numa.mode
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestCrashSweepWideArchive crashes the wide-archive configs at every
// media write (word tears, the nastiest mode; strided under -short) and at
// every hit of the four flush-commit sites: drained (before any ack
// worker runs), acked (all groups' count slots written, nothing fenced),
// barrier, committed.
func TestCrashSweepWideArchive(t *testing.T) {
	for _, cfg := range wideSweepConfigs() {
		probe, err := Probe(cfg)
		if err != nil {
			t.Fatalf("%s: probe: %v", cfg.Name, err)
		}
		m := probe.MediaWrites
		stride := int64(1)
		if testing.Short() {
			stride = m/20 + 1
		}
		for n := int64(1); n <= m; n += stride {
			for _, seed := range tearSeeds(0x16AC ^ uint64(n)) {
				plan := xpsim.FaultPlan{KillAtMediaWrite: n, Tear: xpsim.TearWords, Seed: seed}
				if res, err := Run(cfg, plan); err != nil {
					t.Fatalf("%s: kill at media write %d/%d seed=%#x: %v (crash: %s)", cfg.Name, n, m, seed, err, res.CrashDesc)
				}
			}
		}
		for _, site := range []string{"flush:drained", "flush:acked", "flush:barrier", "flush:committed"} {
			total := probe.Sites[site]
			if total == 0 {
				t.Fatalf("%s: workload never reached site %q", cfg.Name, site)
			}
			hitStride := int64(1)
			if testing.Short() {
				hitStride = max(total-1, 1) // first and last hit
			}
			for hit := int64(1); hit <= total; hit += hitStride {
				plan := xpsim.FaultPlan{KillAtSite: site, KillAtSiteHit: hit}
				if res, err := Run(cfg, plan); err != nil {
					t.Fatalf("%s: kill at site %q hit %d/%d: %v (crash: %s)", cfg.Name, site, hit, total, err, res.CrashDesc)
				}
			}
		}
		t.Logf("%s: %d media writes, flush commits %d", cfg.Name, m, probe.Sites["flush:committed"])
	}
}
