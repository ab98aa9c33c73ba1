package crashtest

import (
	"flag"
	"testing"

	"repro/internal/splitmix"
	"repro/internal/xpsim"
)

// varintSweepConfig is sweepConfig on delta-varint adjacency blocks:
// same schedule (flush epochs, deletions, chunking, compactions), but
// every block the workload writes carries the variable-length encoding,
// so torn writes land mid-record and CRC extents cover varint payloads.
func varintSweepConfig() Config {
	cfg := sweepConfig()
	cfg.Name = "sweep-vz"
	cfg.Varint = true
	return cfg
}

// -crashtest.tearseeds widens the exhaustive sweeps (media writes, varint,
// wide archive, inside recovery) to several word-tear geometries per kill
// point (the nightly runs 4).
var tearSeedsFlag = flag.Int("crashtest.tearseeds", 1, "tear seeds per kill point in the exhaustive sweeps")

// tearSeeds lists the tear geometries to try at one kill point: base, plus
// -crashtest.tearseeds - 1 derived from it.
func tearSeeds(base uint64) []uint64 {
	seeds := []uint64{base}
	for k := 1; k < *tearSeedsFlag; k++ {
		seeds = append(seeds, splitmix.Mix(base+uint64(k)))
	}
	return seeds
}

// TestCrashSweepVarint sweeps media-write crash points over the varint
// workload under the nastiest tear mode. It pins the encoding-specific
// recovery paths (varint extent CRC, mid-record tears, compaction and
// kills of varint chains) and is exhaustive outside -short: the torn
// kills that broke recovery sat at 5 of 1335 points, which a stride
// stepped over. Every failing (kill point, tear seed) pair is reported
// before the test fails, so one run names the whole set.
func TestCrashSweepVarint(t *testing.T) {
	cfg := varintSweepConfig()
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
		stride = m / 15
	}
	kill := func(n int64) {
		for _, seed := range tearSeeds(uint64(n) * 0x7A81) {
			plan := xpsim.FaultPlan{KillAtMediaWrite: n, Tear: xpsim.TearWords, Seed: seed}
			if res, err := Run(cfg, plan); err != nil {
				t.Errorf("kill at media write n=%d/%d tear seed=%#x: %v (crash: %s)", n, m, seed, err, res.CrashDesc)
			}
		}
	}
	for n := int64(1); n <= m; n += stride {
		kill(n)
	}
	if (m-1)%stride != 0 {
		kill(m) // always cover the final write — the freshest varint tail
	}
}

// TestCrashSweepVarintSites kills the varint workload at every named
// protocol-boundary crash site it reaches.
func TestCrashSweepVarintSites(t *testing.T) {
	cfg := varintSweepConfig()
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
		if total > 1 && !testing.Short() {
			hits = append(hits, total)
		}
		for _, hit := range hits {
			plan := xpsim.FaultPlan{KillAtSite: site, KillAtSiteHit: hit}
			if res, err := Run(cfg, plan); err != nil {
				t.Fatalf("kill at site %q hit %d/%d: %v (crash: %s)", site, hit, total, err, res.CrashDesc)
			}
		}
	}
}

// TestCrashMixedFormatChains is the mixed-format negotiation sweep: the
// first phase runs on fixed blocks, the recovered store turns varint on,
// and the continuation grows varint tails on fixed chains — then crashes
// again mid-continuation. Both recoveries verify against the oracle, so
// a chain that mixes both encodings must replay, CRC-check, and read
// back exactly.
func TestCrashMixedFormatChains(t *testing.T) {
	cfg := sweepConfig()
	cfg.Name = "sweep-mix"
	cfg.VarintFromRecovery = true
	probe, err := Probe(cfg)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	m := probe.MediaWrites
	const contEdges = 300
	kills1 := []int64{m / 4, m / 2, 3 * m / 4, m}
	kills2 := []int64{40, 120, 0} // 0: run the continuation to completion
	if testing.Short() {
		kills1 = []int64{m / 2, m}
		kills2 = []int64{80, 0}
	}
	for _, k1 := range kills1 {
		for _, k2 := range kills2 {
			plan1 := xpsim.FaultPlan{KillAtMediaWrite: k1, Tear: xpsim.TearWords, Seed: uint64(k1) ^ 0x317}
			plan2 := xpsim.FaultPlan{Tear: xpsim.TearWords, Seed: uint64(k2) ^ 0x731}
			if k2 > 0 {
				plan2.KillAtMediaWrite = k2
			}
			if res, err := RunDouble(cfg, plan1, plan2, contEdges); err != nil {
				t.Fatalf("kill1=%d kill2=%d: %v (crash: %s)", k1, k2, err, res.CrashDesc)
			}
		}
	}
}
