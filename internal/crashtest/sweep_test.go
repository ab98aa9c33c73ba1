package crashtest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/xpsim"
)

// sweepConfig is the workload every exhaustive sweep runs: small enough
// that one run is milliseconds, but it still crosses every interesting
// phase — multiple flush epochs (LogCapacity 256 over 400 updates),
// deletions, chunked ingest, and compactions between chunks.
func sweepConfig() config {
	return config{
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

// varintSweepConfig is sweepConfig on delta-varint adjacency blocks:
// same schedule, but every block the workload writes carries the
// variable-length encoding, so torn writes land mid-record and CRC extents
// cover varint payloads.
func varintSweepConfig() config {
	cfg := sweepConfig()
	cfg.Name = "sweep-vz"
	cfg.Varint = true
	return cfg
}

// wideSweepConfigs is sweepConfig on 16 archive threads under both NUMA
// bindings — 4 workers per group with sub-graph partitioning, 8 with
// out/in placement — so every flush commit splits each group's pending
// blocks over several bound ack workers. The default two-thread configs
// only ever run the one-worker case of that split.
func wideSweepConfigs() []config {
	var cfgs []config
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

var allTears = []xpsim.TearMode{xpsim.TearNone, xpsim.TearPrefix, xpsim.TearWords}

// probeSweep probes cfg: the kill space is every media write and every hit
// of every crash site the workload reaches.
func probeSweep(t *testing.T, cfg config) difftest.Sweep {
	t.Helper()
	probe, err := probeRun(cfg)
	if err != nil {
		t.Fatalf("%s: probe: %v", cfg.Name, err)
	}
	if probe.MediaWrites < 100 {
		t.Fatalf("%s: workload too small to sweep: only %d media writes", cfg.Name, probe.MediaWrites)
	}
	return difftest.Sweep{Name: cfg.Name, Writes: probe.MediaWrites, Sites: probe.Sites}
}

// runs kills cfg's workload at a case and verifies the recovered store.
func runs(cfg config) func(difftest.Case) error {
	return func(c difftest.Case) error {
		_, err := run(cfg, c.Plan)
		return err
	}
}

// TestCrashSweepMediaWrites is the exhaustive crash-point sweep: for
// every media-write event the workload performs and every tear mode,
// crash there, recover from the durable image, and hold the recovered
// store to the prefix mode. Under -short it strides.
func TestCrashSweepMediaWrites(t *testing.T) {
	s := probeSweep(t, sweepConfig())
	s.Sites, s.Points, s.Tears = nil, difftest.Short[int64](0, 40), allTears
	s.Run(t, runs(sweepConfig()))
}

// TestCrashSweepSites kills at every hit of every named crash site the
// workload reaches — the protocol-boundary points (between ack and
// barrier, between barrier and commit, after compaction, ...) that the
// media-write sweep hits only incidentally.
func TestCrashSweepSites(t *testing.T) {
	s := probeSweep(t, sweepConfig())
	s.Writes = 0
	s.Run(t, runs(sweepConfig()))
}

// TestCrashSweepNoCompaction sweeps a compaction-free schedule so log
// replay and flush acknowledgment are verified in isolation (compaction
// journals never enter the picture). It runs twice the main sweep's
// updates — without compactions, and with flushes that rewrite only the
// blocks they change, 400 leave fewer than the 100 media writes a sweep
// needs — and kills at every one of them outside -short.
func TestCrashSweepNoCompaction(t *testing.T) {
	cfg := sweepConfig()
	cfg.Name = "sweep-nc"
	cfg.CompactEvery = 0
	cfg.Edges *= 2
	s := probeSweep(t, cfg)
	s.Sites, s.Points = nil, difftest.Short[int64](0, 15)
	s.Run(t, runs(cfg))
}

// TestCrashSweepWideArchive crashes the wide-archive configs at every
// media write (word tears, the nastiest mode) and at every hit of the four
// flush-commit sites: drained (before any ack worker runs), acked (all
// groups' count slots written, nothing fenced), barrier, committed. Their
// recoveries split each arena's header walk over the group's workers, one
// segment each: every arena spans more XPLines than its group has workers.
func TestCrashSweepWideArchive(t *testing.T) {
	for _, cfg := range wideSweepConfigs() {
		c, err := crash(cfg, xpsim.FaultPlan{})
		if err != nil {
			t.Fatal(err)
		}
		walkers := cfg.ArchiveThreads / 4 // sub-graph: 2 partitions × 2 directions
		if cfg.NUMA == core.NUMAOutIn {
			walkers = cfg.ArchiveThreads / 2
		}
		for _, dir := range []string{"out", "in"} {
			for p := 0; p < 2; p++ {
				r, ok := c.heap.Get(fmt.Sprintf("%s-adj-%s-%d", cfg.Name, dir, p))
				if !ok && p == 0 {
					t.Fatalf("%s: no %s arena", cfg.Name, dir)
				}
				if !ok {
					continue
				}
				if lines := (r.AllocBytes() - r.UserStart()) / xpsim.XPLineSize; lines < int64(walkers) {
					t.Fatalf("%s: arena %s/%d spans %d XPLines, fewer than its %d scan walkers", cfg.Name, dir, p, lines, walkers)
				}
			}
		}
		s := probeSweep(t, cfg)
		sites := map[string]int64{}
		for _, site := range []string{"flush:drained", "flush:acked", "flush:barrier", "flush:committed"} {
			if sites[site] = s.Sites[site]; sites[site] == 0 {
				t.Fatalf("%s: workload never reached site %q", cfg.Name, site)
			}
		}
		s.Sites, s.Points = sites, difftest.Short[int64](0, 20)
		s.Run(t, runs(cfg))
	}
}

// TestCrashSweepWideVarint is the sub-graph wide-archive config on
// delta-varint blocks, killed at every media write under word tears: four
// drain workers per group take chunks of one ID-ordered sweep and pack
// variable-length blocks back to back in ID order, so a tear can land in
// a block whose neighbour in the arena another worker wrote. Exhaustive
// outside -short, as TestCrashSweepVarint is.
func TestCrashSweepWideVarint(t *testing.T) {
	cfg := wideSweepConfigs()[0]
	cfg.Name = "sweep-w-sg-vz"
	cfg.Varint = true
	s := probeSweep(t, cfg)
	s.Sites, s.Points = nil, difftest.Short[int64](0, 15)
	s.Run(t, runs(cfg))
}

// TestCrashSweepVarint sweeps media-write crash points over the varint
// workload under the nastiest tear mode. It pins the encoding-specific
// recovery paths (varint extent CRC, mid-record tears, compaction and
// kills of varint chains) and is exhaustive outside -short: the torn
// kills that broke recovery sat at 5 of 1335 points, which a stride
// stepped over.
func TestCrashSweepVarint(t *testing.T) {
	s := probeSweep(t, varintSweepConfig())
	s.Sites, s.Points = nil, difftest.Short[int64](0, 15)
	s.Run(t, runs(varintSweepConfig()))
}

// TestCrashSweepVarintSites kills the varint workload at every named
// protocol-boundary crash site it reaches.
func TestCrashSweepVarintSites(t *testing.T) {
	s := probeSweep(t, varintSweepConfig())
	s.Writes = 0
	s.Run(t, runs(varintSweepConfig()))
}

// TestCrashMixedFormatChains is the mixed-format negotiation sweep: the
// first phase runs on fixed blocks, the recovered store turns varint on,
// and the continuation grows varint tails on fixed chains — then crashes
// again mid-continuation. Both recoveries are held to the prefix mode, so
// a chain that mixes both encodings must replay, CRC-check, and read back
// exactly.
func TestCrashMixedFormatChains(t *testing.T) {
	cfg := sweepConfig()
	cfg.Name = "sweep-mix"
	cfg.VarintFromRecovery = true
	probe, err := probeRun(cfg)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	m := probe.MediaWrites
	const contEdges = 300
	kills1 := difftest.Short([]int64{m / 4, m / 2, 3 * m / 4, m}, []int64{m / 2, m})
	kills2 := difftest.Short([]int64{40, 120, 0}, []int64{80, 0}) // 0: run the continuation to completion
	for _, k1 := range kills1 {
		for _, k2 := range kills2 {
			plan1 := xpsim.FaultPlan{KillAtMediaWrite: k1, Tear: xpsim.TearWords, Seed: uint64(k1) ^ 0x317}
			plan2 := xpsim.FaultPlan{KillAtMediaWrite: k2, Tear: xpsim.TearWords, Seed: uint64(k2) ^ 0x731}
			if res, err := runDouble(cfg, plan1, plan2, contEdges); err != nil {
				t.Fatalf("kill1=%d kill2=%d: %v (crash: %s)", k1, k2, err, res.CrashDesc)
			}
		}
	}
}
