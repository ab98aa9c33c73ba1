package crashtest

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/xpsim"
)

// dupConfig builds a duplicate-heavy explicit stream: the same few edges
// repeated across many flush epochs, plus interleaved deletions. This is
// the workload the seed's content-based replay dedup got wrong — a
// duplicate edge in the replay window is indistinguishable by content
// from an already-flushed copy, so any dedup-by-content either loses
// legitimate duplicates or replays flushed edges twice. Recovery must
// rely on cursors alone.
func dupConfig() (Config, []graph.Edge) {
	cfg := Config{
		Name:             "dup",
		Scale:            4,
		LogCapacity:      64,
		ArchiveThreshold: 16,
		Chunk:            24,
		CompactEvery:     1,
	}
	var edges []graph.Edge
	for i := 0; i < 30; i++ {
		edges = append(edges,
			graph.Edge{Src: 1, Dst: 2}, // the duplicate under test
			graph.Edge{Src: 1, Dst: 2},
			graph.Edge{Src: 2, Dst: uint32(i % 8)},
			graph.Edge{Src: 3, Dst: 1},
		)
		if i%5 == 4 {
			edges = append(edges, graph.Del(1, 2))
		}
	}
	return cfg, edges
}

// TestCrashReplayKeepsDuplicateEdges pins the dedup regression: crash
// right after each compaction, when the PMEM chains hold compacted copies
// of (1,2) and the replay window holds more copies of the same edge. The
// recovered multiset must keep every durable copy — no replay dedup
// losses, no double replay.
func TestCrashReplayKeepsDuplicateEdges(t *testing.T) {
	cfg, edges := dupConfig()
	probe, err := RunStream(cfg, edges, xpsim.FaultPlan{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	for hit := int64(1); hit <= probe.Sites["compact:done"]; hit += 7 {
		plan := xpsim.FaultPlan{KillAtSite: "compact:done", KillAtSiteHit: hit}
		if res, err := RunStream(cfg, edges, plan); err != nil {
			t.Fatalf("kill at compact:done hit %d: %v (crash: %s)", hit, err, res.CrashDesc)
		}
	}
	// And at every media write of the duplicate-heavy stream, torn.
	stride := probe.MediaWrites / 50
	if testing.Short() {
		stride = probe.MediaWrites / 10
	}
	if stride == 0 {
		stride = 1
	}
	for n := int64(1); n <= probe.MediaWrites; n += stride {
		plan := xpsim.FaultPlan{KillAtMediaWrite: n, Tear: xpsim.TearWords, Seed: uint64(n)}
		if res, err := RunStream(cfg, edges, plan); err != nil {
			t.Fatalf("kill at media write %d: %v (crash: %s)", n, err, res.CrashDesc)
		}
	}
}

// TestCrashAckCommitBoundary pins the two-slot acknowledgment protocol:
// kill between count acknowledgment and the flushed-cursor commit, at
// every flush epoch. An interrupted ack only ever touches the slot the
// durable cursor does not select, so recovery must see the old counts
// and replay the whole window — exactly once.
func TestCrashAckCommitBoundary(t *testing.T) {
	cfg, edges := dupConfig()
	probe, err := RunStream(cfg, edges, xpsim.FaultPlan{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	for _, site := range []string{"flush:drained", "flush:acked", "flush:barrier", "flush:committed"} {
		for hit := int64(1); hit <= probe.Sites[site]; hit++ {
			plan := xpsim.FaultPlan{KillAtSite: site, KillAtSiteHit: hit}
			if res, err := RunStream(cfg, edges, plan); err != nil {
				t.Fatalf("kill at %s hit %d: %v (crash: %s)", site, hit, err, res.CrashDesc)
			}
		}
	}
}

// TestCrashTinyFullSweep is the compact always-on sweep: a single-epoch
// workload small enough to check EVERY media write × EVERY tear mode even
// under -short. By construction this includes the elog header writes that
// persist the head and flushed cursors — the torn-header cases.
func TestCrashTinyFullSweep(t *testing.T) {
	cfg := Config{
		Name:        "tiny",
		Scale:       4,
		Edges:       40,
		Seed:        11,
		LogCapacity: 32, ArchiveThreshold: 8,
		Chunk: 10, CompactEvery: 2,
	}
	probe, err := Probe(cfg)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	seeds := []uint64{1, 0xFFFF}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, tear := range []xpsim.TearMode{xpsim.TearNone, xpsim.TearPrefix, xpsim.TearWords} {
		for n := int64(1); n <= probe.MediaWrites; n++ {
			for _, seed := range seeds {
				plan := xpsim.FaultPlan{KillAtMediaWrite: n, Tear: tear, Seed: seed}
				if res, err := Run(cfg, plan); err != nil {
					t.Fatalf("kill at %d/%d tear=%s seed=%d: %v (crash: %s)",
						n, probe.MediaWrites, tear, seed, err, res.CrashDesc)
				}
			}
		}
	}
}

// TestCrashDoubleCrash crashes, recovers, keeps ingesting on the
// recovered store, crashes again, and recovers again — recovery's own
// repair writes (journal roll-forward, garbage zeroing, allocation
// rewind, dangling-block kills) become part of the second crash's
// durable image and must compose.
func TestCrashDoubleCrash(t *testing.T) {
	cfg := sweepConfig()
	cfg.Name = "double"
	probe, err := Probe(cfg)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	m := probe.MediaWrites
	firstKills := []int64{1, m / 3, m / 2, m - 1}
	if testing.Short() {
		firstKills = []int64{m / 2}
	}
	t.Logf("first kills %v of %d media writes × 3 second crashes", firstKills, m)
	for _, n := range firstKills {
		plans2 := []xpsim.FaultPlan{
			{KillAtSite: "flush:barrier"},
			{KillAtMediaWrite: 20, Tear: xpsim.TearWords, Seed: uint64(n)},
			{KillAtMediaWrite: 150, Tear: xpsim.TearPrefix, Seed: uint64(n) ^ 0xA5},
		}
		for i, p2 := range plans2 {
			p1 := xpsim.FaultPlan{KillAtMediaWrite: n, Tear: xpsim.TearWords, Seed: uint64(n) * 3}
			if res, err := RunDouble(cfg, p1, p2, 200); err != nil {
				t.Fatalf("first kill %d, second plan %d: %v (crash: %s)", n, i, err, res.CrashDesc)
			}
		}
	}
}
