package crashtest

import (
	"testing"

	"repro/internal/difftest"
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
func dupConfig() (config, []graph.Edge) {
	cfg := config{
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
// of (1,2) and the replay window holds more copies of the same edge, and at
// strided media writes of the duplicate-heavy stream, word-torn. The
// recovered multiset must keep every durable copy — no replay dedup
// losses, no double replay.
func TestCrashReplayKeepsDuplicateEdges(t *testing.T) {
	cfg, edges := dupConfig()
	probe, err := runStream(cfg, edges, xpsim.FaultPlan{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	s := difftest.Sweep{Name: "dup", Writes: probe.MediaWrites, Points: difftest.Short[int64](50, 10),
		Sites: map[string]int64{"compact:done": probe.Sites["compact:done"]}}
	s.Run(t, streams(cfg, edges))
}

// streams kills the edges stream at a case and verifies the recovered store.
func streams(cfg config, edges []graph.Edge) func(difftest.Case) error {
	return func(c difftest.Case) error {
		_, err := runStream(cfg, edges, c.Plan)
		return err
	}
}

// TestCrashAckCommitBoundary pins the two-slot acknowledgment protocol:
// kill between count acknowledgment and the flushed-cursor commit, at
// every flush epoch. An interrupted ack only ever touches the slot the
// durable cursor does not select, so recovery must see the old counts
// and replay the whole window — exactly once.
func TestCrashAckCommitBoundary(t *testing.T) {
	cfg, edges := dupConfig()
	probe, err := runStream(cfg, edges, xpsim.FaultPlan{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	sites := map[string]int64{}
	for _, site := range []string{"flush:drained", "flush:acked", "flush:barrier", "flush:committed"} {
		sites[site] = probe.Sites[site]
	}
	difftest.Sweep{Name: "ack", Sites: sites}.Run(t, streams(cfg, edges))
}

// TestCrashTinyFullSweep is the compact always-on sweep: a single-epoch
// workload small enough to check EVERY media write × EVERY tear mode even
// under -short. By construction this includes the elog header writes that
// persist the head and flushed cursors — the torn-header cases.
func TestCrashTinyFullSweep(t *testing.T) {
	cfg := config{
		Name:        "tiny",
		Scale:       4,
		Edges:       40,
		Seed:        11,
		LogCapacity: 32, ArchiveThreshold: 8,
		Chunk: 10, CompactEvery: 2,
	}
	probe, err := probeRun(cfg)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	difftest.Sweep{Name: cfg.Name, Writes: probe.MediaWrites, Tears: allTears, Seeds: difftest.Short(2, 1)}.Run(t, runs(cfg))
}

// TestCrashDoubleCrash crashes, recovers, keeps ingesting on the
// recovered store, crashes again, and recovers again — recovery's own
// repair writes (journal roll-forward, garbage zeroing, allocation
// rewind, dangling-block kills) become part of the second crash's
// durable image and must compose.
func TestCrashDoubleCrash(t *testing.T) {
	cfg := sweepConfig()
	cfg.Name = "double"
	probe, err := probeRun(cfg)
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
			if res, err := runDouble(cfg, p1, p2, 200); err != nil {
				t.Fatalf("first kill %d, second plan %d: %v (crash: %s)", n, i, err, res.CrashDesc)
			}
		}
	}
}
