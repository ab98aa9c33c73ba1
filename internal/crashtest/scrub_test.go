package crashtest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/xpsim"
)

// TestUEDetection: after UE injection, every checked read matches the
// model or fails typed — never silently wrong edges.
func TestUEDetection(t *testing.T) {
	if err := runUEDetection(config{Name: "ue-detect", Seed: 1, Edges: 600}); err != nil {
		t.Fatal(err)
	}
}

// TestUEDetectionDeletes runs the detection differential over a
// workload with deletions, so damaged chains carry tombstones too.
func TestUEDetectionDeletes(t *testing.T) {
	if err := runUEDetection(config{Name: "ue-del", Seed: 2, Edges: 600, DelRatio: 0.2}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairFromLog rebuilds damaged chains from the resident
// edge-log window: the whole workload fits in LogCapacity.
func TestScrubRepairFromLog(t *testing.T) {
	if err := runScrubRepair(config{Name: "repair-log", Seed: 3, Edges: 600, LogCapacity: 1 << 10}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairFromArchive rebuilds from the SSD edge archive even
// though the log window has rotated past the early records.
func TestScrubRepairFromArchive(t *testing.T) {
	if err := runScrubRepair(config{
		Name: "repair-ssd", Seed: 4, Edges: 1500,
		LogCapacity: 1 << 8, ArchiveSSDBytes: 4 << 20,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUnrecoverable: no archive and a rotated log window leave a damaged
// early vertex with no rebuild source; the scrub must say so honestly.
func TestUnrecoverable(t *testing.T) {
	if err := runUnrecoverable(config{
		Name: "unrec", Seed: 5, Edges: 1500, LogCapacity: 1 << 8,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubLogWindowAfterCompaction: a compaction rewrites vertex 1's
// out-count to its one survivor (1→2), and the 256-record log window has
// rotated past the insert, so the window holds one record of vertex 1 — the
// delete — as many as the chain counts, and none of its stream. The scrub
// must refuse the vertex typed instead of rebuilding it from the window.
func TestScrubLogWindowAfterCompaction(t *testing.T) {
	cfg := config{Name: "window-compact", LogCapacity: 256, MediaGuard: true}.WithDefaults()
	st, faults, err := newStore(cfg.Options())
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}}
	for i := 0; i < 300; i++ {
		edges = append(edges, graph.Edge{Src: graph.VID(4 + i%40), Dst: graph.VID(5 + i%37)})
	}
	edges = append(edges, graph.Del(1, 3))
	for i := 0; i < 10; i++ {
		edges = append(edges, graph.Edge{Src: graph.VID(4 + i), Dst: 6})
	}
	if _, err := st.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(st.BufferAllEdges(), st.CompactAllAdjs(xpsim.NewCtx(xpsim.NodeUnbound))); err != nil {
		t.Fatal(err)
	}
	for _, ln := range st.VertexMediaLines(core.Out, 1) {
		faults.InjectUE(ln.Node, ln.Line)
	}
	rep, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checked.Run(difftest.Of(edges), st); err != nil {
		t.Fatalf("after a scrub that reports %+v: %v", rep, err)
	}
	if rep.Unrecoverable == 0 {
		t.Fatalf("the scrub rebuilt vertex 1 from a window without its stream: %+v", rep)
	}
}

// TestNodeFailure: whole-device failure serves healthy partitions and
// refuses the rest, then recovers on revival.
func TestNodeFailure(t *testing.T) {
	if err := runNodeFailure(config{Name: "nodefail", Seed: 6, Edges: 800}); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantinePersistence: quarantined spans survive crash + recovery
// with the archive re-attached, and a fresh scrub finds nothing new.
func TestQuarantinePersistence(t *testing.T) {
	if err := runQuarantinePersistence(config{
		Name: "quar-persist", Seed: 7, Edges: 900, ArchiveSSDBytes: 4 << 20,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUEDetectionVarint runs the detection differential over delta-varint
// chains, where one torn line can scramble a variable number of records.
func TestUEDetectionVarint(t *testing.T) {
	if err := runUEDetection(config{Name: "ue-vz", Seed: 8, Edges: 600, DelRatio: 0.2, Varint: true}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairVarint rebuilds damaged varint chains from the resident
// edge-log window.
func TestScrubRepairVarint(t *testing.T) {
	if err := runScrubRepair(config{
		Name: "repair-vz", Seed: 9, Edges: 600, LogCapacity: 1 << 10, Varint: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairVarintFromArchive rebuilds varint chains from the SSD
// archive after the log window rotated.
func TestScrubRepairVarintFromArchive(t *testing.T) {
	if err := runScrubRepair(config{
		Name: "repair-vz-ssd", Seed: 10, Edges: 1500,
		LogCapacity: 1 << 8, ArchiveSSDBytes: 4 << 20, Varint: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantinePersistenceVarint: quarantine survives crash + recovery
// when the repaired chains carry the varint encoding.
func TestQuarantinePersistenceVarint(t *testing.T) {
	if err := runQuarantinePersistence(config{
		Name: "quar-vz", Seed: 11, Edges: 900, ArchiveSSDBytes: 4 << 20, Varint: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMixedFormatScrub: fixed chains grow varint tails after a recovery
// flips the encoding on, then UE damage and scrub repair must handle the
// mixed chains model-exactly.
func TestMixedFormatScrub(t *testing.T) {
	if err := runMixedFormatScrub(config{Name: "mix-scrub", Seed: 12, Edges: 600}, 300); err != nil {
		t.Fatal(err)
	}
}

// TestScrubCrashSweep kills the machine at every media write inside the
// scrub that repairs a UE-damaged hub vertex — fixed-width and varint
// stores, dropped, prefix-torn and word-torn lines — and recovers: every
// read is exact or fails typed, the persisted quarantine survives, and a
// further scrub completes the repair. Exhaustive outside -short.
func TestScrubCrashSweep(t *testing.T) {
	for _, varint := range []bool{false, true} {
		cfg := config{Name: "scrub-crash", Seed: 21, Edges: 3000, LogCapacity: 1 << 12, Varint: varint}
		name := fmt.Sprintf("varint=%v", varint)
		probe, err := crashInScrub(cfg, xpsim.FaultPlan{})
		if err != nil {
			t.Fatalf("%s: probe: %v", name, err)
		}
		if err := probe.Verify(); err != nil {
			t.Fatalf("%s: uncrashed run: %v", name, err)
		}
		if probe.MediaWrites < 8 {
			t.Fatalf("%s: the repairing scrub issued only %d media writes", name, probe.MediaWrites)
		}
		s := difftest.Sweep{Name: name, Writes: probe.MediaWrites, Points: difftest.Short[int64](0, 6),
			Tears: []xpsim.TearMode{xpsim.TearNone, xpsim.TearPrefix, xpsim.TearWords}}
		s.Run(t, func(c difftest.Case) error {
			crashed, err := crashInScrub(cfg, c.Plan)
			if err != nil {
				return err
			}
			return crashed.Verify()
		})
	}
}

// TestCatchUpUECrash kills the machine at every media write of an edge-log
// append that has not reached the SSD archive — dropped, prefix-torn and
// word-torn lines — with the line of its first record uncorrectable. Where
// the append's head did not persist, recovery restores the durable prefix;
// where it did, the archive trails it over the bad line and recovery refuses,
// typed. Either way the archive is left as it was. The uncrashed append is
// one more case, and refuses. Exhaustive.
func TestCatchUpUECrash(t *testing.T) {
	cfg := config{Name: "catchup-ue", Seed: 23, Edges: 600, ArchiveSSDBytes: 64 << 10}
	const chunk = 100
	probe, err := crashInAppend(cfg, chunk, xpsim.FaultPlan{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if refused, err := probe.Verify(); err != nil || !refused {
		t.Fatalf("uncrashed append: refused %v, %v", refused, err)
	}
	refusals := 0
	s := difftest.Sweep{Name: "append", Writes: probe.MediaWrites, Tears: []xpsim.TearMode{xpsim.TearNone, xpsim.TearPrefix, xpsim.TearWords}}
	s.Run(t, func(c difftest.Case) error {
		crashed, err := crashInAppend(cfg, chunk, c.Plan)
		if err != nil {
			return err
		}
		refused, err := crashed.Verify()
		if refused {
			refusals++
		}
		return err
	})
	t.Logf("%d kills left the archive trailing the durable head", refusals)
}

// TestHeaderUECrash: a crash while block headers sit on uncorrectable
// lines must not recover as a silently truncated arena.
func TestHeaderUECrash(t *testing.T) {
	for _, varint := range []bool{false, true} {
		if err := runHeaderUECrash(config{Name: "hdr-ue", Seed: 22, Edges: 800, Varint: varint}); err != nil {
			t.Fatalf("varint=%v: %v", varint, err)
		}
	}
}

// TestReplayWindowUECrash: a crash while a record of the log window a
// recovery replays sits on an uncorrectable line — its first, a middle or
// its last line — must end in a typed refusal, never in wrong edges or a
// runaway vertex index.
func TestReplayWindowUECrash(t *testing.T) {
	for _, varint := range []bool{false, true} {
		for _, record := range []int64{400, 500, 599} {
			cfg := config{Name: "replay-ue", Scale: 6, Edges: 600, Seed: 3, Varint: varint}
			if err := runReplayWindowUECrash(cfg, record); err != nil {
				t.Errorf("varint=%v record %d: %v", varint, record, err)
			}
		}
	}
}
