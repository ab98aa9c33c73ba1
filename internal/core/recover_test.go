package core

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/pmem"
	"repro/internal/shard"
	"repro/internal/xpsim"
)

func TestRecoveryAllNUMAModes(t *testing.T) {
	edges := dedupEdges(gen.RMAT(9, 4000, 91))
	for name, mode := range map[string]NUMAMode{"none": NUMANone, "outin": NUMAOutIn, "subgraph": NUMASubgraph} {
		t.Run(name, func(t *testing.T) {
			m, h := testMachine()
			opts := Options{Name: "rm-" + name, NumVertices: 512,
				LogCapacity: 1 << 11, ArchiveThreshold: 1 << 7, ArchiveThreads: 4, NUMA: mode}
			s, err := New(m, h, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Ingest(edges); err != nil {
				t.Fatal(err)
			}
			s = nil
			rs, _, err := Recover(m, h, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkModel(t, rs, difftest.Of(edges))
		})
	}
}

func TestRecoveryWithDeletions(t *testing.T) {
	// Deletion tombstones in the replay window must survive recovery
	// with the same multiset semantics.
	m, h := testMachine()
	opts := Options{Name: "rdel", NumVertices: 64,
		LogCapacity: 1 << 10, ArchiveThreshold: 16, ArchiveThreads: 2}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{
		{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 1, Dst: 4},
		graph.Del(1, 3),
		{Src: 2, Dst: 1}, {Src: 3, Dst: 1},
		graph.Del(3, 1),
	}
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	s = nil
	rs, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	if got := rs.NbrsOut(ctx, 1, nil); !difftest.SameMultiset(got, []uint32{2, 4}) {
		t.Fatalf("out(1) after recovery = %v, want {2,4}", got)
	}
	if got := rs.NbrsIn(ctx, 1, nil); !difftest.SameMultiset(got, []uint32{2}) {
		t.Fatalf("in(1) after recovery = %v, want {2}", got)
	}
}

func TestRecoverEmptyStore(t *testing.T) {
	m, h := testMachine()
	opts := Options{Name: "rempty", NumVertices: 8}
	if _, err := New(m, h, nil, opts); err != nil {
		t.Fatal(err)
	}
	rs, rep, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 || rep.BlocksScanned != 0 {
		t.Fatalf("empty recovery report: %+v", rep)
	}
	ctx := xpsim.NewCtx(0)
	if got := rs.NbrsOut(ctx, 1, nil); len(got) != 0 {
		t.Fatalf("empty store has neighbors: %v", got)
	}
}

func TestRecoverMissingRegions(t *testing.T) {
	m, h := testMachine()
	if _, _, err := Recover(m, h, nil, Options{Name: "never-created"}); err == nil {
		t.Fatal("recovering a store that never existed should fail")
	}
}

// refusesRecovery builds a store under opts, ingests into it, and checks
// that Recover refuses the crashed store with an error naming the option
// that decided its count policy.
func refusesRecovery(t *testing.T, opts Options, names string) {
	t.Helper()
	m, h := testMachine()
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(m, h, nil, opts); err == nil || !strings.Contains(err.Error(), names) {
		t.Fatalf("Recover(%+v) = %v, want a refusal naming %q", opts, err, names)
	}
}

func TestRecoverRejectsVolatile(t *testing.T) {
	refusesRecovery(t, Options{Name: "x", Medium: MediumDRAM}, "volatile media")
	refusesRecovery(t, Options{Name: "x", Medium: MediumMemoryMode}, "volatile media")
}

func TestRecoveryRepeatedCrashes(t *testing.T) {
	// Crash, recover, ingest more, crash again, recover again.
	m, h := testMachine()
	opts := Options{Name: "r2", NumVertices: 256,
		LogCapacity: 1 << 10, ArchiveThreshold: 1 << 6, ArchiveThreads: 2}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	part1 := dedupEdges(gen.RMAT(8, 1000, 92))
	if _, err := s.Ingest(part1); err != nil {
		t.Fatal(err)
	}
	s = nil
	r1, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	part2 := []graph.Edge{{Src: 250, Dst: 251}, {Src: 251, Dst: 252}}
	if _, err := r1.Ingest(part2); err != nil {
		t.Fatal(err)
	}
	r1 = nil
	r2, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkModel(t, r2, difftest.Of(append(part1, part2...)))
}

func TestCrossProcessRecovery(t *testing.T) {
	// Full durability cycle: ingest, serialize the simulated PMEM to a
	// file ("power off"), load it in a fresh machine ("power on"), and
	// recover the store from the image alone.
	edges := dedupEdges(gen.RMAT(9, 4000, 81))
	opts := Options{Name: "xproc", NumVertices: 512,
		LogCapacity: 1 << 11, ArchiveThreshold: 1 << 7, ArchiveThreads: 4}

	m, h := testMachine()
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.xpg")
	if err := pmem.SaveFile(path, h); err != nil {
		t.Fatal(err)
	}

	// "New process": nothing survives but the file.
	m2, h2, err := pmem.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := Recover(m2, h2, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksScanned == 0 {
		t.Fatal("recovery scanned nothing")
	}
	checkModel(t, rs, difftest.Of(edges))
	if _, err := rs.Verify(xpsim.NewCtx(0)); err != nil {
		t.Fatalf("verify after cross-process recovery: %v", err)
	}
}

func TestRecoverRejectsBattery(t *testing.T) {
	refusesRecovery(t, Options{Name: "bat", Battery: true}, "battery-backed")
	refusesRecovery(t, Options{Name: "bat", Battery: true, SSDOverflow: 1 << 20}, "battery-backed")
}

func TestRecoverRejectsSSDOverflow(t *testing.T) {
	refusesRecovery(t, Options{Name: "ssd", SSDOverflow: 1 << 20}, "SSD-tiered")
}

func TestRecoverRejectsRelaxedDurability(t *testing.T) {
	refusesRecovery(t, Options{Name: "rlx", RelaxedDurability: true}, "relaxed-durability")
}

func TestRecoverRejectsWrongLogCapacity(t *testing.T) {
	// Same store name, wrong geometry: the persisted log capacity is
	// authoritative and a mismatched Options must be rejected, not
	// silently reinterpreted.
	m, h := testMachine()
	opts := Options{Name: "geom", NumVertices: 64, LogCapacity: 1 << 10, ArchiveThreshold: 16, ArchiveThreads: 2}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.LogCapacity = 1 << 11
	if _, _, err := Recover(m, h, nil, bad); err == nil {
		t.Fatal("wrong log capacity must fail recovery")
	}
	if rs, _, err := Recover(m, h, nil, opts); err != nil {
		t.Fatalf("correct geometry must still recover: %v", err)
	} else if got := rs.NbrsOut(xpsim.NewCtx(0), 1, nil); !difftest.SameMultiset(got, []uint32{2}) {
		t.Fatalf("out(1) = %v, want {2}", got)
	}
}

func TestRecoverRejectsWrongNUMAMode(t *testing.T) {
	// A store created with one NUMA mode has differently-named adjacency
	// regions than another mode expects; recovery must report the missing
	// region instead of recovering a partial graph.
	m, h := testMachine()
	opts := Options{Name: "numa-geom", NumVertices: 64, LogCapacity: 1 << 10,
		ArchiveThreshold: 16, ArchiveThreads: 2, NUMA: NUMASubgraph}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.NUMA = NUMANone
	if _, _, err := Recover(m, h, nil, bad); err == nil {
		t.Fatal("wrong NUMA mode must fail recovery")
	}
}

func TestRecoverRejectsForeignPlacement(t *testing.T) {
	// An arena holding a live block of a vertex that shard.PartOf places in
	// another partition was written under another partition function (the
	// `v mod P` of older heaps, say). Every read, flush and replay would look
	// for the vertex in its home arena, so recovery must refuse the heap like
	// any other wrong geometry instead of returning a partial graph.
	m, h := testMachine()
	opts := Options{Name: "placed", NumVertices: 64, LogCapacity: 1 << 10,
		ArchiveThreshold: 16, ArchiveThreads: 2, NUMA: NUMASubgraph}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	var home, foreign graph.VID
	for v := graph.VID(1); home == 0 || foreign == 0; v++ {
		if shard.PartOf(v, 2) == 0 && home == 0 {
			home = v
		} else if shard.PartOf(v, 2) == 1 && foreign == 0 {
			foreign = v
		}
	}
	if _, err := s.Ingest([]graph.Edge{{Src: home, Dst: 60}}); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(m, h, nil, opts); err != nil {
		t.Fatalf("the heap as written must recover: %v", err)
	}
	// home's out-block is the first of arena out/p0, its vid the header's
	// first word: hand it to a vertex of partition 1.
	r, _ := h.Get("placed-adj-out-0")
	ctx := xpsim.NewCtx(0)
	first := alignUp(r.UserStart(), 16)
	if got := mem.ReadU32(r, ctx, first); got != home {
		t.Fatalf("setup: the first block of out/p0 belongs to vertex %d, want %d", got, home)
	}
	mem.WriteU32(r, ctx, first, foreign)
	_, _, err = Recover(m, h, nil, opts)
	if err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("recovery of a foreign placement = %v, want a geometry error naming the partition", err)
	}
}
