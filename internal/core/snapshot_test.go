package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/view"
	"repro/internal/xpsim"
)

func TestSnapshotIsolation(t *testing.T) {
	s := newStore(t, Options{Name: "snap", NumVertices: 64, LogCapacity: 1 << 10,
		ArchiveThreshold: 8, ArchiveThreads: 2})
	first := []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 4, Dst: 1}}
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	snap := s.Snapshot(ctx)
	defer snap.Close()

	// Updates after the snapshot are invisible through it.
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 9}, {Src: 1, Dst: 10}}); err != nil {
		t.Fatal(err)
	}
	if got := snap.NbrsOut(ctx, 1, nil); !difftest.SameMultiset(got, []uint32{2, 3}) {
		t.Fatalf("snapshot out(1) = %v, want {2,3}", got)
	}
	// The live view sees everything.
	if live := s.NbrsOut(ctx, 1, nil); !difftest.SameMultiset(live, []uint32{2, 3, 9, 10}) {
		t.Fatalf("live out(1) = %v", live)
	}
	// A fresh snapshot sees the new state.
	snap2 := s.Snapshot(ctx)
	defer snap2.Close()
	if got2 := snap2.NbrsOut(ctx, 1, nil); !difftest.SameMultiset(got2, []uint32{2, 3, 9, 10}) {
		t.Fatalf("snapshot2 out(1) = %v", got2)
	}
}

func TestSnapshotSurvivesFlush(t *testing.T) {
	// Flushing buffers to PMEM must not change what a snapshot sees:
	// order is preserved end to end.
	s := newStore(t, Options{Name: "snapf", NumVertices: 64, LogCapacity: 1 << 10,
		ArchiveThreshold: 8, ArchiveThreads: 2})
	if _, err := s.Ingest(gen.RMAT(6, 300, 31)); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	snap := s.Snapshot(ctx)
	defer snap.Close()
	want := map[graph.VID][]uint32{}
	for v := graph.VID(0); v < 64; v++ {
		want[v] = append([]uint32(nil), snap.NbrsOut(ctx, v, nil)...)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(gen.RMAT(6, 200, 32)); err != nil {
		t.Fatal(err)
	}
	for v := graph.VID(0); v < 64; v++ {
		if got := snap.NbrsOut(ctx, v, nil); !difftest.SameMultiset(got, want[v]) {
			t.Fatalf("vertex %d: snapshot changed after flush+ingest: %v vs %v", v, got, want[v])
		}
	}
}

func TestSnapshotSurvivesCompaction(t *testing.T) {
	// Compaction rewrites chains and resolves tombstones; registered
	// snapshots must keep answering with their pre-compaction view
	// (copy-on-invalidate fencing).
	s := newStore(t, Options{Name: "snapc", NumVertices: 16, LogCapacity: 256,
		ArchiveThreshold: 4, ArchiveThreads: 2})
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	snap := s.Snapshot(ctx)
	defer snap.Close()

	// More records plus a deletion, then compact: the live store resolves
	// the tombstone in place, while the snapshot keeps its prefix.
	if err := s.AddEdges([]graph.Edge{{Src: 1, Dst: 5}, graph.Del(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactAdjs(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got := snap.NbrsOut(ctx, 1, nil); !difftest.SameMultiset(got, []uint32{2, 3}) {
		t.Fatalf("snapshot out(1) after compaction = %v, want {2,3}", got)
	}
	if live := s.NbrsOut(ctx, 1, nil); !difftest.SameMultiset(live, []uint32{3, 5}) {
		t.Fatalf("live out(1) after compaction = %v, want {3,5}", live)
	}
	// Repeated compaction of the same vertex stays stable.
	if err := s.CompactAdjs(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got := snap.NbrsOut(ctx, 1, nil); !difftest.SameMultiset(got, []uint32{2, 3}) {
		t.Fatalf("snapshot out(1) after second compaction = %v, want {2,3}", got)
	}
}

func TestSnapshotVertexBornLater(t *testing.T) {
	// Regression: a vertex created after the snapshot was captured must
	// read as empty through the snapshot (and must not panic), even though
	// the live store has since grown its records slices past the
	// snapshot's captured length.
	s := newStore(t, Options{Name: "snapb", NumVertices: 4, LogCapacity: 256,
		ArchiveThreshold: 4, ArchiveThreads: 2})
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	snap := s.Snapshot(ctx)
	defer snap.Close()
	numV := snap.NumVertices()

	// Grow the store: vertex 100 is born after the capture.
	if _, err := s.Ingest([]graph.Edge{{Src: 100, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() <= numV {
		t.Fatalf("store did not grow: %d <= %d", s.NumVertices(), numV)
	}
	for _, v := range []graph.VID{100, numV, graph.VID(s.NumVertices()), 1 << 30} {
		if got := snap.NbrsOut(ctx, v, nil); len(got) != 0 {
			t.Fatalf("snapshot out(%d) = %v, want empty", v, got)
		}
		if got := snap.NbrsIn(ctx, v, nil); len(got) != 0 {
			t.Fatalf("snapshot in(%d) = %v, want empty", v, got)
		}
		if d := snap.OutDegree(v); d != 0 {
			t.Fatalf("snapshot OutDegree(%d) = %d, want 0", v, d)
		}
	}
	if snap.NumVertices() != numV {
		t.Fatalf("snapshot NumVertices changed: %d != %d", snap.NumVertices(), numV)
	}
	// The snapshot's pre-existing data is unaffected.
	if got := snap.NbrsOut(ctx, 1, nil); !difftest.SameMultiset(got, []uint32{2}) {
		t.Fatalf("snapshot out(1) = %v, want {2}", got)
	}
}

// Property: a snapshot taken after a random ingest prefix always equals
// the reference built from exactly that prefix, regardless of how much
// more is ingested afterwards.
func TestSnapshotPrefixProperty(t *testing.T) {
	all := gen.RMAT(8, 2000, 33)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cut := 1 + rng.Intn(len(all)-1)
		m, h := testMachine()
		s, err := New(m, h, nil, Options{Name: "snapp",
			NumVertices: 256, LogCapacity: 1 << 11, ArchiveThreshold: 1 << 6, ArchiveThreads: 3})
		if err != nil {
			return false
		}
		if _, err := s.Ingest(all[:cut]); err != nil {
			return false
		}
		ctx := xpsim.NewCtx(0)
		snap := s.Snapshot(ctx)
		if _, err := s.Ingest(all[cut:]); err != nil {
			return false
		}
		defer snap.Close()
		_, err = difftest.Compare{}.Run(difftest.Of(all[:cut]), snap)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotShortReadIsTyped compacts an arena directly, past the fencing
// core puts around its own compactions, so the chains a snapshot captured
// lose records (tombstones resolved). The snapshot's read must fail typed,
// and count, rather than serve fewer records than it captured.
func TestSnapshotShortReadIsTyped(t *testing.T) {
	s := newStore(t, Options{Name: "short", NumVertices: 64, LogCapacity: 1 << 10,
		ArchiveThreshold: 8, ArchiveThreads: 2})
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, graph.Del(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	snap := s.Snapshot(ctx)
	defer snap.Close()
	if err := s.groups[Out][s.partOf(1)].adj.Compact(ctx, 1); err != nil {
		t.Fatal(err)
	}
	err := snap.Visit(ctx, Out, 1, view.Opts{}, func([]uint32, []uint16) { t.Error("the short read served records") })
	var short *shortReadError
	if !errors.As(err, &short) || short.Captured != 3 || short.Found != 1 {
		t.Fatalf("snapshot read after an unfenced compaction: %v; want a shortReadError of 3 captured, 1 found", err)
	}
	if n := s.snapshotShortReads(); n != 1 {
		t.Fatalf("SnapshotShortReads = %d, want 1", n)
	}
	// A fenced compaction freezes the snapshot's view first.
	if err := s.CompactAdjs(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := snap.Visit(ctx, In, 3, view.Opts{}, func([]uint32, []uint16) {}); err != nil {
		t.Fatalf("snapshot read after a fenced compaction: %v", err)
	}
}
