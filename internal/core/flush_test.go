package core

import (
	"testing"

	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mempool"
	"repro/internal/xpsim"
)

// TestCrashSafeFlushCostNearRelaxed pins what the crash-safe commit may
// cost: with the count acknowledgment running on the groups' bound archive
// workers, a flushing phase is the relaxed store's drain plus one more
// parallel sweep over the changed headers, the barrier and an 8-byte
// store. With the acknowledgment on one unbound context — 2·P groups
// written serially, half the lines remote — this stream measured 6.5x.
func TestCrashSafeFlushCostNearRelaxed(t *testing.T) {
	edges := gen.RMAT(15, 400000, 7)
	flushNs := func(relaxed bool) (int64, int64) {
		s := newStore(t, Options{Name: "ackcost", NumVertices: 1 << 15,
			LogCapacity: 1 << 16, ArchiveThreshold: 1 << 12, ArchiveThreads: 16,
			NUMA: NUMASubgraph, AdjBytes: 32 << 20, relaxedDurability: relaxed})
		rep, err := s.Ingest(edges)
		if err != nil {
			t.Fatal(err)
		}
		return rep.FlushNs, rep.FlushAlls
	}
	safe, flushAlls := flushNs(false)
	relaxed, _ := flushNs(true)
	if flushAlls < 4 {
		t.Fatalf("only %d flush-alls: the stream must cross several commits", flushAlls)
	}
	ratio := float64(safe) / float64(relaxed)
	t.Logf("%d flush-alls: crash-safe %.1f ns/edge, relaxed %.1f ns/edge (%.2fx)",
		flushAlls, float64(safe)/float64(len(edges)), float64(relaxed)/float64(len(edges)), ratio)
	if ratio > 1.5 {
		t.Errorf("crash-safe FlushNs is %.2fx the relaxed store's, want <= 1.5x", ratio)
	}
}

// TestFlushDrainUsesEveryWorker: 16 archive threads on two sockets are four
// drain workers per group. A group's buffered vertices are one
// xpsim.Sweep, dealt in chunks to whichever worker is least busy, so every
// worker of every group drains something, the slowest worker takes at most
// twice the fastest, and each buffered vertex is drained exactly once.
func TestFlushDrainUsesEveryWorker(t *testing.T) {
	s := newStore(t, Options{Name: "deal", NumVertices: 1 << 12, ArchiveThreads: 16,
		NUMA: NUMASubgraph, AdjBytes: 16 << 20})
	edges := gen.RMAT(12, 40000, 3)
	if _, err := s.Ingest(edges); err != nil { // no flush yet: every edge sits in a vertex buffer
		t.Fatal(err)
	}
	wpg := s.workersPerGroup()
	if wpg != 4 || s.Report().FlushAlls != 0 {
		t.Fatalf("setup: %d workers per group, %d flush-alls", wpg, s.Report().FlushAlls)
	}
	for d := 0; d < 2; d++ {
		for p, g := range s.groups[d] {
			if _, err := s.drainGroup(d, p, g); err != nil {
				t.Fatal(err)
			}
			lo, hi := s.sweep.Clock(0), s.sweep.Clock(0)
			for w := 0; w < wpg; w++ {
				ns := s.sweep.Clock(w)
				if ns == 0 {
					t.Errorf("%s/p%d: drain worker %d of %d was dealt nothing", dirName(d), p, w, wpg)
				}
				lo, hi = min(lo, ns), max(hi, ns)
			}
			t.Logf("%s/p%d: %d buffered vertices, slowest drain worker %v, fastest %v (%.3fx)",
				dirName(d), p, len(s.sweepVs), hi, lo, float64(hi)/float64(lo))
			if hi > 2*lo {
				t.Errorf("%s/p%d: the slowest drain worker takes %v, the fastest %v", dirName(d), p, hi, lo)
			}
		}
		for v, h := range s.vbH[d] {
			if h != mempool.None {
				t.Fatalf("vertex %d still holds a %s-buffer after its group drained", v, dirName(d))
			}
		}
	}
	checkModel(t, s, difftest.Of(edges))
}

// TestFlushLaysBlocksOutInIDOrder is the layout the drain's sweep order
// exists for: after one flush-all of a 16-thread sub-graph store, the
// blocks the flush allocated ascend in offset with their vertex IDs in
// every arena, as compaction lays them out and a whole-graph sweep reads
// them — whichever of the group's four workers drained which vertex.
func TestFlushLaysBlocksOutInIDOrder(t *testing.T) {
	s := newStore(t, Options{Name: "layout", NumVertices: 1 << 12, ArchiveThreads: 16,
		NUMA: NUMASubgraph, AdjBytes: 16 << 20, MediaGuard: true})
	edges := gen.RMAT(12, 40000, 3)
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	if s.workersPerGroup() != 4 || s.Report().FlushAlls != 0 {
		t.Fatalf("setup: %d workers per group, %d flush-alls", s.workersPerGroup(), s.Report().FlushAlls)
	}
	// Blocks a full max-layer buffer already flushed in place are not the
	// flush's: remember every block that exists before it.
	before := make(map[[2]int64]bool)
	for d := 0; d < 2; d++ {
		for p, g := range s.groups[d] {
			for v := graph.VID(0); v < s.NumVertices(); v++ {
				if s.partOf(v) == p && g.adj.Has(v) {
					for _, sp := range g.adj.ChainSpans(v) {
						before[[2]int64{int64(d*s.nparts + p), sp[0]}] = true
					}
				}
			}
		}
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		for p, g := range s.groups[d] {
			var blocks int
			last, lastV := int64(-1), graph.VID(0)
			for v := graph.VID(0); v < s.NumVertices(); v++ {
				if s.partOf(v) != p || !g.adj.Has(v) {
					continue
				}
				for _, sp := range g.adj.ChainSpans(v) {
					if before[[2]int64{int64(d*s.nparts + p), sp[0]}] {
						continue
					}
					if sp[0] <= last {
						t.Fatalf("%s/p%d: vertex %d's new block at %d lies below vertex %d's at %d",
							dirName(d), p, v, sp[0], lastV, last)
					}
					last, lastV = sp[0], v
					blocks++
				}
			}
			if blocks == 0 {
				t.Fatalf("%s/p%d: the flush allocated no block", dirName(d), p)
			}
			t.Logf("%s/p%d: %d new blocks in ID order", dirName(d), p, blocks)
		}
	}
	checkModel(t, s, difftest.Of(edges))
}

// TestDisableProactiveFlushIssuesNoAdjacencyFlush: an XPLine-sized append
// to an arena of a PMEM store clwb-flushes its lines unless the store was
// built with DisableProactiveFlush — which no other option overrides.
func TestDisableProactiveFlushIssuesNoAdjacencyFlush(t *testing.T) {
	for _, disable := range []bool{false, true} {
		m, h := testMachine()
		s, err := New(m, h, nil, Options{Name: "pf", NumVertices: 64, DisableProactiveFlush: disable})
		if err != nil {
			t.Fatal(err)
		}
		before := m.TotalStats().Flushes
		ctx := xpsim.NewCtx(0)
		for d := 0; d < 2; d++ {
			for _, g := range s.groups[d] {
				if err := g.adj.Append(ctx, 3, make([]uint32, 4*xpsim.XPLineSize)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if flushes := m.TotalStats().Flushes - before; (flushes == 0) != disable {
			t.Errorf("DisableProactiveFlush=%v: XPLine-sized adjacency appends flushed %d lines", disable, flushes)
		}
	}
}
