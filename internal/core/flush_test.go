package core

import (
	"testing"

	"repro/internal/difftest"
	"repro/internal/gen"
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
			NUMA: NUMASubgraph, AdjBytes: 32 << 20, RelaxedDurability: relaxed})
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
// drain workers per group, and every one of them must be dealt vertices to
// drain — in shares of comparable cost — with each buffered vertex drained
// exactly once. A stride over the ID space under a partition filter does not
// give that: with `v mod 2` partitions and `v += 4` per worker, two of a
// group's four never meet a vertex of their partition.
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
			var lo, hi int64
			for w := 0; w < wpg; w++ {
				ctx := xpsim.NewCtx(g.node)
				if err := s.drainShare(ctx, d, p, w, wpg); err != nil {
					t.Fatal(err)
				}
				ns := ctx.Cost.Ns()
				if ns == 0 {
					t.Errorf("%s/p%d: drain worker %d of %d was dealt nothing", dirName(d), p, w, wpg)
				}
				if w == 0 {
					lo, hi = ns, ns
				}
				lo, hi = min(lo, ns), max(hi, ns)
			}
			if hi > 2*lo {
				t.Errorf("%s/p%d: the slowest drain worker takes %d ns, the fastest %d", dirName(d), p, hi, lo)
			}
		}
		for v, h := range s.vbH[d] {
			if h != mempool.None {
				t.Fatalf("vertex %d still holds a %s-buffer after every worker drained its share", v, dirName(d))
			}
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
