package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analytics"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mempool"
	"repro/internal/pmem"
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

// TestFlushWritesEachLineOnce is the XPLine rule of a flush-all's drain
// (§II-A, §III-B): on the benchmark's store shape — 16 archive threads,
// sub-graph NUMA — each flush's drain sends every adjacency line it writes
// to the media once, tails and new blocks alike, so its adjacency
// media-write lines equal the distinct adjacency lines it wrote. A drain
// that walks vertex IDs upward through tails from earlier flushes writes
// lines back that it writes again, and fails.
func TestFlushWritesEachLineOnce(t *testing.T) {
	m, h := testMachine()
	s, err := New(m, h, nil, Options{Name: "lines", NumVertices: 1 << 13, ArchiveThreads: 16,
		NUMA: NUMASubgraph, LogCapacity: 1 << 19, AdjBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	edges := gen.RMAT(13, 4*40000, 7)
	var names []string
	var regions []*pmem.Region
	for d := 0; d < 2; d++ {
		for p := range s.groups[d] {
			r, ok := h.Get(s.adjRegionName(d, p))
			if !ok {
				t.Fatalf("no region %q", s.adjRegionName(d, p))
			}
			names, regions = append(names, s.adjRegionName(d, p)), append(regions, r)
		}
	}
	adjMedia := func() (sum int64) {
		m.TotalStats() // write the XPBuffers back
		for _, name := range names {
			sum += m.RegionWriteLines(name)
		}
		return sum
	}
	for round := 0; round < 4; round++ {
		if _, err := s.Ingest(edges[round*40000 : (round+1)*40000]); err != nil {
			t.Fatal(err)
		}
		if s.Report().FlushAlls != int64(round) {
			t.Fatalf("round %d: %d flush-alls: the log filled", round, s.Report().FlushAlls)
		}
		written := map[[2]int64]bool{}
		media := adjMedia()
		m.TraceWrites(func(node int, line int64) { written[[2]int64{int64(node), line}] = true })
		for d := 0; d < 2; d++ {
			for p, g := range s.groups[d] {
				if _, err := s.drainGroup(d, p, g); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.TraceWrites(nil)
		media = adjMedia() - media
		distinct := 0
		for _, r := range regions {
			for off := int64(0); off < r.AllocBytes(); off += xpsim.XPLineSize {
				if node, line := r.LineAt(off); written[[2]int64{int64(node), line}] {
					distinct++
				}
			}
		}
		t.Logf("flush %d: the drain wrote %d distinct adjacency lines, %d to the media", round+1, distinct, media)
		if media != int64(distinct) {
			t.Errorf("flush %d: the drain wrote %d adjacency lines to the media for %d distinct lines", round+1, media, distinct)
		}
		if err := s.FlushAllVbufs(); err != nil { // ack and commit what the drain wrote
			t.Fatal(err)
		}
	}
	checkModel(t, s, difftest.Of(edges))
}

// bulkEdges is the length of bulk-ingest's stream, RMAT(17, 2^21, 7).
const bulkEdges = 1 << 21

// bulkIngest ingests the benchmark's bulk-ingest stream in one Ingest on
// the benchmark's store shape and returns the store, its machine and the
// machine's counters across the Ingest.
func bulkIngest(t *testing.T) (*Store, *xpsim.Machine, xpsim.Stats) {
	t.Helper()
	m := xpsim.NewMachine(2, bulkEdges*48+(48<<20), xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	s, err := New(m, h, nil, Options{Name: "bulk", NumVertices: 1 << 17, ArchiveThreads: 16,
		LogCapacity: 1 << 19, NUMA: NUMASubgraph, AdjBytes: bulkEdges*32/2 + (16 << 20), PropLogBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	before := m.TotalStats()
	if _, err := s.Ingest(gen.RMAT(17, bulkEdges, 7)); err != nil {
		t.Fatal(err)
	}
	return s, m, m.TotalStats().Sub(before)
}

// TestMediaWritesByRegion pins where the media writes of the benchmark's
// bulk-ingest stream go — RMAT(17, 2^21, 7) in one Ingest on the
// benchmark's store shape — region by region, in media bytes per edge: the
// edge log writes its 8 B records as whole XPLines, and the adjacency
// arenas take the rest. Before flushes filled tails in offset order the
// arenas took 76.5 B/edge.
func TestMediaWritesByRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("2^21 edges")
	}
	s, _, ingested := bulkIngest(t)
	total := ingested.MediaWriteBytes()
	perEdge := func(lines int64) float64 { return float64(lines*xpsim.XPLineSize) / bulkEdges }
	var logLines, adjLines int64
	s.MediaWriteLines(func(region string, lines int64) {
		switch {
		case region == "elog":
			logLines += lines
		case strings.HasPrefix(region, "adj-"):
			adjLines += lines
		default:
			t.Errorf("a store without properties or a media guard has a region %q", region)
		}
	})
	logB, adjB := perEdge(logLines), perEdge(adjLines)
	t.Logf("media B/edge: %.2f, the edge log %.2f, the adjacency arenas %.2f", float64(total)/bulkEdges, logB, adjB)
	for _, c := range []struct {
		region    string
		got, want float64
	}{{"edge log", logB, 8.07}, {"adjacency arenas", adjB, 55.6}, {"all regions", logB + adjB, float64(total) / bulkEdges}} {
		if math.Abs(c.got-c.want) > 0.05 {
			t.Errorf("%s: %.2f media B/edge, want %.2f", c.region, c.got, c.want)
		}
	}
}

// TestPageRankReadsEachLineOnce pins what one PageRank iteration over the
// bulk-ingest store costs the devices at the benchmark's 8 query workers,
// 4 per node: media lines read and XPLine accesses. With 4 workers a line
// stays in the XPBuffer for 64/4 = 16 accesses, so every access a walk
// spends on a line it already read pushes another line out. A walk that
// read each block's header and its records in two device reads made 299.3k
// accesses and read 101.0k lines.
func TestPageRankReadsEachLineOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("2^21 edges")
	}
	s, m, _ := bulkIngest(t)
	before := m.TotalStats()
	analytics.NewEngine(s, &m.Lat, 8).PageRank(1)
	d := m.TotalStats().Sub(before)
	lines, accesses := d.MediaReadLines, d.BufHits+d.BufMisses
	t.Logf("one PageRank iteration: %d media lines read, %d XPLine accesses", lines, accesses)
	for _, c := range []struct {
		name      string
		got, want int64
	}{{"media lines read", lines, 84_165}, {"XPLine accesses", accesses, 175_622}} {
		if math.Abs(float64(c.got-c.want)) > 0.005*float64(c.want) {
			t.Errorf("%s: %d, want %d within 0.5 %%", c.name, c.got, c.want)
		}
	}
}
