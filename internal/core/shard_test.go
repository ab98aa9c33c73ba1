package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/mempool"
	"repro/internal/obs"
	"repro/internal/xpsim"
)

// stripeRecords is how many edge records one 4 KiB interleave stripe of
// the log holds; firstStripeEnd is the log counter the first stripe ends
// at (the ring starts 512 bytes into its region).
const (
	stripeRecords  = 4096 / graph.EdgeBytes
	firstStripeEnd = 448
)

// TestTombstoneOrderAcrossStripes: updates of one edge that sit in
// different log stripes — different nodes, different sharders — still reach
// the vertex's list in log order. Edge 5->9 is added in stripe 0, deleted
// in stripe 1 and added again in stripe 2: one copy lives. Edge 6->9 is
// added in stripe 1 (node 1) and deleted in stripe 2 (node 0): lists
// concatenated sharder by sharder would put the tombstone first and keep
// the edge. Live, and again after crash + recovery replays the window.
func TestTombstoneOrderAcrossStripes(t *testing.T) {
	edges := make([]graph.Edge, firstStripeEnd+2*stripeRecords+100)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VID(100 + i%400), Dst: graph.VID(100 + (i*7)%400)}
	}
	edges[firstStripeEnd-1] = graph.Edge{Src: 5, Dst: 9}               // stripe 0, its last record
	edges[firstStripeEnd] = graph.Del(5, 9)                            // stripe 1, its first
	edges[firstStripeEnd+stripeRecords] = graph.Edge{Src: 5, Dst: 9}   // stripe 2, its first
	edges[firstStripeEnd+stripeRecords-1] = graph.Edge{Src: 6, Dst: 9} // stripe 1, its last
	edges[firstStripeEnd+stripeRecords+1] = graph.Del(6, 9)            // stripe 2

	opts := Options{Name: "stripes", NumVertices: 512, ArchiveThreads: 16, NUMA: NUMASubgraph, AdjBytes: 8 << 20}
	s := newStore(t, opts)
	for at := int64(0); at < int64(len(edges)); {
		end, _ := s.log.Stripe(at, int64(len(edges)))
		if at == 0 && end != firstStripeEnd || at > 0 && end-at != stripeRecords && end != int64(len(edges)) {
			t.Fatalf("stripe [%d,%d): the test's idea of the log layout is off", at, end)
		}
		at = end
	}
	if rep, err := s.Ingest(edges); err != nil || rep.Batches != 1 {
		t.Fatalf("ingest: %v, %d batches (want the three stripes in one)", err, rep.Batches)
	}
	check := func(s *Store, when string) {
		t.Helper()
		ctx := xpsim.NewCtx(0)
		if got := s.NbrsOut(ctx, 5, nil); !difftest.SameMultiset(got, []uint32{9}) {
			t.Errorf("%s: out(5) = %v, want {9}", when, got)
		}
		if got := s.NbrsOut(ctx, 6, nil); len(got) != 0 {
			t.Errorf("%s: out(6) = %v, want none", when, got)
		}
		if got := s.NbrsIn(ctx, 9, nil); !difftest.SameMultiset(got, []uint32{5}) {
			t.Errorf("%s: in(9) = %v, want {5}", when, got)
		}
		checkModel(t, s, difftest.Of(edges))
	}
	check(s, "live")

	clone, err := s.Heap().CrashClone()
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := Recover(clone.Machine(), clone, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != int64(len(edges)) {
		t.Fatalf("replayed %d of %d edges: the window should be the whole stream", rep.Replayed, len(edges))
	}
	check(rs, "recovered")
}

// TestShardStageReadsLogLocally: with sub-graph binding every stripe of
// the interleaved log is read by an archive thread on the stripe's own
// node, so buffering a batch crosses no socket. (One unbound sharder read
// half the stripes remotely.)
func TestShardStageReadsLogLocally(t *testing.T) {
	s := newStore(t, Options{Name: "local", NumVertices: 1 << 12, ArchiveThreads: 16, NUMA: NUMASubgraph, AdjBytes: 8 << 20})
	edges := gen.RMAT(12, 20000, 3)
	if _, err := s.log.Append(xpsim.NewCtx(xpsim.NodeUnbound), edges); err != nil {
		t.Fatal(err)
	}
	before := s.machine.SnapshotStats()
	if err := s.BufferAllEdges(); err != nil {
		t.Fatal(err)
	}
	d := s.machine.SnapshotStats().Sub(before)
	if d.ReqReadBytes < int64(len(edges))*graph.EdgeBytes {
		t.Fatalf("buffering read %d bytes of PMEM, the batch is %d", d.ReqReadBytes, len(edges)*graph.EdgeBytes)
	}
	if d.RemoteAccesses != 0 {
		t.Fatalf("buffering made %d remote line accesses (%d local)", d.RemoteAccesses, d.LocalAccesses)
	}
}

// TestNbrsLogConcurrentReaders: the window queries read the log in spans
// through buffers no two readers share (run under -race).
func TestNbrsLogConcurrentReaders(t *testing.T) {
	s := newStore(t, Options{Name: "logreaders", NumVertices: 64, ArchiveThreads: 4, NUMA: NUMASubgraph, AdjBytes: 8 << 20})
	edges := gen.RMAT(6, 3000, 5) // a window of six stripes
	if _, err := s.log.Append(xpsim.NewCtx(xpsim.NodeUnbound), edges); err != nil {
		t.Fatal(err)
	}
	want := make([][]uint32, 64)
	for _, e := range edges {
		want[e.Src] = append(want[e.Src], e.Dst)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			ctx := xpsim.NewCtx(node)
			for v := graph.VID(0); v < 64; v++ {
				if got := s.NbrsLog(ctx, Out, v, nil); !difftest.SameMultiset(got, want[v]) {
					errs <- fmt.Errorf("reader %d: log out(%d) = %v, want %v", node, v, got, want[v])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSteadyStateIngestAllocations is the allocation budget of the
// archiving path: on a warmed store one 2048-edge Ingest — log, shard,
// drain, log mark — allocates nothing: the ranged lists, the log's encode
// and span buffers, its cursor words, the workers' contexts and the logging
// and marking contexts are all store-owned or pooled scratch. A traced
// store (the server always attaches a tracer) keeps the same budget: its
// worker span names are built once.
func TestSteadyStateIngestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	for _, tracer := range []*obs.Tracer{nil, obs.NewTracer(0)} {
		t.Run(fmt.Sprintf("traced=%v", tracer != nil), func(t *testing.T) {
			s := newStore(t, Options{Name: "allocs", NumVertices: 1 << 14, ArchiveThreads: 16, NUMA: NUMASubgraph, AdjBytes: 32 << 20, Tracer: tracer})
			edges := gen.RMAT(14, 16*2048, 9)
			next := func() []graph.Edge {
				b := edges[:2048]
				edges = edges[2048:]
				return b
			}
			for i := 0; i < 4; i++ {
				if _, err := s.Ingest(next()); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(8, func() {
				if _, err := s.Ingest(next()); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocations per 2048-edge Ingest", allocs)
			if allocs > 0 {
				t.Fatalf("one 2048-edge Ingest on a warmed store allocates %.0f times, budget 0", allocs)
			}
		})
	}
}

// TestFirstIngestBacksOnlyWhatItCarves: a pool bulk is a reservation. A
// fresh store's first 2048-edge Ingest takes a default bulk for each of its
// 16 buffering threads, and the DRAM budget and the pool footprint count
// them whole, 256 MiB. Host memory backs each bulk only up to the segment
// its buffers reached, its first 256 KiB, so the Ingest allocates about
// 16 × 256 KiB.
func TestFirstIngestBacksOnlyWhatItCarves(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations show in MemStats")
	}
	const threads = 16
	m, h := testMachine()
	budget := mem.NewBudget(0)
	s, err := New(m, h, budget, Options{Name: "first", NumVertices: 1 << 14, ArchiveThreads: threads, NUMA: NUMASubgraph, AdjBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	charged := budget.Used()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Ingest(gen.RMAT(14, 2048, 9)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	p := s.Pool()
	reserved := int64(threads * mempool.DefaultBulkSize)
	if p.Footprint() != reserved || budget.Used()-charged < reserved {
		t.Fatalf("footprint %d B, budget charged %d B: want both to cover %d B of bulks",
			p.Footprint(), budget.Used()-charged, reserved)
	}
	first := mempool.FirstSegment(mempool.DefaultBulkSize)
	if want := threads * first; p.Backed() != want {
		t.Fatalf("%d B of bulks backed, want %d threads × one first segment = %d B", p.Backed(), threads, want)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("the first 2048-edge Ingest allocated %d B; %d B of bulks reserved, %d B backed", got, reserved, p.Backed())
	if limit := uint64(2 * threads * first); got > limit {
		t.Fatalf("the first 2048-edge Ingest allocated %d B, budget %d B", got, limit)
	}
}

// TestRecoveryScalesWithArchiveThreads: the replay is the buffering phase,
// so one crash image recovers to the same graph on 16 archive threads and
// on 1, at least 3x faster on 16.
func TestRecoveryScalesWithArchiveThreads(t *testing.T) {
	opts := Options{Name: "rscale", NumVertices: 1 << 12, ArchiveThreads: 16, NUMA: NUMASubgraph, AdjBytes: 8 << 20}
	s := newStore(t, opts)
	edges := gen.Evolving(12, 60000, 0.1, 17)
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	recoverOn := func(threads int) (*Store, RecoveryReport) {
		clone, err := s.Heap().CrashClone()
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.ArchiveThreads = threads
		rs, rep, err := Recover(clone.Machine(), clone, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		return rs, rep
	}
	wide, wideRep := recoverOn(16)
	one, oneRep := recoverOn(1)
	ref := difftest.Of(edges)
	checkModel(t, wide, ref)
	checkModel(t, one, ref)
	if wideRep.Replayed != oneRep.Replayed || wideRep.Replayed == 0 {
		t.Fatalf("replayed %d edges on 16 threads, %d on 1", wideRep.Replayed, oneRep.Replayed)
	}
	t.Logf("recovery of a %d-edge window: %d sim-ns on 16 threads, %d on 1 (%.1fx)",
		wideRep.Replayed, wideRep.SimNs, oneRep.SimNs, float64(oneRep.SimNs)/float64(wideRep.SimNs))
	if oneRep.SimNs < 3*wideRep.SimNs {
		t.Fatalf("recovery on 16 threads takes %d sim-ns, on 1 thread %d: want >= 3x apart", wideRep.SimNs, oneRep.SimNs)
	}
}

// TestWarmFlushAllocatesNothing: once a store's flushes have sized the
// drain's item lists, the ack list and the span names, a flush-all — both
// drain passes, the ack cycle and the commit — allocates nothing.
func TestWarmFlushAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations show in MemStats")
	}
	s := newStore(t, Options{Name: "flushallocs", NumVertices: 1 << 14, ArchiveThreads: 16, NUMA: NUMASubgraph, AdjBytes: 32 << 20})
	edges := gen.RMAT(14, 24*4096, 9)
	var mallocs uint64
	for round := 0; round < 24; round++ {
		if _, err := s.Ingest(edges[round*4096 : (round+1)*4096]); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.FlushAllVbufs(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if round >= 16 {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	t.Logf("%d allocations over 8 warm flush-alls", mallocs)
	if mallocs != 0 {
		t.Fatalf("8 warm flush-alls allocate %d times, want 0", mallocs)
	}
}
