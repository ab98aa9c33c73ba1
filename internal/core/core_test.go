package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/pmem"
	"repro/internal/view"
	"repro/internal/xpsim"
)

func testMachine() (*xpsim.Machine, *pmem.Heap) {
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	return m, pmem.NewHeap(m)
}

func newStore(t *testing.T, opts Options) *Store {
	t.Helper()
	m, h := testMachine()
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reference builds plain adjacency maps from an edge stream with multiset
// deletion semantics.
type reference struct {
	out, in map[graph.VID][]uint32
}

func buildReference(edges []graph.Edge) *reference {
	r := &reference{out: map[graph.VID][]uint32{}, in: map[graph.VID][]uint32{}}
	for _, e := range edges {
		if e.IsDelete() {
			r.out[e.Src] = removeOne(r.out[e.Src], e.Target())
			r.in[e.Target()] = removeOne(r.in[e.Target()], e.Src)
			continue
		}
		r.out[e.Src] = append(r.out[e.Src], e.Dst)
		r.in[e.Dst] = append(r.in[e.Dst], e.Src)
	}
	return r
}

func removeOne(s []uint32, v uint32) []uint32 {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func sortedU32(u []uint32) []uint32 {
	v := append([]uint32(nil), u...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

func sameMultiset(a, b []uint32) bool {
	a, b = sortedU32(a), sortedU32(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkAgainstReference(t *testing.T, s *Store, ref *reference, numV graph.VID) {
	t.Helper()
	ctx := xpsim.NewCtx(0)
	for v := graph.VID(0); v < numV; v++ {
		if got, want := s.NbrsOut(ctx, v, nil), ref.out[v]; !sameMultiset(got, want) {
			t.Fatalf("vertex %d out: got %d nbrs %v, want %d %v", v, len(got), got, len(want), want)
		}
		if got, want := s.NbrsIn(ctx, v, nil), ref.in[v]; !sameMultiset(got, want) {
			t.Fatalf("vertex %d in: got %d nbrs, want %d", v, len(got), len(want))
		}
	}
}

func TestIngestSmall(t *testing.T) {
	s := newStore(t, Options{Name: "t1", NumVertices: 8, LogCapacity: 64, ArchiveThreshold: 8, ArchiveThreads: 4})
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 3}, {Src: 3, Dst: 1}}
	rep, err := s.Ingest(edges)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Edges != int64(len(edges)) {
		t.Fatalf("report edges = %d", rep.Edges)
	}
	if rep.TotalNs() <= 0 {
		t.Fatal("ingest must cost simulated time")
	}
	checkAgainstReference(t, s, buildReference(edges), 8)
}

func TestIngestRMATAllNUMAModes(t *testing.T) {
	edges := gen.RMAT(10, 20000, 123)
	ref := buildReference(edges)
	for name, mode := range map[string]NUMAMode{"none": NUMANone, "outin": NUMAOutIn, "subgraph": NUMASubgraph} {
		t.Run(name, func(t *testing.T) {
			s := newStore(t, Options{Name: "n-" + name, NumVertices: 1024, LogCapacity: 1 << 14,
				ArchiveThreshold: 1 << 10, NUMA: mode, ArchiveThreads: 8})
			if _, err := s.Ingest(edges); err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, s, ref, 1024)
		})
	}
}

func TestIngestBufferModes(t *testing.T) {
	edges := gen.RMAT(9, 8000, 5)
	ref := buildReference(edges)
	cases := map[string]Options{
		"hier":    {Buffer: BufferHierarchical},
		"fixed64": {Buffer: BufferFixed, MaxBufBytes: 64},
		"fixed8":  {Buffer: BufferFixed, MaxBufBytes: 8},
		"none":    {Buffer: BufferNone},
		"big":     {Buffer: BufferHierarchical, MaxBufBytes: 512},
	}
	for name, o := range cases {
		t.Run(name, func(t *testing.T) {
			o.Name = "b-" + name
			o.NumVertices = 512
			o.LogCapacity = 1 << 13
			o.ArchiveThreshold = 1 << 9
			o.ArchiveThreads = 4
			s := newStore(t, o)
			if _, err := s.Ingest(edges); err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, s, ref, 512)
		})
	}
}

func TestIngestVolatileMedia(t *testing.T) {
	edges := gen.RMAT(9, 8000, 6)
	ref := buildReference(edges)
	for name, medium := range map[string]Medium{"dram": MediumDRAM, "memmode": MediumMemoryMode} {
		t.Run(name, func(t *testing.T) {
			m, _ := testMachine()
			s, err := New(m, nil, nil, Options{Name: "v-" + name, NumVertices: 512,
				LogCapacity: 1 << 13, ArchiveThreshold: 1 << 9, Medium: medium, ArchiveThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Ingest(edges); err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, s, ref, 512)
		})
	}
}

func TestDeletions(t *testing.T) {
	s := newStore(t, Options{Name: "del", NumVertices: 8, LogCapacity: 64, ArchiveThreshold: 4, ArchiveThreads: 2})
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 1}, graph.Del(0, 1), {Src: 1, Dst: 0}, graph.Del(0, 9)}
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	got := s.NbrsOut(ctx, 0, nil)
	// One of the two 0->1 edges is deleted; del(0,9) has no match.
	if !sameMultiset(got, []uint32{1, 2}) {
		t.Fatalf("out(0) = %v, want {1,2}", got)
	}
	if in := s.NbrsIn(ctx, 1, nil); !sameMultiset(in, []uint32{0}) {
		t.Fatalf("in(1) = %v, want {0}", in)
	}
}

func TestLogWrapsAndFlushes(t *testing.T) {
	// A log far smaller than the edge stream forces many buffering and
	// flush-all phases and log wraparound.
	edges := gen.RMAT(8, 6000, 7)
	s := newStore(t, Options{Name: "wrap", NumVertices: 256, LogCapacity: 512,
		ArchiveThreshold: 128, ArchiveThreads: 4})
	rep, err := s.Ingest(edges)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlushAlls == 0 {
		t.Fatal("tiny log must force flush-all phases")
	}
	checkAgainstReference(t, s, buildReference(edges), 256)
}

func TestPoolPressureForcesFlush(t *testing.T) {
	edges := gen.RMAT(10, 20000, 8)
	s := newStore(t, Options{Name: "pool", NumVertices: 1024, LogCapacity: 1 << 15,
		ArchiveThreshold: 1 << 10, PoolBulk: 1 << 14, PoolMax: 1 << 16, ArchiveThreads: 4})
	rep, err := s.Ingest(edges)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlushAlls == 0 {
		t.Fatal("tiny pool must trigger pressure flushes")
	}
	checkAgainstReference(t, s, buildReference(edges), 1024)
}

func TestCrashRecovery(t *testing.T) {
	m, h := testMachine()
	opts := Options{Name: "rec", NumVertices: 512, LogCapacity: 1 << 12,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 4}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := gen.RMAT(9, 5000, 42)
	edges = dedupEdges(edges) // recovery dedup assumes no duplicate live edges
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}

	// Crash: drop the Store (all DRAM state); PMEM survives in the heap.
	s = nil
	rs, rep, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SimNs <= 0 || rep.BlocksScanned == 0 {
		t.Fatalf("suspicious recovery report: %+v", rep)
	}
	checkAgainstReference(t, rs, buildReference(edges), 512)

	// The recovered store keeps ingesting.
	more := []graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	if _, err := rs.Ingest(more); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, rs, buildReference(append(edges, more...)), 512)
}

// Property: crash after an arbitrary ingest prefix loses nothing — the
// recovered neighbor sets equal the reference built from exactly the
// logged prefix (§III-B edge-level consistency).
func TestCrashRecoveryProperty(t *testing.T) {
	all := dedupEdges(gen.RMAT(8, 3000, 77))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cut := 1 + rng.Intn(len(all)-1)
		prefix := all[:cut]

		m, h := testMachine()
		opts := Options{Name: "p", NumVertices: 256, LogCapacity: 1 << 11,
			ArchiveThreshold: 1 << 7, ArchiveThreads: 3,
			NUMA: NUMAMode(rng.Intn(3))}
		s, err := New(m, h, nil, opts)
		if err != nil {
			return false
		}
		// Ingest in two calls; crash strikes after the first commit
		// point plus whatever the second call logged.
		mid := cut / 2
		if _, err := s.Ingest(prefix[:mid]); err != nil {
			return false
		}
		if _, err := s.Ingest(prefix[mid:]); err != nil {
			return false
		}
		rs, _, err := Recover(m, h, nil, opts)
		if err != nil {
			return false
		}
		ref := buildReference(prefix)
		ctx := xpsim.NewCtx(0)
		for v := graph.VID(0); v < 256; v++ {
			if !sameMultiset(rs.NbrsOut(ctx, v, nil), ref.out[v]) {
				return false
			}
			if !sameMultiset(rs.NbrsIn(ctx, v, nil), ref.in[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func dedupEdges(edges []graph.Edge) []graph.Edge {
	seen := make(map[graph.Edge]bool, len(edges))
	out := edges[:0]
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

func TestViewInterfaces(t *testing.T) {
	s := newStore(t, Options{Name: "view", NumVertices: 16, LogCapacity: 256,
		ArchiveThreshold: 64, ArchiveThreads: 2})
	ctx := xpsim.NewCtx(0)
	// Log a few edges below the archive threshold: they stay in the log.
	for _, e := range []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 4, Dst: 1}} {
		if _, err := s.log.Append(ctx, []graph.Edge{e}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.LoggedEdges(ctx); len(got) != 3 {
		t.Fatalf("logged edges = %d, want 3", len(got))
	}
	if got := s.NbrsLog(ctx, Out, 1, nil); !sameMultiset(got, []uint32{2, 3}) {
		t.Fatalf("log out(1) = %v", got)
	}
	if got := s.NbrsLog(ctx, In, 1, nil); !sameMultiset(got, []uint32{4}) {
		t.Fatalf("log in(1) = %v", got)
	}
	// Buffer them: they move to vertex buffers.
	if err := s.BufferAllEdges(); err != nil {
		t.Fatal(err)
	}
	if got := s.NbrsBuf(ctx, Out, 1, nil); !sameMultiset(got, []uint32{2, 3}) {
		t.Fatalf("buf out(1) = %v", got)
	}
	if got := s.NbrsFlush(ctx, Out, 1, nil); len(got) != 0 {
		t.Fatalf("flush out(1) = %v before any flush", got)
	}
	// Flush all: they land in PMEM.
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	if got := s.NbrsFlush(ctx, Out, 1, nil); !sameMultiset(got, []uint32{2, 3}) {
		t.Fatalf("flush out(1) = %v after flush", got)
	}
	if got := s.NbrsBuf(ctx, Out, 1, nil); len(got) != 0 {
		t.Fatalf("buf out(1) = %v after flush", got)
	}
	// The merged view is stable throughout.
	if got := s.NbrsOut(ctx, 1, nil); !sameMultiset(got, []uint32{2, 3}) {
		t.Fatalf("merged out(1) = %v", got)
	}
}

func TestCompact(t *testing.T) {
	s := newStore(t, Options{Name: "cmp", NumVertices: 8, LogCapacity: 64, ArchiveThreshold: 4, ArchiveThreads: 2})
	var edges []graph.Edge
	for i := uint32(0); i < 100; i++ {
		edges = append(edges, graph.Edge{Src: 1, Dst: i})
	}
	edges = append(edges, graph.Del(1, 50))
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	if err := s.CompactAdjs(ctx, 1); err != nil {
		t.Fatal(err)
	}
	got := s.NbrsOut(ctx, 1, nil)
	if len(got) != 99 {
		t.Fatalf("after compact: %d nbrs, want 99", len(got))
	}
	for _, n := range got {
		if n == 50 {
			t.Fatal("deleted neighbor survived compact")
		}
	}
}

func TestDegreeTracking(t *testing.T) {
	s := newStore(t, Options{Name: "deg", NumVertices: 8, LogCapacity: 64, ArchiveThreshold: 4, ArchiveThreads: 2})
	if _, err := s.Ingest([]graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 3, Dst: 0}}); err != nil {
		t.Fatal(err)
	}
	if s.OutDegree(0) != 2 || s.InDegree(0) != 1 || s.OutDegree(7) != 0 {
		t.Fatalf("degrees: out0=%d in0=%d", s.OutDegree(0), s.InDegree(0))
	}
}

func TestMemUsageBreakdown(t *testing.T) {
	s := newStore(t, Options{Name: "mu", NumVertices: 512, LogCapacity: 1 << 12,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 4})
	if _, err := s.Ingest(gen.RMAT(9, 5000, 3)); err != nil {
		t.Fatal(err)
	}
	u := s.MemUsage()
	if u.MetaDRAM <= 0 || u.VbufDRAM <= 0 || u.ElogPMEM <= 0 || u.PblkPMEM < 0 {
		t.Fatalf("incomplete breakdown: %+v", u)
	}
}

func TestDRAMBudgetOOM(t *testing.T) {
	// A DRAM-only store with a tiny budget must fail with ErrOOM, the
	// way GraphOne-D/XPGraph-D fail on large graphs (Fig. 12).
	m, _ := testMachine()
	budget := mem.NewBudget(64 << 10)
	s, err := New(m, nil, budget, Options{Name: "oom", NumVertices: 512,
		LogCapacity: 1 << 12, ArchiveThreshold: 1 << 8, Medium: MediumDRAM, ArchiveThreads: 2})
	if err != nil {
		// Construction itself may exhaust the budget; that's an
		// acceptable OOM point too.
		return
	}
	_, err = s.Ingest(gen.RMAT(10, 30000, 4))
	if err == nil {
		t.Fatal("expected OOM with a 64 KiB DRAM budget")
	}
}

func TestBatteryVariantIngests(t *testing.T) {
	edges := gen.RMAT(9, 8000, 11)
	s := newStore(t, Options{Name: "bat", NumVertices: 512, LogCapacity: 1 << 10,
		ArchiveThreshold: 1 << 8, Battery: true, ArchiveThreads: 4})
	rep, err := s.Ingest(edges)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, s, buildReference(edges), 512)

	// The battery variant should flush less: compare against standard.
	s2 := newStore(t, Options{Name: "nobat", NumVertices: 512, LogCapacity: 1 << 10,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 4})
	rep2, err := s2.Ingest(edges)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlushAlls > rep2.FlushAlls {
		t.Errorf("battery variant ran %d flush-alls vs %d without battery", rep.FlushAlls, rep2.FlushAlls)
	}
}

func TestSSDOverflowExtension(t *testing.T) {
	// SSD-supported XPGraph (§V-F future work): with a deliberately tiny
	// PMEM adjacency arena, ingestion overflows blocks onto the SSD tier
	// and still answers queries correctly — just slower.
	edges := gen.RMAT(10, 30000, 19)
	ref := buildReference(edges)

	m1, h1 := testMachine()
	small, err := New(m1, h1, nil, Options{Name: "ssd", NumVertices: 1024,
		LogCapacity: 1 << 14, ArchiveThreshold: 1 << 10, ArchiveThreads: 4,
		AdjBytes: 96 << 10, SSDOverflow: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	repTier, err := small.Ingest(edges)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, small, ref, 1024)
	if small.SSDBytes() == 0 {
		t.Fatal("expected adjacency blocks to spill onto the SSD tier")
	}

	// Without the SSD tier the same arena must fail...
	m2, h2 := testMachine()
	bare, err := New(m2, h2, nil, Options{Name: "bare", NumVertices: 1024,
		LogCapacity: 1 << 14, ArchiveThreshold: 1 << 10, ArchiveThreads: 4,
		AdjBytes: 96 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Ingest(edges); err == nil {
		t.Fatal("tiny PMEM arena without SSD overflow should run out of space")
	}

	// ...and a PMEM-sufficient store must be faster than the tiered one.
	m3, h3 := testMachine()
	big, err := New(m3, h3, nil, Options{Name: "big", NumVertices: 1024,
		LogCapacity: 1 << 14, ArchiveThreshold: 1 << 10, ArchiveThreads: 4,
		AdjBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	repPMEM, err := big.Ingest(edges)
	if err != nil {
		t.Fatal(err)
	}
	if repTier.TotalNs() <= repPMEM.TotalNs() {
		t.Errorf("tiered ingest %dns should cost more than pure PMEM %dns",
			repTier.TotalNs(), repPMEM.TotalNs())
	}

	// Tiered stores refuse recovery (documented extension limitation).
	if _, _, err := Recover(m1, h1, nil, Options{Name: "ssd", SSDOverflow: 1}); err == nil {
		t.Fatal("tiered recovery should be rejected")
	}
}

// Property: a random mix of insertions and deletions matches the
// reference multiset semantics across buffer modes.
func TestDeletionMixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var edges []graph.Edge
		var live []graph.Edge
		for i := 0; i < 1500; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				e := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				edges = append(edges, graph.Del(e.Src, e.Dst))
				continue
			}
			e := graph.Edge{Src: uint32(rng.Intn(64)), Dst: uint32(rng.Intn(64))}
			edges = append(edges, e)
			live = append(live, e)
		}
		mode := []BufferMode{BufferHierarchical, BufferFixed, BufferNone}[rng.Intn(3)]
		m, h := testMachine()
		s, err := New(m, h, nil, Options{Name: "delmix", NumVertices: 64,
			LogCapacity: 1 << 10, ArchiveThreshold: 1 << 6, ArchiveThreads: 3, Buffer: mode})
		if err != nil {
			return false
		}
		if _, err := s.Ingest(edges); err != nil {
			return false
		}
		ref := buildReference(edges)
		ctx := xpsim.NewCtx(0)
		for v := graph.VID(0); v < 64; v++ {
			if !sameMultiset(s.NbrsOut(ctx, v, nil), ref.out[v]) {
				return false
			}
			if !sameMultiset(s.NbrsIn(ctx, v, nil), ref.in[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicVertexGrowth(t *testing.T) {
	// Edges referencing IDs far beyond NumVertices must grow the store.
	s := newStore(t, Options{Name: "grow", NumVertices: 4, LogCapacity: 64,
		ArchiveThreshold: 8, ArchiveThreads: 2})
	if err := s.AddEdge(100, 2000); err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() < 2001 {
		t.Fatalf("store did not grow: %d vertices", s.NumVertices())
	}
	ctx := xpsim.NewCtx(0)
	if got := s.NbrsOut(ctx, 100, nil); !sameMultiset(got, []uint32{2000}) {
		t.Fatalf("out(100) = %v", got)
	}
}

func TestBufferEdgesInterface(t *testing.T) {
	s := newStore(t, Options{Name: "bufe", NumVertices: 8, LogCapacity: 64,
		ArchiveThreshold: 32, ArchiveThreads: 2})
	n, err := s.BufferEdges([]graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}})
	if err != nil || n != 2 {
		t.Fatalf("BufferEdges = %d, %v", n, err)
	}
	// buffer_edges leaves nothing pending in the log window.
	if s.Log().PendingBuffer() != 0 {
		t.Fatalf("pending after BufferEdges = %d", s.Log().PendingBuffer())
	}
	ctx := xpsim.NewCtx(0)
	if got := s.NbrsBuf(ctx, Out, 1, nil); !sameMultiset(got, []uint32{2, 3}) {
		t.Fatalf("buffered out(1) = %v", got)
	}
}

func TestVisitMatchesNbrs(t *testing.T) {
	edges := gen.RMAT(9, 8000, 23)
	edges = append(edges, graph.Del(edges[0].Src, edges[0].Dst), graph.Del(1, 999999))
	s := newStore(t, Options{Name: "visit", NumVertices: 512, LogCapacity: 1 << 13,
		ArchiveThreshold: 1 << 9, ArchiveThreads: 4})
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	for v := graph.VID(0); v < 512; v++ {
		for d := Out; d <= In; d++ {
			want := s.Nbrs(ctx, d, v, nil)
			var got []uint32
			if err := s.Visit(ctx, d, v, view.Opts{}, func(nbrs []uint32, _ []uint16) { got = append(got, nbrs...) }); err != nil {
				t.Fatal(err)
			}
			if !sameMultiset(got, want) {
				t.Fatalf("vertex %d dir %d: visit %d records, Nbrs %d", v, d, len(got), len(want))
			}
		}
	}
	// Out of range is a no-op.
	s.VisitOut(ctx, 1<<30, func(uint32) { t.Fatal("visited out-of-range vertex") })
}

func TestVisitAfterRecoveryResolvesTombstones(t *testing.T) {
	m, h := testMachine()
	opts := Options{Name: "vrec", NumVertices: 16, LogCapacity: 1 << 8,
		ArchiveThreshold: 4, ArchiveThreads: 2}
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Force the tombstone to PMEM before the crash.
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, graph.Del(1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	s = nil
	rs, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	var got []uint32
	rs.VisitOut(ctx, 1, func(n uint32) { got = append(got, n) })
	if !sameMultiset(got, []uint32{3}) {
		t.Fatalf("post-recovery visit out(1) = %v, want {3}", got)
	}
}

func TestFourSocketMachine(t *testing.T) {
	// §III-D: the sub-graph strategy generalizes to P-socket systems.
	m := xpsim.NewMachine(4, 128<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	s, err := New(m, h, nil, Options{Name: "quad", NumVertices: 1024,
		LogCapacity: 1 << 13, ArchiveThreshold: 1 << 9, ArchiveThreads: 16,
		NUMA: NUMASubgraph, AdjBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPartitions() != 4 {
		t.Fatalf("partitions = %d, want 4", s.NumPartitions())
	}
	edges := gen.RMAT(10, 15000, 55)
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, s, buildReference(edges), 1024)
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	// All of a vertex's records, in both directions, sit in the arena of the
	// node Store.Node names, and every node holds a share of the graph.
	var perNode [4]int
	for v := graph.VID(0); v < 1024; v++ {
		node := s.Node(Out, v)
		if in := s.Node(In, v); in != node {
			t.Fatalf("vertex %d: out-list on node %d, in-list on node %d", v, node, in)
		}
		for d := 0; d < 2; d++ {
			for p, g := range s.groups[d] {
				switch recs := g.adj.Records(v); {
				case p != node && recs != 0:
					t.Fatalf("vertex %d lives on node %d, but partition %d holds %d of its %s-records", v, node, p, recs, dirName(d))
				case p == node && g.node != node:
					t.Fatalf("partition %d is bound to node %d", p, g.node)
				case p == node:
					perNode[node] += recs
				}
			}
		}
	}
	for node, recs := range perNode {
		if recs == 0 {
			t.Fatalf("node %d holds no records: %v", node, perNode)
		}
	}
}

func TestEdgesExport(t *testing.T) {
	stream := dedupEdges(gen.RMAT(8, 1200, 61))
	stream = append(stream, graph.Del(stream[0].Src, stream[0].Dst))
	s := newStore(t, Options{Name: "exp", NumVertices: 256, LogCapacity: 1 << 11,
		ArchiveThreshold: 1 << 6, ArchiveThreads: 2})
	if _, err := s.Ingest(stream); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	got := map[graph.Edge]int{}
	s.Edges(ctx, func(e graph.Edge) { got[e]++ })
	ref := buildReference(stream)
	var want int
	for v, outs := range ref.out {
		want += len(outs)
		for _, d := range outs {
			if got[graph.Edge{Src: v, Dst: d}] == 0 {
				t.Fatalf("exported edges missing %d->%d", v, d)
			}
		}
	}
	var total int
	for _, c := range got {
		total += c
	}
	if total != want {
		t.Fatalf("exported %d edges, want %d", total, want)
	}
}

func TestVerifyHealthyStore(t *testing.T) {
	edges := gen.RMAT(9, 6000, 71)
	s := newStore(t, Options{Name: "fsck", NumVertices: 512, LogCapacity: 1 << 12,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 4})
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	rep, err := s.Verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AdjRecords+rep.BufRecords != int64(len(edges))*2 {
		t.Fatalf("verify found %d records, want %d", rep.AdjRecords+rep.BufRecords, len(edges)*2)
	}
	// After flush-all, everything is in PMEM.
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	rep, err = s.Verify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BufRecords != 0 || rep.AdjRecords != int64(len(edges))*2 {
		t.Fatalf("post-flush verify: %+v", rep)
	}
	// And after recovery.
	m, h := s.Machine(), s.Heap()
	opts := s.Options()
	s = nil
	rs, _, err := Recover(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Verify(ctx); err != nil {
		t.Fatalf("recovered store fails verify: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	s := newStore(t, Options{Name: "fsck2", NumVertices: 16, LogCapacity: 256,
		ArchiveThreshold: 4, ArchiveThreads: 2})
	if _, err := s.Ingest([]graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the DRAM vertex index.
	s.records[Out][1] = 99
	ctx := xpsim.NewCtx(0)
	if _, err := s.Verify(ctx); err == nil {
		t.Fatal("verify must detect index/record mismatch")
	}
}

func TestSmallAPISurface(t *testing.T) {
	s := newStore(t, Options{Name: "api2", NumVertices: 16, LogCapacity: 256,
		ArchiveThreshold: 4, ArchiveThreads: 2})
	if err := s.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.DelEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	if got := s.NbrsOut(ctx, 1, nil); len(got) != 0 {
		t.Fatalf("out(1) after del = %v", got)
	}
	if s.OutNode(1) != s.Node(Out, 1) || s.InNode(1) != s.Node(In, 1) {
		t.Fatal("node accessors disagree")
	}
	if n, err := s.Degree(Out, 1); err != nil || n != s.OutDegree(1) {
		t.Fatal("degree accessors disagree")
	}
	if n, err := s.Degree(Out, 9999); err != nil || n != 0 {
		t.Fatal("out-of-range degree should be 0")
	}
	// Vertex 2 is tombstoned: the add and its deletion cancel.
	var in []uint32
	s.VisitIn(ctx, 2, func(n uint32) { in = append(in, n) })
	if len(in) != 0 {
		t.Fatalf("VisitIn resolved records = %v, want none", in)
	}
	if err := s.AddEdge(3, 2); err != nil {
		t.Fatal(err)
	}
	s.VisitIn(ctx, 2, func(n uint32) { in = append(in, n) })
	if len(in) != 1 || in[0] != 3 {
		t.Fatalf("VisitIn after re-add = %v, want [3]", in)
	}
	if s.Pool() == nil {
		t.Fatal("pool accessor nil")
	}
	rep := s.Report()
	var agg IngestReport
	agg.Add(rep)
	agg.Add(rep)
	if agg.Edges != 2*rep.Edges || agg.TotalNs() < rep.TotalNs() {
		t.Fatalf("report aggregation wrong: %+v vs %+v", agg, rep)
	}
	s.ResetReport()
	if s.Report().Edges != 0 {
		t.Fatal("ResetReport did not clear")
	}
}

func TestCompactAllAdjs(t *testing.T) {
	edges := gen.RMAT(8, 2000, 73)
	s := newStore(t, Options{Name: "call", NumVertices: 256, LogCapacity: 1 << 11,
		ArchiveThreshold: 1 << 6, ArchiveThreads: 2})
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	if err := s.CompactAllAdjs(ctx); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, s, buildReference(edges), 256)
	if _, err := s.Verify(ctx); err != nil {
		t.Fatalf("verify after compact-all: %v", err)
	}
}

// Property: the simulated clock is deterministic — the same workload on
// the same configuration costs exactly the same simulated time.
func TestDeterministicSimulation(t *testing.T) {
	edges := gen.RMAT(9, 5000, 99)
	run := func() (int64, int64) {
		m, h := testMachine()
		s, err := New(m, h, nil, Options{Name: "det", NumVertices: 512,
			LogCapacity: 1 << 12, ArchiveThreshold: 1 << 8, ArchiveThreads: 8})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Ingest(edges)
		if err != nil {
			t.Fatal(err)
		}
		st := m.TotalStats()
		return rep.TotalNs(), st.MediaWriteLines
	}
	t1, w1 := run()
	t2, w2 := run()
	if t1 != t2 || w1 != w2 {
		t.Fatalf("non-deterministic simulation: %d/%d vs %d/%d", t1, w1, t2, w2)
	}
}
