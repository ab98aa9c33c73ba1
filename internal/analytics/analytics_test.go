package analytics

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// mapView is a plain in-memory reference view.
type mapView struct {
	n        graph.VID
	out, in  map[graph.VID][]uint32
	nodeOfFn func(graph.VID) int
}

func newMapView(numV graph.VID, edges []graph.Edge) *mapView {
	mv := &mapView{n: numV, out: map[graph.VID][]uint32{}, in: map[graph.VID][]uint32{}}
	for _, e := range edges {
		mv.out[e.Src] = append(mv.out[e.Src], e.Dst)
		mv.in[e.Dst] = append(mv.in[e.Dst], e.Src)
	}
	return mv
}

func (m *mapView) NumVertices() graph.VID { return m.n }
func (m *mapView) NbrsOut(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32 {
	return append(dst, m.out[v]...)
}
func (m *mapView) NbrsIn(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32 {
	return append(dst, m.in[v]...)
}
func (m *mapView) VisitOut(ctx *xpsim.Ctx, v graph.VID, fn func(uint32)) {
	for _, u := range m.out[v] {
		fn(u)
	}
}
func (m *mapView) VisitIn(ctx *xpsim.Ctx, v graph.VID, fn func(uint32)) {
	for _, u := range m.in[v] {
		fn(u)
	}
}
func (m *mapView) OutNode(v graph.VID) int {
	if m.nodeOfFn != nil {
		return m.nodeOfFn(v)
	}
	return xpsim.NodeUnbound
}
func (m *mapView) InNode(v graph.VID) int    { return m.OutNode(v) }
func (m *mapView) OutDegree(v graph.VID) int { return len(m.out[v]) }

func testLat() *xpsim.LatencyModel {
	lat := xpsim.DefaultLatency()
	return &lat
}

func lineGraph(n int) []graph.Edge {
	var es []graph.Edge
	for i := 0; i < n-1; i++ {
		es = append(es, graph.Edge{Src: graph.VID(i), Dst: graph.VID(i + 1)})
	}
	return es
}

func TestBFSLineGraph(t *testing.T) {
	e := NewEngine(newMapView(10, lineGraph(10)), testLat(), 4)
	res := e.BFS(0)
	if res.Visited != 10 || res.Levels != 10 {
		t.Fatalf("BFS on line: visited=%d levels=%d, want 10/10", res.Visited, res.Levels)
	}
	// From the middle, only the suffix is reachable.
	res = e.BFS(5)
	if res.Visited != 5 {
		t.Fatalf("BFS from 5: visited=%d, want 5", res.Visited)
	}
}

func TestBFSMatchesReferenceOnRMAT(t *testing.T) {
	edges := gen.RMAT(10, 8000, 9)
	mv := newMapView(1024, edges)
	e := NewEngine(mv, testLat(), 8)
	res := e.BFS(0)

	// Reference BFS.
	visited := make([]bool, 1024)
	visited[0] = true
	q := []graph.VID{0}
	count := 1
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, u := range mv.out[v] {
			if !visited[u] {
				visited[u] = true
				count++
				q = append(q, graph.VID(u))
			}
		}
	}
	if res.Visited != int64(count) {
		t.Fatalf("BFS visited %d, reference %d", res.Visited, count)
	}
}

func TestCCComponents(t *testing.T) {
	// Two triangles and 4 isolated vertices: 2 + 4 components.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}}
	e := NewEngine(newMapView(10, edges), testLat(), 4)
	res := e.CC()
	if res.Components != 6 {
		t.Fatalf("CC = %d components, want 6", res.Components)
	}
	if res.Labels[1] != res.Labels[2] || res.Labels[0] != res.Labels[1] {
		t.Fatal("triangle not merged")
	}
	if res.Labels[0] == res.Labels[3] {
		t.Fatal("separate components merged")
	}
}

func TestPageRankProperties(t *testing.T) {
	edges := gen.RMAT(8, 2000, 10)
	mv := newMapView(256, edges)
	e := NewEngine(mv, testLat(), 4)
	res := e.PageRank(10)
	var sum float64
	for _, r := range res.Ranks {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Ranks approximately sum to <=1 (dangling vertices leak mass in
	// this formulation, as in most graph-system implementations).
	if sum <= 0 || sum > 1.0001 {
		t.Fatalf("rank sum = %f", sum)
	}
	// A hub with many in-edges must outrank an untouched vertex.
	var hub graph.VID
	best := 0
	for v, ins := range mv.in {
		if len(ins) > best {
			best = len(ins)
			hub = v
		}
	}
	var lone graph.VID
	for v := graph.VID(0); v < 256; v++ {
		if len(mv.in[v]) == 0 {
			lone = v
			break
		}
	}
	if res.Ranks[hub] <= res.Ranks[lone] {
		t.Fatalf("hub rank %g <= lone rank %g", res.Ranks[hub], res.Ranks[lone])
	}
}

func TestPageRankDeterministic(t *testing.T) {
	edges := gen.RMAT(8, 2000, 11)
	a := NewEngine(newMapView(256, edges), testLat(), 4).PageRank(5)
	b := NewEngine(newMapView(256, edges), testLat(), 8).PageRank(5)
	for i := range a.Ranks {
		if math.Abs(a.Ranks[i]-b.Ranks[i]) > 1e-12 {
			t.Fatal("PageRank result depends on thread count")
		}
	}
}

// TestSimulatedTimeRepeats: the per-node buckets of a phase run one after
// the other on devices whose XPBuffer state carries over, so the order they
// run in is part of the simulated time. It is node order: BFS + PageRank on
// one snapshot of a sub-graph store cost the same simulated nanoseconds run
// after run (the first run, which starts on the XPBuffer the flush left
// behind, set aside). Ranging over the bucket map, they did not.
func TestSimulatedTimeRepeats(t *testing.T) {
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	s, err := core.New(m, pmem.NewHeap(m), nil, core.Options{Name: "rep", NumVertices: 1024,
		LogCapacity: 1 << 15, ArchiveThreshold: 1 << 10, ArchiveThreads: 8, NUMA: core.NUMASubgraph})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(gen.RMAT(10, 30000, 14)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil { // every read goes to PMEM
		t.Fatal(err)
	}
	snap := s.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound))
	defer snap.Close()
	e := NewEngine(snap, &m.Lat, 8)
	run := func() int64 { return e.BFS(0).SimNs + e.PageRank(3).SimNs }
	run()
	want := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: BFS + PageRank cost %d simulated ns, the run before %d", i+2, got, want)
		}
	}
}

func TestOneHop(t *testing.T) {
	edges := gen.RMAT(8, 2000, 12)
	e := NewEngine(newMapView(256, edges), testLat(), 4)
	res := e.OneHop(100, 42)
	if res.Queried != 100 || res.Touched <= 0 {
		t.Fatalf("one-hop queried=%d touched=%d", res.Queried, res.Touched)
	}
}

func TestAnalyticsOnXPGraph(t *testing.T) {
	// End-to-end: the algorithms agree between the reference view and a
	// real XPGraph store holding the same edges.
	edges := gen.RMAT(9, 6000, 13)
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	s, err := core.New(m, h, nil, core.Options{Name: "an", NumVertices: 512,
		LogCapacity: 1 << 13, ArchiveThreshold: 1 << 9, ArchiveThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	ref := NewEngine(newMapView(512, edges), testLat(), 4)
	got := NewEngine(s, &m.Lat, 4)

	if a, b := got.BFS(0), ref.BFS(0); a.Visited != b.Visited {
		t.Fatalf("BFS visited %d vs reference %d", a.Visited, b.Visited)
	}
	if a, b := got.CC(), ref.CC(); a.Components != b.Components {
		t.Fatalf("CC %d vs reference %d", a.Components, b.Components)
	}
	a, b := got.PageRank(10), ref.PageRank(10)
	for i := range a.Ranks {
		if math.Abs(a.Ranks[i]-b.Ranks[i]) > 1e-9 {
			t.Fatalf("PageRank diverges at %d: %g vs %g", i, a.Ranks[i], b.Ranks[i])
		}
	}
	if a.SimNs <= 0 {
		t.Fatal("query must cost simulated time")
	}
}

func TestBindingReducesQueryCost(t *testing.T) {
	// Sub-graph partitioned data: bound queries avoid remote reads.
	edges := gen.RMAT(10, 30000, 14)
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	s, err := core.New(m, h, nil, core.Options{Name: "bind", NumVertices: 1024,
		LogCapacity: 1 << 15, ArchiveThreshold: 1 << 10, ArchiveThreads: 8,
		NUMA: core.NUMASubgraph})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil { // force queries to PMEM
		t.Fatal(err)
	}
	bound := NewEngine(s, &m.Lat, 8)
	unbound := NewEngine(s, &m.Lat, 8)
	unbound.SetBinding(false)
	rb, ru := bound.BFS(0), unbound.BFS(0)
	if rb.Visited != ru.Visited {
		t.Fatal("binding changed traversal result")
	}
	if rb.SimNs >= ru.SimNs {
		t.Errorf("bound BFS %dns >= unbound %dns; binding should win", rb.SimNs, ru.SimNs)
	}
}

func TestOutInBindingHurtsQueries(t *testing.T) {
	// §V-E / Fig. 18: out/in-graph binding concentrates all out-neighbor
	// queries on one socket's cores, so BFS is slower than with the
	// load-balanced sub-graph binding.
	edges := gen.RMAT(10, 30000, 15)
	run := func(mode core.NUMAMode) int64 {
		m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
		h := pmem.NewHeap(m)
		s, err := core.New(m, h, nil, core.Options{Name: "oig", NumVertices: 1024,
			LogCapacity: 1 << 15, ArchiveThreshold: 1 << 10, ArchiveThreads: 8, NUMA: mode})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		if err := s.FlushAllVbufs(); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(s, &m.Lat, 16)
		return e.BFS(0).SimNs
	}
	oig := run(core.NUMAOutIn)
	sg := run(core.NUMASubgraph)
	if sg >= oig {
		t.Errorf("sub-graph BFS (%d) should beat out/in-graph binding (%d)", sg, oig)
	}
}

func TestCCDeterministicAcrossThreads(t *testing.T) {
	edges := gen.RMAT(9, 4000, 16)
	a := NewEngine(newMapView(512, edges), testLat(), 2).CC()
	b := NewEngine(newMapView(512, edges), testLat(), 16).CC()
	if a.Components != b.Components {
		t.Fatalf("CC components differ by thread count: %d vs %d", a.Components, b.Components)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("CC labels differ by thread count")
		}
	}
}

func TestOneHopSkipsZeroDegree(t *testing.T) {
	// Only vertex 7 has out-edges; every sample must be vertex 7.
	edges := []graph.Edge{{Src: 7, Dst: 1}, {Src: 7, Dst: 2}}
	mv := newMapView(64, edges)
	e := NewEngine(mv, testLat(), 2)
	res := e.OneHop(50, 9)
	if res.Queried != 50 || res.Touched != 100 {
		t.Fatalf("one-hop queried=%d touched=%d, want 50/100", res.Queried, res.Touched)
	}
}

func TestMoreThreadsReduceSimTime(t *testing.T) {
	edges := gen.RMAT(10, 20000, 17)
	mv := newMapView(1024, edges)
	t1 := NewEngine(mv, testLat(), 1).PageRank(3).SimNs
	t8 := NewEngine(mv, testLat(), 8).PageRank(3).SimNs
	if t8 >= t1 {
		t.Errorf("8 query threads (%d) should beat 1 (%d)", t8, t1)
	}
}
