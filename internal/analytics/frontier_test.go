package analytics

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/shard"
	"repro/internal/splitmix"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// recorder is a view that logs the vertex of every out-visit in the order
// the kernels issue them, and places even vertices on node 0 and odd ones
// on node 1, so that each level runs as two buckets.
type recorder struct {
	view.Full
	visits []graph.VID
}

func (r *recorder) VisitOut(ctx *xpsim.Ctx, v graph.VID, fn func(uint32)) {
	r.visits = append(r.visits, v)
	r.Full.VisitOut(ctx, v, fn)
}

func (r *recorder) VisitOutTyped(ctx *xpsim.Ctx, v graph.VID, f prop.Filter, fn func(uint32, uint16)) error {
	r.visits = append(r.visits, v)
	return r.Full.VisitOutTyped(ctx, v, f, fn)
}

func (r *recorder) OutNode(v graph.VID) int { return int(v % 2) }

// typedModel is an RMAT graph with one edge in eight deleted again, labels
// 1..3 on the edges and property 1 in [0, 100) on most vertices.
func typedModel(scale int, edges int64, seed uint64) *difftest.Model {
	m := difftest.New()
	for _, name := range []string{"a", "b", "c"} {
		m.RegisterLabel(name)
	}
	es := gen.RMAT(scale, edges, seed)
	rng := splitmix.Rand(seed)
	labels := make([]uint16, len(es))
	for i := range labels {
		labels[i] = uint16(1 + rng.Next()%3)
	}
	m.IngestTyped(es, labels)
	var dels []graph.Edge
	for i := 0; i < len(es); i += 8 {
		dels = append(dels, graph.Del(es[i].Src, es[i].Dst))
	}
	m.Ingest(dels)
	var props []graph.PropSet
	for v := range m.NumVertices() {
		if rng.Next()%8 != 0 {
			props = append(props, graph.PropSet{V: v, Key: 1, Val: int64(rng.Next() % 100)})
		}
	}
	m.SetProps(props)
	return m
}

// follows reports whether the model's live edge set holds u→w with a label
// and a destination that pass f.
func follows(m *difftest.Model, u, w graph.VID, f prop.Filter) bool {
	ok := false
	_ = m.Visit(nil, view.Out, u, view.Opts{Labels: true}, func(nbrs []uint32, lbls []uint16) {
		for i, n := range nbrs {
			ok = ok || n == w && f.MatchLabel(lbls[i]) && f.MatchVertex(func(key uint16) (int64, bool) {
				val, found, _ := m.VProp(w, key)
				return val, found
			})
		}
	})
	return ok
}

// distances is the model's BFS from root over the edges passing f: each
// vertex's hop count, -1 where none reaches it.
func distances(m *difftest.Model, root graph.VID, f prop.Filter) []int {
	dist := make([]int, m.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	for level := []graph.VID{root}; len(level) > 0; {
		var next []graph.VID
		for _, u := range level {
			for _, w := range m.NbrsOut(nil, u, nil) {
				if dist[w] < 0 && follows(m, u, w, f) {
					dist[w] = dist[u] + 1
					next = append(next, w)
				}
			}
		}
		level = next
	}
	return dist
}

// sweepOrder is the visit sequence of a traversal that expands the levels
// below depth: level by level, and within a level node 0's vertices, then
// node 1's, each in ascending ID order.
func sweepOrder(dist []int, depth int) []graph.VID {
	var want []graph.VID
	for d := 0; d < depth; d++ {
		for node := range 2 {
			for v, dv := range dist {
				if dv == d && v%2 == node {
					want = append(want, graph.VID(v))
				}
			}
		}
	}
	return want
}

// TestFrontierSweepsUpward holds the level kernels to one upward sweep per
// level: every level reaches parRun in ascending ID order, orderFrontier's
// two paths agree and leave no flag behind, and it picks the one the
// latency model prices lower at both ends of the level size.
func TestFrontierSweepsUpward(t *testing.T) {
	m := typedModel(10, 6000, 3)
	f := prop.Filter{Types: []uint16{1, 2}, Key: 1, Op: prop.OpGe, Val: 30}
	r := &recorder{Full: m}
	e := NewEngine(r, testLat(), 8)
	all := distances(m, 0, prop.Filter{})
	typed := distances(m, 0, f)
	target := graph.VID(slices.Index(typed, 3))
	if target == ^graph.VID(0) {
		t.Fatal("no vertex 3 filtered hops from the root")
	}
	for _, k := range []struct {
		name string
		run  func() error
		want []graph.VID
	}{
		{"BFS", func() error { e.BFS(0); return nil }, sweepOrder(all, len(all))},
		{"KHop", func() error { e.KHop(0, 2); return nil }, sweepOrder(all, 2)},
		{"KHopFiltered", func() error { _, err := e.KHopFiltered(0, 3, f); return err }, sweepOrder(typed, 3)},
		{"Path", func() error { _, err := e.Path(0, target, 8, f); return err }, sweepOrder(typed, 3)},
	} {
		r.visits = r.visits[:0]
		if err := k.run(); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if len(k.want) < 100 {
			t.Fatalf("%s: only %d vertices expanded; the graph is too small to show an order", k.name, len(k.want))
		}
		if !slices.Equal(r.visits, k.want) {
			t.Fatalf("%s visited %d vertices in an order other than level by level, node by node, ID by ID", k.name, len(r.visits))
		}
	}

	// The two paths over levels of every size, in a random discovery order.
	const numV = 1 << 16
	rng := splitmix.Rand(11)
	perm := make([]graph.VID, numV)
	for i := range perm {
		perm[i] = graph.VID(i)
	}
	for i := numV - 1; i > 0; i-- {
		j := rng.Next() % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	flagged := func(level []graph.VID) bitmap {
		b := make(bitmap, numV/64)
		for _, v := range level {
			b.set(v)
		}
		return b
	}
	cleared := func(b bitmap) bool { return !slices.ContainsFunc(b, func(w uint64) bool { return w != 0 }) }
	for _, n := range []int{0, 1, 2, 3, 100, numV / 64, numV / 2, numV} {
		level := perm[:n]
		sortFlags, scanFlags := flagged(level), flagged(level)
		sorted := sortLevel(slices.Clone(level), sortFlags)
		scanned := scanLevel(slices.Clone(level), scanFlags)
		if !slices.Equal(sorted, scanned) {
			t.Fatalf("n=%d: the sort and scan paths order the level differently", n)
		}
		if len(sorted) != n || !strictlyAscending(sorted) {
			t.Fatalf("n=%d: the level is not %d vertices in strictly ascending order", n, n)
		}
		if !cleared(sortFlags) || !cleared(scanFlags) {
			t.Fatalf("n=%d: a flag outlived the ordering", n)
		}
	}

	// The cheaper path at both ends: a serial sort of a 2-vertex level, a
	// parallel scan of the flags for a level of half the ID space.
	for _, c := range []struct {
		n        int
		wantSort bool
	}{{2, true}, {numV / 2, false}} {
		level := slices.Clone(perm[:c.n])
		sortNs, scanNs := e.sortNs(c.n), e.scanNs(c.n, numV/64)
		if c.wantSort != (sortNs < scanNs) {
			t.Fatalf("n=%d: sort priced %d ns and scan %d ns; the sort should win only on the small level", c.n, sortNs, scanNs)
		}
		flags := flagged(level)
		got, ns := e.orderFrontier(level, flags)
		if ns != min(sortNs, scanNs) || !strictlyAscending(got) || !cleared(flags) {
			t.Fatalf("n=%d: orderFrontier charged %d ns (sort %d, scan %d)", c.n, ns, sortNs, scanNs)
		}
	}
}

func strictlyAscending(s []graph.VID) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// TestPathIsAShortestPathInTheModel holds Path to the model: a path is
// found exactly when the model's filtered BFS reaches the target within
// maxDepth, its length is the model's distance, and every hop is a live
// edge whose label and destination pass the filter.
func TestPathIsAShortestPathInTheModel(t *testing.T) {
	m := typedModel(9, 3000, 5)
	for _, f := range []prop.Filter{{}, {Types: []uint16{1, 3}}, {Types: []uint16{2, 3}, Key: 1, Op: prop.OpGe, Val: 20}} {
		e := NewEngine(m, testLat(), 4)
		for _, root := range []graph.VID{0, 1, 2, 7} {
			dist := distances(m, root, f)
			found := 0
			for target := range m.NumVertices() {
				res, err := e.Path(root, target, 4, f)
				if err != nil {
					t.Fatal(err)
				}
				d := dist[target]
				if res.Found != (d >= 0 && d <= 4) {
					t.Fatalf("filter %+v, %d→%d: found %v, model distance %d", f, root, target, res.Found, d)
				}
				if !res.Found {
					continue
				}
				found++
				if res.Hops != d || len(res.Path) != d+1 || res.Path[0] != root || res.Path[d] != target {
					t.Fatalf("filter %+v, %d→%d: path %v, model distance %d", f, root, target, res.Path, d)
				}
				for i := 1; i < len(res.Path); i++ {
					if !follows(m, res.Path[i-1], res.Path[i], f) {
						t.Fatalf("filter %+v, %d→%d: hop %d→%d of %v is no live edge passing the filter",
							f, root, target, res.Path[i-1], res.Path[i], res.Path)
					}
				}
			}
			if root == 0 && found < 10 {
				t.Fatalf("filter %+v: only %d targets reachable from 0; the graph shows nothing", f, found)
			}
		}
	}
}

// TestKernelsRepeatExactly holds BFS and k-hop to a simulated time that
// depends on nothing but the view, on a compacted single store and on a
// four-shard ClusterView: a run repeated on one engine costs the same to
// the nanosecond, and so do the same runs on a fresh engine over a second
// build of the view. The first run on a view starts on the XPBuffer the
// build left behind, so it is held only to the first run on the rebuild.
func TestKernelsRepeatExactly(t *testing.T) {
	edges := gen.RMAT(11, 40000, 9)
	newStore := func(name string) *core.Store {
		mach := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
		s, err := core.New(mach, pmem.NewHeap(mach), nil, core.Options{Name: name, NumVertices: 1 << 11,
			LogCapacity: 1 << 15, ArchiveThreshold: 1 << 10, ArchiveThreads: 8, NUMA: core.NUMASubgraph})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	lat := xpsim.DefaultLatency()
	views := map[string]func() view.View{
		"compacted store": func() view.View {
			s := newStore("rep")
			if _, err := s.Ingest(edges); err != nil {
				t.Fatal(err)
			}
			ctx := xpsim.NewCtx(xpsim.NodeUnbound)
			if err := s.FlushAllVbufs(); err != nil {
				t.Fatal(err)
			}
			if err := s.CompactAllAdjs(ctx); err != nil {
				t.Fatal(err)
			}
			snap := s.Snapshot(ctx)
			t.Cleanup(snap.Close)
			return snap
		},
		"cluster": func() view.View {
			stores := make([]*core.Store, 4)
			for i := range stores {
				stores[i] = newStore(fmt.Sprintf("shard%d", i))
			}
			cl, err := cluster.New(stores, cluster.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			if _, err := cl.IngestLocal(edges); err != nil {
				t.Fatal(err)
			}
			if err := cl.FlushAll(); err != nil {
				t.Fatal(err)
			}
			cv := cl.AcquireView()
			t.Cleanup(cv.Release)
			return cv
		},
	}
	run := func(e *Engine) []int64 {
		var ns []int64
		for _, root := range []graph.VID{0, 1, 5, 100} {
			ns = append(ns, e.BFS(root).SimNs, e.KHop(root, 2).SimNs)
		}
		return ns
	}
	for name, build := range views {
		e := NewEngine(build(), &lat, 8)
		first := run(e)
		want := run(e)
		if slices.Contains(want, 0) {
			t.Fatalf("%s: a kernel cost nothing: %v", name, want)
		}
		for i := range 3 {
			if got := run(e); !slices.Equal(got, want) {
				t.Fatalf("%s: run %d cost %v simulated ns, the run before %v", name, i+3, got, want)
			}
		}
		// A second build of the same view, on a fresh machine and engine.
		e = NewEngine(build(), &lat, 8)
		if got := run(e); !slices.Equal(got, first) {
			t.Fatalf("%s rebuilt: the first run cost %v simulated ns, on the first build %v", name, got, first)
		}
		if got := run(e); !slices.Equal(got, want) {
			t.Fatalf("%s rebuilt: a repeated run cost %v simulated ns, on the first build %v", name, got, want)
		}
	}
}

// hubMeter is a view that records, for every out-visit, the simulated time
// its reads charged to the visiting ctx (for a hub, its headers), the time
// they charged to the ctx's payload clock when it has one of its own (a
// hub's payload lines), and the edges it handed over.
type hubMeter struct {
	view.View
	readNs, payloadNs, edges map[graph.VID]int64
}

func (h *hubMeter) VisitOut(ctx *xpsim.Ctx, v graph.VID, fn func(uint32)) {
	payload := ctx
	if ctx.Payload != nil {
		payload = ctx.Payload
	}
	before, paid := ctx.Cost.Ns(), payload.Cost.Ns()
	h.View.VisitOut(ctx, v, func(nb uint32) {
		h.edges[v]++
		fn(nb)
	})
	h.readNs[v] += ctx.Cost.Ns() - before
	if payload != ctx {
		h.payloadNs[v] += payload.Cost.Ns() - paid
	}
}

// TestHubLevelSharesWorkers: on an RMAT graph with stars on it, a 2-hop from
// a light root through the stars' hubs at 8 threads (4 workers a node) takes
// the hubs' payload reads and edge work off the workers that read their
// headers. Its time is bounded by that run's own charges: the root's level,
// the frontier's order, and a hub level no longer than the home node's
// workers with the headers and a quarter of the payload reads, or the other
// node's busiest with all the level's light work and a quarter of each hub's
// edge work, its grab and the transfer of its records. It is also under a
// quarter of the hubs' reads and edge work together, which is as low as a
// deal inside the hubs' node could go: edge work crossed sockets.
func TestHubLevelSharesWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		hubs int // the first IDs from 1 up that live on vertex 1's node
	}{
		{"one star", 1},
		{"three stars on one node", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hubs []graph.VID
			for v := graph.VID(1); len(hubs) < tc.hubs; v++ {
				if shard.PartOf(v, 2) == shard.PartOf(1, 2) {
					hubs = append(hubs, v)
				}
			}
			hubLevel(t, hubs)
		})
	}
}

// hubLevel runs TestHubLevelSharesWorkers' 2-hop through the given hubs.
func hubLevel(t *testing.T, hubs []graph.VID) {
	edges := gen.RMAT(11, 20000, 5)
	out := make([][]uint32, 1<<11)
	for _, e := range edges {
		out[e.Src] = append(out[e.Src], e.Dst)
	}
	// The root: light, and so are its RMAT neighbours — the stars' hubs
	// are the heavy vertices of the level it expands.
	heavy := func(v uint32) bool { return len(out[v]) >= 64 || slices.Contains(hubs, graph.VID(v)) }
	root := graph.VID(2)
	for len(out[root]) < 4 || heavy(uint32(root)) || slices.ContainsFunc(out[root], heavy) {
		root++
	}
	for _, hub := range hubs {
		for v := range graph.VID(1 << 11) {
			if v != hub {
				edges = append(edges, graph.Edge{Src: hub, Dst: v})
			}
		}
		edges = append(edges, graph.Edge{Src: root, Dst: hub})
	}
	mach := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	s, err := core.New(mach, pmem.NewHeap(mach), nil, core.Options{Name: "hub", NumVertices: 1 << 11,
		LogCapacity: 1 << 15, ArchiveThreshold: 1 << 10, ArchiveThreads: 8, NUMA: core.NUMASubgraph})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactAllAdjs(ctx); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot(ctx)
	defer snap.Close()
	if d := snap.OutDegree(root); d > 64 {
		t.Fatalf("the root has out-degree %d, not a light one", d)
	}
	m := &hubMeter{View: snap, readNs: map[graph.VID]int64{}, payloadNs: map[graph.VID]int64{}, edges: map[graph.VID]int64{}}
	e := NewEngine(m, &mach.Lat, 8)
	res := e.KHop(root, 2)

	lat := mach.Lat
	grab := lat.DRAMWrite
	edgeNs := func(v graph.VID) int64 { return 2 * lat.CPUOp * m.edges[v] }
	quarter := func(ns int64) int64 { return (ns + 3) / 4 }
	rootLevel := grab + m.readNs[root] + edgeNs(root)
	first := int(res.PerHop[0])
	order := min(e.sortNs(first), e.scanNs(first, 2*((1<<11+63)/64)))
	var home, away, inNode int64
	for _, v := range out[root] { // the level's light vertices
		away += grab + m.readNs[graph.VID(v)] + edgeNs(graph.VID(v))
	}
	for _, hub := range hubs {
		if m.payloadNs[hub] == 0 {
			t.Fatalf("hub %d read no payload line on a scratch clock", hub)
		}
		var c xpsim.Cost
		lat.DRAM(&xpsim.Ctx{Cost: &c}, 4*((m.edges[hub]+3)/4), false, true)
		home += m.readNs[hub] + quarter(m.payloadNs[hub]) + 2*grab
		away += quarter(edgeNs(hub)) + grab + c.Ns()
		inNode += (m.payloadNs[hub] + edgeNs(hub)) / 4
	}
	bound := rootLevel + order + max(home, away)
	t.Logf("2-hop from %d through hubs %v: %d ns; root level %d, order %d, hub level: home %d, away %d; an in-node deal %d or more",
		root, hubs, res.SimNs, rootLevel, order, home, away, inNode)
	for _, hub := range hubs {
		t.Logf("hub %d on node %d: header reads %d, payload %d, edge work %d (%d edges)",
			hub, snap.OutNode(hub), m.readNs[hub], m.payloadNs[hub], edgeNs(hub), m.edges[hub])
	}
	if res.SimNs > bound {
		t.Fatalf("the 2-hop took %d ns, over its bound %d", res.SimNs, bound)
	}
	if res.SimNs-rootLevel-order >= inNode {
		t.Fatalf("the hub level took %d ns, no less than a deal inside the hubs' node could reach (%d ns)", res.SimNs-rootLevel-order, inNode)
	}
}
