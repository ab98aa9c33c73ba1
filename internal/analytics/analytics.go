// Package analytics implements the paper's query workloads (§V-C): the
// one-hop neighbor query, BFS, PageRank and Connected Components over any
// view. All are written against a store-agnostic View, so they run
// identically on XPGraph and GraphOne.
//
// Parallel queries follow §III-D's CPU-binding strategy: at the start of
// each computing iteration, vertices are classified by the NUMA node that
// owns their adjacency data and each class is processed by worker threads
// bound to that node's cores — avoiding both remote PMEM reads and
// per-vertex thread migration. A level's classes are one
// xpsim.Sweep.Spread: each class in ascending order, dealt in chunks of
// consecutive vertices to whichever of its node's workers is least busy,
// each weighing its degree in the direction the kernel visits. A
// whole-graph iteration thus reads each arena upward, in the order a flush
// drain and compaction laid its blocks out, while a power-law graph's hubs
// still spread over the workers.
//
// A hub shares its level with the node's other workers: the worker that
// grabs a vertex over the chunk cap with at least 128 records reads its
// chain's headers, and the fixed payload lines the walk charges to
// ctx.Payload and the work the kernel's edge function charges are dealt in
// equal shares over up to all of the node's workers. After the level's last
// class an end-of-level pass moves edge shares, never reads, off the slowest
// worker to idle workers of either node while that ends the level sooner.
// So every kernel's work is two functions: the vertex's, which reads on the
// ctx it is handed, and the edge function, built once per run, which takes
// the ctx it charges as a parameter (edges binds it to a visit). Nothing the
// host computes changes order; only the clocks move.
//
// The level-synchronous traversals (BFS, k-hop, typed k-hop, path) share one
// level loop, traverse, and sweep each level the same way: orderFrontier
// puts the vertices a level reached in ascending ID order, by a serial sort
// or a parallel scan of the visited bitmap, whichever the latency model
// prices lower, so the next level reads the arenas upward too.
package analytics

import (
	"maps"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Engine runs queries over a view.View — the one canonical read
// surface — with a fixed thread budget. It never sees a concrete store
// type: a single core.Snapshot and a partitioned cluster.ClusterView
// run every algorithm identically. (The old `analytics.View` alias is
// gone; depend on view.View directly.)
//
// An Engine keeps its loop's scratch between queries and is not safe for
// concurrent use.
type Engine struct {
	view    view.View
	lat     *xpsim.LatencyModel
	threads int
	// bind classifies work by NUMA node before running (§III-D); false
	// reproduces the unbound baseline of Fig. 18.
	bind  bool
	sweep xpsim.Sweep
	// parRun's scratch: a level's buckets in node order.
	groups []xpsim.Group
	lists  [][]graph.VID
}

// sockets is the simulated machine's socket count: threads bound to one
// node cannot exceed that node's share of the cores — the load-imbalance
// problem of out/in-graph binding (§V-E, Fig. 18).
const sockets = 2

// NewEngine builds a query engine. threads is the total query
// parallelism (the paper uses all 96 hardware threads).
func NewEngine(view view.View, lat *xpsim.LatencyModel, threads int) *Engine {
	if threads <= 0 {
		threads = 1
	}
	return &Engine{view: view, lat: lat, threads: threads, bind: true}
}

// SetBinding toggles NUMA-classified query binding.
func (e *Engine) SetBinding(on bool) { e.bind = on }

// classify buckets vertices by owning node. Unbound vertices all land in
// one bucket keyed by xpsim.NodeUnbound.
func (e *Engine) classify(vs []graph.VID, nodeOf func(graph.VID) int) map[int][]graph.VID {
	buckets := make(map[int][]graph.VID)
	if !e.bind {
		buckets[xpsim.NodeUnbound] = vs
		return buckets
	}
	for _, v := range vs {
		n := nodeOf(v)
		buckets[n] = append(buckets[n], v)
	}
	return buckets
}

// classifyAll is classify over every vertex, in ID order.
func (e *Engine) classifyAll(nodeOf func(graph.VID) int) map[int][]graph.VID {
	all := make([]graph.VID, e.view.NumVertices())
	for v := range all {
		all[v] = graph.VID(v)
	}
	return e.classify(all, nodeOf)
}

// parRun runs one level over the vertex buckets: each bucket gets an equal
// share of the threads, bound to the bucket's node, and all buckets run at
// once as one xpsim.Sweep.Spread, in node order. A bucket's workers sweep
// its vertices in order; records(v) is the number of adjacency records work
// reads for v, its weight in the deal. work charges v's reads to ctx and
// its per-edge work to edge: for a hub the sweep deals its payload reads and
// its edge work over the bucket's workers, and an end-of-level pass moves
// edge shares off the slowest worker to idle ones of any node. The level's
// simulated time is the slowest worker's clock.
func (e *Engine) parRun(buckets map[int][]graph.VID, records func(v graph.VID) int, work func(ctx, edge *xpsim.Ctx, v graph.VID)) int64 {
	if len(buckets) == 0 {
		return 0
	}
	per := e.threads / len(buckets)
	if per < 1 {
		per = 1
	}
	// A bound bucket can only use its node's cores.
	perNodeCap := e.threads / sockets
	if perNodeCap < 1 {
		perNodeCap = 1
	}
	// Node order, not map order: the buckets run one after the other on
	// devices whose XPBuffer state carries over, so the order they run in
	// shows in the simulated time.
	e.groups, e.lists = e.groups[:0], e.lists[:0]
	for _, node := range slices.Sorted(maps.Keys(buckets)) {
		vs := buckets[node]
		workers := per
		// contention is per-device pressure: workers bound to one node
		// all hammer that node's DIMMs, while unbound workers spread
		// across the sockets — this asymmetry is why concentrating all
		// query threads on one socket (out/in-graph binding) loses to
		// both spreading and sub-graph binding (§V-E, Fig. 18).
		contention := workers
		if node == xpsim.NodeUnbound {
			contention = workers / sockets
			if contention < 1 {
				contention = 1
			}
		} else if workers > perNodeCap {
			workers = perNodeCap
			contention = workers
		}
		e.groups = append(e.groups, xpsim.Group{Node: node, Workers: workers, Contention: contention, Items: len(vs)})
		e.lists = append(e.lists, vs)
	}
	return int64(e.sweep.Spread(e.lat, e.groups,
		func(g, i int) int { return records(e.lists[g][i]) },
		func(ctx, edge *xpsim.Ctx, g, i int) { work(ctx, edge, e.lists[g][i]) }))
}

// degree is v's record count in both directions, the weight of a vertex
// whose kernel visits both.
func (e *Engine) degree(v graph.VID) int { return e.view.OutDegree(v) + e.view.InDegree(v) }

// OneHopResult reports the one-hop neighbor query workload.
type OneHopResult struct {
	SimNs   int64
	Queried int64
	Touched int64 // neighbor records fetched
}

// OneHop queries the out-neighbors of `count` random non-zero-degree
// vertices (the paper uses 2^24; pass the scaled equivalent).
func (e *Engine) OneHop(count int, seed uint64) OneHopResult {
	numV := e.view.NumVertices()
	if numV == 0 {
		return OneHopResult{}
	}
	// Sample non-zero-degree vertices deterministically.
	vs := make([]graph.VID, 0, count)
	state := seed
	for attempts := 0; len(vs) < count && attempts < count*64; attempts++ {
		state = state*6364136223846793005 + 1442695040888963407
		v := graph.VID((state >> 33) % uint64(numV))
		if e.view.OutDegree(v) > 0 {
			vs = append(vs, v)
		}
	}
	var touched, n int64
	tally := func(uint32) { n++ }
	ns := e.parRun(e.classify(vs, e.view.OutNode), e.view.OutDegree, func(ctx, edge *xpsim.Ctx, v graph.VID) {
		n = 0
		e.view.VisitOut(ctx, v, tally)
		touched += n
		e.lat.CPU(edge, n)
	})
	return OneHopResult{SimNs: ns, Queried: int64(len(vs)), Touched: touched}
}

// BFSResult reports one traversal.
type BFSResult struct {
	SimNs   int64
	Visited int64
	Levels  int
}

// BFS traverses the connected out-subgraph from root, level-synchronous,
// classifying each frontier by NUMA node before processing (§III-D).
func (e *Engine) BFS(root graph.VID) BFSResult {
	if root >= e.view.NumVertices() {
		return BFSResult{}
	}
	res := BFSResult{Visited: 1}
	res.SimNs, _ = e.traverse(root, math.MaxInt, nil, e.visitOut, func(level []graph.VID) bool {
		res.Levels++
		res.Visited += int64(len(level))
		return true
	})
	return res
}

// visitOut is traverse's out for the untyped kernels: every out-edge.
func (e *Engine) visitOut(ctx *xpsim.Ctx, v graph.VID, edge func(nb uint32)) error {
	e.view.VisitOut(ctx, v, edge)
	return nil
}

// edges binds a kernel's edge function, built once per run, to the vertex a
// visit is at and the ctx its work is charged to. visit is the func(nbr) a
// view's Visit* takes, bound once as well, so a visit builds no closure.
type edges struct {
	fn    func(ctx *xpsim.Ctx, v graph.VID, nb uint32)
	ctx   *xpsim.Ctx
	v     graph.VID
	visit func(nb uint32)
}

func newEdges(fn func(ctx *xpsim.Ctx, v graph.VID, nb uint32)) *edges {
	b := &edges{fn: fn}
	b.visit = func(nb uint32) { b.fn(b.ctx, b.v, nb) }
	return b
}

// at points the binding at v, its edge work charged to ctx, and returns the
// visitor.
func (b *edges) at(ctx *xpsim.Ctx, v graph.VID) func(nb uint32) {
	b.ctx, b.v = ctx, v
	return b.visit
}

// PageRankResult reports a PageRank run.
type PageRankResult struct {
	SimNs int64
	Ranks []float64
}

// PageRank runs the standard pull-based iteration (damping 0.85) for
// `iters` iterations (the paper uses ten).
func (e *Engine) PageRank(iters int) PageRankResult {
	numV := int(e.view.NumVertices())
	if numV == 0 {
		return PageRankResult{}
	}
	const d = 0.85
	rank := make([]float64, numV)
	next := make([]float64, numV)
	for v := range rank {
		rank[v] = 1.0 / float64(numV)
	}
	buckets := e.classifyAll(e.view.InNode)
	var sum float64
	pull := newEdges(func(ctx *xpsim.Ctx, _ graph.VID, u uint32) {
		e.lat.CPU(ctx, 3)
		if int(u) >= numV {
			return
		}
		if deg := e.view.OutDegree(graph.VID(u)); deg > 0 {
			sum += rank[u] / float64(deg)
		}
	})
	var res PageRankResult
	for it := 0; it < iters; it++ {
		ns := e.parRun(buckets, e.view.InDegree, func(ctx, edge *xpsim.Ctx, v graph.VID) {
			sum = 0
			e.view.VisitIn(ctx, v, pull.at(edge, v))
			next[v] = (1-d)/float64(numV) + d*sum
		})
		rank, next = next, rank
		res.SimNs += ns
	}
	res.Ranks = rank
	return res
}

// CCResult reports a connected-components run.
type CCResult struct {
	SimNs      int64
	Components int
	Labels     []uint32
}

// CC finds connected components of the undirected view (out ∪ in edges)
// by label propagation to convergence.
func (e *Engine) CC() CCResult {
	numV := int(e.view.NumVertices())
	if numV == 0 {
		return CCResult{}
	}
	labels := make([]uint32, numV)
	for v := range labels {
		labels[v] = uint32(v)
	}
	buckets := e.classifyAll(e.view.OutNode)
	var low uint32
	scan := newEdges(func(ctx *xpsim.Ctx, _ graph.VID, u uint32) {
		e.lat.CPU(ctx, 2)
		if int(u) < numV && labels[u] < low {
			low = labels[u]
		}
	})
	var res CCResult
	for changed := true; changed; {
		changed = false
		ns := e.parRun(buckets, e.degree, func(ctx, edge *xpsim.Ctx, v graph.VID) {
			low = labels[v]
			e.view.VisitOut(ctx, v, scan.at(edge, v))
			e.view.VisitIn(ctx, v, scan.visit)
			if low < labels[v] {
				labels[v] = low
				changed = true
			}
		})
		res.SimNs += ns
	}
	// Each component's label is its lowest vertex ID, which keeps it.
	for v, l := range labels {
		if l == uint32(v) {
			res.Components++
		}
	}
	res.Labels = labels
	return res
}
