// Package analytics implements the paper's query workloads (§V-C): the
// one-hop neighbor query, BFS, PageRank and Connected Components over any
// view. All are written against a store-agnostic View, so they run
// identically on XPGraph and GraphOne.
//
// Parallel queries follow §III-D's CPU-binding strategy: at the start of
// each computing iteration, vertices are classified by the NUMA node that
// owns their adjacency data and each class is processed by worker threads
// bound to that node's cores — avoiding both remote PMEM reads and
// per-vertex thread migration. Within a class the vertices are one
// xpsim.Sweep: in ascending order, dealt in chunks of consecutive vertices
// to whichever bound worker is least busy, each weighing its degree in the
// direction the kernel visits. A whole-graph iteration thus reads each
// arena upward, in the order a flush drain and compaction laid its blocks
// out, while a power-law graph's hubs still spread over the workers.
package analytics

import (
	"maps"
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

// parRun processes the vertex buckets: each bucket gets an equal share of
// the threads, bound to the bucket's node, and all buckets run
// concurrently — the phase's simulated time is the slowest bucket. A
// bucket is one xpsim.Sweep over its vertices in order; records(v) is the
// number of adjacency records work reads for v, its weight in the deal.
func (e *Engine) parRun(buckets map[int][]graph.VID, records func(v graph.VID) int, work func(ctx *xpsim.Ctx, v graph.VID)) int64 {
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
	var phaseNs int64
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
		n := node
		dur := e.sweep.Run(e.lat, workers, contention, func(int) int { return n }, len(vs),
			func(i int) int { return records(vs[i]) },
			func(ctx *xpsim.Ctx, i int) { work(ctx, vs[i]) })
		if int64(dur) > phaseNs {
			phaseNs = int64(dur)
		}
	}
	return phaseNs
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
	var touched int64
	ns := e.parRun(e.classify(vs, e.view.OutNode), e.view.OutDegree, func(ctx *xpsim.Ctx, v graph.VID) {
		var n int64
		e.view.VisitOut(ctx, v, func(uint32) { n++ })
		touched += n
		e.lat.CPU(ctx, n)
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
	numV := e.view.NumVertices()
	if root >= numV {
		return BFSResult{}
	}
	visited := make([]bool, numV)
	visited[root] = true
	frontier := []graph.VID{root}
	res := BFSResult{Visited: 1}
	for len(frontier) > 0 {
		res.Levels++
		var next []graph.VID
		ns := e.parRun(e.classify(frontier, e.view.OutNode), e.view.OutDegree, func(ctx *xpsim.Ctx, v graph.VID) {
			e.view.VisitOut(ctx, v, func(nb uint32) {
				e.lat.CPU(ctx, 2)
				if nb < uint32(numV) && !visited[nb] {
					visited[nb] = true
					next = append(next, graph.VID(nb))
				}
			})
		})
		res.SimNs += ns
		res.Visited += int64(len(next))
		frontier = next
	}
	return res
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
	all := make([]graph.VID, numV)
	for v := range all {
		all[v] = graph.VID(v)
	}
	buckets := e.classify(all, e.view.InNode)
	var res PageRankResult
	for it := 0; it < iters; it++ {
		ns := e.parRun(buckets, e.view.InDegree, func(ctx *xpsim.Ctx, v graph.VID) {
			var sum float64
			e.view.VisitIn(ctx, v, func(u uint32) {
				e.lat.CPU(ctx, 3)
				if int(u) >= numV {
					return
				}
				if deg := e.view.OutDegree(graph.VID(u)); deg > 0 {
					sum += rank[u] / float64(deg)
				}
			})
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
	all := make([]graph.VID, numV)
	for v := range all {
		all[v] = graph.VID(v)
	}
	buckets := e.classify(all, e.view.OutNode)
	var res CCResult
	for changed := true; changed; {
		changed = false
		ns := e.parRun(buckets, e.degree, func(ctx *xpsim.Ctx, v graph.VID) {
			min := labels[v]
			scan := func(u uint32) {
				e.lat.CPU(ctx, 2)
				if int(u) < numV && labels[u] < min {
					min = labels[u]
				}
			}
			e.view.VisitOut(ctx, v, scan)
			e.view.VisitIn(ctx, v, scan)
			if min < labels[v] {
				labels[v] = min
				changed = true
			}
		})
		res.SimNs += ns
	}
	comps := make(map[uint32]bool)
	for _, l := range labels {
		comps[l] = true
	}
	res.Components = len(comps)
	res.Labels = labels
	return res
}
