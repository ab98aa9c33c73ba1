package analytics

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/xpsim"
)

// KHopResult reports a bounded-depth neighborhood query.
type KHopResult struct {
	SimNs   int64
	Reached int64 // vertices within k hops (excluding the root)
	PerHop  []int64
}

// KHop explores the out-neighborhood of root up to k hops — the
// generalization of the one-hop query of §V-C that graph-serving
// workloads (friends-of-friends, fraud rings) issue constantly.
func (e *Engine) KHop(root graph.VID, k int) KHopResult {
	numV := e.view.NumVertices()
	if root >= numV || k <= 0 {
		return KHopResult{}
	}
	visited := make([]bool, numV)
	visited[root] = true
	frontier := []graph.VID{root}
	var res KHopResult
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
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
		res.PerHop = append(res.PerHop, int64(len(next)))
		res.Reached += int64(len(next))
		frontier = next
	}
	return res
}

// TriangleResult reports a triangle count.
type TriangleResult struct {
	SimNs     int64
	Triangles int64
}

// Triangles counts undirected triangles with the standard
// merge-intersection over degree-ordered adjacency: each vertex's
// undirected neighbor set is materialized once (sorted, deduplicated),
// and each edge (u,v) with rank(u) < rank(v) contributes the size of the
// intersection of their higher-ranked neighbors.
func (e *Engine) Triangles() TriangleResult {
	numV := int(e.view.NumVertices())
	if numV == 0 {
		return TriangleResult{}
	}
	// Materialize undirected, deduplicated adjacency (charged reads).
	adj := make([][]uint32, numV)
	all := make([]graph.VID, numV)
	for v := range all {
		all[v] = graph.VID(v)
	}
	var res TriangleResult
	res.SimNs += e.parRun(e.classify(all, e.view.OutNode), e.degree, func(ctx *xpsim.Ctx, v graph.VID) {
		var set []uint32
		collect := func(u uint32) {
			if int(u) < numV && u != uint32(v) {
				set = append(set, u)
			}
		}
		e.view.VisitOut(ctx, v, collect)
		e.view.VisitIn(ctx, v, collect)
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		dedup := set[:0]
		for i, u := range set {
			if i == 0 || u != set[i-1] {
				dedup = append(dedup, u)
			}
		}
		e.lat.CPU(ctx, int64(len(set)))
		adj[v] = dedup
	})

	// rank(v): by degree then ID — keeps hub work subquadratic.
	rank := make([]int32, numV)
	order := make([]int32, numV)
	for v := range order {
		order[v] = int32(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := len(adj[order[i]]), len(adj[order[j]])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	for r, v := range order {
		rank[v] = int32(r)
	}

	res.SimNs += e.parRun(e.classify(all, e.view.OutNode), func(v graph.VID) int { return len(adj[v]) }, func(ctx *xpsim.Ctx, v graph.VID) {
		for _, u := range adj[v] {
			if rank[u] <= rank[v] {
				continue
			}
			// Intersect higher-ranked neighbors of v and u.
			a, b := adj[v], adj[u]
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				e.lat.CPU(ctx, 1)
				switch {
				case a[i] == b[j]:
					if rank[a[i]] > rank[u] {
						res.Triangles++
					}
					i++
					j++
				case a[i] < b[j]:
					i++
				default:
					j++
				}
			}
		}
	})
	return res
}
