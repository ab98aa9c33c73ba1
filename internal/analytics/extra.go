package analytics

import (
	"cmp"
	"slices"

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
	if root >= e.view.NumVertices() || k <= 0 {
		return KHopResult{}
	}
	var res KHopResult
	res.SimNs, _ = e.traverse(root, k, nil, e.visitOut, res.add)
	return res
}

// add is traverse's after for the k-hop kernels: one hop's new vertices.
func (r *KHopResult) add(level []graph.VID) bool {
	r.PerHop = append(r.PerHop, int64(len(level)))
	r.Reached += int64(len(level))
	return true
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
	buckets := e.classifyAll(e.view.OutNode)
	var set []uint32
	collect := newEdges(func(_ *xpsim.Ctx, v graph.VID, u uint32) {
		if int(u) < numV && u != uint32(v) {
			set = append(set, u)
		}
	})
	var res TriangleResult
	res.SimNs += e.parRun(buckets, e.degree, func(ctx, edge *xpsim.Ctx, v graph.VID) {
		set = nil
		e.view.VisitOut(ctx, v, collect.at(edge, v))
		e.view.VisitIn(ctx, v, collect.visit)
		slices.Sort(set)
		e.lat.CPU(edge, int64(len(set)))
		adj[v] = slices.Compact(set)
	})

	// rank(v): by degree then ID — keeps hub work subquadratic.
	rank := make([]int32, numV)
	order := make([]int32, numV)
	for v := range order {
		order[v] = int32(v)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(len(adj[a]), len(adj[b])), cmp.Compare(a, b))
	})
	for r, v := range order {
		rank[v] = int32(r)
	}

	res.SimNs += e.parRun(buckets, func(v graph.VID) int { return len(adj[v]) }, func(_, ctx *xpsim.Ctx, v graph.VID) {
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
