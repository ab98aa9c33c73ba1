package analytics

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Typed traversals (DESIGN.md §13). The filter is pushed down into the
// view layer — VisitOutTyped prunes while the adjacency stream decodes —
// so a pruned vertex never joins the frontier and its adjacency lists
// are never read at the next hop. That frontier shrinkage, not the
// per-edge label test, is where a selective filter saves media reads
// over traverse-all-then-filter (the prop experiment's rd_savings row
// measures exactly this).

// ErrNoTypedView reports a typed traversal over a view that does not
// implement the typed surface (e.g. the GraphOne baseline).
var ErrNoTypedView = fmt.Errorf("analytics: view has no typed read surface")

// typedView asserts the engine's view up to the typed surface.
func (e *Engine) typedView() (view.Full, error) {
	tv, ok := e.view.(view.Full)
	if !ok {
		return nil, ErrNoTypedView
	}
	return tv, nil
}

// KHopFiltered is KHop expanding only edges that pass f: an edge is
// followed when its label is in f.Types and its destination passes the
// property predicate. With an empty filter it degenerates to KHop.
func (e *Engine) KHopFiltered(root graph.VID, k int, f prop.Filter) (KHopResult, error) {
	tv, err := e.typedView()
	if err != nil {
		return KHopResult{}, err
	}
	if err := f.Validate(); err != nil {
		return KHopResult{}, err
	}
	numV := e.view.NumVertices()
	if root >= numV || k <= 0 {
		return KHopResult{}, nil
	}
	visited := make([]bool, numV)
	visited[root] = true
	frontier := []graph.VID{root}
	var res KHopResult
	for hop := 0; hop < k && len(frontier) > 0; hop++ {
		var next []graph.VID
		var verr error
		ns := e.parRun(e.classify(frontier, e.view.OutNode), func(ctx *xpsim.Ctx, v graph.VID) {
			err := tv.VisitOutTyped(ctx, v, f, func(nb uint32, _ uint16) {
				e.lat.CPU(ctx, 2)
				if nb < uint32(numV) && !visited[nb] {
					visited[nb] = true
					next = append(next, graph.VID(nb))
				}
			})
			if err != nil && verr == nil {
				verr = err
			}
		})
		if verr != nil {
			return KHopResult{}, verr
		}
		res.SimNs += ns
		res.PerHop = append(res.PerHop, int64(len(next)))
		res.Reached += int64(len(next))
		frontier = next
	}
	return res, nil
}

// PathResult reports a filtered shortest-path search.
type PathResult struct {
	SimNs int64
	Found bool
	// Path is the vertex sequence root..target inclusive when found.
	Path []graph.VID
	Hops int
}

// Path finds a shortest path (by hop count) from root to target through
// edges passing f, exploring at most maxDepth hops. The same pushdown
// applies: pruned edges never extend the search frontier.
func (e *Engine) Path(root, target graph.VID, maxDepth int, f prop.Filter) (PathResult, error) {
	tv, err := e.typedView()
	if err != nil {
		return PathResult{}, err
	}
	if err := f.Validate(); err != nil {
		return PathResult{}, err
	}
	numV := e.view.NumVertices()
	if root >= numV || target >= numV || maxDepth <= 0 {
		return PathResult{}, nil
	}
	if root == target {
		return PathResult{Found: true, Path: []graph.VID{root}}, nil
	}
	const noParent = ^uint32(0)
	parent := make([]uint32, numV)
	for i := range parent {
		parent[i] = noParent
	}
	parent[root] = uint32(root)
	frontier := []graph.VID{root}
	var res PathResult
	for hop := 0; hop < maxDepth && len(frontier) > 0 && !res.Found; hop++ {
		var next []graph.VID
		var verr error
		ns := e.parRun(e.classify(frontier, e.view.OutNode), func(ctx *xpsim.Ctx, v graph.VID) {
			err := tv.VisitOutTyped(ctx, v, f, func(nb uint32, _ uint16) {
				e.lat.CPU(ctx, 2)
				if nb < uint32(numV) && parent[nb] == noParent {
					parent[nb] = uint32(v)
					if graph.VID(nb) == target {
						res.Found = true
					}
					next = append(next, graph.VID(nb))
				}
			})
			if err != nil && verr == nil {
				verr = err
			}
		})
		if verr != nil {
			return PathResult{}, verr
		}
		res.SimNs += ns
		frontier = next
	}
	if !res.Found {
		return res, nil
	}
	// Walk the parent chain back from the target.
	var rev []graph.VID
	for v := target; ; v = graph.VID(parent[v]) {
		rev = append(rev, v)
		if v == root {
			break
		}
	}
	res.Path = make([]graph.VID, len(rev))
	for i, v := range rev {
		res.Path[len(rev)-1-i] = v
	}
	res.Hops = len(res.Path) - 1
	return res, nil
}
