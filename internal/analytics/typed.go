package analytics

import (
	"fmt"
	"slices"

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

// errNoTypedView reports a typed traversal over a view that does not
// implement the typed surface (e.g. the GraphOne baseline).
var errNoTypedView = fmt.Errorf("analytics: view has no typed read surface")

// visitTyped is traverse's out for the typed kernels: the out-edges that
// pass f, pruned while the adjacency stream decodes. It fails when the
// engine's view has no typed surface or f is invalid. The adapter to the
// typed visitor is built once per run, like the edge function it calls.
func (e *Engine) visitTyped(f prop.Filter) (func(*xpsim.Ctx, graph.VID, func(uint32)) error, error) {
	tv, ok := e.view.(view.Full)
	if !ok {
		return nil, errNoTypedView
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	var edge func(nb uint32)
	typed := func(nb uint32, _ uint16) { edge(nb) }
	return func(ctx *xpsim.Ctx, v graph.VID, fn func(nb uint32)) error {
		edge = fn
		return tv.VisitOutTyped(ctx, v, f, typed)
	}, nil
}

// KHopFiltered is KHop expanding only edges that pass f: an edge is
// followed when its label is in f.Types and its destination passes the
// property predicate. With an empty filter it degenerates to KHop.
func (e *Engine) KHopFiltered(root graph.VID, k int, f prop.Filter) (KHopResult, error) {
	out, err := e.visitTyped(f)
	if err != nil {
		return KHopResult{}, err
	}
	if root >= e.view.NumVertices() || k <= 0 {
		return KHopResult{}, nil
	}
	var res KHopResult
	res.SimNs, err = e.traverse(root, k, nil, out, res.add)
	if err != nil {
		return KHopResult{}, err
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
	out, err := e.visitTyped(f)
	if err != nil {
		return PathResult{}, err
	}
	numV := e.view.NumVertices()
	if root >= numV || target >= numV || maxDepth <= 0 {
		return PathResult{}, nil
	}
	if root == target {
		return PathResult{Found: true, Path: []graph.VID{root}}, nil
	}
	parent := make([]uint32, numV)
	var res PathResult
	res.SimNs, err = e.traverse(root, maxDepth, parent, out, func(level []graph.VID) bool {
		res.Found = slices.Contains(level, target)
		return !res.Found
	})
	if err != nil {
		return PathResult{}, err
	}
	if !res.Found {
		return res, nil
	}
	// Walk the parent chain back from the target.
	for v := target; ; v = parent[v] {
		res.Path = append(res.Path, v)
		if v == root {
			break
		}
	}
	slices.Reverse(res.Path)
	res.Hops = len(res.Path) - 1
	return res, nil
}
