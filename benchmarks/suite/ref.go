package suite

import (
	"slices"

	"repro/internal/graph"
)

// reference is the plain model the system's answers are checked against:
// an adjacency multiset with deletes resolved, the last label written per
// (src, dst) and the last value written per (vertex, key). It shares no
// code with the store.
type reference struct {
	numV   uint32
	out    [][]uint32
	in     [][]uint32
	labels map[uint64]uint16
	props  map[uint64]int64
	live   int
}

func edgeKey(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

func propMapKey(v uint32, key uint16) uint64 { return uint64(v)<<16 | uint64(key) }

// buildReference replays the whole stream. numV is the system's vertex
// space, so isolated vertices count as components on both sides.
func buildReference(st *stream, numV uint32) *reference {
	ref := &reference{
		numV:   numV,
		out:    make([][]uint32, numV),
		in:     make([][]uint32, numV),
		labels: map[uint64]uint16{},
		props:  map[uint64]int64{},
	}
	apply := func(edges []graph.Edge) {
		for _, e := range edges {
			if e.IsDelete() {
				dst := e.Target()
				ref.out[e.Src] = removeOne(ref.out[e.Src], dst)
				ref.in[dst] = removeOne(ref.in[dst], e.Src)
				ref.live--
				continue
			}
			ref.out[e.Src] = append(ref.out[e.Src], e.Dst)
			ref.in[e.Dst] = append(ref.in[e.Dst], e.Src)
			ref.live++
		}
	}
	apply(st.preload)
	for i := range st.batches {
		b := &st.batches[i]
		apply(b.edges)
		for j, lbl := range b.labels {
			e := b.edges[j]
			if e.IsDelete() {
				continue
			}
			k := edgeKey(e.Src, e.Dst)
			// A default label only overwrites an earlier explicit one.
			if _, had := ref.labels[k]; lbl != 0 || had {
				ref.labels[k] = lbl
			}
		}
		for _, p := range b.props {
			ref.props[propMapKey(p.V, p.Key)] = p.Val
		}
	}
	return ref
}

// removeOne drops one instance of x: which instance is irrelevant under
// multiset semantics. The stream only deletes live edges, so x is there.
func removeOne(s []uint32, x uint32) []uint32 {
	i := slices.Index(s, x)
	s[i] = s[len(s)-1]
	return s[:len(s)-1]
}

// sameMultiset compares a system answer with the reference's list.
func sameMultiset(got, want []uint32) bool {
	if len(got) != len(want) {
		return false
	}
	g, w := slices.Clone(got), slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	return slices.Equal(g, w)
}

// bfs mirrors the engine's definition: levels counts every frontier
// expanded, the last (which discovers nothing) included.
func (ref *reference) bfs(root graph.VID) (visited int64, levels int) {
	if root >= ref.numV {
		return 0, 0
	}
	seen := make([]bool, ref.numV)
	seen[root] = true
	frontier := []uint32{root}
	visited = 1
	for len(frontier) > 0 {
		levels++
		var next []uint32
		for _, v := range frontier {
			for _, nb := range ref.out[v] {
				if !seen[nb] {
					seen[nb] = true
					next = append(next, nb)
				}
			}
		}
		visited += int64(len(next))
		frontier = next
	}
	return visited, levels
}

// bfsEdges is how many out-edges a BFS from root scans: the degrees of
// everything it visits.
func (ref *reference) bfsEdges(root graph.VID) (edges int64) {
	seen := make([]bool, ref.numV)
	seen[root] = true
	frontier := []uint32{root}
	for len(frontier) > 0 {
		var next []uint32
		for _, v := range frontier {
			edges += int64(len(ref.out[v]))
			for _, nb := range ref.out[v] {
				if !seen[nb] {
					seen[nb] = true
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return edges
}

// components counts weakly connected components by union-find.
func (ref *reference) components() int {
	parent := make([]uint32, ref.numV)
	for i := range parent {
		parent[i] = uint32(i)
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v, nbrs := range ref.out {
		for _, nb := range nbrs {
			if a, b := find(uint32(v)), find(nb); a != b {
				parent[a] = b
			}
		}
	}
	n := 0
	for i := range parent {
		if parent[i] == uint32(i) {
			n++
		}
	}
	return n
}

// khop counts vertices within khopDepth hops of root. With filtered set
// it expands only edges whose label is in the whitelist and whose
// destination carries the property predicate, as the server does.
func (ref *reference) khop(root graph.VID, filtered bool) int64 {
	seen := map[uint32]bool{root: true}
	frontier := []uint32{root}
	var reached int64
	for hop := 0; hop < khopDepth && len(frontier) > 0; hop++ {
		var next []uint32
		for _, v := range frontier {
			for _, nb := range ref.out[v] {
				if filtered && !ref.passes(v, nb) {
					continue
				}
				if !seen[nb] {
					seen[nb] = true
					next = append(next, nb)
				}
			}
		}
		reached += int64(len(next))
		frontier = next
	}
	return reached
}

// passes is the filtered reads' predicate: a named label (not the
// default one) and a destination property of at least filterMinVal.
func (ref *reference) passes(src, dst uint32) bool {
	if ref.labels[edgeKey(src, dst)] == 0 {
		return false
	}
	val, ok := ref.props[propMapKey(dst, propKey)]
	return ok && val >= filterMinVal
}
