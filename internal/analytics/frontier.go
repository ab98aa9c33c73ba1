package analytics

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/xpsim"
)

// traverse is the one level loop of the out-traversals (BFS, k-hop, typed
// k-hop, path): from root, at most depth levels, each one parRun over the
// level in ascending ID order. out visits v's out-edges and calls edge(nb)
// for each one it follows; a vertex below the ID space that no edge reached
// before joins the next level, and parent[nb] (if parent is not nil) records
// the vertex it was reached from. orderFrontier puts each level that will
// be expanded in ID order, so that it reads the arenas in one upward sweep,
// in the order the flush drain and compaction laid the blocks out; the last
// level, which no hop expands, stays in discovery order. after sees each new
// level, empty or not, and returns false to stop. traverse returns the
// simulated time, or the first error out returned.
func (e *Engine) traverse(root graph.VID, depth int, parent []uint32,
	out func(ctx *xpsim.Ctx, v graph.VID, edge func(nb uint32)) error,
	after func(level []graph.VID) bool) (int64, error) {
	numV := e.view.NumVertices()
	// The visited array: two bitmaps in one allocation. A vertex is
	// unvisited (neither bit), in the next level (seen and flagged: reached
	// by the level being expanded, not yet ordered) or done (seen only).
	words := (int(numV) + 63) / 64
	flags := make(bitmap, 2*words)
	seen, flagged := flags[:words], flags[words:]
	seen.set(root)
	level := []graph.VID{root}
	var simNs int64
	var next []graph.VID
	reach := newEdges(func(ctx *xpsim.Ctx, v graph.VID, nb uint32) {
		e.lat.CPU(ctx, 2)
		if nb < numV && !seen.has(nb) {
			seen.set(nb)
			flagged.set(nb)
			next = append(next, nb)
			if parent != nil {
				parent[nb] = v
			}
		}
	})
	for hop := 0; hop < depth && len(level) > 0; hop++ {
		next = nil
		var err error
		simNs += e.parRun(e.classify(level, e.view.OutNode), e.view.OutDegree, func(ctx, edge *xpsim.Ctx, v graph.VID) {
			err = cmp.Or(err, out(ctx, v, reach.at(edge, v)))
		})
		if err != nil {
			return 0, err
		}
		level = next
		if hop+1 < depth { // a level that will be expanded
			var ns int64
			level, ns = e.orderFrontier(next, flagged)
			simNs += ns
		}
		if !after(level) {
			break
		}
	}
	return simNs, nil
}

// bitmap is one bit per vertex ID.
type bitmap []uint64

func (b bitmap) has(v graph.VID) bool { return b[v>>6]&(1<<(v&63)) != 0 }
func (b bitmap) set(v graph.VID)      { b[v>>6] |= 1 << (v & 63) }

// orderFrontier puts the next level — its vertices in discovery order, each
// flagged — in ascending ID order, clears their flags and returns
// it with the simulated time of ordering it: a serial sort or a parallel
// scan of the flags, whichever the latency model prices lower. Both reuse
// level's memory and return the same slice.
func (e *Engine) orderFrontier(level []graph.VID, flagged bitmap) ([]graph.VID, int64) {
	sortNs, scanNs := e.sortNs(len(level)), e.scanNs(len(level), len(flagged))
	if sortNs <= scanNs {
		return sortLevel(level, flagged), sortNs
	}
	return scanLevel(level, flagged), scanNs
}

// sortLevel is orderFrontier's sort path: a comparison sort of the level,
// then each member's flag cleared.
func sortLevel(level []graph.VID, flagged bitmap) []graph.VID {
	slices.Sort(level)
	for _, v := range level {
		flagged[v>>6] &^= 1 << (v & 63)
	}
	return level
}

// scanLevel is orderFrontier's scan path: the flags read a word at a time
// in ID order, each set bit written out and the word cleared.
func scanLevel(level []graph.VID, flagged bitmap) []graph.VID {
	level = level[:0]
	for w, word := range flagged {
		for ; word != 0; word &= word - 1 {
			level = append(level, graph.VID(w<<6|bits.TrailingZeros64(word)))
		}
		flagged[w] = 0
	}
	return level
}

// sortNs prices sortLevel for an n-vertex level: n·⌈log2 n⌉ comparisons on
// one thread.
func (e *Engine) sortNs(n int) int64 {
	return int64(n) * int64(bits.Len(uint(max(n-1, 0)))) * e.lat.CPUOp
}

// scanNs prices scanLevel for an n-vertex level over a words-long bitmap,
// split over the engine's threads: each reads its share of the bitmap
// sequentially, tests it a word at a time, writes its share of the level
// sequentially, and joins the others with one DRAM write.
func (e *Engine) scanNs(n, words int) int64 {
	lines := func(bytes int) int64 { return int64(bytes+xpsim.CacheLineSize-1) / xpsim.CacheLineSize }
	share := (words + e.threads - 1) / e.threads
	perLevel := (n + e.threads - 1) / e.threads
	return lines(share*8)*e.lat.DRAMSeqRead + int64(share)*e.lat.CPUOp +
		lines(perLevel*4)*e.lat.DRAMSeqWrite + e.lat.DRAMWrite
}
