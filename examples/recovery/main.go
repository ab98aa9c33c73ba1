// Recovery demonstrates the edge-level consistency guarantee of §III-B:
// edges are ingested, the process "crashes" (every DRAM structure — vertex
// buffers, vertex index, metadata — is discarded), and the store is
// rebuilt from persistent memory alone: adjacency arenas are re-scanned
// and the unflushed window of the circular edge log is replayed with
// deduplication. The example then verifies the recovered neighbor sets
// match a reference built from the full pre-crash stream.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	xpgraph "repro"
)

func main() {
	machine := xpgraph.NewDefaultMachine()
	heap := xpgraph.NewHeap(machine)
	opts := xpgraph.Options{
		Name:        "recovery-demo",
		NumVertices: 1 << 12,
	}

	g, err := xpgraph.New(machine, heap, nil, opts)
	if err != nil {
		log.Fatal(err)
	}

	edges := dedup(xpgraph.RMAT(12, 120_000, 0xC0FFEE))
	if err := g.AddEdges(edges); err != nil {
		log.Fatal(err)
	}
	logState := g.Log()
	fmt.Printf("ingested %d edges; log: %d appended, %d buffered, %d flush-acknowledged\n",
		len(edges), logState.Head(), logState.Buffered(), logState.Flushed())
	fmt.Printf("=> %d edges lived only in DRAM vertex buffers at crash time\n",
		logState.Buffered()-logState.Flushed())

	// CRASH. The Store object (all DRAM state) is gone; only the heap's
	// simulated PMEM survives.
	g = nil

	recovered, rep, err := xpgraph.Recover(machine, heap, nil, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered in %v simulated: %d adjacency blocks scanned in %v, %d log edges replayed in %v, property columns attached in %v\n",
		time.Duration(rep.SimNs), rep.BlocksScanned, time.Duration(rep.ScanNs), rep.Replayed, time.Duration(rep.ReplayNs), time.Duration(rep.PropsNs))

	// Verify: every vertex's neighbor set must match the reference.
	ref := map[xpgraph.VID][]uint32{}
	for _, e := range edges {
		ref[e.Src] = append(ref[e.Src], e.Dst)
	}
	ctx := xpgraph.NewQueryCtx(0)
	for v := xpgraph.VID(0); v < 1<<12; v++ {
		got := recovered.NbrsOut(ctx, v, nil)
		if !sameSet(got, ref[v]) {
			log.Fatalf("vertex %d: recovered %d neighbors, want %d — consistency violated!",
				v, len(got), len(ref[v]))
		}
	}
	fmt.Println("verified: no edge lost, no edge duplicated — edge-level consistency holds")

	// The recovered store ingests and serves as usual.
	if err := recovered.AddEdge(1, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-recovery update ok; vertex 1 now has %d out-neighbors\n",
		len(recovered.NbrsOut(ctx, 1, nil)))
}

func dedup(edges []xpgraph.Edge) []xpgraph.Edge {
	seen := map[xpgraph.Edge]bool{}
	out := edges[:0]
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

func sameSet(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]uint32(nil), a...)
	bs := append([]uint32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
