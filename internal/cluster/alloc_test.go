package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// TestWarmWriteAllocations is the allocation budget of a routed write on
// the wall clock, in cluster-4s1r's shape: one 16 384-edge Cluster.Ingest
// on a warmed 4-shard, 1-replica cluster, from the call until every
// follower has published its leader's epoch. A write allocates only what
// its data needs and what readers may still hold. The sites allowed to
// allocate:
//   - per write, the result's epoch vector (Cluster.EpochVector);
//   - per applied chunk, the leader's publication, a core.Snapshot and its
//     published shell (member.publishLocked), which readers may still pin;
//   - per applied chunk, the ship record's entry and its copy of the chunk
//     (Shard.recordShipLocked), kept on the retention ring;
//   - per applied chunk, the follower's publication of the shipped chunk;
//   - the stores' own growth as the graph grows: vertex-buffer pool
//     backing, adjacency blocks and their pending lists, at most
//     growthPerWrite a write over a round.
//
// Everything else a write crosses is recycled, and none of it shows: the
// routing scratch and its part buffers, the requests and their done
// channels, the ship deliveries, and each store's logging, marking and
// flushing contexts.
func TestWarmWriteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	const (
		shards    = 4
		writeSize = 1 << 14
		writes    = 16
	)
	store := func(name string) (*core.Store, error) {
		m := xpsim.NewMachine(2, 128<<20, xpsim.DefaultLatency())
		return core.New(m, pmem.NewHeap(m), nil, core.Options{
			Name: name, NumVertices: 1 << 14, LogCapacity: 1 << 17, ArchiveThreads: 16,
			NUMA: core.NUMASubgraph, AdjBytes: 32 << 20})
	}
	stores := make([]*core.Store, shards)
	for i := range stores {
		s, err := store(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	cl, err := New(stores, Config{Replicas: 1, BatchEdges: 2048,
		ReplicaFactory: func(shard, _ int) (*core.Store, error) { return store(fmt.Sprintf("s%d-r", shard)) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	edges := gen.RMAT(14, 4*writes*writeSize, 5)
	write := func() {
		if _, err := cl.Ingest(edges[:writeSize], true); err != nil {
			t.Fatal(err)
		}
		edges = edges[writeSize:]
		for i := 0; i < shards; i++ {
			sh := cl.Shard(i)
			for _, r := range sh.Replicas() {
				for r.Epoch() < sh.Epoch() {
					runtime.Gosched()
				}
			}
		}
	}
	for i := 0; i < writes; i++ {
		write()
	}
	// chunks counts the pipelines' applied chunks: each is one leader
	// commit, one ship record and one follower apply.
	chunks := func() (n int64) {
		for i := 0; i < shards; i++ {
			n += cl.Shard(i).PipeStats().BatchesApplied
		}
		return n
	}
	// The least of three rounds: a collection in the middle of one
	// empties the pools.
	const growthPerWrite = 4
	least := int64(1 << 62)
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		c0 := chunks()
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			write()
		}
		runtime.ReadMemStats(&after)
		// Each chunk: two publications of two allocations each and a ship
		// record of two.
		excess := int64(after.Mallocs-before.Mallocs) - writes - 6*(chunks()-c0)
		least = min(least, excess)
	}
	t.Logf("%.1f allocations per %d-edge write beyond the named sites", float64(least)/writes, writeSize)
	if least > growthPerWrite*writes {
		t.Fatalf("a warm %d-edge write on %d shards and their followers allocates %.1f times beyond its epoch vector, publications and ship records; budget %d",
			writeSize, shards, float64(least)/writes, growthPerWrite)
	}
}
