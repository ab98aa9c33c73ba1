package suite

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/xpsim"
)

// storeOpts are the store features a workload turns on; everything else
// is the paper's default XPGraph (PMEM, NUMA sub-graphs, hierarchical
// buffers, 16 archive threads).
type storeOpts struct {
	props  bool
	varint bool
	// poolBulk overrides the 16 MiB per-thread vertex-buffer bulk. Every
	// store carves one bulk per archive thread on first use, 256 MiB a
	// store: right for one store holding the whole graph, but eight
	// stores holding an eighth each would zero 2 GiB of pool per round.
	poolBulk int64
	// logCapacity overrides the workloads' scaled edge log.
	logCapacity int64
}

const (
	archiveThreads = 16
	// logCapacity scales the circular edge log with the graphs: the
	// catalog pairs a 1 M-edge log with 1.5-16 M-edge graphs, two of the
	// three graphs here are half of theirs, so the log is too. Left at
	// 1 M, serve-mixed and query-readonly would fill it once at most and
	// the flush phase would barely run.
	logCapacity = 1 << 19
)

// newStore builds one store on its own two-socket machine. Machines are
// sized tightly (edges*48 + 48 MiB per socket, adjacency arenas
// edges*32/parts + 16 MiB): generous sizing made an 8-store cluster
// reach a multi-GB heap whose first-touch page faults turned a 6 s pass
// into a 54 s one on the benchmark VM.
func newStore(name string, numV uint32, edges int, so storeOpts) (*core.Store, error) {
	logCap := so.logCapacity
	if logCap == 0 {
		logCap = logCapacity
	}
	m := xpsim.NewMachine(2, int64(edges)*48+(48<<20), xpsim.DefaultLatency())
	return core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name:           name,
		NumVertices:    numV,
		ArchiveThreads: archiveThreads,
		LogCapacity:    logCap,
		NUMA:           core.NUMASubgraph,
		AdjBytes:       int64(edges)*32/int64(m.Sockets) + (16 << 20),
		Props:          so.props,
		PropLogBytes:   4 << 20,
		CompressedAdj:  so.varint,
		PoolBulk:       so.poolBulk,
	})
}

// clusterShape is the serving topology of an HTTP workload.
type clusterShape struct {
	shards     int
	replicas   int
	batchEdges int // pipeline write-window cap, per shard
}

// serverConfig keeps every wall-clock driven mechanism off: adaptive
// admission, periodic flush and scrub, and request timeouts would make
// simulated numbers depend on how fast the host happened to run.
func serverConfig(batchEdges int) server.Config {
	return server.Config{QueryThreads: queryThreads, BatchEdges: batchEdges}
}

const queryThreads = 8

// perStoreEdges is one shard's share of the stream with slack for hash
// imbalance.
func perStoreEdges(edges, shards int) int { return edges/shards*3/2 + 1 }

// newCluster builds leaders and (through the factory) followers, each on
// its own machine, sized for their share of the stream with slack for
// hash imbalance.
func newCluster(numV uint32, edges int, shape clusterShape, so storeOpts) (*cluster.Cluster, error) {
	perStore := perStoreEdges(edges, shape.shards)
	stores := make([]*core.Store, shape.shards)
	for i := range stores {
		s, err := newStore(fmt.Sprintf("s%d", i), numV, perStore, so)
		if err != nil {
			return nil, err
		}
		stores[i] = s
	}
	return cluster.New(stores, cluster.Config{
		Replicas: shape.replicas,
		ReplicaFactory: func(shardID, _ int) (*core.Store, error) {
			return newStore(fmt.Sprintf("s%d", shardID), numV, perStore, so)
		},
		BatchEdges: shape.batchEdges,
	})
}

// newServer builds the full serving stack. A one-shard shape goes
// through server.New (the classic single-box deployment), anything else
// through server.NewCluster.
func newServer(numV uint32, edges int, shape clusterShape, so storeOpts) (*server.Server, error) {
	cfg := serverConfig(shape.batchEdges)
	if shape.shards == 1 && shape.replicas == 0 {
		s, err := newStore("s0", numV, edges, so)
		if err != nil {
			return nil, err
		}
		return server.New(s, s.Machine(), cfg), nil
	}
	cl, err := newCluster(numV, edges, shape, so)
	if err != nil {
		return nil, err
	}
	return server.NewCluster(cl, cfg), nil
}
