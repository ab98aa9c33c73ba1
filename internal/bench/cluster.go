package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pmem"
)

func init() {
	register("cluster", "Partitioned multi-shard ingest scaling (1 vs 4 shards)", clusterExp)
}

// clusterShardCounts is the scaling sweep; clusterGatedShards is the count
// whose row carries the floor (4 shards >= 2x a single shard).
var clusterShardCounts = []int{1, 2, 4}

const clusterGatedShards = 4

// newClusterStores builds one leader store per shard, each on its own
// two-socket machine — a shard is its own simulated PM box, which is
// what makes the scaling claim honest: adding shards adds devices.
func newClusterStores(n int, edges int64, numV uint32, cfg Config) ([]*core.Store, error) {
	perShard := edges/int64(n) + 1
	stores := make([]*core.Store, n)
	for i := range stores {
		m := newMachine(perShard)
		s, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
			Name:           fmt.Sprintf("cl%d", i),
			NumVertices:    numV,
			ArchiveThreads: cfg.ArchiveThreads,
			NUMA:           core.NUMASubgraph,
			AdjBytes:       adjBytesFor(perShard, m.Sockets),
		})
		if err != nil {
			return nil, err
		}
		s.SetTracer(cfg.Tracer)
		stores[i] = s
	}
	return stores, nil
}

// clusterExp measures routed ingest throughput of the partitioned
// cluster at 1, 2 and 4 shards over the same edge stream. The workload
// is the bulk-load path (IngestLocal: split by the partition map, apply
// per shard, publish) driven in synchronized chunks, so a round costs
// the slowest shard — exactly the parallelism the hash-slot partition
// map is supposed to buy. Replication is off: followers apply
// asynchronously on their own machines and do not sit on the ingest
// path's simulated clock.
func clusterExp(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "TT")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "cluster",
		Title:   "Partitioned multi-shard ingest scaling",
		Columns: []string{"dataset", "shards", "edges", "sim_s", "Medges_s", "speedup"},
		Notes: []string{
			"each shard is its own simulated two-socket PM machine; rounds are synchronized, so a round costs the slowest shard",
			"speedup is vs the 1-shard run of the same dataset on the same machine model",
		},
	}
	const chunk = 1 << 16
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		var baseNs int64
		for _, nsh := range clusterShardCounts {
			stores, err := newClusterStores(nsh, int64(len(edges)), ds.NumVertices(), cfg)
			if err != nil {
				return Table{}, err
			}
			cl, err := cluster.New(stores, cluster.Config{})
			if err != nil {
				return Table{}, err
			}
			if err := cl.Start(); err != nil {
				return Table{}, err
			}
			// simNs is the summed simulated time of synchronized ingest
			// rounds: each round routes one chunk and costs the slowest
			// shard's application.
			var simNs int64
			for off := 0; off < len(edges); off += chunk {
				end := off + chunk
				if end > len(edges) {
					end = len(edges)
				}
				ns, err := cl.IngestLocal(edges[off:end])
				if err != nil {
					cl.Close()
					return Table{}, fmt.Errorf("cluster: %d shards: %w", nsh, err)
				}
				simNs += ns
			}
			cl.Close()

			if nsh == 1 {
				baseNs = simNs
			}
			speedup := ratio(baseNs, simNs).bound(simBound)
			if nsh == clusterGatedShards {
				speedup = speedup.floor(2)
			}
			t.add(dsCell(ds, len(edges)), keyed(fmt.Sprint(nsh), fmt.Sprintf("shards=%d", nsh)),
				text(fmt.Sprint(len(edges))), secs(simNs).bound(simBound),
				num(float64(len(edges))/(float64(simNs)/1e9)/1e6, "%.2f", "Medges/s", Higher).bound(simBound), speedup)
		}
	}
	return t, nil
}
