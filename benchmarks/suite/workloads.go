package suite

import "fmt"

// Workload is one set of inputs plus the entry point they are driven
// through. All four run the same round (build, write phase with its
// interleaved reads, tail reads, analytics) from one closed-loop client
// goroutine: the next operation is issued when the previous one returns.
type Workload struct {
	Name string
	Why  string

	spec  streamSpec
	store storeOpts
	// shape.shards == 0 drives a core.Store through the library; anything
	// else goes through the HTTP serving stack over that topology.
	shape clusterShape
	// compactFirst (library only): flush and compact after the last
	// batch, then read from a snapshot instead of the live store.
	compactFirst bool
	// scaleBatchOps: --scale shrinks the batch size (library batches are
	// free-sized) instead of the batch count (HTTP batches are pinned to
	// the pipeline's write-window cap).
	scaleBatchOps bool
}

// Workloads at --scale 1. ISSUE 13 sized them from the catalog stand-ins
// (K28', FS', TT') with 60 k-260 k reads per round, assuming a 30-60 s run.
// Measured at those sizes one round took 11 s (bulk-ingest, VmHWM 1.8 GB),
// 30 s (serve-mixed) and 48 s (query-readonly): a 2-hop read on FS' costs
// 170-370 us of host time. The driver allows about 35 s per run, build and
// verification included, so counts were scaled (structure was not) by the
// issue's own rule that every host-timed phase takes about a second or
// more per round (README has each phase's seconds), and a 26 s run holds
// four to seven rounds. K28' and FS' are halved with |E|/|V| kept, TT' is
// whole; reads per round are what fits, 8 k-524 k, so the 99th percentile
// has at least eighty samples beyond it.
var Workloads = []Workload{
	{
		Name: "bulk-ingest",
		Why:  "library path only, Kron28 ratio, one Store.Ingest call, reads on the live store: core/elog/vbuf/adj/xpsim do all the work, server/ingest/cluster none, so a wire or router change must show nothing",
		spec: streamSpec{
			scale: 17, batches: 1, batchOps: 1 << 21,
			tailReads: 1 << 19, mix: readMix{100, 0, 0, 0}, uniformReads: true,
			analyticsEvery: 2,
		},
		scaleBatchOps: true,
	},
	{
		Name: "serve-mixed",
		Why:  "evolving graph through the single-box HTTP stack (5 % deletes, typed frames, props, varint): reads hit half-buffered chains one publication after each write, so ingest work pushed to readers shows",
		spec: streamSpec{
			scale: 15, preload: 250_000, batches: 249, batchOps: 4096,
			delFrac: 0.05, typedEvery: 4, propsPerTyped: 256,
			readsPerBatch: 32, mix: readMix{70, 0, 20, 10}, encode: true,
			analyticsEvery: 2,
		},
		store: storeOpts{props: true, varint: true},
		shape: clusterShape{shards: 1, batchEdges: 4096},
	},
	{
		Name: "query-readonly",
		Why:  "static analytics on flushed, compacted fixed-slot chains read through a snapshot: adj decode, core.Snapshot, view and analytics dominate, ingest is minor; the bypass workload for ingest-side changes",
		spec: streamSpec{
			scale: 15, batches: 20, batchOps: 1 << 16,
			tailReads: 1 << 14, mix: readMix{60, 20, 20, 0},
			analyticsEvery: 1,
		},
		compactFirst:  true,
		scaleBatchOps: true,
	},
	{
		Name: "cluster-4s1r",
		Why:  "4 shards x 1 log-shipping replica behind the router; a write ends when every replica has published the leader epoch: shard split, per-shard pipelines, shipping and epoch-vector views work only here",
		spec: streamSpec{
			scale: 16, batches: 89, batchOps: 1 << 14, jsonEvery: 4,
			readsPerBatch: 160, mix: readMix{80, 0, 20, 0}, encode: true,
			analyticsEvery: 2,
		},
		store: storeOpts{poolBulk: 2 << 20},
		shape: clusterShape{shards: 4, replicas: 1, batchEdges: 2048},
	},
}

// ByName finds a workload.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the stream for tests; scale 1 is the committed size.
func (w Workload) scaled(scale float64) streamSpec {
	sp := w.spec
	if scale == 1 {
		return sp
	}
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(int(float64(n)*scale), 1)
	}
	if w.scaleBatchOps {
		sp.batchOps = max(shrink(sp.batchOps), 4096)
	} else {
		sp.batches = max(shrink(sp.batches), 4)
	}
	sp.preload = shrink(sp.preload)
	sp.tailReads = shrink(sp.tailReads)
	return sp
}

// totalEdges is the most edges one store set will hold, for sizing.
func totalEdges(sp streamSpec) int { return sp.preload + sp.batches*sp.batchOps }

// build makes a fresh system for one round.
func (w Workload) build(sp streamSpec) (target, error) {
	numV := uint32(1) << sp.scale
	if w.shape.shards == 0 {
		return newLibTarget(numV, totalEdges(sp), w.store, w.compactFirst)
	}
	return newHTTPTarget(numV, totalEdges(sp), w.shape, w.store)
}
