// Package chaostest is the chaos differential harness (DESIGN.md §14.5):
// it drives a partitioned cluster with replicas through a seeded chaos
// schedule on the leader→replica shipping transport — drops, duplicates,
// delays, reorders, partition windows — and feeds the identical stream to
// a difftest.Model, then heals the chaos and requires total convergence:
//
//   - the ClusterView answers edge-for-edge, label-for-label, and
//     property-for-property what the model answers;
//   - every follower's own store converges with its leader's the same way,
//     in both directions, on every vertex (through in-order apply, dedupe,
//     reorder, or resync — the harness does not care which, only that the
//     end state is exact);
//   - no follower is damaged: chaos is transport-level noise, and the
//     replica state machine must classify all of it as transient.
//
// Everything is derived from one uint64 seed — the chaos plan, the
// workload, the partition windows — so a failing run replays exactly from
// the seed its subtest is named by.
package chaostest

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/splitmix"
	"repro/internal/xpsim"
)

// Options configures one seeded chaos run.
type Options struct {
	Seed       uint64
	PlainEdges int // plain edges through the routed pipelines (default 2000)
	Shards     int // default 4
	Replicas   int // followers per shard (default 2)
}

func (o Options) withDefaults() Options {
	if o.PlainEdges <= 0 {
		o.PlainEdges = 2000
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	return o
}

// Result reports what one run injected and how the cluster absorbed it.
type Result struct {
	Chaos chaos.Stats
	Ship  cluster.ShipCounters    // summed over shards
	Rep   cluster.ReplicaCounters // summed over followers
}

func (r Result) String() string {
	return fmt.Sprintf(
		"injected drops=%d dups=%d delays=%d partitioned=%d; leader retries=%d giveups=%d skips=%d; followers dedupes=%d reorders=%d resyncs=%d (log=%d snap=%d)",
		r.Chaos.Drops, r.Chaos.Dups, r.Chaos.Delays, r.Chaos.Partitions,
		r.Ship.Retries, r.Ship.GiveUps, r.Ship.Skips,
		r.Rep.Dedupes, r.Rep.Reorders, r.Rep.Resyncs, r.Rep.LogReplays, r.Rep.SnapReplays)
}

// frac maps one seed draw onto [0, hi).
func frac(seed, term uint64, hi float64) float64 {
	return float64(splitmix.Mix(seed^term)%(1<<20)) / float64(1<<20) * hi
}

// derivePlan expands one seed into a chaos plan over the cluster's
// links. Fault rates are drawn per seed (up to 12% drops, 8% dups, 15%
// delays) plus 1–3 partition windows per run, so the sweep covers both
// gentle and vicious schedules.
func derivePlan(seed uint64, links []chaos.Link, horizon uint64) *chaos.Plan {
	p := &chaos.Plan{
		Seed:      seed,
		DropProb:  frac(seed, 0x1, 0.12),
		DupProb:   frac(seed, 0x2, 0.08),
		DelayProb: frac(seed, 0x3, 0.15),
		DelayMax:  200*time.Microsecond + time.Duration(splitmix.Mix(seed^0x4)%uint64(600*time.Microsecond)),
	}
	nPart := int(1 + splitmix.Mix(seed^0x5)%3)
	length := 4 + splitmix.Mix(seed^0x6)%24
	p.Partitions = chaos.RandomPartitions(seed, links, nPart, length, horizon)
	return p
}

// numVertices is every store's initial vertex space.
const numVertices = 1 << 10

func newStore(name string) (*core.Store, error) {
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	return core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: name, NumVertices: numVertices, LogCapacity: 1 << 16,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 2, Props: true})
}

// Run executes one seeded chaos schedule and returns an error naming
// the first divergence (with the seed, for replay).
func Run(o Options) (Result, error) {
	o = o.withDefaults()
	var res Result
	fail := func(format string, args ...any) (Result, error) {
		return res, fmt.Errorf("seed %#x: %s", o.Seed, fmt.Sprintf(format, args...))
	}

	// The fabric: every (shard, replica) link can misbehave.
	links := make([]chaos.Link, 0, o.Shards*o.Replicas)
	for s := 0; s < o.Shards; s++ {
		for r := 0; r < o.Replicas; r++ {
			links = append(links, chaos.Link{Shard: s, Replica: r})
		}
	}
	// Horizon ≈ expected shipped chunks per shard, so partition windows
	// land inside the live stream.
	horizon := uint64(o.PlainEdges/100 + 10)
	plan := derivePlan(o.Seed, links, horizon)

	stores := make([]*core.Store, o.Shards)
	for i := range stores {
		st, err := newStore(fmt.Sprintf("chaos-shard%d", i))
		if err != nil {
			return res, err
		}
		stores[i] = st
	}
	cl, err := cluster.New(stores, cluster.Config{
		Replicas: o.Replicas,
		ReplicaFactory: func(shardID, replica int) (*core.Store, error) {
			return newStore(fmt.Sprintf("chaos-shard%d-r%d", shardID, replica))
		},
		Linger:       time.Millisecond,
		Transport:    cluster.NewChaosTransport(plan),
		ShipAttempts: 3,
		ShipBackoff:  50 * time.Microsecond,
		GapWait:      2 * time.Millisecond,
		// A short retention ring forces some resyncs past the log window
		// into the snapshot-rebuild path, so the sweep exercises both
		// catch-up mechanisms.
		ShipRetain: 8,
	})
	if err != nil {
		return res, err
	}
	if err := cl.Start(); err != nil {
		return res, err
	}
	defer cl.Close()

	model := difftest.New()

	// The workload, all derived from the seed: plain edges, a sprinkle
	// of deletions of earlier plain edges, typed edges with two labels,
	// and per-vertex properties.
	plain := gen.Uniform(256, int64(o.PlainEdges), o.Seed)
	var dels []graph.Edge
	for i := 7; i < len(plain)/2; i += 31 {
		e := plain[i]
		if !e.IsDelete() {
			dels = append(dels, graph.Edge{Src: e.Src, Dst: e.Target() | graph.DelFlag})
		}
	}

	follows, err := cl.RegisterLabel("follows")
	if err != nil {
		return res, err
	}
	mentions, err := cl.RegisterLabel("mentions")
	if err != nil {
		return res, err
	}
	if model.RegisterLabel("follows") != follows || model.RegisterLabel("mentions") != mentions {
		return fail("label ids %d, %d, want the registration order", follows, mentions)
	}
	const typedN = 400
	tEdges := make([]graph.Edge, typedN)
	tLabels := make([]uint16, typedN)
	for i := range tEdges {
		h := splitmix.Mix(o.Seed ^ 0x100 ^ uint64(i))
		tEdges[i] = graph.Edge{Src: uint32(h % 256), Dst: 256 + uint32(h>>32)%256}
		if h&1 == 0 {
			tLabels[i] = follows
		} else {
			tLabels[i] = mentions
		}
	}
	props := make([]graph.PropSet, 256)
	for v := range props {
		props[v] = graph.PropSet{V: uint32(v), Key: 1, Val: int64(splitmix.Mix(o.Seed^0x200^uint64(v)) % 100)}
	}

	// Interleave the three streams through the cluster and the model in
	// the same global order, so both end at the same last-write-wins
	// state.
	const chunk = 100
	ti := 0
	for off := 0; off < len(plain); off += chunk {
		end := min(off+chunk, len(plain))
		if _, err := cl.Ingest(plain[off:end], true); err != nil {
			return fail("cluster ingest at %d: %v", off, err)
		}
		model.Ingest(plain[off:end])
		if off/chunk%3 == 2 && ti < typedN {
			te := min(ti+typedN/6, typedN)
			if _, err := cl.IngestTyped(tEdges[ti:te], tLabels[ti:te], props[ti%len(props):min(te, len(props))]); err != nil {
				return fail("cluster typed ingest: %v", err)
			}
			model.IngestTyped(tEdges[ti:te], tLabels[ti:te])
			model.SetProps(props[ti%len(props) : min(te, len(props))])
			ti = te
		}
	}
	for off := 0; off < len(dels); off += chunk {
		end := min(off+chunk, len(dels))
		if _, err := cl.Ingest(dels[off:end], true); err != nil {
			return fail("cluster deletes: %v", err)
		}
		model.Ingest(dels[off:end])
	}

	// Heal the fabric and ship one more batch through a now-perfect
	// network: every follower must converge from here.
	plan.Heal()
	tail := gen.Uniform(256, 300, splitmix.Mix(o.Seed^0x300))
	if _, err := cl.Ingest(tail, true); err != nil {
		return fail("post-heal ingest: %v", err)
	}
	model.Ingest(tail)

	// Convergence: every follower running at its leader's epoch.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		for ri, r := range sh.Replicas() {
			for r.State() != "running" || r.Epoch() != sh.Epoch() {
				if err := r.Err(); err != nil {
					return fail("shard %d replica %d damaged by transport chaos: %v", i, ri, err)
				}
				if time.Now().After(deadline) {
					return fail("shard %d replica %d stuck: state=%s epoch=%d leader=%d nextSeq=%d shipSeq=%d",
						i, ri, r.State(), r.Epoch(), sh.Epoch(), r.NextSeq(), sh.ShipSeq())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	res.Chaos = plan.Snapshot()
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		sc := sh.ShipCounters()
		res.Ship.Attempts += sc.Attempts
		res.Ship.Retries += sc.Retries
		res.Ship.GiveUps += sc.GiveUps
		res.Ship.Skips += sc.Skips
		for _, r := range sh.Replicas() {
			rc := r.Counters()
			res.Rep.Dedupes += rc.Dedupes
			res.Rep.Misroutes += rc.Misroutes
			res.Rep.Reorders += rc.Reorders
			res.Rep.Resyncs += rc.Resyncs
			res.Rep.LogReplays += rc.LogReplays
			res.Rep.SnapReplays += rc.SnapReplays
			res.Rep.TransientApplyErrors += rc.TransientApplyErrors
		}
	}
	if res.Rep.Misroutes != 0 {
		return fail("chunk-id verification rejected %d messages on an honest fabric", res.Rep.Misroutes)
	}

	// Differential 1: the cluster view vs the model, and its vertex space
	// vs the one a single store fed the stream would have.
	cv := cl.AcquireView()
	_, err = exact.Run(model, cv)
	nv := cv.NumVertices()
	cv.Release()
	if err != nil {
		return fail("cluster view: %v", err)
	}
	if want := max(numVertices, model.NumVertices()); nv != want {
		return fail("cluster view: NumVertices = %d, want %d", nv, want)
	}

	// Differential 2: every follower store vs its leader store, both
	// directions of every vertex — a shard's in-records are its own too.
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		for ri, r := range sh.Replicas() {
			if _, err := exact.Run(sh.Store(), r.Store()); err != nil {
				return fail("shard %d replica %d vs leader: %v", i, ri, err)
			}
		}
	}

	// Differential 3: kill one seed-chosen leader; its partition now
	// serves from a chaos-survivor follower and the view must still
	// answer exactly what the model does.
	cl.KillShard(int(splitmix.Mix(o.Seed^0x400) % uint64(cl.Shards())))
	cv = cl.AcquireView()
	defer cv.Release()
	if _, err := exact.Run(model, cv); err != nil {
		return fail("post-leader-kill view: %v", err)
	}
	return res, nil
}

// exact compares adjacency, labels and the one property key the workload
// writes. Record counts are left out: a follower rebuilt from a snapshot
// nets deletions the log shipped as tombstones.
var exact = difftest.Compare{Labels: true, Props: []uint16{1}}
