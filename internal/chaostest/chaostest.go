// Package chaostest is the chaos differential harness (DESIGN.md §14.5):
// it drives a partitioned cluster with replicas through a seeded chaos
// schedule on the leader→replica shipping transport — drops, duplicates,
// delays, reorders, partition windows — alongside a reference single
// store fed the identical stream over a perfect network, then heals the
// chaos and requires total convergence:
//
//   - the ClusterView answers edge-for-edge, label-for-label, and
//     property-for-property what the reference store answers;
//   - every follower's own store converges with its leader the same way
//     (through in-order apply, dedupe, reorder, or resync — the harness
//     does not care which, only that the end state is exact);
//   - no follower is damaged: chaos is transport-level noise, and the
//     replica state machine must classify all of it as transient.
//
// Everything is derived from one uint64 seed — the chaos plan, the
// workload, the partition windows — so a failing run replays exactly
// with `-chaostest.seed=<seed>`.
package chaostest

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/prop"
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

func newStore(name string) (*core.Store, error) {
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	return core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: name, NumVertices: 1 << 10, LogCapacity: 1 << 16,
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

	ref, err := newStore("chaos-ref")
	if err != nil {
		return res, err
	}

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
	if id, err := ref.RegisterLabel("follows"); err != nil || id != follows {
		return fail("reference label follows = %d, %v", id, err)
	}
	if id, err := ref.RegisterLabel("mentions"); err != nil || id != mentions {
		return fail("reference label mentions = %d, %v", id, err)
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

	// Interleave the three streams through the cluster and the
	// reference in the same global order, so both end at the same
	// last-write-wins state.
	const chunk = 100
	ti := 0
	for off := 0; off < len(plain); off += chunk {
		end := min(off+chunk, len(plain))
		if _, err := cl.Ingest(plain[off:end], true); err != nil {
			return fail("cluster ingest at %d: %v", off, err)
		}
		if _, err := ref.Ingest(plain[off:end]); err != nil {
			return fail("reference ingest at %d: %v", off, err)
		}
		if off/chunk%3 == 2 && ti < typedN {
			te := min(ti+typedN/6, typedN)
			if _, err := cl.IngestTyped(tEdges[ti:te], tLabels[ti:te], props[ti%len(props):min(te, len(props))]); err != nil {
				return fail("cluster typed ingest: %v", err)
			}
			if _, err := ref.IngestTyped(tEdges[ti:te], tLabels[ti:te]); err != nil {
				return fail("reference typed ingest: %v", err)
			}
			if err := ref.SetProps(props[ti%len(props) : min(te, len(props))]); err != nil {
				return fail("reference props: %v", err)
			}
			ti = te
		}
	}
	for off := 0; off < len(dels); off += chunk {
		end := min(off+chunk, len(dels))
		if _, err := cl.Ingest(dels[off:end], true); err != nil {
			return fail("cluster deletes: %v", err)
		}
		if _, err := ref.Ingest(dels[off:end]); err != nil {
			return fail("reference deletes: %v", err)
		}
	}

	// Heal the fabric and ship one more batch through a now-perfect
	// network: every follower must converge from here.
	plan.Heal()
	tail := gen.Uniform(256, 300, splitmix.Mix(o.Seed^0x300))
	if _, err := cl.Ingest(tail, true); err != nil {
		return fail("post-heal ingest: %v", err)
	}
	if _, err := ref.Ingest(tail); err != nil {
		return fail("reference post-heal ingest: %v", err)
	}

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

	// Differential 1: the cluster view vs the reference store.
	if err := compareView(cl, ref); err != nil {
		return fail("cluster view vs reference: %v", err)
	}

	// Differential 2: every follower store vs its leader store —
	// edge-for-edge net adjacency, label-for-label, prop-for-prop.
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		for ri, r := range sh.Replicas() {
			if err := compareStores(cl, i, sh.Store(), r.Store()); err != nil {
				return fail("shard %d replica %d vs leader: %v", i, ri, err)
			}
		}
	}

	// Differential 3: kill one seed-chosen leader; its partition now
	// serves from a chaos-survivor follower and the view must still
	// answer exactly what the reference does.
	cl.KillShard(int(splitmix.Mix(o.Seed^0x400) % uint64(cl.Shards())))
	if err := compareView(cl, ref); err != nil {
		return fail("post-leader-kill view vs reference: %v", err)
	}
	return res, nil
}

// compareView checks the ClusterView against the reference store on
// every vertex: out/in adjacency (order-free), typed out-neighbors with
// their labels, and the per-vertex property.
func compareView(cl *cluster.Cluster, ref *core.Store) error {
	cv := cl.AcquireView()
	defer cv.Release()
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	if got, want := cv.NumVertices(), ref.NumVertices(); got != want {
		return fmt.Errorf("NumVertices = %d, want %d", got, want)
	}
	for v := graph.VID(0); v < ref.NumVertices(); v++ {
		if err := sameSet("out", v, cv.NbrsOut(ctx, v, nil), ref.Nbrs(ctx, core.Out, v, nil)); err != nil {
			return err
		}
		if err := sameSet("in", v, cv.NbrsIn(ctx, v, nil), ref.Nbrs(ctx, core.In, v, nil)); err != nil {
			return err
		}
		got, err := typedOut(cv.VisitOutTyped, v)
		if err != nil {
			return err
		}
		want, err := typedOut(ref.VisitOutTyped, v)
		if err != nil {
			return err
		}
		if err := sameLabeled(v, got, want); err != nil {
			return err
		}
		gv, gok, err := cv.VProp(v, 1)
		if err != nil {
			return err
		}
		wv, wok, err := ref.VProp(v, 1)
		if err != nil {
			return err
		}
		if gv != wv || gok != wok {
			return fmt.Errorf("VProp(%d) = %d,%v, want %d,%v", v, gv, gok, wv, wok)
		}
	}
	return nil
}

// compareStores checks one follower store against its leader on the
// vertices the shard owns.
func compareStores(cl *cluster.Cluster, shardID int, leader, rep *core.Store) error {
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	lt, rt := leader.Labels(), rep.Labels()
	if len(lt) != len(rt) {
		return fmt.Errorf("label table %v, leader %v", rt, lt)
	}
	for i := range lt {
		if lt[i] != rt[i] {
			return fmt.Errorf("label %d = %q, leader %q", i, rt[i], lt[i])
		}
	}
	for v := graph.VID(0); v < leader.NumVertices(); v++ {
		if cl.Owner(v) != shardID {
			continue
		}
		if err := sameSet("out", v, rep.Nbrs(ctx, core.Out, v, nil), leader.Nbrs(ctx, core.Out, v, nil)); err != nil {
			return err
		}
		got, err := typedOut(rep.VisitOutTyped, v)
		if err != nil {
			return err
		}
		want, err := typedOut(leader.VisitOutTyped, v)
		if err != nil {
			return err
		}
		if err := sameLabeled(v, got, want); err != nil {
			return err
		}
		gv, gok, err := rep.VProp(v, 1)
		if err != nil {
			return err
		}
		wv, wok, err := leader.VProp(v, 1)
		if err != nil {
			return err
		}
		if gv != wv || gok != wok {
			return fmt.Errorf("VProp(%d) = %d,%v, leader %d,%v", v, gv, gok, wv, wok)
		}
	}
	return nil
}

func typedOut(visit func(*xpsim.Ctx, graph.VID, prop.Filter, func(uint32, uint16)) error, v graph.VID) (map[uint32]uint16, error) {
	out := map[uint32]uint16{}
	err := visit(xpsim.NewCtx(xpsim.NodeUnbound), v, prop.Filter{}, func(nbr uint32, lbl uint16) {
		out[nbr] = lbl
	})
	return out, err
}

func sameLabeled(v graph.VID, got, want map[uint32]uint16) error {
	if len(got) != len(want) {
		return fmt.Errorf("typed out(%d): %d neighbors, want %d", v, len(got), len(want))
	}
	for nbr, lbl := range want {
		if got[nbr] != lbl {
			return fmt.Errorf("typed out(%d) nbr %d label %d, want %d", v, nbr, got[nbr], lbl)
		}
	}
	return nil
}

// sameSet compares two neighbor lists as multisets.
func sameSet(dir string, v graph.VID, got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s(%d): %d neighbors %v, want %d %v", dir, v, len(got), got, len(want), want)
	}
	count := map[uint32]int{}
	for _, n := range want {
		count[n]++
	}
	for _, n := range got {
		count[n]--
		if count[n] < 0 {
			return fmt.Errorf("%s(%d): unexpected neighbor %d (got %v, want %v)", dir, v, n, got, want)
		}
	}
	return nil
}
