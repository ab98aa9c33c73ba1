package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// newTypedStore is newStore with the property layer attached.
func newTypedStore(t *testing.T, name string) *core.Store {
	t.Helper()
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: name, NumVertices: 1 << 10, LogCapacity: 1 << 16,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 2, Props: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newTypedCluster(t *testing.T, shards, replicas int, cfg Config) *Cluster {
	t.Helper()
	stores := make([]*core.Store, shards)
	for i := range stores {
		stores[i] = newTypedStore(t, fmt.Sprintf("tshard%d", i))
	}
	cfg.Replicas = replicas
	if replicas > 0 {
		cfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
			return newTypedStore(t, fmt.Sprintf("tshard%d-replica%d", shardID, replica)), nil
		}
	}
	cl, err := New(stores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// typedWorkload builds distinct typed edges spanning every shard's vertex
// range, plus one property per source vertex.
func typedWorkload(follows, blocks uint16) ([]graph.Edge, []uint16, []graph.PropSet) {
	const n = 600
	edges := make([]graph.Edge, n)
	labels := make([]uint16, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(i % 200), Dst: uint32(200 + i/200)}
		if i%2 == 0 {
			labels[i] = follows
		} else {
			labels[i] = blocks
		}
	}
	props := make([]graph.PropSet, 200)
	for v := range props {
		props[v] = graph.PropSet{V: uint32(v), Key: 1, Val: int64(v % 50)}
	}
	return edges, labels, props
}

// typedOutOf collects v's filtered out-neighbors as a nbr→label map.
func typedOutOf(t *testing.T, tv interface {
	VisitOutTyped(*xpsim.Ctx, graph.VID, prop.Filter, func(uint32, uint16)) error
}, v graph.VID, f prop.Filter) map[uint32]uint16 {
	t.Helper()
	got := map[uint32]uint16{}
	err := tv.VisitOutTyped(xpsim.NewCtx(xpsim.NodeUnbound), v, f, func(nbr uint32, lbl uint16) {
		got[nbr] = lbl
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func sameLabeled(a, b map[uint32]uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestClusterTypedDifferential: a 4-shard cluster with one follower per
// shard, fed typed batches through the routed synchronous path, serves
// the typed view identical to a single store fed the same stream — and
// every follower converges label-for-label and property-for-property
// with its leader.
func TestClusterTypedDifferential(t *testing.T) {
	cl := newTypedCluster(t, 4, 1, Config{})
	single := newTypedStore(t, "tsingle")

	follows, err := cl.RegisterLabel("follows")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := cl.RegisterLabel("blocks")
	if err != nil {
		t.Fatal(err)
	}
	if sf, err := single.RegisterLabel("follows"); err != nil || sf != follows {
		t.Fatalf("single follows = %d,%v, cluster %d", sf, err, follows)
	}
	if sb, err := single.RegisterLabel("blocks"); err != nil || sb != blocks {
		t.Fatalf("single blocks = %d,%v, cluster %d", sb, err, blocks)
	}

	edges, labels, props := typedWorkload(follows, blocks)
	const chunk = 130
	for off := 0; off < len(edges); off += chunk {
		end := off + chunk
		if end > len(edges) {
			end = len(edges)
		}
		if _, err := cl.IngestTyped(edges[off:end], labels[off:end], nil); err != nil {
			t.Fatalf("typed chunk at %d: %v", off, err)
		}
		if _, err := single.IngestTyped(edges[off:end], labels[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.IngestTyped(nil, nil, props); err != nil {
		t.Fatal(err)
	}
	if err := single.SetProps(props); err != nil {
		t.Fatal(err)
	}
	// Untyped edges ride the plain routed path into the same stores.
	plain := testEdges(300)
	ingestChunks(t, cl, plain, 100)
	if _, err := single.Ingest(plain); err != nil {
		t.Fatal(err)
	}

	cv := cl.AcquireView()
	defer cv.Release()
	if got := cv.Labels(); len(got) != 3 || got[follows] != "follows" || got[blocks] != "blocks" {
		t.Fatalf("cluster label table = %v", got)
	}
	if id, ok := cv.LabelID("blocks"); !ok || id != blocks {
		t.Fatalf("LabelID(blocks) = %d,%v", id, ok)
	}
	filters := []prop.Filter{
		{},
		{Types: []uint16{follows}},
		{Types: []uint16{follows, blocks}},
		{Key: 1, Op: prop.OpGe, Val: 25},
		{Types: []uint16{blocks}, Key: 1, Op: "lt", Val: 10},
	}
	for v := graph.VID(0); v < 256; v++ {
		for _, f := range filters {
			got := typedOutOf(t, cv, v, f)
			want := typedOutOf(t, single, v, f)
			if !sameLabeled(got, want) {
				t.Fatalf("out(%d) filter %+v: cluster %v, single %v", v, f, got, want)
			}
		}
		cval, cok, err := cv.VProp(v, 1)
		if err != nil {
			t.Fatal(err)
		}
		sval, sok, err := single.VProp(v, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cval != sval || cok != sok {
			t.Fatalf("VProp(%d) = %d,%v, single %d,%v", v, cval, cok, sval, sok)
		}
	}

	// Followers converge typed-for-typed with their leaders.
	waitReplicasCaughtUp(t, cl)
	for i := 0; i < cl.Shards(); i++ {
		leader := cl.Shard(i).Store()
		for _, r := range cl.Shard(i).Replicas() {
			rs := r.Store()
			lt := leader.Labels()
			if rt := rs.Labels(); len(rt) != len(lt) || rt[follows] != lt[follows] || rt[blocks] != lt[blocks] {
				t.Fatalf("shard %d replica label table = %v, leader %v", i, rt, lt)
			}
			for v := graph.VID(0); v < 256; v++ {
				if cl.Owner(v) != i {
					continue
				}
				got := typedOutOf(t, rs, v, prop.Filter{})
				want := typedOutOf(t, leader, v, prop.Filter{})
				if !sameLabeled(got, want) {
					t.Fatalf("shard %d replica out(%d) = %v, leader %v", i, v, got, want)
				}
				rval, rok, err := rs.VProp(v, 1)
				if err != nil {
					t.Fatal(err)
				}
				lval, lok, err := leader.VProp(v, 1)
				if err != nil {
					t.Fatal(err)
				}
				if rval != lval || rok != lok {
					t.Fatalf("shard %d replica VProp(%d) = %d,%v, leader %d,%v", i, v, rval, rok, lval, lok)
				}
			}
		}
	}

	// A label broadcast carries no edges or properties, so it publishes
	// nowhere: after a bare publication has put every leader ahead of its
	// followers, registering a label leaves every leader's and every
	// follower's epoch where it was, the followers' once they applied it.
	cl.PublishAll()
	leaders, followers := cl.EpochVector(), replicaEpochs(cl)
	likes, err := cl.RegisterLabel("likes")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		for _, r := range sh.Replicas() {
			for deadline := time.Now().Add(5 * time.Second); r.NextSeq() <= sh.ShipSeq(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("shard %d replica stuck at seq %d, leader shipped %d", i, r.NextSeq(), sh.ShipSeq())
				}
			}
			if got := r.Store().Labels(); len(got) <= int(likes) || got[likes] != "likes" {
				t.Fatalf("shard %d replica label table after RegisterLabel = %v", i, got)
			}
		}
	}
	if got := cl.EpochVector(); fmt.Sprint(got) != fmt.Sprint(leaders) {
		t.Fatalf("leader epochs %v after RegisterLabel, %v before", got, leaders)
	}
	if got := replicaEpochs(cl); fmt.Sprint(got) != fmt.Sprint(followers) {
		t.Fatalf("follower epochs %v after RegisterLabel, %v before", got, followers)
	}
}

// replicaEpochs lists every follower's published epoch, shard by shard.
func replicaEpochs(cl *Cluster) []uint64 {
	var out []uint64
	for i := 0; i < cl.Shards(); i++ {
		for _, r := range cl.Shard(i).Replicas() {
			out = append(out, r.Epoch())
		}
	}
	return out
}

// TestClusterTypedFailClosed pins the down-shard behavior of the typed
// write path: label registration refuses while any shard is down, and a
// typed batch routed to the dead shard names it.
func TestClusterTypedFailClosed(t *testing.T) {
	cl := newTypedCluster(t, 2, 0, Config{})
	if _, err := cl.RegisterLabel("follows"); err != nil {
		t.Fatal(err)
	}
	cl.KillShard(1)

	var se *ShardError
	if _, err := cl.RegisterLabel("blocks"); !errors.As(err, &se) || !errors.Is(err, ErrShardDown) {
		t.Fatalf("RegisterLabel with dead shard = %v, want ShardError{ErrShardDown}", err)
	}
	// An edge owned by the dead shard fails with its name; one owned by
	// the live shard still lands.
	var deadV, liveV graph.VID
	for v := graph.VID(0); v < 256; v++ {
		if cl.Owner(v) == 1 {
			deadV = v
		} else {
			liveV = v
		}
	}
	if _, err := cl.IngestTyped([]graph.Edge{{Src: uint32(deadV), Dst: 1}}, []uint16{1}, nil); !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("typed ingest to dead shard = %v, want ShardError{Shard: 1}", err)
	}
	if _, err := cl.IngestTyped([]graph.Edge{{Src: uint32(liveV), Dst: 1}}, []uint16{1}, nil); err != nil {
		t.Fatalf("typed ingest to live shard: %v", err)
	}
}

// errPipelineDropped stands for an apply failure on the pipeline route,
// which reports it by dropping the request's edges, not to the caller of
// an async Ingest.
var errPipelineDropped = errors.New("the pipeline dropped the write")

// TestClusterTypedBreaker pins that every write route whose entry carries
// edges or properties goes through the shard's one admission and feeds
// the breaker the outcome of its commit: media failures count toward
// opening it, an open breaker refuses the write up front with the time
// left until its probe, and after the cooldown a successful write is the
// half-open probe that closes it. The cluster runs on a virtual clock, so
// the cooldown is crossed by setting the clock, not by sleeping.
func TestClusterTypedBreaker(t *testing.T) {
	routes := []struct {
		name  string
		write func(cl *Cluster, clk *clock.Virtual, e graph.Edge, lbl uint16) error
	}{
		{"IngestTyped", func(cl *Cluster, _ *clock.Virtual, e graph.Edge, lbl uint16) error {
			_, err := cl.IngestTyped([]graph.Edge{e}, []uint16{lbl}, nil)
			return err
		}},
		{"IngestLocal", func(cl *Cluster, _ *clock.Virtual, e graph.Edge, _ uint16) error {
			_, err := cl.IngestLocal([]graph.Edge{e})
			return err
		}},
		{"Ingest", func(cl *Cluster, clk *clock.Virtual, e graph.Edge, _ uint16) error {
			dropped := cl.Shard(0).PipeStats().EdgesDropped
			if _, err := cl.Ingest([]graph.Edge{e}, false); err != nil {
				return err
			}
			runUntil(cl, clk, clk.Now().Add(time.Second))
			if cl.Shard(0).PipeStats().EdgesDropped > dropped {
				return errPipelineDropped
			}
			return nil
		}},
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
			faults := m.TrackFaults()
			st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
				Name: "tbreaker", NumVertices: 1 << 10, LogCapacity: 1 << 12,
				ArchiveThreshold: 1 << 8, ArchiveThreads: 4, Props: true,
				MediaGuard: true, ArchiveSSDBytes: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			clk := &clock.Virtual{}
			cl, err := New([]*core.Store{st}, Config{BreakerCooldown: time.Minute, Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			lbl, err := cl.RegisterLabel("follows")
			if err != nil {
				t.Fatal(err)
			}
			write := func(dst uint32) error { return route.write(cl, clk, graph.Edge{Src: 3, Dst: dst}, lbl) }
			if err := write(1); err != nil {
				t.Fatalf("write on a healthy store: %v", err)
			}

			faults.FailNode(1)
			var me *xpsim.MediaError
			for i := 0; i < breakerThreshold; i++ {
				if err := write(2); !errors.As(err, &me) && !errors.Is(err, errPipelineDropped) {
					t.Fatalf("write %d on a dead node = %v, want a media failure", i, err)
				}
			}
			var boe *BreakerOpenError
			if err := write(2); !errors.As(err, &boe) || boe.Wait <= 0 {
				t.Fatalf("write after %d media failures = %v, want a *BreakerOpenError with a positive Wait", breakerThreshold, err)
			}
			if v := cl.Shard(0).Breaker(); !v.Open || v.Trips != 1 || v.Rejected != 1 {
				t.Fatalf("breaker after the trip = %+v", v)
			}
			// A label broadcast carries no data: the open breaker neither
			// refuses it nor hears of it.
			if _, err := cl.RegisterLabel("blocks"); err != nil {
				t.Fatalf("RegisterLabel with the breaker open: %v", err)
			}

			faults.ReviveNode(1)
			clk.Set(clk.Now().Add(2 * time.Minute).UnixNano())
			if err := write(2); err != nil {
				t.Fatalf("half-open probe after the cooldown: %v", err)
			}
			if v := cl.Shard(0).Breaker(); v.Open || v.Probes != 1 || v.Closes != 1 || v.Rejected != 1 {
				t.Fatalf("breaker after a successful probe = %+v, want closed by one probe", v)
			}
		})
	}
}
