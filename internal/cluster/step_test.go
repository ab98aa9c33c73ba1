package cluster

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/gen"
	"repro/internal/xpsim"
)

// runUntil is the owner of a stepped cluster's clock: it steps every
// shard, moves the clock to the earliest time any of them asked for, and
// repeats up to until, where it leaves the clock.
func runUntil(cl *Cluster, clk *clock.Virtual, until time.Time) {
	for {
		var wake time.Time
		for i := 0; i < cl.Shards(); i++ {
			wake = earliest(wake, cl.Shard(i).Step())
		}
		if wake.IsZero() || wake.After(until) {
			clk.Set(until.UnixNano())
			return
		}
		if wake.After(clk.Now()) {
			clk.Set(wake.UnixNano())
		}
	}
}

// TestFollowerApplyAllocatesOnlyItsIngest: once warmed, a follower taking
// a shipped chunk on the perfect transport — arrival, step, sequence
// check, apply, publication — allocates exactly what a twin store makes
// ingesting the same chunk and publishing a snapshot of it. The inbox,
// the stepper and the clock add nothing: one allocation per chunk per
// replica is +1.1 % of cluster-4s1r's ingest_host_allocs_per_edge.
func TestFollowerApplyAllocatesOnlyItsIngest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	clk := &clock.Virtual{}
	cl := newCluster(t, 1, 1, Config{Clock: clk})
	rep := cl.Shard(0).Replicas()[0]
	twin := newStore(t, "twin")
	twinPub := &published{snap: twin.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound)), epoch: 1}

	edges := gen.RMAT(10, 60*512, 3)
	var seq uint64
	next := func() shipMsg {
		chunk := edges[seq*512 : (seq+1)*512]
		seq++
		return shipMsg{seq: seq, id: chunkID(0, seq), e: &shipEntry{edges: chunk, epoch: seq + 1}}
	}
	follower := func() {
		if !rep.deliver(next(), clk.Now()) {
			t.Fatal("inbox refused a chunk")
		}
		// The chunk keeps the follower busy for its simulated cost: move
		// the clock there, as the clock's owner would.
		if wake := rep.step(); !wake.IsZero() {
			clk.Set(wake.UnixNano())
		}
	}
	twinApply := func() {
		m := next()
		if _, err := twin.Ingest(m.e.edges); err != nil {
			t.Fatal(err)
		}
		twinPub.retire()
		twinPub = &published{snap: twin.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound)), epoch: m.e.epoch}
	}
	// The least of three measurements: a collection in the middle of one
	// empties the store's pools, an extra allocation of the follower's
	// shows in every one.
	least := func(f func()) float64 {
		for i := 0; i < 8; i++ {
			f()
		}
		n := testing.AllocsPerRun(16, f)
		for i := 0; i < 2; i++ {
			n = min(n, testing.AllocsPerRun(16, f))
		}
		return n
	}
	got := least(follower)
	if rep.NextSeq() != seq+1 || rep.State() != "running" {
		t.Fatalf("follower at seq %d (%s), shipped %d", rep.NextSeq(), rep.State(), seq)
	}
	seq = 0
	want := least(twinApply)
	t.Logf("%.1f allocations per 512-edge chunk on the follower, %.1f on a twin store", got, want)
	if got > want {
		t.Fatalf("a follower applying a shipped chunk allocates %.1f times, its store's ingest and publication %.1f", got, want)
	}
}
