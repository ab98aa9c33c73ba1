package cluster

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/difftest"
)

// TestFailoverMidLagEpochMonotonic is the satellite-3 regression test:
// kill a shard leader while its only replica is mid-lag (stalled with
// shipped chunks queued), then watch the failed-over partition catch up
// through repeated AcquireView calls. Two properties are pinned:
//
//  1. the epoch vector never regresses — each acquired view's pinned
//     epoch is >= the previous one's, from the stale mid-lag epoch all
//     the way to convergence on the last shipped epoch;
//  2. every view is edge-for-edge correct *at its pinned epoch*: the
//     replica serves exactly the chunk prefix that epoch covers, never
//     a torn or reordered application.
func TestFailoverMidLagEpochMonotonic(t *testing.T) {
	cl := newCluster(t, 1, 1, Config{Linger: time.Millisecond, BatchEdges: 512})
	sh := cl.Shard(0)
	rep := sh.Replicas()[0]

	// Stall the replica's driver before any write: the gate blocks it
	// ahead of each chunk's application (outside the replica's lock, so
	// reads and epoch queries keep flowing) while shipped chunks queue in
	// its inbox.
	release := make(chan struct{})
	rep.mu.Lock()
	rep.applyGate = func() { <-release }
	rep.mu.Unlock()
	stalled := true
	defer func() {
		if stalled {
			close(release)
		}
	}()

	// Feed chunks synchronously, recording the leader epoch and the
	// model of the stream so far after each one. Each chunk is one
	// Apply (chunk < BatchEdges, sync round-trips), so these are exactly
	// the epochs the replica will publish while catching up. Keep the
	// chunk count under replicaQueue so the stalled follower never
	// backpressures the leader.
	all := testEdges(3000)
	m := difftest.New()
	at := map[uint64]*difftest.Model{1: m.Clone()} // epoch 1: initial empty publication
	const chunk = 300
	for off := 0; off < len(all); off += chunk {
		end := min(off+chunk, len(all))
		if _, err := cl.Ingest(all[off:end], true); err != nil {
			t.Fatalf("ingest chunk at %d: %v", off, err)
		}
		m.Ingest(all[off:end])
		at[sh.Epoch()] = m.Clone()
	}
	finalEpoch := sh.Epoch()
	if finalEpoch == 1 {
		t.Fatal("no chunks applied")
	}
	if got := rep.Epoch(); got != 1 {
		t.Fatalf("replica advanced to epoch %d while stalled", got)
	}

	// Leader dies with the replica maximally behind.
	cl.KillShard(0)

	checkAtEpoch := func(cv *ClusterView, epoch uint64) {
		t.Helper()
		want, ok := at[epoch]
		if !ok {
			t.Fatalf("view pinned at epoch %d, which no applied chunk produced", epoch)
		}
		if _, err := (difftest.Compare{}).Run(want, cv); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}

	// Mid-lag view: the partition serves through the stalled replica at
	// its stale epoch — old data, but consistent old data.
	cv := cl.AcquireView()
	if got := cv.EpochVector()[0]; got != 1 {
		cv.Release()
		t.Fatalf("mid-lag view pinned epoch %d, want the replica's stale 1", got)
	}
	checkAtEpoch(cv, 1)
	cv.Release()

	// Unstall and watch the catch-up: epochs climb monotonically to the
	// last shipped epoch, and every intermediate view serves exactly its
	// pinned epoch's chunk prefix.
	close(release)
	stalled = false
	var last uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		cv := cl.AcquireView()
		epoch := cv.EpochVector()[0]
		if epoch < last {
			cv.Release()
			t.Fatalf("epoch vector regressed: %d -> %d", last, epoch)
		}
		last = epoch
		checkAtEpoch(cv, epoch)
		cv.Release()
		if epoch == finalEpoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failed-over partition stuck at epoch %d, want %d", epoch, finalEpoch)
		}
		time.Sleep(time.Millisecond)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("replica apply failed during catch-up: %v", err)
	}
}

// TestLeaderKilledWhileFollowerResyncs composes a partition with a leader
// kill on a stepped cluster: the link is cut over seqs [6, 40), so the
// leader abandons seq 6 and its follower is resyncing — its rounds
// refused across the cut — when the leader dies. A dead leader serves
// nothing, its retention ring included: the follower makes no further
// round, even once the partition heals, and every read of the partition
// is exact at the epoch the view reports, against the model as it stood
// at that epoch.
func TestLeaderKilledWhileFollowerResyncs(t *testing.T) {
	clk := &clock.Virtual{}
	plan := &chaos.Plan{Seed: 0x5EED, Partitions: []chaos.Window{{Link: chaos.Link{}, From: 6, To: 40}}}
	cl := newCluster(t, 1, 1, Config{Clock: clk, Transport: NewChaosTransport(plan)})
	sh := cl.Shard(0)
	rep := sh.Replicas()[0]

	all := testEdges(1000)
	m := difftest.New()
	at := map[uint64]*difftest.Model{1: m.Clone()}
	for off := 0; off < len(all) && sh.ShipSeq() < 10; off += 100 {
		if _, err := cl.Ingest(all[off:off+100], false); err != nil {
			t.Fatal(err)
		}
		runUntil(cl, clk, clk.Now().Add(20*time.Millisecond))
		m.Ingest(all[off : off+100])
		at[sh.Epoch()] = m.Clone()
	}
	if got := rep.State(); got != "resyncing" {
		t.Fatalf("follower is %s at the kill, want resyncing (next seq %d, leader at %d)", got, rep.NextSeq(), sh.ShipSeq())
	}
	before, epoch := rep.Counters(), rep.Epoch()

	cl.KillShard(0)
	plan.Heal()
	runUntil(cl, clk, clk.Now().Add(time.Second))
	if after := rep.Counters(); after.LogReplays != before.LogReplays || after.SnapReplays != before.SnapReplays || rep.Epoch() != epoch {
		t.Fatalf("the follower caught up from a dead leader: epoch %d -> %d, counters %+v -> %+v", epoch, rep.Epoch(), before, after)
	}

	cv := cl.AcquireView()
	defer cv.Release()
	e := cv.EpochVector()[0]
	want, ok := at[e]
	if !ok {
		t.Fatalf("view pinned at epoch %d, which no applied chunk produced", e)
	}
	if _, err := (difftest.Compare{}).Run(want, cv); err != nil {
		t.Fatalf("partition served at epoch %d: %v", e, err)
	}
	if e >= sh.Epoch() {
		t.Fatalf("view at epoch %d, but the follower stopped behind its leader's %d", e, sh.Epoch())
	}
	t.Logf("killed at seq %d with the follower resyncing from seq %d: the partition serves epoch %d exactly (the dead leader's last: %d)",
		sh.ShipSeq(), rep.NextSeq(), e, sh.Epoch())
}
