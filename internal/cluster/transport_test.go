package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/xpsim"
)

// waitReplicaRunning polls until the follower is running at the leader's
// epoch with no permanent error.
func waitReplicaRunning(t *testing.T, sh *Shard, r *Replica) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := r.Err(); err != nil {
			t.Fatalf("replica failed permanently: %v", err)
		}
		if r.State() == "running" && r.Epoch() == sh.Epoch() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck: state=%s epoch=%d leader=%d nextSeq=%d shipSeq=%d",
				r.State(), r.Epoch(), sh.Epoch(), r.NextSeq(), sh.ShipSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaFrozenFollowerDoesNotStallLeader is the PR-10 regression:
// before the lag breaker, a follower that stopped consuming froze the
// leader's writer goroutine on the 65th chunk. Now a refused attempt is a
// pending retry on the link, the bounded retry queue overflows, the
// leader abandons the chunk and flips the follower into resync, and keeps
// ingesting; when the follower thaws it catches up through the resync
// path and converges.
func TestReplicaFrozenFollowerDoesNotStallLeader(t *testing.T) {
	cl := newCluster(t, 1, 1, Config{Linger: time.Millisecond})
	sh := cl.Shard(0)
	rep := sh.Replicas()[0]

	frozen := make(chan struct{})
	rep.mu.Lock()
	rep.applyGate = func() { <-frozen }
	rep.mu.Unlock()

	// 400 single-chunk ingests: more than the inbox (64) and the retention
	// ring (256) together can hide. Before the lag breaker this deadlocked
	// right here.
	edges := testEdges(4000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ingestChunks(t, cl, edges, 10)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("leader ingest stalled behind a frozen follower")
	}

	sc := sh.ShipCounters()
	if sc.GiveUps == 0 && sc.Skips == 0 {
		t.Fatalf("expected abandoned or skipped chunks behind a frozen follower, counters %+v", sc)
	}

	// Thaw. The stuck applyMsg finishes its chunk, the follower sees the
	// resyncing state, and catches up from the leader.
	rep.mu.Lock()
	rep.applyGate = nil
	rep.mu.Unlock()
	close(frozen)

	waitReplicaRunning(t, sh, rep)
	rc := rep.Counters()
	if rc.Resyncs == 0 {
		t.Fatalf("follower converged without resyncing? counters %+v", rc)
	}
	// The stream moved ~400 chunks past a 256-chunk retention ring while
	// the follower was frozen: catching up required a snapshot rebuild.
	if rc.SnapReplays == 0 {
		t.Fatalf("deep lag recovered without a snapshot rebuild: %+v", rc)
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	leader := sh.Store()
	for v := graph.VID(0); v < leader.NumVertices(); v++ {
		lo := sorted(append([]uint32(nil), leader.Nbrs(ctx, core.Out, v, nil)...))
		ro := sorted(rep.Store().Nbrs(ctx, core.Out, v, nil))
		if !equalU32(lo, ro) {
			t.Fatalf("thawed follower out(%d) = %v, leader %v", v, ro, lo)
		}
	}
}

// TestReplicaDelayedDeliveriesOnTheWallClock: links whose every attempt
// is duplicated (a copy now and one later) or delayed (a copy later and
// a timeout now) converge on the wall clock, and every late copy is
// served and deduped. Nothing kicks the wall driver after the last
// delivery, so draining the inbox proves its timer wakes at an arrival's
// due time. Under duplication the follower's log holds each edge exactly
// once — byte-for-byte the leader's count.
func TestReplicaDelayedDeliveriesOnTheWallClock(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *chaos.Plan
	}{
		{"dup", &chaos.Plan{Seed: 0xD0D0, DupProb: 1, DelayMax: 200 * time.Microsecond}},
		{"delay", &chaos.Plan{Seed: 0xDE1A, DelayProb: 1, DelayMax: 200 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan
			cl := newCluster(t, 2, 1, Config{Linger: time.Millisecond, Transport: NewChaosTransport(plan)})
			ingestChunks(t, cl, testEdges(2000), 100)

			var dedupes int64
			for i := 0; i < cl.Shards(); i++ {
				sh := cl.Shard(i)
				for _, r := range sh.Replicas() {
					waitReplicaRunning(t, sh, r)
					waitInboxDrained(t, r)
					dedupes += r.Counters().Dedupes
					if got, want := r.Store().Log().Head(), sh.Store().Log().Head(); got != want {
						t.Fatalf("shard %d: follower logged %d edges, leader %d (dedupe broken)", i, got, want)
					}
				}
			}
			if dedupes == 0 {
				t.Fatal("every attempt left a late copy, but none was deduped")
			}
			if st := plan.Snapshot(); st.Dups+st.Delays == 0 {
				t.Fatalf("chaos plan injected nothing: %+v", st)
			}
		})
	}
}

// waitInboxDrained polls until every message delivered to the follower
// has been served.
func waitInboxDrained(t *testing.T, r *Replica) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.qmu.Lock()
		n := len(r.inbox)
		r.qmu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d delivered messages never served", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaApplyErrorClassification pins the transient/permanent
// split: a recoverable apply failure sends the follower through resync
// with Err() still nil, while true data damage (a media error on the
// follower's own device) is terminal.
func TestReplicaApplyErrorClassification(t *testing.T) {
	t.Run("transient", func(t *testing.T) {
		cl := newCluster(t, 1, 1, Config{Linger: time.Millisecond})
		sh := cl.Shard(0)
		rep := sh.Replicas()[0]

		tripped := false
		rep.mu.Lock()
		rep.applyErrHook = func(seq uint64) error {
			if seq == 3 && !tripped {
				tripped = true
				return fmt.Errorf("injected transient apply failure at seq %d", seq)
			}
			return nil
		}
		rep.mu.Unlock()

		ingestChunks(t, cl, testEdges(1000), 100)
		waitReplicaRunning(t, sh, rep)

		if err := rep.Err(); err != nil {
			t.Fatalf("transient failure surfaced as permanent: %v", err)
		}
		rc := rep.Counters()
		if rc.TransientApplyErrors == 0 {
			t.Fatalf("transient counter not bumped: %+v", rc)
		}
		// A possibly half-applied chunk must rebuild from a snapshot, not
		// replay the retained log (double-apply hazard).
		if rc.SnapReplays == 0 {
			t.Fatalf("transient failure recovered without a snapshot rebuild: %+v", rc)
		}
		if got, want := rep.Store().Log().Head(), sh.Store().Log().Head(); got != want {
			t.Fatalf("recovered follower logged %d edges, leader %d", got, want)
		}
	})

	t.Run("permanent", func(t *testing.T) {
		cl := newCluster(t, 1, 1, Config{Linger: time.Millisecond})
		sh := cl.Shard(0)
		rep := sh.Replicas()[0]

		rep.mu.Lock()
		rep.applyErrHook = func(seq uint64) error {
			if seq == 2 {
				return &xpsim.MediaError{Node: 0, Line: -1}
			}
			return nil
		}
		rep.mu.Unlock()

		ingestChunks(t, cl, testEdges(500), 100)
		deadline := time.Now().Add(5 * time.Second)
		for rep.State() != "damaged" {
			if time.Now().After(deadline) {
				t.Fatalf("replica state = %s, want damaged", rep.State())
			}
			time.Sleep(time.Millisecond)
		}
		err := rep.Err()
		var me *xpsim.MediaError
		if !errors.As(err, &me) {
			t.Fatalf("Err() = %v, want the media error", err)
		}
		// A damaged follower is never selected for failover.
		cl.KillShard(0)
		if bestReplica(sh) != nil {
			t.Fatal("damaged replica offered for failover")
		}
		// Health names the state.
		ch := cl.Health()
		if got := ch.Shards[0].ReplicaStates; len(got) != 1 || got[0] != "damaged" {
			t.Fatalf("health replica states = %v, want [damaged]", got)
		}
	})
}

// TestReplicaGapResyncAfterDrops: a transport that drops everything for
// a while opens sequence holes the reorder buffer cannot close; the
// follower detects the gap, resyncs from the leader, and converges
// edge-for-edge once the chaos heals.
func TestReplicaGapResyncAfterDrops(t *testing.T) {
	plan := &chaos.Plan{Seed: 0xBAD, DropProb: 1}
	cl := newCluster(t, 1, 1, Config{Linger: time.Millisecond, Transport: NewChaosTransport(plan)})
	sh := cl.Shard(0)
	rep := sh.Replicas()[0]

	edges := testEdges(1500)
	ingestChunks(t, cl, edges[:1000], 100)
	plan.Heal()
	ingestChunks(t, cl, edges[1000:], 100)

	waitReplicaRunning(t, sh, rep)
	rc := rep.Counters()
	if rc.Resyncs == 0 {
		t.Fatalf("follower converged through total loss without resync: %+v", rc)
	}
	if got, want := rep.Store().Log().Head(), sh.Store().Log().Head(); got != want {
		t.Fatalf("resynced follower logged %d edges, leader %d", got, want)
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	leader := sh.Store()
	for v := graph.VID(0); v < leader.NumVertices(); v++ {
		lo := sorted(append([]uint32(nil), leader.Nbrs(ctx, core.Out, v, nil)...))
		ro := sorted(rep.Store().Nbrs(ctx, core.Out, v, nil))
		if !equalU32(lo, ro) {
			t.Fatalf("out(%d): follower %v, leader %v", v, ro, lo)
		}
	}
}

// TestBreakerOverloadArm pins the overload side of the breaker state
// machine: consecutive queue-full sheds trip it, the cooldown admits a
// half-open probe, an admitted write closes it, and the transition
// counters record the full open → half-open → closed cycle.
func TestBreakerOverloadArm(t *testing.T) {
	b := breaker{overload: 2, cooldown: time.Second}
	t0 := time.Unix(2000, 0)

	b.noteShed(t0)
	if v := b.view(t0); v.Open {
		t.Fatal("one shed tripped the breaker below the threshold")
	}
	b.noteAdmit() // an admit between sheds resets the streak
	b.noteShed(t0)
	if v := b.view(t0); v.Open {
		t.Fatal("streak survived an admit")
	}
	b.noteShed(t0)
	if v := b.view(t0); !v.Open || v.Trips != 1 {
		t.Fatalf("two consecutive sheds should trip: %+v", v)
	}
	if ok, wait := b.allow(t0); ok || wait <= 0 {
		t.Fatalf("open breaker admitted a write: ok=%v wait=%v", ok, wait)
	}
	// A batch queued before the trip applies during the cooldown: that
	// says nothing about the queue.
	b.recordSuccess()
	if v := b.view(t0); !v.Open || v.Closes != 0 {
		t.Fatalf("an applied batch closed a breaker that overload opened: %+v", v)
	}

	// Cooldown over: a probe is admitted; shedding it re-opens at once.
	t1 := t0.Add(2 * time.Second)
	if ok, _ := b.allow(t1); !ok {
		t.Fatal("half-open probe refused after cooldown")
	}
	b.noteShed(t1)
	if ok, _ := b.allow(t1); ok {
		t.Fatal("breaker should re-open when the probe is shed")
	}

	// Second probe gets through the queue: closed, streak reset.
	t2 := t1.Add(2 * time.Second)
	if ok, _ := b.allow(t2); !ok {
		t.Fatal("second probe refused")
	}
	b.noteAdmit()
	v := b.view(t2)
	if v.Open {
		t.Fatal("breaker still open after an admitted probe")
	}
	if v.Trips != 2 || v.Closes != 1 || v.Probes != 2 || v.Rejected == 0 {
		t.Fatalf("transition counters = %+v, want 2 trips, 1 close, 2 probes", v)
	}
	b.noteShed(t2)
	if vv := b.view(t2); vv.Open {
		t.Fatal("shed streak should have reset on close")
	}
}
