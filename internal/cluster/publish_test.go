package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// TestPinnedReadersNeverSeeClosedSnapshots hammers the exactly-once
// Snapshot.Close under -race. Readers pin cluster views and follower views
// and release them while the writer publishes (ingest, flush-all,
// compaction) and the follower rebuilds from a pinned leader publication (a
// transient apply failure on every fifth chunk sends it through
// snapshotResync). retire and unref may race to close a publication; a
// pinned reader must never read a closed snapshot, and Close panics on a
// count base released more often than it was shared.
func TestPinnedReadersNeverSeeClosedSnapshots(t *testing.T) {
	cl := newCluster(t, 1, 1, Config{Linger: time.Millisecond})
	sh := cl.Shard(0)
	rep := sh.Replicas()[0]
	rep.mu.Lock()
	rep.applyErrHook = func(seq uint64) error {
		if seq%5 == 0 {
			return fmt.Errorf("injected transient apply failure at seq %d", seq)
		}
		return nil
	}
	rep.mu.Unlock()

	done := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	read := func(src view.Full) error {
		ctx := xpsim.NewCtx(xpsim.NodeUnbound)
		for v := graph.VID(0); v < 32; v++ {
			if _, err := src.NbrsOutChecked(ctx, v, nil); errors.Is(err, core.ErrSnapshotClosed) {
				return fmt.Errorf("checked read of out(%d): %w", v, err)
			}
			if _, err := src.NbrsInChecked(ctx, v, nil); errors.Is(err, core.ErrSnapshotClosed) {
				return fmt.Errorf("checked read of in(%d): %w", v, err)
			}
		}
		return nil
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(follower bool) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var err error
				if follower {
					fv, _, release := rep.View()
					err = read(fv)
					release()
				} else {
					cv := cl.AcquireView()
					err = read(cv)
					cv.Release()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r == 2)
	}

	// Every round ends in a shipped chunk, so the follower can reach the
	// leader's last epoch.
	edges := testEdges(3000)
	for i := 0; i < 30; i++ {
		switch i % 4 {
		case 1:
			if _, err := cl.CompactVertex(graph.VID(i)); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := cl.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.Ingest(edges[i*100:(i+1)*100], true); err != nil {
			t.Fatal(err)
		}
	}
	waitReplicaRunning(t, sh, rep)
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if rc := rep.Counters(); rc.SnapReplays == 0 {
		t.Fatalf("the follower never rebuilt from a pinned leader snapshot: %+v", rc)
	}
}

// TestPublicationAllocatesUnderV: on a warmed shard with one follower, a
// chunk's whole way — leader ingest and publication, the ship entry, the
// follower's apply and publication — allocates under |V| bytes. Each
// publication retires the previous one first and patches the count base it
// freed, where copying it would allocate 2 × 4 B × |V| per store.
func TestPublicationAllocatesUnderV(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	const numV = 1 << 16
	store := func(name string) (*core.Store, error) {
		m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
		return core.New(m, pmem.NewHeap(m), nil, core.Options{
			Name: name, NumVertices: numV, LogCapacity: 1 << 16, ArchiveThreshold: 1 << 8, ArchiveThreads: 2})
	}
	leader, err := store("leader")
	if err != nil {
		t.Fatal(err)
	}
	clk := &clock.Virtual{}
	cl, err := New([]*core.Store{leader}, Config{Clock: clk, Replicas: 1,
		ReplicaFactory: func(int, int) (*core.Store, error) { return store("follower") }})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	const chunk, per = 256, 8
	edges := gen.RMAT(16, 64*chunk, 3)
	apply := func() {
		if _, err := cl.IngestLocal(edges[:chunk]); err != nil {
			t.Fatal(err)
		}
		edges = edges[chunk:]
		runUntil(cl, clk, clk.Now().Add(time.Second))
	}
	for i := 0; i < per; i++ {
		apply()
	}
	// The least of three measurements: a collection in the middle of one
	// empties the pools.
	least := uint64(1 << 62)
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < per; i++ {
			apply()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/per)
	}
	rep := cl.Shard(0).Replicas()[0]
	if rep.State() != "running" || rep.Epoch() != cl.Shard(0).Epoch() {
		t.Fatalf("follower %s at epoch %d, leader at %d", rep.State(), rep.Epoch(), cl.Shard(0).Epoch())
	}
	t.Logf("%d B allocated per %d-edge chunk with one follower, |V| = %d", least, chunk, numV)
	if least >= numV {
		t.Fatalf("a published chunk allocates %d B, budget |V| = %d B", least, numV)
	}
}

// TestRetireAndUnrefCloseOnce races the two closers of one publication —
// the writer's retire and the last reader's unref — many times over: both
// may see the other's half done and call Close, which must release the
// snapshot's share of its count base once (Close panics on a second
// release).
func TestRetireAndUnrefCloseOnce(t *testing.T) {
	st := newStore(t, "closers")
	if _, err := st.Ingest(testEdges(100)); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for i := 0; i < 2000; i++ {
		p := &published{snap: st.Snapshot(ctx)}
		p.refs.Add(1)
		var start, wg sync.WaitGroup
		start.Add(1)
		wg.Add(2)
		go func() { defer wg.Done(); start.Wait(); p.unref() }()
		go func() { defer wg.Done(); start.Wait(); p.retire() }()
		start.Done()
		wg.Wait()
		if _, err := p.snap.Degree(view.Out, 0); !errors.Is(err, core.ErrSnapshotClosed) {
			t.Fatalf("round %d: retired and unreferenced, the snapshot still reads: %v", i, err)
		}
	}
}
