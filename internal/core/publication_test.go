package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/adj"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// mediaTyped reports whether err is one of the typed failures a checked
// read may return on a MediaGuard store.
func mediaTyped(err error) bool {
	var me *xpsim.MediaError
	var ce *adj.CorruptError
	var ue *UnrecoverableError
	return errors.As(err, &me) || errors.As(err, &ce) || errors.As(err, &ue)
}

// heldSnap is one open snapshot and the model of the graph at its capture.
type heldSnap struct {
	snap *Snapshot
	want *difftest.Model
	op   int
}

// TestPublicationDifferential holds every snapshot to a model of the graph
// at its capture point, record counts included, while seeded schedules
// interleave ingest (with deletes) with captures, closes (some twice),
// snapshots held across writes, compaction of one vertex and of all, a
// scrub repairing an injected UE, crash recovery and vertex-space growth.
// Each snapshot is compared right after its capture and again at the end if
// it is still open. Captures patch the shared count base, copy it whole or
// allocate a fresh one depending on the schedule, and all three must read
// the same. -difftest.seed draws other schedules.
func TestPublicationDifferential(t *testing.T) {
	ops := map[string]int{} // how often each kind of operation ran: a kind never reached fails
	for _, seed := range difftest.Schedules(0x9b1, difftest.Short(24, 8)) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			if err := publicationRun(seed, ops); err != nil {
				difftest.Fail(t, err)
			}
		})
	}
	for _, op := range []string{"patched", "copied", "fresh", "held", "closed-twice", "compact", "compact-all", "scrub", "recover", "grow"} {
		if ops[op] == 0 {
			t.Errorf("no schedule reached %q: %v", op, ops)
		}
	}
	t.Logf("operations over the schedules: %v", ops)
}

// publicationRun plays one seeded schedule on a MediaGuard store.
func publicationRun(seed uint64, ops map[string]int) error {
	rng := rand.New(rand.NewSource(int64(seed)))
	m, h := testMachine()
	opts := Options{Name: "pub", NumVertices: 64, LogCapacity: 1 << 14, ArchiveThreshold: 1 << 6,
		ArchiveThreads: 3, NUMA: NUMAMode(rng.Intn(3)), MediaGuard: true}
	s, err := New(m, h, nil, opts)
	if err != nil {
		return err
	}
	model := difftest.New()
	raw := map[graph.VID]int{} // out-records ever logged: what a log-window rebuild finds
	span := graph.VID(64)      // the vertex IDs new edges draw from
	cmp := difftest.Compare{Typed: mediaTyped, Degrees: true}
	var held []heldSnap
	check := func(hs heldSnap, when string) error {
		if _, err := cmp.Run(hs.want, hs.snap); err != nil {
			return fmt.Errorf("snapshot of op %d, %s: %w", hs.op, when, err)
		}
		return nil
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)

	for op := 0; op < 48; op++ {
		switch k := rng.Intn(20); {
		case k < 7: // ingest, a few edges or many, one in eight a delete of a live edge
			if rng.Intn(8) == 0 { // over a wider vertex space from now on
				span += 32
				ops["grow"]++
			}
			n := 1 + rng.Intn(6)
			if rng.Intn(3) == 0 {
				n = 1 + rng.Intn(800)
			}
			batch := make([]graph.Edge, 0, n)
			for len(batch) < n {
				// Sources skew to low IDs, so hubs grow chains with whole
				// payload lines; only odd ones delete, so an even vertex's
				// out-chain keeps every record its log window holds.
				e := graph.Edge{Src: graph.VID(rng.Intn(1 + rng.Intn(1+rng.Intn(int(span))))), Dst: graph.VID(rng.Intn(int(span)))}
				if e.Src%2 == 1 && rng.Intn(4) == 0 {
					if outs := model.NbrsOut(ctx, e.Src, nil); len(outs) > 0 {
						e = graph.Del(e.Src, outs[rng.Intn(len(outs))])
					}
				}
				model.Ingest([]graph.Edge{e})
				raw[e.Src]++
				batch = append(batch, e)
			}
			if _, err := s.Ingest(batch); err != nil {
				return fmt.Errorf("op %d: ingest: %w", op, err)
			}
		case k < 11: // capture
			b, stale, shared := s.base, s.baseStale, s.base != nil && s.base.shares > 0
			hs := heldSnap{s.Snapshot(ctx), model.Clone(), op}
			switch {
			case s.base != b || b == nil:
				ops["fresh"]++
			case stale:
				ops["copied"]++
			default:
				ops["patched"]++
			}
			if shared {
				ops["held"]++
			}
			if err := check(hs, "at capture"); err != nil {
				return err
			}
			held = append(held, hs)
		case k < 15: // close an open snapshot, sometimes twice
			if len(held) == 0 {
				continue
			}
			i := rng.Intn(len(held))
			sn := held[i].snap
			sn.Close()
			if rng.Intn(2) == 0 {
				sn.Close()
				ops["closed-twice"]++
			}
			held = append(held[:i], held[i+1:]...)
			if _, err := sn.Degree(Out, 0); !errors.Is(err, ErrSnapshotClosed) {
				return fmt.Errorf("op %d: a closed snapshot's Degree returned %v", op, err)
			}
			if err := sn.Visit(ctx, Out, 0, view.Opts{}, func([]uint32, []uint16) {}); !errors.Is(err, ErrSnapshotClosed) {
				return fmt.Errorf("op %d: a closed snapshot's Visit returned %v", op, err)
			}
		case k < 17: // compact one vertex
			v := graph.VID(rng.Intn(int(span)))
			if v >= s.NumVertices() {
				continue
			}
			if err := s.CompactAdjs(ctx, v); err != nil {
				return fmt.Errorf("op %d: compact %d: %w", op, v, err)
			}
			model.Compact(v)
			ops["compact"]++
		case k == 17: // compact every vertex
			if err := s.CompactAllAdjs(ctx); err != nil {
				return fmt.Errorf("op %d: compact all: %w", op, err)
			}
			for v := graph.VID(0); v < s.NumVertices(); v++ {
				model.Compact(v)
			}
			ops["compact-all"]++
		case k == 18: // a UE under one vertex's payload, repaired by a scrub from the log window
			if err := s.FlushAllVbufs(); err != nil {
				return fmt.Errorf("op %d: flush: %w", op, err)
			}
			target, lines := graph.VID(0), []MediaLine(nil)
			for v := graph.VID(0); v < s.NumVertices(); v++ {
				// The log window rebuilds v only while it holds every record
				// v's chain counts: not after a compaction dropped some.
				if n, _ := model.Degree(Out, v); n != raw[v] {
					continue
				}
				if l := s.VertexPayloadLines(Out, v); len(l) > len(lines) {
					target, lines = v, l
				}
			}
			if len(lines) == 0 {
				continue
			}
			for _, ln := range lines {
				s.Machine().InjectUE(ln.Node, ln.Line)
			}
			rep, err := s.Scrub()
			if err != nil || rep.Damaged == 0 || rep.Repaired != rep.Damaged || rep.Unrecoverable != 0 {
				return fmt.Errorf("op %d: scrub after a UE under vertex %d: %+v, %v", op, target, rep, err)
			}
			ops["scrub"]++
		default: // crash and recover; snapshots of the old store stay readable
			clone, err := s.Heap().CrashClone()
			if err != nil {
				return err
			}
			if s, _, err = Recover(clone.Machine(), clone, nil, opts); err != nil {
				return fmt.Errorf("op %d: recover: %w", op, err)
			}
			ops["recover"]++
		}
	}
	for _, hs := range held {
		if err := check(hs, "at the end"); err != nil {
			return err
		}
	}
	return nil
}

// TestSnapshotPatchesOnlyTouchedCounts: with no open snapshot sharing the
// count base, a capture after a k-edge Ingest patches one count per
// (direction, vertex) the ingest touched, charges the simulated DRAM for
// exactly those, and allocates nothing but the Snapshot. MemStats counts
// every goroutine's allocations, so the capture runs alone on one P, five
// times after five batches, and the fewest allocations one of them saw is
// what counts: a stray allocation elsewhere would have to land in all five,
// while a capture that allocates twice does so every time.
func TestSnapshotPatchesOnlyTouchedCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations show in MemStats")
	}
	s := newStore(t, Options{Name: "patch", NumVertices: 1 << 12, ArchiveThreads: 4})
	all := gen.RMAT(12, 1<<13, 5)
	if _, err := s.Ingest(all); err != nil {
		t.Fatal(err)
	}
	s.Snapshot(xpsim.NewCtx(0)).Close() // the base exists and nothing shares it
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	var sn *Snapshot
	for trial := range uint64(5) {
		edges := gen.RMAT(12, 64, 6+trial)
		all = append(all, edges...)
		touched := [2]map[graph.VID]bool{{}, {}}
		for _, e := range edges {
			touched[Out][e.Src], touched[In][e.Dst] = true, true
		}
		if sn != nil {
			sn.Close()
		}
		if _, err := s.Ingest(edges); err != nil {
			t.Fatal(err)
		}

		ctx := xpsim.NewCtx(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sn = s.Snapshot(ctx)
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)

		want := xpsim.NewCtx(0)
		for _, vs := range touched {
			n := int64(len(vs)) * xpsim.CacheLineSize
			s.lat.DRAM(want, n, false, false)
			s.lat.DRAM(want, n, true, false)
		}
		if got := ctx.Cost.Ns(); got != want.Cost.Ns() {
			t.Errorf("capture %d charged %d sim-ns, patching %d+%d counts costs %d", trial, got, len(touched[Out]), len(touched[In]), want.Cost.Ns())
		}
	}
	defer sn.Close()
	if fewest != 1 {
		t.Errorf("every capture allocated %d objects or more, want the Snapshot alone", fewest)
	}
	if _, err := (difftest.Compare{Degrees: true}).Run(difftest.Of(all), sn); err != nil {
		t.Fatal(err)
	}
}
