package view_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/graphone"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/splitmix"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// The conformance suite: every implementer of the read surface answers
// the same questions the same way. One seeded workload (multi-edges,
// deletions, typed edges, vertex properties) is loaded into each and into
// a difftest.Model; the kit's comparator holds every Source to the model,
// and the assertions here pin what the surface adds on top — appends,
// reads past NumVertices, filters, the guard's re-entrancy, typed damage.

const (
	numV = 48
	hub  = graph.VID(3) // many out-edges in the first, flushed half: the damage target
)

// pairLabel is the label every (src,dst) edge carries: a function of the
// pair, so multi-edges agree and a re-add after a delete changes nothing.
func pairLabel(src, dst uint32) uint16 {
	if (src*31+dst)%3 == 0 {
		return 0
	}
	return 1 + uint16((src+dst)%2)
}

type workload struct {
	ops    []graph.Edge
	labels []uint16
	props  []graph.PropSet
}

func build() (workload, *difftest.Model) {
	var w workload
	add := func(e graph.Edge) {
		w.ops = append(w.ops, e)
		w.labels = append(w.labels, pairLabel(e.Src, e.Target()))
	}
	rng := splitmix.Rand(1)
	for i := 0; i < 40; i++ {
		add(graph.Edge{Src: hub, Dst: graph.VID(rng.Next() % numV)})
	}
	var live []graph.Edge
	for i := 0; i < 600; i++ {
		switch {
		case i%9 == 8 && len(live) > 0: // delete one live edge
			j := int(rng.Next() % uint64(len(live)))
			add(graph.Del(live[j].Src, live[j].Dst)) // a deletion's label is ignored
			live = slices.Delete(live, j, j+1)
		case i%7 == 6 && len(live) > 0: // multi-edge: repeat the latest add
			add(live[len(live)-1])
			live = append(live, live[len(live)-1])
		default:
			e := graph.Edge{Src: graph.VID(rng.Next() % numV), Dst: graph.VID(rng.Next() % numV)}
			add(e)
			live = append(live, e)
		}
	}
	for v := graph.VID(0); v < numV; v += 2 {
		w.props = append(w.props, graph.PropSet{V: v, Key: 1, Val: int64(v*3) % 100})
	}
	m := difftest.New()
	m.RegisterLabel("follows")
	m.RegisterLabel("likes")
	m.IngestTyped(w.ops, w.labels)
	m.SetProps(w.props)
	return w, m
}

// subject is one implementer under test.
type subject struct {
	name string
	view view.View
	full view.Full // nil: the View half only
	// damage makes checked out-reads of hub fail (nil: no checked path).
	damage func(t *testing.T)
}

// buildStore makes a MediaGuard + Props store on its own fault-tracked
// machine.
func buildStore(name string) (*core.Store, *xpsim.Faults, error) {
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	faults := m.TrackFaults()
	st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: name, NumVertices: 64, LogCapacity: 1 << 12,
		ArchiveThreshold: 1 << 6, ArchiveThreads: 2, MediaGuard: true, Props: true})
	return st, faults, err
}

func newCoreStore(t *testing.T, name string) (*core.Store, *xpsim.Faults) {
	t.Helper()
	st, faults, err := buildStore(name)
	if err != nil {
		t.Fatal(err)
	}
	return st, faults
}

// poisonHub marks the media under hub's flushed out-chain uncorrectable.
func poisonHub(t *testing.T, st *core.Store, faults *xpsim.Faults) {
	t.Helper()
	lines := st.VertexMediaLines(core.Out, hub)
	if len(lines) == 0 {
		t.Fatal("hub has no flushed out-chain to damage")
	}
	for _, ln := range lines {
		faults.InjectUE(ln.Node, ln.Line)
	}
}

// loadedStore ingests the workload into a fresh store: the first half
// flushed to PMEM chains, the second half left in the DRAM vertex
// buffers, so every read merges both.
func loadedStore(t *testing.T, w workload) (*core.Store, *xpsim.Faults) {
	t.Helper()
	st, faults := newCoreStore(t, "conf")
	for _, name := range []string{"follows", "likes"} {
		if _, err := st.RegisterLabel(name); err != nil {
			t.Fatal(err)
		}
	}
	half := len(w.ops) / 2
	if _, err := st.IngestTyped(w.ops[:half], w.labels[:half]); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(st.BufferAllEdges(), st.FlushAllVbufs()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestTyped(w.ops[half:], w.labels[half:]); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(st.BufferAllEdges(), st.SetProps(w.props)); err != nil {
		t.Fatal(err)
	}
	return st, faults
}

func liveStore(t *testing.T, w workload) subject {
	st, faults := loadedStore(t, w)
	return subject{name: "core.Store", view: st, full: st, damage: func(t *testing.T) { poisonHub(t, st, faults) }}
}

func snapshot(t *testing.T, w workload) subject {
	st, faults := loadedStore(t, w)
	sn := st.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound))
	t.Cleanup(sn.Close)
	// Writes after capture must stay invisible.
	if _, err := st.Ingest([]graph.Edge{{Src: hub, Dst: 1}, {Src: numV + 5, Dst: hub}}); err != nil {
		t.Fatal(err)
	}
	return subject{name: "core.Snapshot", view: sn, full: sn, damage: func(t *testing.T) { poisonHub(t, st, faults) }}
}

func guardedSnapshot(t *testing.T, w workload) subject {
	s := snapshot(t, w)
	s.name = "view.GuardFull(core.Snapshot)"
	s.full = view.GuardFull(s.full, new(sync.RWMutex))
	s.view = s.full
	return s
}

// clusterView loads the workload through the router into a cluster of
// the given shape. With replicas, the partition after hub's is killed
// once its follower has caught up, so that partition serves failed over.
func clusterView(shards, replicas int) func(t *testing.T, w workload) subject {
	return func(t *testing.T, w workload) subject {
		stores := make([]*core.Store, shards)
		faults := make([]*xpsim.Faults, shards)
		for i := range stores {
			stores[i], faults[i] = newCoreStore(t, fmt.Sprintf("shard%d", i))
		}
		cfg := cluster.Config{Replicas: replicas}
		if replicas > 0 {
			cfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
				st, _, err := buildStore(fmt.Sprintf("shard%d-replica%d", shardID, replica))
				return st, err
			}
		}
		cl, err := cluster.New(stores, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		for _, name := range []string{"follows", "likes"} {
			if _, err := cl.RegisterLabel(name); err != nil {
				t.Fatal(err)
			}
		}
		half := len(w.ops) / 2
		if _, err := cl.IngestTyped(w.ops[:half], w.labels[:half], nil); err != nil {
			t.Fatal(err)
		}
		if err := cl.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.IngestTyped(w.ops[half:], w.labels[half:], w.props); err != nil {
			t.Fatal(err)
		}
		if replicas > 0 {
			victim := cl.Shard((cl.Owner(hub) + 1) % shards)
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				r := victim.Replicas()[0]
				if r.Epoch() == victim.Epoch() {
					break
				}
				if err := r.Err(); err != nil || time.Now().After(deadline) {
					t.Fatalf("replica stuck at epoch %d, leader at %d (err %v)", r.Epoch(), victim.Epoch(), err)
				}
			}
			cl.KillShard(victim.ID())
		}
		cv := cl.AcquireView()
		t.Cleanup(cv.Release)
		o := cl.Owner(hub)
		return subject{name: fmt.Sprintf("cluster.ClusterView %d shards x %d replicas", shards, replicas),
			view: cv, full: cv, damage: func(t *testing.T) { poisonHub(t, stores[o], faults[o]) }}
	}
}

func graphOne(t *testing.T, w workload) subject {
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	g, err := graphone.New(m, pmem.NewHeap(m), nil, graphone.Options{
		Name: "conf", NumVertices: 64, LogCapacity: 1 << 12, ArchiveThreshold: 1 << 6, ArchiveThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Ingest(w.ops); err != nil {
		t.Fatal(err)
	}
	if err := g.ArchiveAll(); err != nil {
		t.Fatal(err)
	}
	return subject{name: "graphone.Store", view: g}
}

func TestConformance(t *testing.T) {
	w, m := build()
	for _, mk := range []func(*testing.T, workload) subject{
		liveStore, snapshot, guardedSnapshot, clusterView(1, 0), clusterView(4, 1), graphOne,
	} {
		s := mk(t, w)
		t.Run(s.name, func(t *testing.T) {
			if _, err := (difftest.Compare{Degrees: true}).Run(m, s.view.(view.Source)); err != nil {
				t.Fatal(err)
			}
			checkView(t, s.view, m)
			if s.full != nil {
				if _, err := (difftest.Compare{Labels: true, Props: []uint16{1}}).Run(m, s.full.(view.Source)); err != nil {
					t.Fatal(err)
				}
				checkFull(t, s.full, m)
			}
			if s.damage != nil { // last: a poisoned XPLine takes its neighbors' blocks with it
				s.damage(t)
				checkDamaged(t, s.full)
			}
		})
	}
}

// checkView covers what the algorithm surface adds to a Source: appends
// after a non-empty dst, the per-neighbor visit, reads past NumVertices
// empty.
func checkView(t *testing.T, g view.View, m *difftest.Model) {
	t.Helper()
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	if g.NumVertices() < numV {
		t.Fatalf("NumVertices = %d, want >= %d", g.NumVertices(), numV)
	}
	prefix := []uint32{7, 8, 9}
	for v := graph.VID(0); v < numV; v++ {
		for _, d := range []struct {
			name  string
			nbrs  func(*xpsim.Ctx, graph.VID, []uint32) []uint32
			visit func(*xpsim.Ctx, graph.VID, func(uint32))
			want  []uint32
		}{
			{"Out", g.NbrsOut, g.VisitOut, m.NbrsOut(ctx, v, nil)},
			{"In", g.NbrsIn, g.VisitIn, m.NbrsIn(ctx, v, nil)},
		} {
			got := d.nbrs(ctx, v, slices.Clone(prefix))
			if len(got) < len(prefix) || !slices.Equal(got[:len(prefix)], prefix) || !difftest.SameMultiset(got[len(prefix):], d.want) {
				t.Fatalf("Nbrs%s(%d) onto %v = %v: must append %v", d.name, v, prefix, got, d.want)
			}
			var visited []uint32
			d.visit(ctx, v, func(n uint32) { visited = append(visited, n) })
			if !difftest.SameMultiset(visited, d.want) {
				t.Fatalf("Visit%s(%d) = %v, want %v", d.name, v, visited, d.want)
			}
		}
	}
	beyond := g.NumVertices() + 5
	if got := g.NbrsOut(ctx, beyond, slices.Clone(prefix)); !slices.Equal(got, prefix) {
		t.Fatalf("NbrsOut past NumVertices = %v, want dst untouched", got)
	}
	g.VisitIn(ctx, beyond, func(uint32) { t.Fatal("VisitIn past NumVertices called back") })
	if g.OutDegree(beyond) != 0 {
		t.Fatal("OutDegree past NumVertices != 0")
	}
}

// checkFull covers the checked reads' appends, label lookups and the
// filtered visits, against the filter applied to the model's neighbors.
func checkFull(t *testing.T, g view.Full, m *difftest.Model) {
	t.Helper()
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	prefix := []uint32{7, 8, 9}
	type edge struct {
		nbr uint32
		lbl uint16
	}
	for v := graph.VID(0); v < numV; v++ {
		out, err := g.NbrsOutChecked(ctx, v, slices.Clone(prefix))
		if want := m.NbrsOut(ctx, v, nil); err != nil || !slices.Equal(out[:len(prefix)], prefix) || !difftest.SameMultiset(out[len(prefix):], want) {
			t.Fatalf("NbrsOutChecked(%d) onto %v = %v, %v: must append %v", v, prefix, out, err, want)
		}
		in, err := g.NbrsInChecked(ctx, v, slices.Clone(prefix))
		if want := m.NbrsIn(ctx, v, nil); err != nil || !slices.Equal(in[:len(prefix)], prefix) || !difftest.SameMultiset(in[len(prefix):], want) {
			t.Fatalf("NbrsInChecked(%d) onto %v = %v, %v: must append %v", v, prefix, in, err, want)
		}

		// The label half is answered where the edge lives, the vertex half
		// where the neighbor lives; in the 4-shard view those differ.
		for _, f := range []prop.Filter{
			{},
			{Types: []uint16{2}},
			{Types: []uint16{0, 1}, Key: 1, Op: prop.OpGe, Val: 40},
			{Key: 1, Op: "exists"},
		} {
			for _, d := range []struct {
				name string
				dir  view.Dir
				got  func(*xpsim.Ctx, graph.VID, prop.Filter, func(uint32, uint16)) error
			}{
				{"Out", view.Out, g.VisitOutTyped},
				{"In", view.In, g.VisitInTyped},
			} {
				// want applies f by hand to the model's labelled neighbors:
				// the label half to the edge, the vertex half to the
				// neighbor's properties.
				var want, got []edge
				if err := m.Visit(ctx, d.dir, v, view.Opts{Labels: true}, func(nbrs []uint32, lbls []uint16) {
					for i, n := range nbrs {
						get := func(k uint16) (int64, bool) { val, ok, _ := m.VProp(graph.VID(n), k); return val, ok }
						if f.MatchLabel(lbls[i]) && f.MatchVertex(get) {
							want = append(want, edge{n, lbls[i]})
						}
					}
				}); err != nil {
					t.Fatal(err)
				}
				if err := d.got(ctx, v, f, func(n uint32, l uint16) { got = append(got, edge{n, l}) }); err != nil {
					t.Fatalf("Visit%sTyped(%d, %+v): %v", d.name, v, f, err)
				}
				less := func(a, b edge) int { return int(a.nbr) - int(b.nbr) }
				slices.SortFunc(want, less)
				slices.SortFunc(got, less)
				if !slices.Equal(got, want) {
					t.Fatalf("Visit%sTyped(%d, %+v) = %v, want %v", d.name, v, f, got, want)
				}
			}
		}
	}
	if id, ok := g.LabelID("likes"); !ok || id != 2 {
		t.Fatalf(`LabelID("likes") = %d, %v`, id, ok)
	}
	if _, ok := g.LabelID("nope"); ok {
		t.Fatal(`LabelID("nope") resolved`)
	}
	if _, ok := g.LabelID(""); ok {
		t.Fatal("the default label has no name to resolve")
	}
	if err := g.VisitOutTyped(ctx, hub, prop.Filter{Op: "between"}, func(uint32, uint16) {}); err == nil {
		t.Fatal("an unknown filter op must fail the visit")
	}
	beyond := g.NumVertices() + 5
	if got, err := g.NbrsInChecked(ctx, beyond, slices.Clone(prefix)); err != nil || !slices.Equal(got, prefix) {
		t.Fatalf("NbrsInChecked past NumVertices = %v, %v; want dst untouched", got, err)
	}
	if err := g.VisitOutTyped(ctx, beyond, prop.Filter{}, func(uint32, uint16) { t.Fatal("called back") }); err != nil {
		t.Fatalf("VisitOutTyped past NumVertices: %v", err)
	}
}

// checkDamaged: with hub's out-chain on uncorrectable media, the checked
// read fails with the device's typed error — through every wrapper — and
// hands dst back at its original length.
func checkDamaged(t *testing.T, g view.Full) {
	t.Helper()
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	prefix := []uint32{7, 8, 9}
	got, err := g.NbrsOutChecked(ctx, hub, slices.Clone(prefix))
	var me *xpsim.MediaError
	if !errors.As(err, &me) {
		t.Fatalf("NbrsOutChecked(hub) on poisoned media: err = %v, want *xpsim.MediaError", err)
	}
	if !slices.Equal(got, prefix) {
		t.Fatalf("failed NbrsOutChecked returned %v, want dst %v back unchanged", got, prefix)
	}
}

// TestGuardCallbackRunsUnlocked pins the guard's re-entrancy rule:
// materialize under the lock, call back without it. PageRank's VisitIn
// callback calls OutDegree; if the guard held its RLock across the
// callback, a writer arriving in between would wait for that RLock while
// the callback's own RLock waits behind the writer.
func TestGuardCallbackRunsUnlocked(t *testing.T) {
	w, _ := build()
	st, _ := loadedStore(t, w)
	sn := st.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound))
	defer sn.Close()
	var mu sync.RWMutex
	g := view.GuardFull(sn, &mu)

	inCallback, writerParked, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		first := true
		g.VisitIn(xpsim.NewCtx(xpsim.NodeUnbound), hub, func(u uint32) {
			if first {
				first = false
				close(inCallback)
				<-writerParked
			}
			g.OutDegree(graph.VID(u))
		})
	}()
	<-inCallback

	// Park a writer behind a read lock of our own, then let it through.
	mu.RLock()
	go func() {
		mu.Lock() // the writer only needs to pass through
		defer mu.Unlock()
	}()
	for mu.TryRLock() { // fails once the writer is queued
		mu.RUnlock()
		runtime.Gosched()
	}
	close(writerParked)
	mu.RUnlock()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("VisitIn callback deadlocked against a queued writer: the guard held its RLock across fn")
	}
}
