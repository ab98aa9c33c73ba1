package difftest_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// mutant is a correct source with one answer changed.
type mutant struct {
	view.Source
	run  func(d view.Dir, v graph.VID, nbrs []uint32, lbls []uint16) ([]uint32, []uint16, error)
	deg  func(d view.Dir, v graph.VID, n int) int
	prop func(v graph.VID, val int64, ok bool) (int64, bool)
}

func (m mutant) Visit(ctx *xpsim.Ctx, d view.Dir, v graph.VID, o view.Opts, fn func([]uint32, []uint16)) error {
	if m.run == nil {
		return m.Source.Visit(ctx, d, v, o, fn)
	}
	var nbrs []uint32
	var lbls []uint16
	if err := m.Source.Visit(ctx, d, v, o, func(n []uint32, l []uint16) {
		nbrs, lbls = append(nbrs, n...), append(lbls, l...)
	}); err != nil {
		return err
	}
	nbrs, lbls, err := m.run(d, v, nbrs, lbls)
	if err == nil && len(nbrs) > 0 {
		fn(nbrs, lbls)
	}
	return err
}

func (m mutant) Degree(d view.Dir, v graph.VID) (int, error) {
	n, err := m.Source.Degree(d, v)
	if m.deg != nil {
		n = m.deg(d, v, n)
	}
	return n, err
}

func (m mutant) VProp(v graph.VID, key uint16) (int64, bool, error) {
	val, ok, err := m.Source.VProp(v, key)
	if m.prop != nil {
		val, ok = m.prop(v, val, ok)
	}
	return val, ok, err
}

// TestComparatorKillsMutants holds every comparator mode — exact against
// the model, checked, source against source, prefix — to a table of
// mutants over a correct store: each mode must pass the store and fail
// every mutant.
func TestComparatorKillsMutants(t *testing.T) {
	mach := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	st, err := core.New(mach, pmem.NewHeap(mach), nil, core.Options{Name: "kit", NumVertices: 64,
		LogCapacity: 1 << 12, ArchiveThreshold: 1 << 6, ArchiveThreads: 2, MediaGuard: true, Props: true})
	if err != nil {
		t.Fatal(err)
	}
	m := difftest.New()
	for _, name := range []string{"a", "b"} {
		if _, err := st.RegisterLabel(name); err != nil {
			t.Fatal(err)
		}
		m.RegisterLabel(name)
	}
	edges := gen.Evolving(6, 600, 0.1, 5) // multi-edges and deletions
	labels := make([]uint16, len(edges))
	for i, e := range edges {
		labels[i] = uint16((e.Src + e.Dst) % 3)
	}
	var props []graph.PropSet
	for v := graph.VID(0); v < 64; v += 3 {
		props = append(props, graph.PropSet{V: v, Key: 1, Val: int64(v)})
	}
	if _, err := st.IngestTyped(edges, labels); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(st.SetProps(props), st.BufferAllEdges(), st.FlushAllVbufs()); err != nil {
		t.Fatal(err)
	}
	m.IngestTyped(edges, labels)
	m.SetProps(props)

	// The victim has labelled out-edges; its first is flipped, dropped or
	// doubled.
	victim := graph.VID(0)
	for v := graph.VID(0); v < m.NumVertices(); v++ {
		if m.OutDegree(v) > m.OutDegree(victim) {
			victim = v
		}
	}
	at := func(d view.Dir, v graph.VID) bool { return d == view.Out && v == victim }
	mutants := []struct {
		name string
		mutant
	}{
		{"one neighbor dropped", mutant{run: func(d view.Dir, v graph.VID, n []uint32, l []uint16) ([]uint32, []uint16, error) {
			if at(d, v) {
				n, l = n[1:], l[min(1, len(l)):]
			}
			return n, l, nil
		}}},
		{"one extra neighbor", mutant{run: func(d view.Dir, v graph.VID, n []uint32, l []uint16) ([]uint32, []uint16, error) {
			if at(d, v) {
				n = append(n, n[0])
				if len(l) > 0 {
					l = append(l, l[0])
				}
			}
			return n, l, nil
		}}},
		{"one label flipped", mutant{run: func(d view.Dir, v graph.VID, n []uint32, l []uint16) ([]uint32, []uint16, error) {
			if at(d, v) && len(l) > 0 {
				l[0] = (l[0] + 1) % 3
			}
			return n, l, nil
		}}},
		{"one prop off by one", mutant{prop: func(v graph.VID, val int64, ok bool) (int64, bool) {
			if v == 3 {
				val++
			}
			return val, ok
		}}},
		{"one record count off by one", mutant{deg: func(d view.Dir, v graph.VID, n int) int {
			if at(d, v) {
				n++
			}
			return n
		}}},
		{"an untyped error", mutant{run: func(d view.Dir, v graph.VID, n []uint32, l []uint16) ([]uint32, []uint16, error) {
			if at(d, v) {
				return nil, nil, errors.New("mutant: untyped failure")
			}
			return n, l, nil
		}}},
		{"a later prop present, an earlier absent", mutant{prop: func(v graph.VID, val int64, ok bool) (int64, bool) {
			return val, ok && v != 0
		}}},
	}
	typed := func(err error) bool {
		var me *xpsim.MediaError
		return errors.As(err, &me)
	}
	full := difftest.Compare{Labels: true, Props: []uint16{1}, Degrees: true}
	checked := full
	checked.Typed = typed
	modes := []struct {
		name  string
		check func(got view.Source) error
	}{
		{"exact", func(got view.Source) error { _, err := full.Run(m, got); return err }},
		{"checked", func(got view.Source) error { _, err := checked.Run(m, got); return err }},
		{"two sources", func(got view.Source) error { _, err := full.Run(st, got); return err }},
		{"prefix", func(got view.Source) error {
			return difftest.Compare{Labels: true, Degrees: true}.Prefix(m, m.Len(), got)
		}},
	}
	for _, mode := range modes {
		if err := mode.check(st); err != nil {
			t.Fatalf("%s mode fails the correct store: %v", mode.name, err)
		}
		for _, mu := range mutants {
			mu.Source = st
			if err := mode.check(mu.mutant); err == nil {
				t.Errorf("%s mode: mutant %q survived", mode.name, mu.name)
			}
		}
	}
	// A lost tail is a prefix: the last property record (vertex 63's) absent.
	tail := mutant{Source: st, prop: func(v graph.VID, val int64, ok bool) (int64, bool) { return val, ok && v != 63 }}
	if err := modes[3].check(tail); err != nil {
		t.Errorf("prefix mode refuses a lost tail: %v", err)
	}
}

// TestSweepCases pins the sweep's kill space: strided write kills always
// end at the final write, TearNone is killed once per point, torn modes
// once per seed, and every site hit is a kill.
func TestSweepCases(t *testing.T) {
	s := difftest.Sweep{Name: "s", Writes: 10, Points: 3, Seeds: 2,
		Tears: []xpsim.TearMode{xpsim.TearNone, xpsim.TearWords}, Sites: map[string]int64{"x": 2}}
	var points []int64
	var none, torn, sites int
	for _, c := range s.Cases() {
		switch {
		case c.Plan.KillAtSite != "":
			sites++
		case c.Plan.Tear == xpsim.TearNone:
			none++
			points = append(points, c.Plan.KillAtMediaWrite)
		default:
			torn++
		}
	}
	if !slices.Equal(points, []int64{1, 4, 7, 10}) || none != 4 || torn != 8 || sites != 2 {
		t.Fatalf("points %v, %d untorn, %d torn and %d site kills; want [1 4 7 10], 4, 8, 2", points, none, torn, sites)
	}
}

// TestModelCompact: compacting a vertex drops its tombstones and the
// inserts they cancelled from its record counts, in both directions, and a
// clone keeps what compaction did.
func TestModelCompact(t *testing.T) {
	m := difftest.Of([]graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, graph.Del(1, 2), {Src: 4, Dst: 1}})
	m.Compact(1)
	c := m.Clone()
	for _, src := range []*difftest.Model{m, c} {
		if out, _ := src.Degree(view.Out, 1); out != 1 {
			t.Fatalf("out-records of 1 after compaction = %d, want 1", out)
		}
		if in, _ := src.Degree(view.In, 1); in != 1 {
			t.Fatalf("in-records of 1 after compaction = %d, want 1", in)
		}
		if in, _ := src.Degree(view.In, 2); in != 2 {
			t.Fatalf("in-records of 2 = %d: compacting 1 touched vertex 2's chain", in)
		}
	}
}
