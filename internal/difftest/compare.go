package difftest

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Compare is the one comparator: it reads every vertex of two
// view.Sources in both directions and requires got to answer what want
// answers. want is a Model, or a source the caller trusts — a leader
// whose follower is got, a reference store — and must always answer.
// Neighbors compare as multisets.
//
// The zero Compare is exact mode over adjacency alone: every read of got
// must succeed and match. Setting Typed selects checked mode.
type Compare struct {
	// Typed selects checked mode: got is read through the media-checked
	// walk, and each read either matches or fails with an error Typed
	// accepts — the typed-error predicate of the harness that knows the
	// error types. Run counts both kinds.
	Typed func(error) bool
	// Labels compares the label of every edge and the label tables.
	Labels bool
	// Props lists the vertex-property keys compared on every vertex.
	Props []uint16
	// Degrees compares stored record counts, tombstones included; leave it
	// off where got may have compacted tombstones away.
	Degrees bool
}

// Read is one vertex in one direction as Run counts it: its walk, its
// record count and, in direction Out, its properties.
type Read struct {
	Dir view.Dir
	V   graph.VID
	Err error // the typed failure
}

func (r Read) String() string { return fmt.Sprintf("%s(%d): %v", dirName(r.Dir), r.V, r.Err) }

// Report is what one comparison saw.
type Report struct {
	Clean  int    // reads that matched
	Failed []Read // reads that failed typed (checked mode only)
}

// mismatch is a read that succeeded with the wrong answer: silently wrong
// data, which no mode tolerates.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return m.msg }

func wrongf(format string, args ...any) error { return &mismatch{fmt.Sprintf(format, args...)} }

// Run compares got with want on every vertex below the larger of their
// NumVertices and returns the first read that answers anything but want's
// answer — in checked mode, anything but want's answer or a typed failure.
func (c Compare) Run(want, got view.Source) (Report, error) {
	var rep Report
	if c.Labels && !slices.Equal(got.Labels(), want.Labels()) {
		return rep, wrongf("label table %q, want %q", got.Labels(), want.Labels())
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	n := max(want.NumVertices(), got.NumVertices())
	for _, d := range []view.Dir{view.Out, view.In} {
		for v := graph.VID(0); v < n; v++ {
			err := c.read(ctx, want, got, d, v)
			var wrong *mismatch
			switch {
			case err == nil:
				rep.Clean++
			case c.Typed != nil && !errors.As(err, &wrong) && c.Typed(err):
				rep.Failed = append(rep.Failed, Read{Dir: d, V: v, Err: err})
			default:
				return rep, err
			}
		}
	}
	return rep, nil
}

// read compares one vertex in one direction. A failure on want's side
// never passes for typed: the reference must answer.
func (c Compare) read(ctx *xpsim.Ctx, want, got view.Source, d view.Dir, v graph.VID) error {
	at := fmt.Sprintf("%s(%d)", dirName(d), v)
	w, err := walk(ctx, want, d, v, view.Opts{Labels: c.Labels})
	if err != nil {
		return fmt.Errorf("reference %s: %v", at, err)
	}
	g, err := walk(ctx, got, d, v, view.Opts{Checked: c.Typed != nil, Labels: c.Labels})
	if err != nil {
		return fmt.Errorf("%s: %w", at, err)
	}
	if !slices.Equal(g, w) {
		return wrongf("%s: got %d neighbors %v, want %d %v", at, len(g), g, len(w), w)
	}
	if c.Degrees {
		wd, err := want.Degree(d, v)
		if err != nil {
			return fmt.Errorf("reference degree %s: %v", at, err)
		}
		gd, err := got.Degree(d, v)
		if err != nil {
			return fmt.Errorf("degree %s: %w", at, err)
		}
		if gd != wd {
			return wrongf("%s: %d stored records, want %d", at, gd, wd)
		}
	}
	for _, key := range c.Props {
		if d != view.Out {
			break
		}
		wv, wok, err := want.VProp(v, key)
		if err != nil {
			return fmt.Errorf("reference VProp(%d, %d): %v", v, key, err)
		}
		gv, gok, err := got.VProp(v, key)
		if err != nil {
			return fmt.Errorf("VProp(%d, %d): %w", v, key, err)
		}
		if gv != wv || gok != wok {
			return wrongf("VProp(%d, %d) = %d, %v; want %d, %v", v, key, gv, gok, wv, wok)
		}
	}
	return nil
}

func dirName(d view.Dir) string {
	if d == view.Out {
		return "out"
	}
	return "in"
}

// edge is one neighbor with its label (0 when labels were not asked for).
type edge struct {
	nbr uint32
	lbl uint16
}

// walk collects v's neighbors in direction d, sorted.
func walk(ctx *xpsim.Ctx, src view.Source, d view.Dir, v graph.VID, o view.Opts) ([]edge, error) {
	var out []edge
	err := src.Visit(ctx, d, v, o, func(nbrs []uint32, lbls []uint16) {
		for i, n := range nbrs {
			e := edge{nbr: n}
			if lbls != nil {
				e.lbl = lbls[i]
			}
			out = append(out, e)
		}
	})
	slices.SortFunc(out, func(a, b edge) int { return cmp.Or(cmp.Compare(a.nbr, b.nbr), cmp.Compare(a.lbl, b.lbl)) })
	return out, err
}

// SameMultiset reports whether a and b hold the same values, each as often.
func SameMultiset(a, b []uint32) bool {
	return slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b)))
}

// Prefix is the comparator's prefix mode, the contract after a crash: got
// holds exactly the first durable updates of m's adjacency stream (compared
// as c compares adjacency: Typed and Degrees apply), and of m's label and
// property records a prefix — each record exact or absent, never wrong,
// none present after one that is absent. A label is observable only on an
// edge got holds. With c.Labels the label tables must agree too.
func (c Compare) Prefix(m *Model, durable int, got view.Source) error {
	if durable < 0 || durable > m.Len() {
		return fmt.Errorf("durable prefix %d outside the %d-update stream", durable, m.Len())
	}
	adj := Compare{Typed: c.Typed, Degrees: c.Degrees}
	if _, err := adj.Run(Of(m.edges[:durable]), got); err != nil {
		return fmt.Errorf("durable prefix %d of %d: %w", durable, m.Len(), err)
	}
	if c.Labels && !slices.Equal(got.Labels(), m.names) {
		return wrongf("label table %q, want %q", got.Labels(), m.names)
	}
	return columnPrefix(m.cols, got)
}

// columnPrefix finds a k for which got reads what the first k records of
// cols wrote. It replays cols once, tracking how many keys got reads
// differently from the replayed state.
func columnPrefix(cols []col, got view.Source) error {
	if len(cols) == 0 {
		return nil
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	labels := map[[2]uint32]uint16{} // got's label of every edge it holds
	for v := graph.VID(0); v < got.NumVertices(); v++ {
		err := got.Visit(ctx, view.Out, v, view.Opts{Labels: true}, func(nbrs []uint32, lbls []uint16) {
			for i, n := range nbrs {
				labels[[2]uint32{v, n}] = lbls[i]
			}
		})
		if err != nil {
			return fmt.Errorf("labels of out(%d): %w", v, err)
		}
	}
	props := map[propKey]int64{} // got's value of every property cols writes
	for _, c := range cols {
		if !c.prop {
			continue
		}
		val, ok, err := got.VProp(c.k.v, c.k.key)
		if err != nil {
			return fmt.Errorf("VProp(%d, %d): %w", c.k.v, c.k.key, err)
		}
		if ok {
			props[c.k] = val
		}
	}
	// state is the replayed prefix: a property it lacks is unset, a label
	// 0. differs reports whether got reads the key c writes otherwise.
	state := map[any]int64{}
	differs := func(c col) bool {
		if c.prop {
			gv, gok := props[c.k]
			wv, wok := state[c.k]
			return gv != wv || gok != wok
		}
		gv, seen := labels[[2]uint32{c.src, c.dst}]
		return seen && int64(gv) != state[c.key()]
	}
	keys, wrong := map[any]bool{}, 0 // wrong counts the keys that differ
	for _, c := range cols {
		if !keys[c.key()] {
			keys[c.key()] = true
			if differs(c) {
				wrong++
			}
		}
	}
	for pair, lbl := range labels {
		if lbl != 0 && !keys[pair] {
			return wrongf("edge %d→%d reads label %d, which no record wrote", pair[0], pair[1], lbl)
		}
	}
	best, bestAt := wrong, 0
	for i, c := range cols {
		before := differs(c)
		state[c.key()] = c.value()
		if after := differs(c); after && !before {
			wrong++
		} else if before && !after {
			wrong--
		}
		if wrong < best {
			best, bestAt = wrong, i+1
		}
	}
	if best == 0 {
		return nil
	}
	clear(state)
	for _, c := range cols[:bestAt] {
		state[c.key()] = c.value()
	}
	first := slices.IndexFunc(cols, differs)
	return wrongf("label and property records are no prefix of the %d written: the nearest prefix, %d, leaves %d keys read otherwise, the first written by %s",
		len(cols), bestAt, best, cols[first])
}
