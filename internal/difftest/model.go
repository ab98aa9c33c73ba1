// Package difftest is the differential-test kit: one reference model, one
// comparator over view.Source and one sweep driver. Every fault harness and
// package test compares a store with its Model, Compare and Sweep. It
// imports nothing above internal/view, so core's, graphone's and cluster's
// own tests can use it.
package difftest

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/graph"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Model is the reference answer: the adjacency multiset per direction with
// the stores' delete semantics (a delete cancels one earlier matching
// insert; an unmatched one cancels nothing), stored record counts with
// tombstones included, last-write-wins edge labels per (src, dst) pair and
// vertex properties, and the label table. It keeps the streams it was fed
// — the adjacency updates in log order and the label and property records
// in column-log order — for Compare.Prefix to hold a crashed store to.
//
// A Model is a view.Source, and its embedded Surface gives it the rest of
// the read surface (NbrsOut, OutDegree, VisitOutTyped, ...).
type Model struct {
	view.Surface

	edges []graph.Edge // adjacency updates, in log order
	cols  []col        // label and property records, in column-log order
	names []string     // the label table; names[0] is the default label ""

	nbrs  [2]map[graph.VID][]uint32
	recs  [2]map[graph.VID]int
	label map[[2]uint32]uint16
	prop  map[propKey]int64
	nv    graph.VID // one past the highest vertex any update named
}

type propKey struct {
	v   graph.VID
	key uint16
}

// col is one record of the column stream: an edge label, or (prop) a
// vertex property.
type col struct {
	prop     bool
	src, dst uint32 // edge label: the pair, lbl its label
	lbl      uint16
	k        propKey // property: vertex and key, val its value
	val      int64
}

// key is what c writes: an edge pair or a property key.
func (c col) key() any {
	if c.prop {
		return c.k
	}
	return [2]uint32{c.src, c.dst}
}

func (c col) value() int64 {
	if c.prop {
		return c.val
	}
	return int64(c.lbl)
}

func (c col) String() string {
	if c.prop {
		return fmt.Sprintf("property %d of vertex %d = %d", c.k.key, c.k.v, c.val)
	}
	return fmt.Sprintf("label %d of edge %d→%d", c.lbl, c.src, c.dst)
}

// New returns an empty model.
func New() *Model {
	m := &Model{names: []string{""}, label: map[[2]uint32]uint16{}, prop: map[propKey]int64{}}
	for d := range m.nbrs {
		m.nbrs[d], m.recs[d] = map[graph.VID][]uint32{}, map[graph.VID]int{}
	}
	m.Surface = view.Surface{Source: m}
	return m
}

// Of is the model of an untyped update stream.
func Of(edges []graph.Edge) *Model {
	m := New()
	m.Ingest(edges)
	return m
}

// Ingest applies adjacency updates: inserts and deletion tombstones.
func (m *Model) Ingest(edges []graph.Edge) {
	for _, e := range edges {
		m.edges = append(m.edges, e)
		m.apply(e)
	}
}

func (m *Model) apply(e graph.Edge) {
	src, dst := e.Src, e.Target()
	m.recs[view.Out][src]++
	m.recs[view.In][dst]++
	m.grow(max(src, dst))
	if e.IsDelete() {
		m.nbrs[view.Out][src] = removeOne(m.nbrs[view.Out][src], dst)
		m.nbrs[view.In][dst] = removeOne(m.nbrs[view.In][dst], src)
		return
	}
	m.nbrs[view.Out][src] = append(m.nbrs[view.Out][src], dst)
	m.nbrs[view.In][dst] = append(m.nbrs[view.In][dst], src)
}

func removeOne(s []uint32, x uint32) []uint32 {
	if i := slices.Index(s, x); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

func (m *Model) grow(v graph.VID) { m.nv = max(m.nv, v+1) }

// IngestTyped is Ingest plus a label record per insert: labels[i] for
// edges[i], the default label when labels is short.
func (m *Model) IngestTyped(edges []graph.Edge, labels []uint16) {
	m.Ingest(edges)
	for i, e := range edges {
		if e.IsDelete() {
			continue
		}
		c := col{src: e.Src, dst: e.Dst}
		if i < len(labels) {
			c.lbl = labels[i]
		}
		m.cols = append(m.cols, c)
		m.put(c)
	}
}

// SetProps applies vertex-property writes.
func (m *Model) SetProps(sets []graph.PropSet) {
	for _, p := range sets {
		c := col{prop: true, k: propKey{p.V, p.Key}, val: p.Val}
		m.cols = append(m.cols, c)
		m.put(c)
	}
}

func (m *Model) put(c col) {
	if c.prop {
		m.prop[c.k] = c.val
		m.grow(c.k.v)
		return
	}
	m.label[[2]uint32{c.src, c.dst}] = c.lbl
}

// RegisterLabel returns name's label id, assigning the next one on first
// use.
func (m *Model) RegisterLabel(name string) uint16 {
	if i := slices.Index(m.names, name); i > 0 {
		return uint16(i)
	}
	m.names = append(m.names, name)
	return uint16(len(m.names) - 1)
}

// Compact is what compacting v's chains does to a store: tombstones and the
// inserts they cancel are dropped, so v's stored record counts fall to its
// live neighbors in both directions.
func (m *Model) Compact(v graph.VID) {
	for d := range m.recs {
		m.recs[d][v] = len(m.nbrs[d][v])
	}
}

// Len is the length of the adjacency stream.
func (m *Model) Len() int { return len(m.edges) }

// Clone is a copy of m that later updates to m leave alone.
func (m *Model) Clone() *Model {
	c := Of(m.edges)
	for d := range c.recs {
		c.recs[d] = maps.Clone(m.recs[d]) // compactions included
	}
	c.names = slices.Clone(m.names)
	c.cols = slices.Clone(m.cols)
	for _, r := range c.cols {
		c.put(r)
	}
	return c
}

// ---- view.Source ----

func (m *Model) NumVertices() graph.VID { return m.nv }

func (m *Model) Node(view.Dir, graph.VID) int { return xpsim.NodeUnbound }

func (m *Model) Degree(d view.Dir, v graph.VID) (int, error) { return m.recs[d][v], nil }

// Visit hands v's neighbors over in one run, a copy later updates leave
// alone.
func (m *Model) Visit(_ *xpsim.Ctx, d view.Dir, v graph.VID, o view.Opts, fn func(nbrs []uint32, lbls []uint16)) error {
	nbrs := slices.Clone(m.nbrs[d][v])
	if len(nbrs) == 0 {
		return nil
	}
	var lbls []uint16
	if o.Labels {
		lbls = make([]uint16, len(nbrs))
		for i, n := range nbrs {
			if d == view.Out {
				lbls[i] = m.label[[2]uint32{v, n}]
			} else {
				lbls[i] = m.label[[2]uint32{n, v}]
			}
		}
	}
	fn(nbrs, lbls)
	return nil
}

func (m *Model) Labels() []string { return slices.Clone(m.names) }

func (m *Model) VProp(v graph.VID, key uint16) (int64, bool, error) {
	val, ok := m.prop[propKey{v, key}]
	return val, ok, nil
}
