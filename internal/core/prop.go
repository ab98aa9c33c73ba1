package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// The property-graph surface of the store (Options.Props; internal/prop,
// DESIGN.md §13). The write side pairs a plain Ingest with label/property
// records in the column log; the read side is the label a Visit reports
// per edge plus the Labels/VProp lookups, on both the live store and its
// snapshots. view.Surface applies filter predicates over them before a
// neighbor ever reaches the caller, so a filtered frontier never charges
// the next hop's media reads.
//
// Property reads are read-latest, not snapshot-pinned: a Snapshot pins
// the adjacency view (which edges exist) but labels and vertex
// properties always answer from the live column index. Pinning them
// would require versioning every record; the serving layer documents the
// weaker contract instead (§13).

// ErrNoProps reports a property operation on a store built without
// Options.Props.
var ErrNoProps = fmt.Errorf("core: property layer disabled (Options.Props is false)")

// IngestTyped ingests a typed edge batch: edges flow through the normal
// log/buffer/flush pipeline unchanged, and labels[i] (default label when
// the labels slice is short) is recorded for edges[i] in the property
// columns. Default-label edges cost nothing in the column log — a mixed
// typed/untyped workload pays only for its typed fraction — and
// deletions never carry labels.
func (s *Store) IngestTyped(edges []graph.Edge, labels []uint16) (IngestReport, error) {
	if s.props == nil {
		return IngestReport{}, ErrNoProps
	}
	rep, err := s.Ingest(edges)
	if err != nil {
		return rep, err
	}
	s.props.ApplyEdgeLabels(edges, labels)
	return rep, nil
}

// SetProps applies a batch of vertex-property writes (last-write-wins).
// Durable at the next flush point, like buffered edges.
func (s *Store) SetProps(sets []graph.PropSet) error {
	if s.props == nil {
		return ErrNoProps
	}
	s.props.ApplyProps(sets)
	return nil
}

// RegisterLabel assigns (or looks up) the label id for name and makes
// the assignment durable before returning it.
func (s *Store) RegisterLabel(name string) (uint16, error) {
	if s.props == nil {
		return 0, ErrNoProps
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	return s.props.RegisterLabel(ctx, name)
}

// SetLabelDef installs a (id, name) pair decided elsewhere — the cluster
// broadcast path that keeps label ids identical across shards.
func (s *Store) SetLabelDef(id uint16, name string) error {
	if s.props == nil {
		return ErrNoProps
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	return s.props.SetLabelDef(ctx, id, name)
}

// PropsEnabled reports whether the store was built with Options.Props.
func (s *Store) PropsEnabled() bool { return s.props != nil }

// ExportPropState dumps the live property index as replayable writes:
// one default-label edge-label record per typed edge (encoded as a typed
// edge-label batch) and one PropSet per live vertex property. The
// cluster's snapshot resync transfers follower state with it; the index
// is read-latest, so restoring then replaying newer records converges.
// Returns nils on a store without the property layer.
func (s *Store) ExportPropState() (edges []graph.Edge, labels []uint16, sets []graph.PropSet) {
	if s.props == nil {
		return nil, nil, nil
	}
	s.props.VisitState(
		func(src, dst uint32, lbl uint16) {
			edges = append(edges, graph.Edge{Src: graph.VID(src), Dst: graph.VID(dst)})
			labels = append(labels, lbl)
		},
		func(v uint32, key uint16, val int64) {
			sets = append(sets, graph.PropSet{V: graph.VID(v), Key: key, Val: val})
		},
	)
	return edges, labels, sets
}

// RestorePropState applies an ExportPropState dump to this store's
// property index (label definitions transfer separately via
// SetLabelDef). No-op on empty input; ErrNoProps without the layer.
func (s *Store) RestorePropState(edges []graph.Edge, labels []uint16, sets []graph.PropSet) error {
	if len(edges) == 0 && len(sets) == 0 {
		return nil
	}
	if s.props == nil {
		return ErrNoProps
	}
	if len(edges) > 0 {
		s.props.ApplyEdgeLabels(edges, labels)
	}
	if len(sets) > 0 {
		s.props.ApplyProps(sets)
	}
	return nil
}

// ---- the property half of view.Source ----

// Labels reports the label table ([""] when the layer is disabled: every
// edge carries the default label).
func (s *Store) Labels() []string {
	if s.props == nil {
		return []string{""}
	}
	return s.props.Labels()
}

// VProp reads vertex v's property key; it fails with prop.ErrDamaged
// once an unrecoverable column block means the answer could be wrong.
func (s *Store) VProp(v graph.VID, key uint16) (int64, bool, error) {
	if s.props == nil {
		return 0, false, nil
	}
	return s.props.VPropChecked(uint32(v), key)
}

// Labels and VProp read through the snapshot to the live column index
// (read-latest, see above).
func (sn *Snapshot) Labels() []string { return sn.store.Labels() }

func (sn *Snapshot) VProp(v graph.VID, key uint16) (int64, bool, error) {
	return sn.store.VProp(v, key)
}

// labelsReadable fails a label-reporting walk closed once the columns
// are damaged: a lost block could hide exactly the label a filter asks
// about.
func (s *Store) labelsReadable(o view.Opts) error {
	if o.Labels && s.props != nil && s.props.Damaged() {
		return prop.ErrDamaged
	}
	return nil
}

// labels is what a label-reporting walk of v in direction d hands over
// beside nbrs: the column index's answer per edge (all default without a
// property layer). nil when the walk did not ask.
func (s *Store) labels(d Direction, v graph.VID, nbrs []uint32, o view.Opts) []uint16 {
	if !o.Labels {
		return nil
	}
	lbls := make([]uint16, len(nbrs)) // zero = graph.DefaultLabel
	if s.props == nil {
		return lbls
	}
	for i, nbr := range nbrs {
		if d == Out {
			lbls[i] = s.props.Label(uint32(v), nbr)
		} else {
			lbls[i] = s.props.Label(nbr, uint32(v))
		}
	}
	return lbls
}
