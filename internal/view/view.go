// Package view defines the one canonical read surface of the graph
// stores in this repository. Every query workload — the analytics
// engine, the HTTP server, the benchmark harness — is written against
// View, so it runs identically over:
//
//   - core.Store: the live XPGraph view (latest ingested state),
//   - core.Snapshot: a consistent point-in-time view that stays stable
//     while ingestion continues (GraphOne-style snapshot metadata,
//     §II-B / §III-B of the paper),
//   - graphone.Store: the GraphOne comparison baseline,
//   - cluster.ClusterView: one snapshot epoch per shard.
//
// The paper's query interface (Table I) is one walk — PMEM block chain,
// then the DRAM vertex buffer — seen from different angles, so a store
// hand-writes only that walk and the lookups it cannot derive (Source).
// The sixteen methods of Full are written once, in Surface, over that
// primitive; every store embeds Surface and every consumer keeps calling
// NbrsOut, VisitIn, OutDegree and friends.
package view

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// Dir selects an adjacency direction.
type Dir int

const (
	// Out selects out-neighbors.
	Out Dir = 0
	// In selects in-neighbors.
	In Dir = 1
)

// Opts selects the variant of a Source.Visit walk. The zero value is the
// plain walk: unchecked media reads, no labels.
type Opts struct {
	// Checked routes the walk through the media-error-checked path: a read
	// touching an uncorrectable line, a checksum-mismatched block, a
	// quarantined vertex or an unservable partition fails typed instead of
	// yielding silently wrong neighbors (DESIGN.md §9).
	Checked bool
	// Labels reports each edge's label beside its neighbor and fails
	// closed with prop.ErrDamaged once the property columns are damaged,
	// or typed when a partition holding the labels is unservable.
	Labels bool
}

// Source is what a store hand-writes: one direction-parameterised
// visitor plus the scalar and property lookups no visit can derive.
type Source interface {
	// NumVertices is the vertex-ID space; v >= NumVertices reads as empty.
	NumVertices() graph.VID
	// Node reports the NUMA node owning v's adjacency data in direction d
	// (xpsim.NodeUnbound when the store interleaves it).
	Node(d Dir, v graph.VID) int
	// Degree is the stored record count of v in direction d (tombstones
	// included). It fails typed when a partition holding some of those
	// records is unservable.
	Degree(d Dir, v graph.VID) (int, error)
	// Visit hands v's neighbors in direction d, deletions resolved in
	// history order — a delete cancels an earlier matching insert, an
	// unmatched one cancels nothing — and multi-edges kept, to fn in one
	// or more runs (a store
	// has one; a cluster one per partition holding records). lbls is nil
	// unless o.Labels, and then parallel to nbrs. The slices are fn's to
	// read, not to modify, and stay valid after it returns: stores hand
	// out private or immutable memory, which is what lets a guard call
	// back outside its lock without copying. A walk that returns an error
	// may already have handed over a prefix.
	Visit(ctx *xpsim.Ctx, d Dir, v graph.VID, o Opts, fn func(nbrs []uint32, lbls []uint16)) error
	// Labels reports the label table: index = label id; entry 0 is ""
	// (the default label every untyped edge carries).
	Labels() []string
	// VProp reads vertex v's property key. Checked: it fails with
	// prop.ErrDamaged once a lost column block could make the answer wrong.
	VProp(v graph.VID, key uint16) (int64, bool, error)
}

// View is the query surface a graph store exposes.
//
// The Nbrs* forms append: the neighbors go after whatever dst already
// holds, and a read that fails returns dst at its original length. Pass
// dst[:0] to reuse a buffer.
type View interface {
	NumVertices() graph.VID
	NbrsOut(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32
	NbrsIn(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32
	// VisitOut/VisitIn stream neighbors; the hot path of every algorithm
	// in the analytics package.
	VisitOut(ctx *xpsim.Ctx, v graph.VID, fn func(nbr uint32))
	VisitIn(ctx *xpsim.Ctx, v graph.VID, fn func(nbr uint32))
	// OutNode/InNode report the NUMA node owning v's adjacency data
	// (xpsim.NodeUnbound when the store interleaves it).
	OutNode(v graph.VID) int
	InNode(v graph.VID) int
	// OutDegree is the stored out-record count (PageRank's divisor and
	// the one-hop query's non-zero filter); with InDegree, the weight of a
	// vertex in the analytics engine's deal.
	OutDegree(v graph.VID) int
	// InDegree is the stored in-record count of v.
	InDegree(v graph.VID) int
}

// checked is the media-error-aware half of the read surface: reads that
// touch uncorrectable lines or checksum-mismatched blocks return a typed
// error instead of silently wrong neighbors (DESIGN.md §9). Stores
// without a media guard simply never fail.
type checked interface {
	NbrsOutChecked(ctx *xpsim.Ctx, v graph.VID, dst []uint32) ([]uint32, error)
	NbrsInChecked(ctx *xpsim.Ctx, v graph.VID, dst []uint32) ([]uint32, error)
}

// typed is the property-graph half of the read surface (DESIGN.md §13):
// edge labels, vertex properties, and filtered traversal with the
// predicate pushed down into the view. Pushdown is the contract, not an
// optimization hint — a neighbor pruned by the filter never reaches the
// caller, so a filtered frontier never charges the next hop's media
// reads. Stores without a property layer implement this trivially (every
// edge carries the default label, no vertex has properties).
type typed interface {
	// Labels reports the label table: index = label id; entry 0 is ""
	// (the default label every untyped edge carries).
	Labels() []string
	// LabelID resolves a registered label name (false when unknown).
	LabelID(name string) (uint16, bool)
	// VisitOutTyped streams the out-neighbors of v that pass f, together
	// with each edge's label. Checked: once the property columns are
	// damaged the visit fails with prop.ErrDamaged instead of silently
	// reading lost labels as defaults.
	VisitOutTyped(ctx *xpsim.Ctx, v graph.VID, f prop.Filter, fn func(nbr uint32, lbl uint16)) error
	// VisitInTyped mirrors VisitOutTyped over the in-direction.
	VisitInTyped(ctx *xpsim.Ctx, v graph.VID, f prop.Filter, fn func(nbr uint32, lbl uint16)) error
	// VProp reads vertex v's property key (checked like the visits).
	VProp(v graph.VID, key uint16) (int64, bool, error)
}

// Full is the complete serving-layer read contract: the algorithm
// surface (View), the checked point reads, the property-graph reads,
// and the in-degree the degree endpoint reports. Everything the HTTP
// handlers ever ask of a graph goes through this interface, which is
// what lets a partitioned cluster view replace a single snapshot with
// zero handler changes.
type Full interface {
	View
	checked
	typed
}

// Surface derives the Full method set from a Source. A store embeds it
// and points it at itself (Surface{Source: s}) when it is built.
type Surface struct{ Source }

var _ Full = Surface{}

// Nbrs appends v's neighbors in direction d to dst.
func (s Surface) Nbrs(ctx *xpsim.Ctx, d Dir, v graph.VID, dst []uint32) []uint32 {
	dst, _ = s.nbrs(ctx, d, v, dst, Opts{}) // the plain walk of a servable view has no failure to report
	return dst
}

// nbrsChecked is Nbrs through the media-checked walk.
func (s Surface) nbrsChecked(ctx *xpsim.Ctx, d Dir, v graph.VID, dst []uint32) ([]uint32, error) {
	return s.nbrs(ctx, d, v, dst, Opts{Checked: true})
}

func (s Surface) nbrs(ctx *xpsim.Ctx, d Dir, v graph.VID, dst []uint32, o Opts) ([]uint32, error) {
	start := len(dst)
	if err := s.Visit(ctx, d, v, o, func(nbrs []uint32, _ []uint16) { dst = append(dst, nbrs...) }); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

func (s Surface) NbrsOut(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32 {
	return s.Nbrs(ctx, Out, v, dst)
}

func (s Surface) NbrsIn(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32 {
	return s.Nbrs(ctx, In, v, dst)
}

func (s Surface) NbrsOutChecked(ctx *xpsim.Ctx, v graph.VID, dst []uint32) ([]uint32, error) {
	return s.nbrsChecked(ctx, Out, v, dst)
}

func (s Surface) NbrsInChecked(ctx *xpsim.Ctx, v graph.VID, dst []uint32) ([]uint32, error) {
	return s.nbrsChecked(ctx, In, v, dst)
}

func (s Surface) VisitOut(ctx *xpsim.Ctx, v graph.VID, fn func(nbr uint32)) { s.visit(ctx, Out, v, fn) }

func (s Surface) VisitIn(ctx *xpsim.Ctx, v graph.VID, fn func(nbr uint32)) { s.visit(ctx, In, v, fn) }

func (s Surface) visit(ctx *xpsim.Ctx, d Dir, v graph.VID, fn func(nbr uint32)) {
	_ = s.Visit(ctx, d, v, Opts{}, func(nbrs []uint32, _ []uint16) { // plain walk: see Nbrs
		for _, nbr := range nbrs {
			fn(nbr)
		}
	})
}

func (s Surface) OutNode(v graph.VID) int { return s.Node(Out, v) }

func (s Surface) InNode(v graph.VID) int { return s.Node(In, v) }

// OutDegree and InDegree are the unchecked forms of Source.Degree: an
// unservable partition counts as holding no records.
func (s Surface) OutDegree(v graph.VID) int {
	n, _ := s.Degree(Out, v)
	return n
}

func (s Surface) InDegree(v graph.VID) int {
	n, _ := s.Degree(In, v)
	return n
}

func (s Surface) LabelID(name string) (uint16, bool) {
	for id, n := range s.Labels() {
		if id > 0 && n == name {
			return uint16(id), true
		}
	}
	return 0, false
}

func (s Surface) VisitOutTyped(ctx *xpsim.Ctx, v graph.VID, f prop.Filter, fn func(nbr uint32, lbl uint16)) error {
	return s.visitTyped(ctx, Out, v, f, fn)
}

func (s Surface) VisitInTyped(ctx *xpsim.Ctx, v graph.VID, f prop.Filter, fn func(nbr uint32, lbl uint16)) error {
	return s.visitTyped(ctx, In, v, f, fn)
}

// visitTyped is the one filtered visit: the Source reports each edge's
// label from wherever the edge lives, and the vertex predicate reads the
// neighbor's property through the same Source — which, in a cluster,
// routes it to the neighbor's owner. The filter runs before the callback
// ever sees the neighbor.
func (s Surface) visitTyped(ctx *xpsim.Ctx, d Dir, v graph.VID, f prop.Filter, fn func(nbr uint32, lbl uint16)) error {
	if err := f.Validate(); err != nil {
		return err
	}
	var perr error
	var nbr uint32 // the neighbor whose property vprop reads
	vprop := func(key uint16) (int64, bool) {
		val, ok, err := s.VProp(graph.VID(nbr), key)
		if err != nil {
			perr = err
			return 0, false
		}
		return val, ok
	}
	err := s.Visit(ctx, d, v, Opts{Labels: true}, func(nbrs []uint32, lbls []uint16) {
		for i := 0; i < len(nbrs) && perr == nil; i++ {
			nbr = nbrs[i]
			if f.MatchLabel(lbls[i]) && f.MatchVertex(vprop) && perr == nil {
				fn(nbr, lbls[i])
			}
		}
	})
	if err != nil {
		return err
	}
	return perr
}

// Guard wraps a view so that every Source call runs under mu.RLock. It
// is the synchronization half of the snapshot-publication protocol:
// readers query a published core.Snapshot through a guard while a writer
// mutates the underlying store under mu.Lock between read windows.
//
// The lock is taken per call, not per query run: a BFS over a guarded
// snapshot interleaves with ingestion batches at VisitOut granularity
// and still returns epoch-exact results, because a snapshot's answers do
// not change when later records are appended (the store is append-only
// per vertex; compaction is fenced by copy-on-invalidate).
//
// v must be one of this repository's stores (anything embedding Surface).
func Guard(v View, mu *sync.RWMutex) View { return Surface{guardOf(v, mu)} }

// GuardFull is Guard returning the Full surface.
func GuardFull(v Full, mu *sync.RWMutex) Full { return Surface{guardOf(v, mu)} }

func guardOf(v any, mu *sync.RWMutex) Source {
	src, ok := v.(Source)
	if !ok {
		panic(fmt.Sprintf("view: cannot guard %T: it does not implement view.Source", v))
	}
	return GuardSource(src, mu)
}

// GuardSource is the guard itself, over the primitive. The cluster layer
// builds its per-shard read sources with it, so every shard access is
// ordered against that shard's writer without the composite view owning
// any lock itself.
func GuardSource(src Source, mu *sync.RWMutex) Source { return &guard{src: src, mu: mu} }

type guard struct {
	src Source
	mu  *sync.RWMutex
}

func (g *guard) NumVertices() graph.VID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.NumVertices()
}

func (g *guard) Node(d Dir, v graph.VID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.Node(d, v)
}

func (g *guard) Degree(d Dir, v graph.VID) (int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.Degree(d, v)
}

// Visit walks under the lock and runs the callback after releasing it
// (the runs stay valid: see Source.Visit). Holding the lock across fn
// would deadlock when fn re-enters the guarded view (PageRank's VisitIn
// callback calls OutDegree): a recursive RLock blocks as soon as a writer
// is queued between the two acquisitions.
func (g *guard) Visit(ctx *xpsim.Ctx, d Dir, v graph.VID, o Opts, fn func(nbrs []uint32, lbls []uint16)) error {
	c := collectors.Get().(*collector)
	defer c.release()
	g.mu.RLock()
	err := g.src.Visit(ctx, d, v, o, c.add)
	g.mu.RUnlock()
	if err != nil {
		return err
	}
	for _, r := range c.runs {
		fn(r.nbrs, r.lbls)
	}
	return nil
}

// collector holds the runs a guarded walk was handed until the lock is
// released. Pooled, with its add closure built once: a cluster's in-walk
// crosses one guard per partition per vertex, and most of those walks are
// empty.
type collector struct {
	runs []run
	add  func(nbrs []uint32, lbls []uint16)
}

type run struct {
	nbrs []uint32
	lbls []uint16
}

var collectors = sync.Pool{New: func() any {
	c := new(collector)
	c.add = func(nbrs []uint32, lbls []uint16) { c.runs = append(c.runs, run{nbrs, lbls}) }
	return c
}}

func (c *collector) release() {
	clear(c.runs) // drop the neighbor slices before pooling
	c.runs = c.runs[:0]
	collectors.Put(c)
}

func (g *guard) Labels() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.Labels()
}

func (g *guard) VProp(v graph.VID, key uint16) (int64, bool, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.src.VProp(v, key)
}
