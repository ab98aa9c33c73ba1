package core

import (
	"sync"

	"repro/internal/adj"
	"repro/internal/graph"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Snapshot is a consistent point-in-time view of the graph. Because both
// the PMEM adjacency chains and the DRAM vertex buffers are append-only
// per vertex (flushes preserve order), capturing today's per-vertex record
// counts is enough: a snapshot query returns exactly the first `count`
// records of each vertex's stream, no matter how many updates arrive
// later. This is the role snapshot metadata plays in GraphOne (§II-B);
// XPGraph's hybrid store supports it the same way.
//
// Snapshot hand-writes view.Source and embeds the view.Full surface
// derived from it, so the analytics engine and the HTTP server run
// unchanged over a snapshot — the basis of the serving stack's
// snapshot-isolated reads.
//
// Compaction rewrites chains and resolves tombstones in place, which
// would break the first-count-records rule. Instead of invalidating
// outstanding snapshots, the store fences compaction with
// copy-on-invalidate: before a vertex's chains are rewritten, every live
// snapshot materializes its view of that vertex into a private frozen
// copy. Snapshots therefore survive compaction; call Close when done so
// the store stops fencing for them.
//
// Concurrency: a Snapshot may serve many readers at once, and readers
// may interleave with ingestion provided reads and writes are externally
// ordered (e.g. via view.Guard over a sync.RWMutex, as the server does).
// The frozen-copy map has its own internal lock, so compaction fencing
// is safe against concurrent snapshot reads under that discipline.
type Snapshot struct {
	view.Surface

	store   *Store
	numV    graph.VID // vertex-ID space at capture time
	records [2][]uint32

	// frozen holds per-vertex views materialized by compaction fencing;
	// mu guards the maps (readers take RLock on every lookup).
	mu     sync.RWMutex
	frozen [2]map[graph.VID][]uint32
	// frozenErr records vertices whose view was already media-damaged
	// when fencing tried to freeze it (MediaGuard stores): checked reads
	// of the snapshot return the error instead of scrambled bytes.
	frozenErr [2]map[graph.VID]error
}

// Snapshot captures the current view. O(V) DRAM copy, no PMEM traffic —
// the same cost class as GraphOne's per-epoch snapshot metadata. The
// snapshot stays registered with the store (for compaction fencing)
// until Close is called.
func (s *Store) Snapshot(ctx *xpsim.Ctx) *Snapshot {
	snap := &Snapshot{store: s, numV: s.NumVertices()}
	snap.Surface = view.Surface{Source: snap}
	for d := 0; d < 2; d++ {
		snap.records[d] = append([]uint32(nil), s.records[d]...)
		s.lat.DRAM(ctx, int64(4*len(s.records[d])), false, true)
		s.lat.DRAM(ctx, int64(4*len(s.records[d])), true, true)
	}
	s.snapMu.Lock()
	if s.snaps == nil {
		s.snaps = make(map[*Snapshot]struct{})
	}
	s.snaps[snap] = struct{}{}
	s.snapMu.Unlock()
	return snap
}

// liveSnapshots returns the snapshots currently registered for
// compaction fencing.
func (s *Store) liveSnapshots() []*Snapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if len(s.snaps) == 0 {
		return nil
	}
	out := make([]*Snapshot, 0, len(s.snaps))
	for sn := range s.snaps {
		out = append(out, sn)
	}
	return out
}

// Close deregisters the snapshot from the store. The snapshot stays
// readable (frozen copies are kept), but compaction no longer fences for
// it, so post-Close reads of vertices compacted after Close may reflect
// the compacted (resolved) stream. Close is idempotent.
func (sn *Snapshot) Close() {
	s := sn.store
	s.snapMu.Lock()
	delete(s.snaps, sn)
	s.snapMu.Unlock()
}

// NumVertices reports the vertex-ID space the snapshot covers; vertices
// created after capture read as empty.
func (sn *Snapshot) NumVertices() graph.VID { return sn.numV }

// Edges reports how many edge records the snapshot covers in direction d.
func (sn *Snapshot) Edges(d Direction) int64 {
	var n int64
	for _, c := range sn.records[d] {
		n += int64(c)
	}
	return n
}

// Degree reports the record count (tombstones included) of v as of the
// snapshot — the snapshot analogue of Store.Degree.
func (sn *Snapshot) Degree(d Direction, v graph.VID) (int, error) {
	if v >= sn.numV || int(v) >= len(sn.records[d]) {
		return 0, nil
	}
	return int(sn.records[d][v]), nil
}

// Node reports the NUMA home of v's adjacency data; the placement is
// fixed at store creation, so delegating to the live store is
// snapshot-safe.
func (sn *Snapshot) Node(d Direction, v graph.VID) int { return sn.store.Node(d, v) }

// Visit hands v's neighbors as of the snapshot, tombstones resolved, to
// fn as one run. Records ingested after the snapshot are invisible;
// vertices created after the snapshot read as empty. The adjacency view
// is epoch-exact, the labels read-latest. On the checked walk, reads that
// touch uncorrectable lines or checksum-mismatched blocks return a typed
// error instead of wrong data, and views frozen over already-damaged
// chains replay the freeze-time error.
func (sn *Snapshot) Visit(ctx *xpsim.Ctx, d Direction, v graph.VID, o view.Opts, fn func(nbrs []uint32, lbls []uint16)) error {
	s := sn.store
	if err := s.labelsReadable(o); err != nil {
		return err
	}
	// Bounds against the snapshot's own captured space: the live store
	// may have grown since capture, and the captured records slice must
	// never be indexed for a vertex born later.
	if v >= sn.numV || int(v) >= len(sn.records[d]) {
		return nil
	}
	sn.mu.RLock()
	ferr := sn.frozenErr[d][v]
	recs, frozen := sn.frozen[d][v]
	sn.mu.RUnlock()
	switch {
	case o.Checked && ferr != nil:
		return ferr
	case frozen:
		s.lat.DRAM(ctx, int64(4*len(recs)), false, true)
	default:
		var err error
		if recs, err = sn.materialize(ctx, d, v, o.Checked); err != nil {
			return err
		}
	}
	fn(recs, s.labels(d, v, recs, o))
	return nil
}

// materialize reconstructs the snapshot view of v from the live chains:
// the first records[d][v] entries of the vertex's append-only stream
// (PMEM chain blocks oldest->newest, then the live vertex buffer),
// tombstones resolved.
func (sn *Snapshot) materialize(ctx *xpsim.Ctx, d Direction, v graph.VID, checked bool) ([]uint32, error) {
	want := int(sn.records[d][v])
	if want == 0 {
		return nil, nil
	}
	all, err := sn.store.rawStream(ctx, d, v, adj.ReadOpts{OldestFirst: true, Checked: checked})
	if err != nil {
		return nil, err
	}
	// Fewer records visible than captured is only possible if a
	// compaction slipped past the fencing (e.g. on a snapshot read after
	// Close): degrade to the resolved stream rather than fail.
	if want < len(all) {
		all = all[:want]
	}
	return adj.ResolveTombstones(all, 0), nil
}

// freezeVertex materializes the snapshot's view of v into a private
// copy — the copy-on-invalidate half of compaction fencing. The store
// calls it for every live snapshot before rewriting v's chains.
func (sn *Snapshot) freezeVertex(ctx *xpsim.Ctx, v graph.VID) {
	if v >= sn.numV {
		return
	}
	sn.mu.Lock()
	defer sn.mu.Unlock()
	for d := 0; d < 2; d++ {
		if int(v) >= len(sn.records[d]) {
			continue
		}
		if _, done := sn.frozen[d][v]; done {
			continue
		}
		if _, bad := sn.frozenErr[d][v]; bad {
			continue
		}
		// MediaGuard stores freeze through the checked path: if v's chain
		// is already media-damaged, the freeze must not launder scrambled
		// bytes into a trusted frozen copy — record the error instead, so
		// checked readers of this snapshot keep failing typed.
		recs, err := sn.materialize(ctx, Direction(d), v, sn.store.opts.MediaGuard)
		if err != nil {
			if sn.frozenErr[d] == nil {
				sn.frozenErr[d] = make(map[graph.VID]error)
			}
			sn.frozenErr[d][v] = err
			continue
		}
		if sn.frozen[d] == nil {
			sn.frozen[d] = make(map[graph.VID][]uint32)
		}
		sn.frozen[d][v] = recs
	}
}
