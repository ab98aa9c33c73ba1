package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// ErrSnapshotClosed is what a read of a closed snapshot returns: its record
// counts may since have been patched for a newer publication.
var ErrSnapshotClosed = errors.New("core: snapshot is closed")

// shortReadError is a snapshot read that found fewer of a vertex's records
// in its chains than the snapshot captured: a compaction rewrote them past
// the fencing (freezeVertex), and the prefix the snapshot pins is gone.
type shortReadError struct {
	Dir             Direction
	V               graph.VID
	Captured, Found int
}

func (e *shortReadError) Error() string {
	return fmt.Sprintf("core: snapshot of %s(%d) captured %d records, its chains hold %d: a compaction slipped past the fencing",
		dirName(int(e.Dir)), e.V, e.Captured, e.Found)
}

// snapshotShortReads reports how many snapshot reads failed with a
// shortReadError.
func (s *Store) snapshotShortReads() int64 { return s.shortReads.Load() }

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
// copy. Snapshots therefore survive compaction; call Close when done, so
// the store stops fencing for them and may reuse their counts.
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
	base    *countBase
	records [2][]uint32 // base.records, as captured
	closed  atomic.Bool

	// frozen holds per-vertex views materialized by compaction fencing;
	// mu guards the maps (readers take RLock on every lookup).
	mu     sync.RWMutex
	frozen [2]map[graph.VID][]uint32
	// frozenErr records vertices whose view was already media-damaged
	// when fencing tried to freeze it (MediaGuard stores): checked reads
	// of the snapshot return the error instead of scrambled bytes.
	frozenErr [2]map[graph.VID]error
}

// countBase is one copy of the store's per-vertex record counts, read by
// the open snapshots that share it. shares is guarded by the store's
// snapMu.
type countBase struct {
	records [2][]uint32
	shares  int
}

// dirtyLogDiv caps the dirty log at |V|/dirtyLogDiv entries per direction:
// past it, patching would touch a large share of the base anyway, so the
// base goes stale and the next capture copies it whole.
const dirtyLogDiv = 8

// noteDirty logs that v's record count in direction d changed since the
// last capture. bufferPhase calls it on a vertex's first touch per phase.
func (s *Store) noteDirty(d int, v graph.VID) {
	if s.baseStale {
		return
	}
	if len(s.dirty[d]) >= len(s.records[d])/dirtyLogDiv {
		s.staleBase()
		return
	}
	s.dirty[d] = append(s.dirty[d], v)
}

// staleBase records that counts changed beyond what the dirty log says:
// the next capture copies every count.
func (s *Store) staleBase() {
	s.baseStale = true
	s.dirty[0], s.dirty[1] = s.dirty[0][:0], s.dirty[1][:0]
}

// Snapshot captures the current view. No PMEM traffic. The store keeps one
// count base and a log of the vertices whose counts changed since it was
// captured, so a capture is one of three cases:
//
//  1. no open snapshot shares the base, or nothing changed since it was
//     captured: patch the logged entries in place (a full copy when the
//     base is stale) and share it;
//  2. an open snapshot shares it and counts changed: allocate a fresh base
//     with a full copy, and leave the old one to its snapshots;
//  3. the first capture: a full copy.
//
// ctx is charged for the entries copied. A capture updates the store's
// count base, so it is ordered with the store's writes and other captures
// like a write is. The snapshot stays registered with the store (for
// compaction fencing) until Close is called.
func (s *Store) Snapshot(ctx *xpsim.Ctx) *Snapshot {
	changed := s.baseStale || len(s.dirty[Out])+len(s.dirty[In]) > 0
	s.snapMu.Lock()
	b := s.base
	fresh := b == nil || (b.shares > 0 && changed)
	s.snapMu.Unlock()
	// Only the writer adds shares, so a base seen unshared stays unshared
	// while it is patched; a share released meanwhile only costs a copy.
	switch {
	case fresh:
		b = &countBase{}
		s.base = b
		s.copyBase(ctx, b)
	case s.baseStale:
		s.copyBase(ctx, b)
	default:
		for d := 0; d < 2; d++ {
			for _, v := range s.dirty[d] {
				b.records[d][v] = s.records[d][v]
			}
			// One scattered line read and written per patched entry.
			n := int64(len(s.dirty[d])) * xpsim.CacheLineSize
			s.lat.DRAM(ctx, n, false, false)
			s.lat.DRAM(ctx, n, true, false)
		}
	}
	s.dirty[0], s.dirty[1] = s.dirty[0][:0], s.dirty[1][:0]
	s.baseStale = false

	snap := &Snapshot{store: s, numV: s.NumVertices(), base: b, records: b.records}
	snap.Surface = view.Surface{Source: snap}
	s.snapMu.Lock()
	b.shares++
	if s.snaps == nil {
		s.snaps = make(map[*Snapshot]struct{})
	}
	s.snaps[snap] = struct{}{}
	s.snapMu.Unlock()
	return snap
}

// copyBase copies every count into b — the GraphOne-style O(V) capture.
func (s *Store) copyBase(ctx *xpsim.Ctx, b *countBase) {
	for d := 0; d < 2; d++ {
		b.records[d] = append(b.records[d][:0], s.records[d]...)
		s.lat.DRAM(ctx, int64(4*len(s.records[d])), false, true)
		s.lat.DRAM(ctx, int64(4*len(s.records[d])), true, true)
	}
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

// Close deregisters the snapshot from the store and releases its share of
// the count base, which a later capture may then patch. It runs once;
// further calls do nothing. Reads of a closed snapshot (Visit, Degree)
// return ErrSnapshotClosed, so Close must not race with a read of the same
// snapshot (the cluster's refcounted publications guarantee that).
func (sn *Snapshot) Close() {
	if !sn.closed.CompareAndSwap(false, true) {
		return
	}
	s := sn.store
	s.snapMu.Lock()
	delete(s.snaps, sn)
	sn.base.shares--
	shares := sn.base.shares
	s.snapMu.Unlock()
	if shares < 0 {
		panic("core: a snapshot count base was released more often than it was shared")
	}
}

// NumVertices reports the vertex-ID space the snapshot covers; vertices
// created after capture read as empty.
func (sn *Snapshot) NumVertices() graph.VID { return sn.numV }

// Degree reports the record count (tombstones included) of v as of the
// snapshot — the snapshot analogue of Store.Degree. A closed snapshot
// returns ErrSnapshotClosed.
func (sn *Snapshot) Degree(d Direction, v graph.VID) (int, error) {
	if sn.closed.Load() {
		return 0, ErrSnapshotClosed
	}
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
// chains replay the freeze-time error. A closed snapshot returns
// ErrSnapshotClosed.
func (sn *Snapshot) Visit(ctx *xpsim.Ctx, d Direction, v graph.VID, o view.Opts, fn func(nbrs []uint32, lbls []uint16)) error {
	s := sn.store
	if sn.closed.Load() {
		return ErrSnapshotClosed
	}
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
		if recs, err = s.live(ctx, d, v, int(sn.records[d][v]), o.Checked); err != nil {
			return err
		}
	}
	fn(recs, s.labels(d, v, recs, o))
	return nil
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
		recs, err := sn.store.live(ctx, Direction(d), v, int(sn.records[d][v]), sn.store.opts.MediaGuard)
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
