package core

import (
	"repro/internal/adj"
	"repro/internal/graph"
	"repro/internal/mempool"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// The graph querying interfaces of Table I. get_nebrs_{out,in} and their
// checked and typed forms are all one walk — PMEM block chain, then the
// DRAM vertex buffer — so the store hand-writes that walk once (Visit) and
// view.Surface derives NbrsOut, VisitIn, NbrsOutChecked, VisitOutTyped
// and the rest from it. All return neighbor IDs with deletion tombstones
// already resolved unless stated otherwise.

// Visit hands the merged neighbor view of v in direction d to fn, as one
// run.
func (s *Store) Visit(ctx *xpsim.Ctx, d Direction, v graph.VID, o view.Opts, fn func(nbrs []uint32, lbls []uint16)) error {
	if err := s.labelsReadable(o); err != nil {
		return err
	}
	if v >= s.NumVertices() {
		return nil
	}
	recs, err := s.rawStream(ctx, d, v, adj.ReadOpts{Checked: o.Checked})
	if err != nil {
		return err
	}
	recs = adj.ResolveTombstones(recs, 0)
	fn(recs, s.labels(d, v, recs, o))
	return nil
}

// rawStream materializes v's raw record stream in direction d: the PMEM
// chain (newest block first, or in insertion order) followed by the DRAM
// vertex buffer, tombstones unresolved. A checked read goes through the
// media-error-checked path: blocks on uncorrectable lines or failing
// their checksum error instead of returning scrambled bytes, and
// quarantined-unrecoverable vertices fail fast with *UnrecoverableError.
// DRAM vertex buffers need no checking — the error model covers
// persistent media only.
func (s *Store) rawStream(ctx *xpsim.Ctx, d Direction, v graph.VID, o adj.ReadOpts) ([]uint32, error) {
	if o.Checked && s.isUnrec(d, v) {
		return nil, &UnrecoverableError{Dir: d, V: v}
	}
	recs, err := s.groups[d][s.partOf(v)].adj.Read(ctx, v, make([]uint32, 0, s.records[d][v]), o)
	if err != nil {
		s.noteReadDamage(d, v, err)
		return nil, err
	}
	return s.nbrsBufRaw(ctx, d, v, recs), nil
}

// NbrsFlush returns only the PMEM-resident neighbors —
// get_nebrs_flush_{out/in}(vid).
func (s *Store) NbrsFlush(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	if v >= s.NumVertices() {
		return dst
	}
	start := len(dst)
	dst = s.groups[d][s.partOf(v)].adj.Neighbors(ctx, v, dst)
	return adj.ResolveTombstones(dst, start)
}

// NbrsBuf returns only the DRAM-buffered neighbors —
// get_nebrs_buf_{out/in}(vid).
func (s *Store) NbrsBuf(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	if v >= s.NumVertices() {
		return dst
	}
	start := len(dst)
	dst = s.nbrsBufRaw(ctx, d, v, dst)
	return adj.ResolveTombstones(dst, start)
}

func (s *Store) nbrsBufRaw(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	h := s.vbH[d][v]
	if h == mempool.None {
		return dst
	}
	return s.bufs.Neighbors(ctx, h, int(s.vbC[d][v]), dst)
}

// NbrsLog scans the unbuffered window of the circular edge log for v's
// neighbors — get_nebrs_log_{out/in}(vid) of Table I. This is an O(window)
// scan; it exists for completeness of the phase-separated view interfaces.
func (s *Store) NbrsLog(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	start := len(dst)
	for _, e := range s.log.Read(ctx, s.log.Buffered(), s.log.Head(), nil) {
		if d == Out && e.Src == v {
			dst = append(dst, e.Dst)
		} else if d == In && e.Target() == v {
			dst = append(dst, e.Src|(e.Dst&graph.DelFlag))
		}
	}
	return adj.ResolveTombstones(dst, start)
}

// LoggedEdges returns the edges still waiting in the log window —
// get_logged_edges() of Table I.
func (s *Store) LoggedEdges(ctx *xpsim.Ctx) []graph.Edge {
	return s.log.Read(ctx, s.log.Buffered(), s.log.Head(), nil)
}

// Degree reports the number of records known for v (tombstones still
// count as records; use Nbrs for the resolved view). It is the cheap
// DRAM-side degree GraphOne also maintains.
func (s *Store) Degree(d Direction, v graph.VID) (int, error) {
	if v >= s.NumVertices() {
		return 0, nil
	}
	return int(s.records[d][v]), nil
}
