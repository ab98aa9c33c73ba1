package core

import (
	"slices"

	"repro/internal/adj"
	"repro/internal/graph"
	"repro/internal/mempool"
	"repro/internal/shard"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// The graph querying interfaces of Table I. get_nebrs_{out,in} and their
// checked and typed forms are all one walk — PMEM block chain, then the
// DRAM vertex buffer — so the store hand-writes that walk once (Visit) and
// view.Surface derives NbrsOut, VisitIn, NbrsOutChecked, VisitOutTyped
// and the rest from it. All resolve deletions in history order
// (adj.Resolver): a delete cancels an earlier matching insert, and
// an unmatched one cancels nothing.

// Visit hands the merged neighbor view of v in direction d to fn, as one
// run.
func (s *Store) Visit(ctx *xpsim.Ctx, d Direction, v graph.VID, o view.Opts, fn func(nbrs []uint32, lbls []uint16)) error {
	if err := s.labelsReadable(o); err != nil {
		return err
	}
	if v >= s.NumVertices() {
		return nil
	}
	recs, err := s.live(ctx, d, v, -1, o.Checked)
	if err != nil {
		return err
	}
	fn(recs, s.labels(d, v, recs, o))
	return nil
}

// live materializes v's neighbors in direction d from its PMEM chain and
// its DRAM vertex buffer, deletions resolved in history order. Read live
// (want < 0), the chain comes newest block first and the buffer after it;
// the buffer is newer than the chain, so it is read and resolved first,
// into the tail of the slice the chain is then read into. A snapshot reads
// the oldest want records instead, in insertion order — each block
// reversed as it is read, then the whole chain — the order no later flush
// changes; fewer than want is its short read. A checked read goes through
// the media-error-checked path: blocks on uncorrectable lines or failing
// their checksum error instead of returning scrambled bytes, and
// quarantined-unrecoverable vertices fail fast with *UnrecoverableError.
// DRAM vertex buffers need no checking — the error model covers persistent
// media only.
func (s *Store) live(ctx *xpsim.Ctx, d Direction, v graph.VID, want int, checked bool) ([]uint32, error) {
	if want == 0 {
		return nil, nil
	}
	if checked && s.isUnrec(d, v) {
		return nil, &UnrecoverableError{Dir: d, V: v}
	}
	a := s.groups[d][s.partOf(v)].adj
	chained, total := a.Records(v), a.Records(v)
	if h := s.vbH[d][v]; h != mempool.None {
		total += s.bufs.Count(h, int(s.vbC[d][v]))
	}
	if want > total {
		s.shortReads.Add(1)
		return nil, &shortReadError{Dir: d, V: v, Captured: want, Found: total}
	}
	recs := s.nbrsBufRaw(ctx, d, v, make([]uint32, chained, total))
	var res adj.Resolver
	run := slices.Reverse[[]uint32]
	if want < 0 {
		run = res.Run
		res.Run(recs[chained:])
	}
	chain, err := a.Read(ctx, v, recs[:0:chained], run, checked)
	if err != nil {
		s.noteReadDamage(d, v, err)
		return nil, err
	}
	if want > 0 {
		slices.Reverse(chain)
	}
	if len(chain) != chained {
		// The chain held other than its count says (a trusting read of
		// damaged media): the buffer follows whatever it did hold.
		recs = append(chain, recs[chained:]...)
	}
	if want < 0 {
		return res.Live(recs, 0), nil
	}
	return adj.ResolveTombstones(recs[:min(want, len(recs))], 0), nil
}

// NbrsFlush returns only the PMEM-resident neighbors —
// get_nebrs_flush_{out/in}(vid).
func (s *Store) NbrsFlush(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	if v >= s.NumVertices() {
		return dst
	}
	return s.groups[d][s.partOf(v)].adj.Neighbors(ctx, v, dst)
}

// NbrsBuf returns only the DRAM-buffered neighbors —
// get_nebrs_buf_{out/in}(vid).
func (s *Store) NbrsBuf(ctx *xpsim.Ctx, d Direction, v graph.VID, dst []uint32) []uint32 {
	if v >= s.NumVertices() {
		return dst
	}
	return adj.ResolveTombstones(s.nbrsBufRaw(ctx, d, v, dst), len(dst))
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
	return adj.ResolveTombstones(s.logged(ctx, d, v, s.log.Buffered(), dst), len(dst))
}

// logged appends v's records in direction d among the log's [from, head)
// to dst, in log order.
func (s *Store) logged(ctx *xpsim.Ctx, d Direction, v graph.VID, from int64, dst []uint32) []uint32 {
	for _, e := range s.log.Read(ctx, from, s.log.Head(), nil) {
		if en := shard.Of(int(d), e); en.V == v {
			dst = append(dst, en.Nbr)
		}
	}
	return dst
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
