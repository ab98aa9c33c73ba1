package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mempool"
	"repro/internal/vbuf"
	"repro/internal/xpsim"
)

// VerifyReport summarizes a store consistency check.
type VerifyReport struct {
	Vertices       graph.VID
	AdjRecords     int64 // records found walking every PMEM chain
	BufRecords     int64 // records staged in DRAM vertex buffers
	ChainsWalked   int64
	LogWindowEdges int64 // logged but not yet buffered
}

// Verify is the fsck of the store: it walks every persistent adjacency
// chain and every vertex buffer, and cross-checks the structural
// invariants the design relies on:
//
//   - edge-log cursors are ordered (flushed <= buffered <= head) and the
//     unflushed window fits the ring;
//   - every chain walk terminates and block record counts never exceed
//     block capacities;
//   - each vertex's DRAM record count equals PMEM records + buffered
//     records (the vertex index is exact);
//   - buffer occupancy never exceeds the configured layer capacity.
//
// It returns the first violation found, or a report of what was checked.
func (s *Store) Verify(ctx *xpsim.Ctx) (VerifyReport, error) {
	var rep VerifyReport
	rep.Vertices = s.NumVertices()

	l := s.log
	if !(l.Flushed() <= l.Buffered() && l.Buffered() <= l.Head()) {
		return rep, fmt.Errorf("core: log cursors disordered: flushed=%d buffered=%d head=%d",
			l.Flushed(), l.Buffered(), l.Head())
	}
	if !s.opts.Battery && l.Head()-l.Flushed() > l.Cap() {
		return rep, fmt.Errorf("core: unflushed window %d exceeds log capacity %d",
			l.Head()-l.Flushed(), l.Cap())
	}
	rep.LogWindowEdges = l.PendingBuffer()

	for d := 0; d < 2; d++ {
		for v := graph.VID(0); v < rep.Vertices; v++ {
			g := s.groups[d][s.partOf(v)]
			adjRecs := g.adj.Records(v)
			if adjRecs > 0 {
				rep.ChainsWalked++
				recs, _ := g.adj.Read(ctx, v, nil, func([]uint32) {}, false)
				walked := int64(len(recs))
				if walked != int64(adjRecs) {
					return rep, fmt.Errorf("core: vertex %d dir %d: chain has %d records, index says %d",
						v, d, walked, adjRecs)
				}
				rep.AdjRecords += walked
			}
			var bufRecs int
			if h := s.vbH[d][v]; h != mempool.None {
				c := int(s.vbC[d][v])
				bufRecs = s.bufs.Count(h, c)
				if bufRecs > vbuf.Cap(c) {
					return rep, fmt.Errorf("core: vertex %d dir %d: buffer holds %d > capacity %d",
						v, d, bufRecs, vbuf.Cap(c))
				}
				rep.BufRecords += int64(bufRecs)
			}
			if total := adjRecs + bufRecs; total != int(s.records[d][v]) {
				return rep, fmt.Errorf("core: vertex %d dir %d: index records=%d, found %d (adj %d + buf %d)",
					v, d, s.records[d][v], total, adjRecs, bufRecs)
			}
		}
	}
	return rep, nil
}
