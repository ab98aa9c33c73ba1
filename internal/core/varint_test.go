package core

import (
	"testing"

	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xpsim"
)

// TestCompressedAdjIngest runs the full pipeline with delta-varint
// adjacency blocks: RMAT ingest, flush, reference equivalence, verify,
// and a whole-store compaction that must leave the layout denser than
// 4 bytes per record.
func TestCompressedAdjIngest(t *testing.T) {
	edges := gen.RMAT(10, 20000, 77)
	ref := difftest.Of(edges)
	s := newStore(t, Options{Name: "vz", NumVertices: 1024, LogCapacity: 1 << 14,
		ArchiveThreshold: 1 << 10, ArchiveThreads: 8, CompressedAdj: true})
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	checkModel(t, s, ref)

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	if _, err := s.Verify(ctx); err != nil {
		t.Fatalf("verify: %v", err)
	}
	es := s.AdjEncoding()
	if es.VarintRecords == 0 {
		t.Fatal("no varint records written")
	}

	if err := s.CompactAllAdjs(ctx); err != nil {
		t.Fatal(err)
	}
	checkModel(t, s, ref)
	ls := s.AdjLayout(ctx)
	if ls.Records == 0 {
		t.Fatal("layout reports no records")
	}
	if ls.PayloadBytes >= 4*ls.Records {
		t.Fatalf("compacted varint layout not denser than fixed: %d payload bytes for %d records",
			ls.PayloadBytes, ls.Records)
	}
}

// TestCompressedAdjRecover crashes a varint store and recovers it: the
// recovered chains must match the reference and accept further writes.
func TestCompressedAdjRecover(t *testing.T) {
	edges := gen.RMAT(9, 8000, 42)
	opts := Options{Name: "vzr", NumVertices: 512, LogCapacity: 1 << 13,
		ArchiveThreshold: 1 << 9, ArchiveThreads: 4, CompressedAdj: true}
	s := newStore(t, opts)
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}

	r, _, err := Recover(s.Machine(), s.Heap(), nil, opts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	checkModel(t, r, difftest.Of(edges))

	more := gen.RMAT(9, 2000, 43)
	if _, err := r.Ingest(more); err != nil {
		t.Fatal(err)
	}
	checkModel(t, r, difftest.Of(append(append([]graph.Edge{}, edges...), more...)))
}
