package core

import (
	"testing"

	"repro/internal/gen"
)

// TestCrashSafeFlushCostNearRelaxed pins what the crash-safe commit may
// cost: with the count acknowledgment running on the groups' bound archive
// workers, a flushing phase is the relaxed store's drain plus one more
// parallel sweep over the changed headers, the barrier and an 8-byte
// store. With the acknowledgment on one unbound context — 2·P groups
// written serially, half the lines remote — this stream measured 6.5x.
func TestCrashSafeFlushCostNearRelaxed(t *testing.T) {
	edges := gen.RMAT(15, 400000, 7)
	flushNs := func(relaxed bool) (int64, int64) {
		s := newStore(t, Options{Name: "ackcost", NumVertices: 1 << 15,
			LogCapacity: 1 << 16, ArchiveThreshold: 1 << 12, ArchiveThreads: 16,
			NUMA: NUMASubgraph, AdjBytes: 32 << 20, RelaxedDurability: relaxed})
		rep, err := s.Ingest(edges)
		if err != nil {
			t.Fatal(err)
		}
		return rep.FlushNs, rep.FlushAlls
	}
	safe, flushAlls := flushNs(false)
	relaxed, _ := flushNs(true)
	if flushAlls < 4 {
		t.Fatalf("only %d flush-alls: the stream must cross several commits", flushAlls)
	}
	ratio := float64(safe) / float64(relaxed)
	t.Logf("%d flush-alls: crash-safe %.1f ns/edge, relaxed %.1f ns/edge (%.2fx)",
		flushAlls, float64(safe)/float64(len(edges)), float64(relaxed)/float64(len(edges)), ratio)
	if ratio > 1.5 {
		t.Errorf("crash-safe FlushNs is %.2fx the relaxed store's, want <= 1.5x", ratio)
	}
}
