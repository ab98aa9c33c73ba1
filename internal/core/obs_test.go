package core

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/xpsim"
)

// TestSpansMatchPhaseReport: the simulated-clock spans must account for
// exactly the phase time the ingest report accumulates — the trace is the
// Fig. 3a split, not an approximation of it.
func TestSpansMatchPhaseReport(t *testing.T) {
	s := newStore(t, Options{Name: "spans", NumVertices: 1 << 12,
		ArchiveThreads: 4, NUMA: NUMASubgraph, AdjBytes: 8 << 20})
	tr := obs.NewTracer(1 << 14)
	s.SetTracer(tr)

	edges := gen.RMAT(12, 20000, 7)
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}

	rep := s.Report()
	laneDur := map[int64]int64{}
	laneMax := map[int64]int64{}
	for _, sp := range tr.Snapshot() {
		if sp.Cat == "worker" {
			continue // sub-spans overlap their parent phase
		}
		laneDur[sp.Lane] += sp.DurNs
		if end := sp.StartNs + sp.DurNs; end > laneMax[sp.Lane] {
			laneMax[sp.Lane] = end
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans; size it up", tr.Dropped())
	}
	if laneDur[obs.LaneLogging] != rep.LogNs {
		t.Errorf("logging lane = %d ns, report LogNs = %d", laneDur[obs.LaneLogging], rep.LogNs)
	}
	if laneDur[obs.LaneBuffering] != rep.BufferNs {
		t.Errorf("buffering lane = %d ns, report BufferNs = %d", laneDur[obs.LaneBuffering], rep.BufferNs)
	}
	if laneDur[obs.LaneFlushing] != rep.FlushNs {
		t.Errorf("flushing lane = %d ns, report FlushNs = %d", laneDur[obs.LaneFlushing], rep.FlushNs)
	}
	// Lane cursors advance monotonically: total duration == lane end.
	for _, lane := range []int64{obs.LaneLogging, obs.LaneBuffering, obs.LaneFlushing} {
		if laneDur[lane] != laneMax[lane] {
			t.Errorf("lane %d spans overlap or leave gaps: sum %d != end %d", lane, laneDur[lane], laneMax[lane])
		}
	}
}

// TestWorkerSpansStayInsidePhase: per-worker sub-spans carry the worker
// category, sit on worker lanes, and — for the flushing phase, whose
// drain, ack and property sub-phases overlap — lie inside a parent span.
func TestWorkerSpansStayInsidePhase(t *testing.T) {
	s := newStore(t, Options{Name: "wspans", NumVertices: 1 << 12,
		ArchiveThreads: 4, NUMA: NUMASubgraph, AdjBytes: 8 << 20, Props: true})
	tr := obs.NewTracer(1 << 14)
	s.SetTracer(tr)
	if _, err := s.Ingest(gen.RMAT(12, 8000, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProps([]graph.PropSet{{V: 1, Key: 2, Val: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	inFlush := func(sp obs.Span) bool {
		for _, ph := range spans {
			if ph.Cat == "phase" && ph.Lane == obs.LaneFlushing &&
				ph.StartNs <= sp.StartNs && sp.StartNs+sp.DurNs <= ph.StartNs+ph.DurNs {
				return true
			}
		}
		return false
	}
	seen := map[string]int{}
	for _, sp := range spans {
		if sp.Cat != "worker" {
			continue
		}
		if sp.Lane < obs.LaneWorkerBase {
			t.Fatalf("worker span %q on fixed lane %d", sp.Name, sp.Lane)
		}
		kind, _, _ := strings.Cut(sp.Name, " ")
		seen[kind]++
		switch kind {
		case "buffer":
		case "flush", "ack", "props":
			if !inFlush(sp) {
				t.Errorf("sub-span %q [%d,+%d] lies outside every flush phase span", sp.Name, sp.StartNs, sp.DurNs)
			}
		default:
			t.Fatalf("unexpected worker span name %q", sp.Name)
		}
	}
	// 2 directions x 2 partitions drain and acknowledge; the property
	// flush is one more worker beside them.
	if seen["buffer"] == 0 || seen["flush"] != 4 || seen["ack"] != 4 || seen["props"] != 1 {
		t.Fatalf("worker sub-spans by kind = %v, want buffer > 0, flush 4, ack 4, props 1", seen)
	}
}

// TestCompactionAndRecoverySpans: compaction and recovery land on their
// dedicated lanes.
func TestCompactionAndRecoverySpans(t *testing.T) {
	s := newStore(t, Options{Name: "cspans", NumVertices: 1 << 10,
		ArchiveThreads: 2, NUMA: NUMANone, AdjBytes: 8 << 20})
	tr := obs.NewTracer(1 << 12)
	s.SetTracer(tr)
	if _, err := s.Ingest(gen.RMAT(10, 4000, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactAllAdjs(xpsim.NewCtx(xpsim.NodeUnbound)); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range tr.Snapshot() {
		if sp.Lane == obs.LaneCompaction {
			found = true
			if sp.DurNs <= 0 {
				t.Fatalf("compaction span %q has non-positive duration %d", sp.Name, sp.DurNs)
			}
		}
	}
	if !found {
		t.Fatal("no compaction span recorded")
	}
}

// BenchmarkIngestTracerDisabled measures the nil-tracer fast path; compare
// with BenchmarkIngestTracerEnabled to bound the disabled overhead (<2%).
func BenchmarkIngestTracerDisabled(b *testing.B) { benchIngestTracer(b, false) }

// BenchmarkIngestTracerEnabled measures ingest with a live span ring.
func BenchmarkIngestTracerEnabled(b *testing.B) { benchIngestTracer(b, true) }

func benchIngestTracer(b *testing.B, enabled bool) {
	edges := gen.RMAT(14, 50000, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, h := testMachine()
		s, err := New(m, h, nil, Options{Name: "bench-tr", NumVertices: 1 << 14,
			ArchiveThreads: 4, NUMA: NUMASubgraph, AdjBytes: 16 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if enabled {
			s.SetTracer(obs.NewTracer(1 << 14))
		}
		b.StartTimer()
		if _, err := s.Ingest(edges); err != nil {
			b.Fatal(err)
		}
		if err := s.FlushAllVbufs(); err != nil {
			b.Fatal(err)
		}
	}
}
