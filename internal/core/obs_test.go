package core

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphone"
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
	// A buffering phase is its slowest sharder, then its slowest group,
	// then the cursor store: the worker sub-spans account for all of
	// BufferNs but that store.
	var shardNs, drainNs int64
	for _, ph := range tr.Snapshot() {
		if ph.Cat != "phase" || ph.Lane != obs.LaneBuffering {
			continue
		}
		var sh, dr int64
		for _, sp := range tr.Snapshot() {
			if sp.Cat != "worker" || sp.StartNs < ph.StartNs || sp.StartNs >= ph.StartNs+ph.DurNs {
				continue
			}
			if strings.HasPrefix(sp.Name, "shard ") {
				sh = max(sh, sp.DurNs)
			} else if strings.HasPrefix(sp.Name, "buffer ") {
				dr = max(dr, sp.DurNs)
			}
		}
		if sh == 0 || dr == 0 || sh+dr >= ph.DurNs {
			t.Errorf("buffering phase [%d,+%d]: slowest sharder %d + slowest group %d", ph.StartNs, ph.DurNs, sh, dr)
		}
		shardNs, drainNs = shardNs+sh, drainNs+dr
	}
	if mark := rep.BufferNs - shardNs - drainNs; mark <= 0 || mark > rep.BufferNs/100 {
		t.Errorf("BufferNs %d = shard %d + drain %d + %d: the cursor stores should be a sliver", rep.BufferNs, shardNs, drainNs, mark)
	}
	t.Logf("BufferNs %d = shard %d + drain %d + cursor stores", rep.BufferNs, shardNs, drainNs)
}

// TestWorkerSpansStayInsidePhase: per-worker sub-spans carry the worker
// category, sit on worker lanes and lie inside a parent span — the flushing
// phase's drain, ack and property sub-phases overlap each other; a
// buffering phase's shard sub-spans start with the phase and its buffer
// sub-spans start together, once the slowest sharder is done.
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
	parent := func(sp obs.Span, lane int64) (obs.Span, bool) {
		for _, ph := range spans {
			if ph.Cat == "phase" && ph.Lane == lane &&
				ph.StartNs <= sp.StartNs && sp.StartNs+sp.DurNs <= ph.StartNs+ph.DurNs {
				return ph, true
			}
		}
		return obs.Span{}, false
	}
	seen := map[string]int{}
	shardEnd := map[int64]int64{}    // buffering phase start -> end of its slowest shard sub-span
	bufferStart := map[int64]int64{} // buffering phase start -> start of its buffer sub-spans
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
		case "shard", "buffer":
			ph, ok := parent(sp, obs.LaneBuffering)
			if !ok {
				t.Errorf("sub-span %q [%d,+%d] lies outside every buffering phase span", sp.Name, sp.StartNs, sp.DurNs)
				continue
			}
			if kind == "shard" {
				if sp.StartNs != ph.StartNs {
					t.Errorf("shard sub-span %q starts at %d, its phase at %d", sp.Name, sp.StartNs, ph.StartNs)
				}
				shardEnd[ph.StartNs] = max(shardEnd[ph.StartNs], sp.StartNs+sp.DurNs)
			} else if at, ok := bufferStart[ph.StartNs]; ok && at != sp.StartNs {
				t.Errorf("buffer sub-span %q starts at %d, its siblings at %d", sp.Name, sp.StartNs, at)
			} else {
				bufferStart[ph.StartNs] = sp.StartNs
			}
		case "flush", "ack", "props":
			if _, ok := parent(sp, obs.LaneFlushing); !ok {
				t.Errorf("sub-span %q [%d,+%d] lies outside every flush phase span", sp.Name, sp.StartNs, sp.DurNs)
			}
		default:
			t.Fatalf("unexpected worker span name %q", sp.Name)
		}
	}
	for ph, end := range shardEnd {
		if bufferStart[ph] != end {
			t.Errorf("buffering phase at %d: buffer sub-spans start at %d, the slowest sharder ends at %d", ph, bufferStart[ph], end)
		}
	}
	// 2 directions x 2 partitions shard and buffer in every batch, drain
	// and acknowledge in the one flush; the property flush is one more
	// worker beside them.
	batches := int(s.Report().Batches)
	if seen["shard"] != 4*batches || seen["buffer"] != 4*batches || seen["flush"] != 4 || seen["ack"] != 4 || seen["props"] != 1 {
		t.Fatalf("worker sub-spans by kind = %v over %d batches, want shard and buffer 4 per batch, flush 4, ack 4, props 1", seen, batches)
	}
}

// TestRecoverySpans: a recovery trace shows the three parts of a recovery
// inside the recover span, which is as long as all of them: the serial
// attach; the arena scans, one worker sub-span per group, starting together
// once the log is attached; and the replay, which is the buffering phase —
// buffer phase spans, with their shard and buffer worker sub-spans, on the
// recovery lane, from the end of the slowest scan. None of it is ingestion:
// the buffering lane and the recovered store's report stay empty.
func TestRecoverySpans(t *testing.T) {
	opts := Options{Name: "rspans", NumVertices: 1 << 12, ArchiveThreads: 4,
		NUMA: NUMASubgraph, AdjBytes: 8 << 20, ArchiveThreshold: 1 << 10}
	s := newStore(t, opts)
	if _, err := s.Ingest(gen.RMAT(12, 20000, 5)); err != nil {
		t.Fatal(err)
	}
	clone, err := s.Heap().CrashClone()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1 << 12)
	opts.Tracer = tr
	rs, rep, err := Recover(clone.Machine(), clone, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed == 0 {
		t.Fatal("empty replay window: nothing to show")
	}
	if rs.Report() != (IngestReport{}) {
		t.Errorf("recovered store reports ingestion: %+v", rs.Report())
	}
	var rec obs.Span
	var phases, scans, workers int
	var replayNs int64
	var scanStart, scanEnd, firstStart int64 = -1, 0, -1
	for _, sp := range tr.Snapshot() {
		switch {
		case sp.Name == "recover":
			rec = sp
		case sp.Cat == "phase" && sp.Lane == obs.LaneRecovery && sp.Name == "buffer":
			phases++
			replayNs += sp.DurNs
			if firstStart < 0 {
				firstStart = sp.StartNs
			}
		case sp.Cat == "phase":
			t.Errorf("unexpected phase span %q on lane %d", sp.Name, sp.Lane)
		case strings.HasPrefix(sp.Name, "scan "):
			scans++
			if scanStart >= 0 && sp.StartNs != scanStart {
				t.Errorf("scan sub-span %q starts at %d, its siblings at %d", sp.Name, sp.StartNs, scanStart)
			}
			scanStart, scanEnd = sp.StartNs, max(scanEnd, sp.StartNs+sp.DurNs)
		default:
			workers++
		}
	}
	if rec.StartNs != 0 || rec.DurNs != rep.SimNs {
		t.Fatalf("recover span [%d,+%d], report SimNs %d", rec.StartNs, rec.DurNs, rep.SimNs)
	}
	if want := (rep.Replayed + 4*opts.ArchiveThreshold - 1) / (4 * opts.ArchiveThreshold); int64(phases) != want {
		t.Errorf("%d buffer phases replay %d edges, want %d", phases, rep.Replayed, want)
	}
	if scans != 4 || workers != 8*phases {
		t.Errorf("%d scan sub-spans and %d others under %d replay phases, want a scan span per group and a shard and a buffer span per group and phase", scans, workers, phases)
	}
	for _, sp := range tr.Snapshot() {
		if sp.StartNs < firstStart && sp.Name != "recover" && !strings.HasPrefix(sp.Name, "scan ") || sp.StartNs+sp.DurNs > rec.DurNs {
			t.Errorf("span %q [%d,+%d] outside the replay [%d,%d]", sp.Name, sp.StartNs, sp.DurNs, firstStart, rec.DurNs)
		}
	}
	if scanStart <= 0 || scanEnd != firstStart || firstStart+replayNs != rep.SimNs {
		t.Errorf("attach %d, scans until %d, replay [%d,+%d], SimNs %d: not back to back", scanStart, scanEnd, firstStart, replayNs, rep.SimNs)
	}
}

// TestRecoveryScanIsBoundAndParallel: every arena is scanned by an archive
// thread bound to the arena's node — on sub-graph partitions not one access
// of a recovery crosses sockets, where one unbound context read every other
// arena remotely — and the arenas are scanned in parallel: recovery (with
// nothing to replay) lasts as long as the serial attach plus the thread
// with the most to scan. One archive thread scans them one after the other.
func TestRecoveryScanIsBoundAndParallel(t *testing.T) {
	opts := Options{Name: "scan", NumVertices: 1 << 12, ArchiveThreads: 16,
		NUMA: NUMASubgraph, AdjBytes: 8 << 20}
	s := newStore(t, opts)
	if _, err := s.Ingest(gen.RMAT(12, 40000, 21)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAllVbufs(); err != nil {
		t.Fatal(err)
	}
	// scansOn recovers on the given number of archive threads and returns
	// the report, when the scans start, and the scan sub-spans' durations in
	// start order.
	scansOn := func(threads int) (rep RecoveryReport, attachNs int64, scans []obs.Span) {
		clone, err := s.Heap().CrashClone()
		if err != nil {
			t.Fatal(err)
		}
		clone.Machine().ResetStats()
		o := opts
		o.ArchiveThreads = threads
		o.Tracer = obs.NewTracer(1 << 8)
		_, rep, err = Recover(clone.Machine(), clone, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Replayed != 0 || rep.BlocksScanned == 0 {
			t.Fatalf("setup: replayed %d edges, scanned %d blocks: want a scan-only recovery", rep.Replayed, rep.BlocksScanned)
		}
		if st := clone.Machine().TotalStats(); st.RemoteAccesses != 0 || st.LocalAccesses == 0 {
			t.Errorf("%d threads: %d remote and %d local line accesses during recovery, want none remote", threads, st.RemoteAccesses, st.LocalAccesses)
		}
		for _, sp := range o.Tracer.Snapshot() {
			if strings.HasPrefix(sp.Name, "scan ") {
				scans = append(scans, sp)
			}
		}
		if len(scans) != 4 {
			t.Fatalf("%d threads: %d scan sub-spans, want one per group", threads, len(scans))
		}
		return rep, scans[0].StartNs, scans
	}

	rep, attachNs, scans := scansOn(16)
	var slowest, sum int64
	for _, sp := range scans {
		if sp.StartNs != attachNs {
			t.Errorf("16 threads: %q starts at %d, the first scan at %d", sp.Name, sp.StartNs, attachNs)
		}
		slowest, sum = max(slowest, sp.DurNs), sum+sp.DurNs
	}
	if attachNs <= 0 || rep.SimNs != attachNs+slowest {
		t.Errorf("16 threads: SimNs %d, want attach %d + slowest scan %d", rep.SimNs, attachNs, slowest)
	}

	one, oneAttach, scans := scansOn(1)
	at := oneAttach
	for _, sp := range scans {
		if sp.StartNs != at {
			t.Errorf("1 thread: %q starts at %d, want %d: right after the scan before it", sp.Name, sp.StartNs, at)
		}
		at += sp.DurNs
	}
	if oneAttach != attachNs || one.SimNs != at || one.SimNs != attachNs+sum {
		t.Errorf("1 thread: attach %d, SimNs %d; 16 threads: attach %d, scans sum to %d", oneAttach, one.SimNs, attachNs, sum)
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

// TestSpanTaxonomyMatchesDesign holds DESIGN.md §8's "Span taxonomy" table
// to the spans the tracer records — a store's phases and worker sub-spans
// through ingest, flush, compaction, scrub and recovery, and GraphOne's
// phases — name for name, in both directions. Directions and numbers in a
// name are normalized to <dir> and <N>, as the table writes them.
func TestSpanTaxonomyMatchesDesign(t *testing.T) {
	norm := strings.NewReplacer("out/", "<dir>/", "in/", "<dir>/")
	number := regexp.MustCompile(`(/p|^compact v)[0-9]+$`)
	live := map[string]bool{}
	note := func(tr *obs.Tracer) {
		if tr.Dropped() != 0 {
			t.Fatalf("ring dropped %d spans; size it up", tr.Dropped())
		}
		for _, sp := range tr.Snapshot() {
			live[number.ReplaceAllString(norm.Replace(sp.Name), "$1<N>")] = true
		}
	}

	opts := Options{Name: "taxonomy", NumVertices: 1 << 8, ArchiveThreads: 4, NUMA: NUMASubgraph,
		ArchiveThreshold: 1 << 8, MediaGuard: true, Props: true}
	s := newStore(t, opts)
	tr := obs.NewTracer(1 << 14)
	s.SetTracer(tr)
	edges := gen.RMAT(8, 4000, 3)
	if _, err := s.IngestTyped(edges, make([]uint16, len(edges))); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProps([]graph.PropSet{{V: 1, Key: 1, Val: 7}}); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	if err := errors.Join(s.FlushAllVbufs(), s.CompactAdjs(ctx, 1), s.CompactAllAdjs(ctx)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scrub(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(gen.RMAT(8, 500, 4)); err != nil {
		t.Fatal(err)
	}
	note(tr)
	clone, err := s.Heap().CrashClone()
	if err != nil {
		t.Fatal(err)
	}
	opts.Tracer = obs.NewTracer(1 << 12)
	if _, _, err := Recover(clone.Machine(), clone, nil, opts); err != nil {
		t.Fatal(err)
	}
	note(opts.Tracer)
	m, h := testMachine()
	g, err := graphone.New(m, h, nil, graphone.Options{Name: "taxonomy-g1", NumVertices: 1 << 8, ArchiveThreshold: 1 << 8, ArchiveThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	gtr := obs.NewTracer(1 << 12)
	g.SetTracer(gtr)
	if _, err := g.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	note(gtr)

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n### Span taxonomy\n")
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(cell, "`")
			documented[name] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("no span names found under DESIGN.md's Span taxonomy")
	}
	for n := range live {
		if !documented[n] {
			t.Errorf("the tracer records %q; DESIGN.md §8's span taxonomy does not list it", n)
		}
	}
	for n := range documented {
		if !live[n] {
			t.Errorf("DESIGN.md §8's span taxonomy lists %q; no traced run records it", n)
		}
	}
}
