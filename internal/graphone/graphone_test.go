package graphone

import (
	"slices"
	"testing"

	"repro/internal/adj"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

func testMachine() (*xpsim.Machine, *pmem.Heap) {
	m := xpsim.NewMachine(2, 512<<20, xpsim.DefaultLatency())
	return m, pmem.NewHeap(m)
}

// checkStore holds s to the model of edges exactly.
func checkStore(t *testing.T, s *Store, edges []graph.Edge) {
	t.Helper()
	if _, err := (difftest.Compare{}).Run(difftest.Of(edges), s); err != nil {
		t.Fatal(err)
	}
}

func TestIngestAllVariants(t *testing.T) {
	edges := gen.RMAT(9, 8000, 21)
	for name, variant := range map[string]Variant{
		"D": VariantD, "P": VariantP, "N": VariantN, "MM": VariantMM,
	} {
		t.Run(name, func(t *testing.T) {
			m, h := testMachine()
			s, err := New(m, h, nil, Options{Name: "g" + name, NumVertices: 512,
				LogCapacity: 1 << 13, ArchiveThreshold: 1 << 9, ArchiveThreads: 4, Variant: variant})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Edges != int64(len(edges)) || rep.TotalNs() <= 0 || rep.Batches == 0 {
				t.Fatalf("bad report %+v", rep)
			}
			checkStore(t, s, edges)
		})
	}
}

func TestDeletion(t *testing.T) {
	m, h := testMachine()
	s, err := New(m, h, nil, Options{Name: "del", NumVertices: 8, LogCapacity: 64,
		ArchiveThreshold: 4, ArchiveThreads: 2, Variant: VariantP})
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, graph.Del(0, 1)}
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	checkStore(t, s, edges)
}

func TestPSlowerThanD(t *testing.T) {
	// The §II-C observation that motivates the whole paper: moving
	// GraphOne to PMEM costs several times the ingest time.
	edges := gen.RMAT(11, 60000, 33)
	opt := func(v Variant, name string) Options {
		return Options{Name: name, NumVertices: 2048, LogCapacity: 1 << 15,
			ArchiveThreshold: 1 << 12, ArchiveThreads: 16, Variant: v}
	}
	m1, h1 := testMachine()
	d, err := New(m1, h1, nil, opt(VariantD, "gd"))
	if err != nil {
		t.Fatal(err)
	}
	repD, err := d.Ingest(edges)
	if err != nil {
		t.Fatal(err)
	}
	m2, h2 := testMachine()
	p, err := New(m2, h2, nil, opt(VariantP, "gp"))
	if err != nil {
		t.Fatal(err)
	}
	repP, err := p.Ingest(edges)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(repP.TotalNs()) / float64(repD.TotalNs())
	if ratio < 2.5 {
		t.Errorf("GraphOne-P/GraphOne-D ingest ratio = %.2f, want >= 2.5 (paper: 6.37x)", ratio)
	}
	// Logging is NOT the bottleneck; archiving is (Fig. 3a).
	if repP.ArchiveNs < repP.LogNs {
		t.Errorf("archiving (%d) should dominate logging (%d) on PMEM", repP.ArchiveNs, repP.LogNs)
	}
}

func TestAmplificationOnPMEM(t *testing.T) {
	// Fig. 3b: archiving brings heavy read/write amplification.
	edges := gen.RMAT(11, 60000, 34)
	m, h := testMachine()
	s, err := New(m, h, nil, Options{Name: "amp", NumVertices: 2048,
		LogCapacity: 1 << 15, ArchiveThreshold: 1 << 12, ArchiveThreads: 16, Variant: VariantP})
	if err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	if _, err := s.Ingest(edges); err != nil {
		t.Fatal(err)
	}
	st := m.TotalStats()
	if amp := st.WriteAmplification(); amp < 2 {
		t.Errorf("write amplification = %.2f, want heavy (paper: 8.56x)", amp)
	}
	if st.MediaReadBytes() < st.ReqWriteBytes {
		t.Errorf("expected RMW media reads to exceed requested write bytes")
	}
}

func TestBindSingleNodeFasterOnPMEM(t *testing.T) {
	// Fig. 4a: binding one NUMA node avoids remote PMEM accesses and
	// speeds GraphOne-P up despite halving parallel resources.
	edges := gen.RMAT(11, 60000, 35)
	run := func(bind bool) int64 {
		m, h := testMachine()
		s, err := New(m, h, nil, Options{Name: "b", NumVertices: 2048,
			LogCapacity: 1 << 15, ArchiveThreshold: 1 << 12, ArchiveThreads: 16,
			Variant: VariantP, BindSingleNode: bind})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Ingest(edges)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalNs()
	}
	normal, bound := run(false), run(true)
	if bound >= normal {
		t.Errorf("bound ingest %dns >= unbound %dns; NUMA binding should win on PMEM", bound, normal)
	}
}

func TestThreadSweepCollapse(t *testing.T) {
	// Fig. 4b: GraphOne-P degrades with too many archiving threads.
	edges := gen.RMAT(11, 60000, 36)
	run := func(threads int) int64 {
		m, h := testMachine()
		s, err := New(m, h, nil, Options{Name: "t", NumVertices: 2048,
			LogCapacity: 1 << 15, ArchiveThreshold: 1 << 12, ArchiveThreads: threads, Variant: VariantP})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Ingest(edges)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ArchiveNs
	}
	t8, t32 := run(8), run(32)
	if t32 <= t8 {
		t.Errorf("32 threads (%dns) should be slower than 8 (%dns) for GraphOne-P", t32, t8)
	}
}

func TestRebuildRecovery(t *testing.T) {
	edges := gen.RMAT(9, 5000, 37)
	m, h := testMachine()
	s, simNs, err := Rebuild(m, h, Options{Name: "rb", NumVertices: 512,
		ArchiveThreads: 4, Variant: VariantP}, edges, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	if simNs <= 0 {
		t.Fatal("recovery must cost simulated time")
	}
	checkStore(t, s, edges)
}

func TestDRAMBudgetOOM(t *testing.T) {
	m, _ := testMachine()
	budget := mem.NewBudget(64 << 10)
	s, err := New(m, nil, budget, Options{Name: "oom", NumVertices: 512,
		LogCapacity: 1 << 12, ArchiveThreshold: 1 << 8, ArchiveThreads: 2, Variant: VariantD})
	if err != nil {
		return // construction OOM is fine
	}
	if _, err := s.Ingest(gen.RMAT(10, 30000, 4)); err == nil {
		t.Fatal("expected OOM")
	}
}

func TestGraphOneAPISurface(t *testing.T) {
	m, h := testMachine()
	s, err := New(m, h, nil, Options{Name: "api", NumVertices: 16,
		LogCapacity: 256, ArchiveThreshold: 4, ArchiveThreads: 2, Variant: VariantP})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.DelEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(3, 1); err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	if got := s.NbrsOut(ctx, 1, nil); len(got) != 0 {
		t.Fatalf("out(1) after del = %v", got)
	}
	var in []uint32
	s.VisitIn(ctx, 1, func(n uint32) { in = append(in, n) })
	if len(in) != 1 || in[0] != 3 {
		t.Fatalf("VisitIn(1) = %v", in)
	}
	var out []uint32
	s.VisitOut(ctx, 3, func(n uint32) { out = append(out, n) })
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("VisitOut(3) = %v", out)
	}
	if s.Variant() != VariantP || s.Variant().String() != "GraphOne-P" {
		t.Fatal("variant accessors")
	}
	if VariantN.String() != "GraphOne-N" || VariantMM.String() != "GraphOne-MM" || Variant(9).String() == "" {
		t.Fatal("variant names")
	}
	if n, err := s.Degree(0, 999); err != nil || n != 0 || s.OutDegree(3) != 1 {
		t.Fatal("degrees")
	}
	if s.NumPartitions() != 1 || s.Node(0, 1) != xpsim.NodeUnbound ||
		s.OutNode(1) != s.InNode(1) {
		t.Fatal("partition surface")
	}
	if s.report.Edges != 3 {
		t.Fatalf("report edges = %d", s.report.Edges)
	}
	u := s.MemUsage()
	if u.ElogPMEM == 0 || u.MetaDRAM == 0 {
		t.Fatalf("mem usage %+v", u)
	}
	// Bound variant reports node 0 everywhere.
	s2, err := New(m, nil, nil, Options{Name: "apib", NumVertices: 8, Variant: VariantD, BindSingleNode: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Node(0, 5) != 0 {
		t.Fatal("bound store should report node 0")
	}
}

// TestArchiveOrderAtAnyThreadCount: the archive threads shard the batch
// themselves, yet every vertex's chain holds its records in log order —
// what the one serial sharding loop (the oracle below) produced — however
// many threads there are, tombstones after their adds.
func TestArchiveOrderAtAnyThreadCount(t *testing.T) {
	edges := gen.Evolving(9, 12000, 0.2, 41)
	var want [2]map[graph.VID][]uint32
	for d := range want {
		want[d] = map[graph.VID][]uint32{}
	}
	for _, e := range edges {
		want[0][e.Src] = append(want[0][e.Src], e.Dst)
		want[1][e.Target()] = append(want[1][e.Target()], e.Src|(e.Dst&graph.DelFlag))
	}
	for _, threads := range []int{1, 2, 16} {
		m, h := testMachine()
		s, err := New(m, h, nil, Options{Name: "ord", NumVertices: 512, LogCapacity: 1 << 13,
			ArchiveThreshold: 1 << 10, ArchiveThreads: threads, Variant: VariantP})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		ctx := xpsim.NewCtx(0)
		for d := 0; d < 2; d++ {
			for v := graph.VID(0); v < 512; v++ {
				got := oldestFirst(ctx, s.adjs[d], v)
				if len(got) != len(want[d][v]) {
					t.Fatalf("%d threads: vertex %d dir %d holds %d records, oracle %d", threads, v, d, len(got), len(want[d][v]))
				}
				for i := range got {
					if got[i] != want[d][v][i] {
						t.Fatalf("%d threads: vertex %d dir %d record %d = %#x, oracle %#x", threads, v, d, i, got[i], want[d][v][i])
					}
				}
			}
		}
		checkStore(t, s, edges)
	}
}

// TestBindSingleNodeStaysLocal: bound to node 0, GraphOne-P's sharders read
// the log, like its workers write the adjacency lists, without crossing a
// socket; unbound on interleaved PMEM it does cross.
func TestBindSingleNodeStaysLocal(t *testing.T) {
	edges := gen.RMAT(10, 20000, 43)
	remote := func(bind bool) int64 {
		m, h := testMachine()
		s, err := New(m, h, nil, Options{Name: "loc", NumVertices: 1024, LogCapacity: 1 << 14,
			ArchiveThreshold: 1 << 11, ArchiveThreads: 16, Variant: VariantP, BindSingleNode: bind})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		return m.TotalStats().RemoteAccesses
	}
	if n := remote(true); n != 0 {
		t.Errorf("bound to one node, ingest made %d remote line accesses", n)
	}
	if remote(false) == 0 {
		t.Error("unbound ingest on interleaved PMEM made no remote access: the check above proves nothing")
	}
}

// oldestFirst reads v's raw records in insertion order: Read's block runs,
// oldest block first.
func oldestFirst(ctx *xpsim.Ctx, a *adj.Store, v graph.VID) []uint32 {
	var runs [][]uint32
	a.Read(ctx, v, nil, func(run []uint32) { runs = append(runs, slices.Clone(run)) }, false)
	var recs []uint32
	for i := len(runs) - 1; i >= 0; i-- {
		recs = append(recs, runs[i]...)
	}
	return recs
}
