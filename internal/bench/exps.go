package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphone"
	"repro/internal/mem"
	"repro/internal/pmem"
	"repro/internal/view"
	"repro/internal/xpsim"
)

func init() {
	register("fig3", "GraphOne-D vs GraphOne-P: phase times and PMEM amounts (motivation)", fig3)
	register("fig4", "NUMA effect and archive-thread sweep for GraphOne (motivation)", fig4)
	register("fig11", "Graph ingestion time, non-volatile systems", fig11)
	register("fig12", "Graph ingestion time, volatile systems (DRAM-only and Memory Mode)", fig12)
	register("fig13", "PMEM read and write data amount during ingestion", fig13)
	register("fig14", "Graph query performance (1-hop, BFS, PageRank, CC)", fig14)
	register("fig15", "Graph recovery performance", fig15)
	register("fig16", "Fixed per-vertex buffer size sweep (time and DRAM demand)", fig16)
	register("fig17", "Hierarchical buffer max-size sweep vs fixed buffers", fig17)
	register("fig18", "NUMA-friendly accessing strategies (ingest and BFS)", fig18)
	register("fig19", "Vertex-buffer memory pool size sweep", fig19)
	register("fig20", "XPGraph archive-thread sweep", fig20)
	register("table2", "Dataset statistics (scaled stand-ins)", table2)
	register("table3", "Memory usage breakdown of XPGraph", table3)
	register("ablation", "XPGraph technique ablation (extension)", ablation)
	register("ext-ssd", "SSD-supported XPGraph prototype (extension)", extSSD)
	register("ext-hotcold", "Hot vs flushed vertex-buffer query cost (extension)", extHotCold)
	register("ext-evolving", "Mixed add/delete update stream (extension)", extEvolving)
}

// span is the range a per-dataset quantity covers across a figure's rows.
// The EXPERIMENTS summary quotes both ends ("lo-hi", shapeSpan) or the one the
// paper's claim is about: hi for an "up to", lo for what every graph must
// reach.
type span struct {
	lo, hi float64
	n      int
}

func (s *span) add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return // over a point with no time (it ran out of memory): nothing to quote
	}
	if s.n == 0 || v < s.lo {
		s.lo = v
	}
	if s.n == 0 || v > s.hi {
		s.hi = v
	}
	s.n++
}

// shapeSpan records a span's two ends as the shape rows <name>_min and
// <name>_max, each built by mk; a figure run on no dataset the quantity
// exists for (an all-OOM column) has no span to record.
func (t *Table) shapeSpan(name string, s span, mk func(v float64) Cell) {
	if s.n == 0 {
		return
	}
	t.shape(name+"_min", mk(s.lo))
	t.shape(name+"_max", mk(s.hi))
}

// over is a/b as a float, the ratio a shape row quotes.
func over(a, b int64) float64 { return float64(a) / float64(b) }

// ---- Fig. 3: motivation, GraphOne-D vs -P ----

func fig3(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig3", Title: "GraphOne on DRAM vs PMEM: phase split and PMEM traffic (FS)",
		Columns: []string{"dataset", "system", "log_s", "archive_s", "total_s", "pmem_read_GB", "pmem_write_GB", "w_amp"}}
	var pOverD, wamp span // how much slower GraphOne-P is, and its write amplification
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		total := map[graphone.Variant]int64{}
		for _, v := range []graphone.Variant{graphone.VariantD, graphone.VariantP} {
			_, m, rep, err := ingestGraphOne(edges, ds.NumVertices(), cfg, v, false, 0)
			if err != nil {
				return Table{}, err
			}
			st := m.TotalStats()
			t.add(dsCell(ds, len(edges)), label(v.String()), secs(rep.LogNs), secs(rep.ArchiveNs),
				secs(rep.TotalNs()), gb(st.MediaReadBytes()), gb(st.MediaWriteBytes()),
				num(st.WriteAmplification(), "%.2f", "x", Lower))
			total[v] = rep.TotalNs()
			if v == graphone.VariantP {
				wamp.add(st.WriteAmplification())
			}
		}
		pOverD.add(over(total[graphone.VariantP], total[graphone.VariantD]))
	}
	t.shape("p_over_d", num(pOverD.lo, "%.1f", "x", Higher).about(6.4).deviation(10))
	t.shape("w_amp", num(wamp.lo, "%.1f", "x", Higher).about(8.56).deviation(1))
	t.Notes = append(t.Notes,
		"paper Fig.3: archiving dominates on PMEM; ~10x read and ~8.6x write amplification",
		"logging is sequential and stays cheap on both media")
	return t, nil
}

// ---- Fig. 4: NUMA effect and thread sweep ----

func fig4(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig4", Title: "GraphOne NUMA binding and archive-thread scaling (FS)",
		Columns: []string{"dataset", "system", "config", "ingest_s"}}
	var bind, t32OverT8 span // GraphOne-P: normal over bound, 32 threads over 8
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		// GraphOne-P's times by config, for the shape rows.
		pNs := map[string]int64{}
		point := func(v graphone.Variant, bind bool, threads int, config string) error {
			_, _, rep, err := ingestGraphOne(edges, ds.NumVertices(), cfg, v, bind, threads)
			if err != nil {
				return err
			}
			if v == graphone.VariantP {
				pNs[config] = rep.TotalNs()
			}
			t.add(dsCell(ds, len(edges)), label(v.String()), label(config), secs(rep.TotalNs()))
			return nil
		}
		// 4a: normal vs bound to one node.
		for _, v := range []graphone.Variant{graphone.VariantD, graphone.VariantP} {
			for _, bind := range []bool{false, true} {
				cfgName := "normal"
				if bind {
					cfgName = "bind-1-node"
				}
				if err := point(v, bind, 0, cfgName); err != nil {
					return Table{}, err
				}
			}
		}
		// 4b: thread sweep.
		for _, v := range []graphone.Variant{graphone.VariantD, graphone.VariantP} {
			for _, th := range []int{1, 2, 4, 8, 16, 32} {
				if err := point(v, false, th, fmt.Sprintf("threads=%d", th)); err != nil {
					return Table{}, err
				}
			}
		}
		bind.add(over(pNs["normal"], pNs["bind-1-node"]))
		t32OverT8.add(over(pNs["threads=32"], pNs["threads=8"]))
	}
	// The floors are TestFig4Shape's: binding must pay on PMEM, and the
	// sweep must turn back up past the valley.
	t.shape("bind", num(bind.lo, "%.1f", "x", Higher).floor(1))
	t.shape("t32_over_t8", num(t32OverT8.lo, "%.1f", "x", Higher).floor(1))
	t.Notes = append(t.Notes,
		"paper Fig.4a: NUMA effects much larger for GraphOne-P than GraphOne-D",
		"paper Fig.4b: GraphOne-P degrades past 8 archiving threads")
	return t, nil
}

// ---- Fig. 11: ingestion, non-volatile systems ----

func fig11(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig11", Title: "Ingestion time, non-volatile systems",
		Columns: []string{"dataset", "GraphOne-P", "GraphOne-N", "XPGraph", "XPGraph-B", "XP_speedup_vs_GoP"}}
	var speedup, nOverP, bGain span
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		goNs := map[graphone.Variant]int64{}
		for _, v := range []graphone.Variant{graphone.VariantP, graphone.VariantN} {
			_, _, rep, err := ingestGraphOne(edges, ds.NumVertices(), cfg, v, false, 0)
			if err != nil {
				return Table{}, err
			}
			goNs[v] = rep.TotalNs()
		}
		goP, goN := goNs[graphone.VariantP], goNs[graphone.VariantN]
		var xp, xpB int64
		for _, battery := range []bool{false, true} {
			b := battery
			s, _, rep, err := ingestXP(edges, ds.NumVertices(), cfg, func(o *core.Options) { o.Battery = b })
			if err != nil {
				return Table{}, err
			}
			if cfg.Tracer != nil {
				// Complete the pipeline so the trace shows the full
				// logging/buffering/flushing split (Fig. 3a); the
				// reported ingestion time above is already captured.
				if err := s.FlushAllVbufs(); err != nil {
					return Table{}, err
				}
			}
			if battery {
				xpB = rep.TotalNs()
			} else {
				xp = rep.TotalNs()
			}
		}
		t.add(dsCell(ds, len(edges)), secs(goP), secs(goN), secs(xp), secs(xpB), ratio(goP, xp))
		speedup.add(over(goP, xp))
		nOverP.add(over(goN, goP))
		bGain.add(100 * (1 - over(xpB, xp)))
	}
	// The floor is the one TestFig11AcrossFlushAlls holds at half of K28:
	// below 2x the crash-safe commit is back on one thread.
	t.shapeSpan("speedup", speedup, func(v float64) Cell {
		return num(v, "%.2f", "x", Higher).paper(3.01, 3.95).deviation(11).floor(2)
	})
	t.shapeSpan("n_over_p", nOverP, func(v float64) Cell { return num(v, "%.1f", "x", Higher).about(10).deviation(3) })
	t.shapeSpan("b_gain_pct", bGain, func(v float64) Cell { return num(v, "%.0f", "%", Higher).paper(0, 23).deviation(4) })
	t.Notes = append(t.Notes,
		"paper Fig.11: XPGraph 3.01-3.95x faster than GraphOne-P; GraphOne-N an order of magnitude slower; XPGraph-B up to 23% over XPGraph")
	return t, nil
}

// ---- Fig. 12: ingestion, volatile systems ----

func fig12(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig12", Title: "Ingestion time, volatile systems (DO=DRAM-only, MM=memory mode)",
		Columns: []string{"dataset", "GraphOne-D(DO)", "XPGraph-D(DO)", "GraphOne-D(MM)", "XPGraph-D(MM)"}}
	var doSlower span
	var ooms, mmWins int64
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		cell := func(ns int64, err error) Cell {
			if err != nil {
				if errors.Is(err, mem.ErrOOM) {
					return text("OOM")
				}
				return text("err:" + err.Error())
			}
			return secs(ns)
		}
		goNs := func(v graphone.Variant) (int64, error) {
			_, _, rep, err := ingestGraphOne(edges, ds.NumVertices(), cfg, v, false, 0)
			return rep.TotalNs(), err
		}
		xpNs := func(opt xpOpt) (int64, error) {
			_, _, rep, err := ingestXP(edges, ds.NumVertices(), cfg, opt)
			return rep.TotalNs(), err
		}
		goDO := cell(goNs(graphone.VariantD))
		xpDO := cell(xpNs(func(o *core.Options) {
			o.Medium = core.MediumDRAM
			o.NUMA = core.NUMANone
			o.PoolMax = scaledDRAMBytes / 2
		}))
		goMM := cell(goNs(graphone.VariantMM))
		xpMM := cell(xpNs(func(o *core.Options) {
			o.Medium = core.MediumMemoryMode
			o.NUMA = core.NUMANone
		}))
		t.add(dsCell(ds, len(edges)), goDO, xpDO, goMM, xpMM)
		// A cell with no unit is an OOM: it has no time to compare.
		switch {
		case goDO.Unit == "":
			ooms++
		case xpDO.Unit != "":
			doSlower.add(100 * (xpDO.Value/goDO.Value - 1))
		}
		if xpMM.Unit != "" && goMM.Unit != "" && xpMM.Value < goMM.Value {
			mmWins++
		}
	}
	// Paper: the three largest graphs OOM on DRAM-only; where it fits
	// XPGraph-D is up to 73% faster (a negative "slower"), and under Memory
	// Mode it wins on every graph.
	t.shape("do_ooms", count(ooms, "graphs", Lower).paper(3, 3))
	t.shapeSpan("do_slower_pct", doSlower, func(v float64) Cell {
		return num(v, "%.0f", "%", Lower).paper(-73, 0).deviation(8)
	})
	all := float64(len(dss))
	t.shape("mm_wins", count(mmWins, "graphs", Higher).paper(all, all).deviation(8).
		printed(fmt.Sprintf("%d of %d", mmWins, len(dss))))
	t.Notes = append(t.Notes,
		"paper Fig.12: large graphs OOM on DRAM-only; XPGraph-D up to 73% (DO) / 76% (MM) faster than GraphOne-D",
		fmt.Sprintf("scaled machine DRAM = %d MB", scaledDRAMBytes>>20))
	return t, nil
}

// ---- Fig. 13: PMEM traffic ----

func fig13(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig13", Title: "PMEM read/write data amount during ingestion (GB)",
		Columns: []string{"dataset", "system", "read_GB", "write_GB"}}
	var readLess, writeLess span
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		goRun := func(v graphone.Variant) func() (*xpsim.Machine, error) {
			return func() (*xpsim.Machine, error) {
				_, m, _, err := ingestGraphOne(edges, ds.NumVertices(), cfg, v, false, 0)
				return m, err
			}
		}
		xpRun := func(battery bool) func() (*xpsim.Machine, error) {
			return func() (*xpsim.Machine, error) {
				_, m, _, err := ingestXP(edges, ds.NumVertices(), cfg, func(o *core.Options) { o.Battery = battery })
				return m, err
			}
		}
		stats := map[string]xpsim.Stats{}
		for _, sy := range []struct {
			name string
			run  func() (*xpsim.Machine, error)
		}{
			{"GraphOne-P", goRun(graphone.VariantP)}, {"GraphOne-N", goRun(graphone.VariantN)},
			{"XPGraph", xpRun(false)}, {"XPGraph-B", xpRun(true)},
		} {
			m, err := sy.run()
			if err != nil {
				return Table{}, err
			}
			st := m.TotalStats()
			stats[sy.name] = st
			t.add(dsCell(ds, len(edges)), label(sy.name), gb(st.MediaReadBytes()), gb(st.MediaWriteBytes()))
		}
		goP, xp := stats["GraphOne-P"], stats["XPGraph"]
		readLess.add(over(goP.MediaReadBytes(), xp.MediaReadBytes()))
		writeLess.add(over(goP.MediaWriteBytes(), xp.MediaWriteBytes()))
	}
	t.shapeSpan("write_less", writeLess, func(v float64) Cell {
		return num(v, "%.1f", "x", Higher).paper(2.02, 3.44).deviation(11)
	})
	t.shapeSpan("read_less", readLess, func(v float64) Cell {
		return num(v, "%.1f", "x", Higher).paper(2.29, 4.17).deviation(11)
	})
	t.Notes = append(t.Notes,
		"paper Fig.13: XPGraph reads 2.29-4.17x and writes 2.02-3.44x less than GraphOne-P; XPGraph-B further -31%/-47%")
	return t, nil
}

// ---- Fig. 14: query performance ----

func fig14(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig14", Title: "Query performance (seconds of simulated time)",
		Columns: []string{"dataset", "system", "1hop_s", "bfs_s", "pagerank_s", "cc_s"}}
	// 2^24 one-hop queries in the paper; scaled by 1/1024 -> 2^14, then
	// by the edge scale.
	oneHopCount := int(float64(1<<14) * cfg.EdgeScale)
	if oneHopCount < 256 {
		oneHopCount = 256
	}
	var bfs, pagerank, cc span
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		type prep struct {
			name string
			view view.View
			lat  *xpsim.LatencyModel
		}
		var preps []prep
		{
			s, m, _, err := ingestGraphOne(edges, ds.NumVertices(), cfg, graphone.VariantP, false, 0)
			if err != nil {
				return Table{}, err
			}
			preps = append(preps, prep{"GraphOne-P", s, &m.Lat})
		}
		{
			s, m, _, err := ingestXP(edges, ds.NumVertices(), cfg)
			if err != nil {
				return Table{}, err
			}
			preps = append(preps, prep{"XPGraph", s, &m.Lat})
		}
		var ns [2][3]int64 // [GraphOne-P, XPGraph][bfs, pagerank, cc]
		for i, p := range preps {
			e := analytics.NewEngine(p.view, p.lat, cfg.QueryThreads)
			oh := e.OneHop(oneHopCount, 0xBEEF)
			for _, root := range bfsRoots(ds) {
				ns[i][0] += e.BFS(root).SimNs
			}
			ns[i][1] = e.PageRank(10).SimNs
			ns[i][2] = e.CC().SimNs
			t.add(dsCell(ds, len(edges)), label(p.name),
				secs(oh.SimNs), secs(ns[i][0]), secs(ns[i][1]), secs(ns[i][2]))
		}
		bfs.add(over(ns[0][0], ns[1][0]))
		pagerank.add(over(ns[0][1], ns[1][1]))
		cc.add(over(ns[0][2], ns[1][2]))
	}
	// The paper reports each algorithm's best graph ("up to").
	t.shape("bfs_max", num(bfs.hi, "%.2f", "x", Higher).about(4.46).deviation(6))
	t.shape("pagerank_max", num(pagerank.hi, "%.2f", "x", Higher).about(3.57).deviation(6))
	t.shape("cc_max", num(cc.hi, "%.2f", "x", Higher).about(4.23).deviation(6))
	t.Notes = append(t.Notes,
		"paper Fig.14: 1-hop comparable (within ~30%); XPGraph up to 4.46x (BFS), 3.57x (PageRank), 4.23x (CC) faster")
	return t, nil
}

// bfsRoots returns the paper's "three random roots" deterministically.
func bfsRoots(ds gen.Dataset) []graph.VID {
	n := ds.NumVertices()
	return []graph.VID{1 % n, (n / 3) % n, (2*n/3 + 1) % n}
}

// ---- Fig. 15: recovery ----

func fig15(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig15", Title: "Recovery time after a crash (seconds of simulated time)",
		Columns: []string{"dataset", "GraphOne_rebuild_s", "XPGraph_recover_s", "speedup"}}
	// GraphOne recovers by re-archiving with threshold 2^27 (paper);
	// scaled by 1/1024 -> 2^17.
	const rebuildThreshold = 1 << 17
	var real, kron span
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		goMachine := newMachine(int64(len(edges)))
		_, goNs, err := graphone.Rebuild(goMachine, pmem.NewHeap(goMachine), graphone.Options{
			Name: "rb", NumVertices: ds.NumVertices(), ArchiveThreads: cfg.ArchiveThreads,
			AdjBytes: adjBytesFor(int64(len(edges)), 1), Variant: graphone.VariantP,
		}, edges, rebuildThreshold)
		if err != nil {
			return Table{}, err
		}
		// XPGraph: ingest, crash (drop DRAM state), recover.
		s, m, _, err := ingestXP(edges, ds.NumVertices(), cfg)
		if err != nil {
			return Table{}, err
		}
		heap := s.Heap()
		opts := s.Options()
		s = nil // crash: all DRAM state gone
		_, rec, err := core.Recover(m, heap, nil, opts)
		if err != nil {
			return Table{}, err
		}
		t.add(dsCell(ds, len(edges)), secs(goNs), secs(rec.SimNs), ratio(goNs, rec.SimNs))
		if strings.HasPrefix(ds.Name, "K") {
			kron.add(over(goNs, rec.SimNs))
		} else {
			real.add(over(goNs, rec.SimNs))
		}
	}
	t.shapeSpan("real", real, func(v float64) Cell {
		return num(v, "%.1f", "x", Higher).paper(5.20, 9.47).deviation(11)
	})
	t.shapeSpan("kron", kron, func(v float64) Cell {
		return num(v, "%.1f", "x", Higher).paper(5.20, 9.47).deviation(5)
	})
	t.Notes = append(t.Notes,
		"paper Fig.15: XPGraph recovers 5.20-9.47x faster than GraphOne's re-archiving")
	return t, nil
}

// ---- Fig. 16: fixed buffer sweep ----

func fig16(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "YW")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig16", Title: "Fixed per-vertex buffer sizes: ingest time and DRAM demand",
		Columns: []string{"dataset", "buf_bytes", "ingest_s", "vbuf_peak_MB"}}
	// The DRAM cap is scaled so the paper's OOM point (512 B buffers on
	// YahooWeb) falls in the same place against this layout: 256 B
	// buffers (~88 MB of buffers + ~96 MB vertex metadata) fit, 512 B
	// (~176 MB of buffers) do not.
	const fig16DRAM = 240 << 20
	var oomAt int64 // the first buffer size to run out of DRAM; 0: none did
	var t8OverT256 span
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		ns := map[int64]int64{}
		oom := func(bb int64) {
			t.add(dsCell(ds, len(edges)), label(fmt.Sprint(bb)), text("OOM"), text("OOM"))
			if oomAt == 0 {
				oomAt = bb
			}
		}
		for _, bufBytes := range []int64{0, 8, 16, 32, 64, 128, 256, 512} {
			bb := bufBytes
			budget := mem.NewBudget(fig16DRAM)
			m := newMachine(int64(len(edges)))
			h := pmem.NewHeap(m)
			o := core.Options{Name: "f16", NumVertices: ds.NumVertices(),
				ArchiveThreads: cfg.ArchiveThreads, NUMA: core.NUMASubgraph,
				PoolBulk: 4 << 20, // fine-grained bulks so footprint tracks demand
				AdjBytes: adjBytesFor(int64(len(edges)), m.Sockets)}
			if bb == 0 {
				o.Buffer = core.BufferNone
			} else {
				o.Buffer = core.BufferFixed
				o.MinBufBytes, o.MaxBufBytes = bb, bb
			}
			s, err := core.New(m, h, budget, o)
			if err != nil {
				return Table{}, err
			}
			rep, err := s.Ingest(edges)
			if err != nil {
				if errors.Is(err, mem.ErrOOM) {
					oom(bb)
					continue
				}
				return Table{}, err
			}
			if rep.PoolFallbacks > 0 {
				// The pool hit the DRAM budget mid-run; the store
				// degraded to direct writes where the paper's system
				// would have failed its allocation — report the OOM.
				oom(bb)
				continue
			}
			ns[bb] = rep.TotalNs()
			t.add(dsCell(ds, len(edges)), label(fmt.Sprint(bb)), secs(ns[bb]), mb(s.Pool().Peak()))
		}
		t8OverT256.add(over(ns[8], ns[256]))
	}
	at := count(oomAt, "B", Higher).paper(512, 512)
	if oomAt == 0 {
		at = at.printed("none")
	}
	t.shape("oom_at", at)
	// TestFig16And17Shape's floor: larger buffers ingest faster.
	t.shape("t8_over_t256", num(t8OverT256.lo, "%.1f", "x", Higher).floor(1))
	t.Notes = append(t.Notes,
		"paper Fig.16: larger fixed buffers reduce ingest time but inflate DRAM; 512 B OOMs on YahooWeb")
	return t, nil
}

// ---- Fig. 17: hierarchical buffer sweep ----

func fig17(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "YW")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig17", Title: "Hierarchical buffers (16B..max) vs best fixed buffers",
		Columns: []string{"dataset", "config", "ingest_s", "vbuf_peak_MB"}}
	var dramPct, timeRatio span // hier-16..256 against fixed-256
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		ns, peak := map[string]int64{}, map[string]int64{}
		run := func(name string, o core.Options) error {
			m := newMachine(int64(len(edges)))
			h := pmem.NewHeap(m)
			o.Name = "f17"
			o.NumVertices = ds.NumVertices()
			o.ArchiveThreads = cfg.ArchiveThreads
			o.NUMA = core.NUMASubgraph
			o.AdjBytes = adjBytesFor(int64(len(edges)), m.Sockets)
			s, err := core.New(m, h, nil, o)
			if err != nil {
				return err
			}
			if _, err := s.Ingest(edges); err != nil {
				return err
			}
			ns[name], peak[name] = s.Report().TotalNs(), s.Pool().Peak()
			t.add(dsCell(ds, len(edges)), label(name), secs(ns[name]), mb(peak[name]))
			return nil
		}
		if err := run("fixed-128", core.Options{Buffer: core.BufferFixed, MinBufBytes: 128, MaxBufBytes: 128}); err != nil {
			return Table{}, err
		}
		if err := run("fixed-256", core.Options{Buffer: core.BufferFixed, MinBufBytes: 256, MaxBufBytes: 256}); err != nil {
			return Table{}, err
		}
		for _, max := range []int64{64, 128, 256, 512} {
			if err := run(fmt.Sprintf("hier-16..%d", max),
				core.Options{Buffer: core.BufferHierarchical, MinBufBytes: 16, MaxBufBytes: max}); err != nil {
				return Table{}, err
			}
		}
		dramPct.add(100 * over(peak["hier-16..256"], peak["fixed-256"]))
		timeRatio.add(over(ns["hier-16..256"], ns["fixed-256"]))
	}
	// Paper: hierarchical 16..256 B at the best fixed setting's speed and
	// less than half its DRAM. The floors are TestFig16And17Shape's, which
	// runs where the buffers are emptier: within 30% and under 70%.
	t.shape("dram_pct", num(dramPct.hi, "%.0f", "%", Lower).paper(0, 50).floor(70))
	t.shape("time_ratio", num(timeRatio.hi, "%.2f", "x", Lower).floor(1.3))
	t.Notes = append(t.Notes,
		"paper Fig.17: hierarchical 16..256B matches the best fixed setting's speed at less than half the DRAM")
	return t, nil
}

// ---- Fig. 18: NUMA strategies ----

func fig18(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS", "YW", "K29")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig18", Title: "NUMA accessing strategies: ingest and BFS",
		Columns: []string{"dataset", "strategy", "ingest_s", "bfs_s"}}
	var sgIngest, sgBFS span
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		ingestNs, bfsNs := map[core.NUMAMode]int64{}, map[core.NUMAMode]int64{}
		for _, mode := range []struct {
			name string
			m    core.NUMAMode
		}{{"no-bind", core.NUMANone}, {"NUMA-bind-OIG", core.NUMAOutIn}, {"NUMA-bind-SG", core.NUMASubgraph}} {
			md := mode.m
			s, m, rep, err := ingestXP(edges, ds.NumVertices(), cfg, func(o *core.Options) { o.NUMA = md })
			if err != nil {
				return Table{}, err
			}
			e := analytics.NewEngine(s, &m.Lat, cfg.QueryThreads)
			if md == core.NUMANone {
				e.SetBinding(false)
			}
			ingestNs[md] = rep.TotalNs()
			for _, root := range bfsRoots(ds) {
				bfsNs[md] += e.BFS(root).SimNs
			}
			t.add(dsCell(ds, len(edges)), label(mode.name), secs(ingestNs[md]), secs(bfsNs[md]))
		}
		sgIngest.add(100 * (1 - over(ingestNs[core.NUMASubgraph], ingestNs[core.NUMANone])))
		sgBFS.add(100 * (over(bfsNs[core.NUMANone], bfsNs[core.NUMASubgraph]) - 1))
	}
	t.shapeSpan("sg_ingest_pct", sgIngest, func(v float64) Cell {
		return num(v, "%.0f", "%", Higher).paper(5, 23).deviation(10)
	})
	t.shape("sg_bfs_pct_max", num(sgBFS.hi, "%.0f", "%", Higher).about(54).deviation(6))
	t.Notes = append(t.Notes,
		"paper Fig.18: binding improves ingest 5-23%; sub-graph binding improves BFS up to 54% while out/in-graph binding can hurt queries")
	return t, nil
}

// ---- Fig. 19: pool size sweep ----

func fig19(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS", "YW", "K29")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig19", Title: "Vertex-buffer pool size sweep (paper GB -> scaled MB)",
		Columns: []string{"dataset", "pool_MB", "ingest_s", "flush_alls"}}
	var to16, past32 span // time at 1 MB over 16 MB, at 32 MB over 96 MB
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		ns := map[int64]int64{}
		for _, poolMB := range []int64{1, 2, 4, 8, 16, 32, 64, 96} {
			pm := poolMB << 20
			_, _, rep, err := ingestXP(edges, ds.NumVertices(), cfg, func(o *core.Options) {
				o.PoolMax = pm
				o.PoolBulk = pm / int64(2*cfg.ArchiveThreads)
			})
			if err != nil {
				return Table{}, err
			}
			ns[poolMB] = rep.TotalNs()
			t.add(dsCell(ds, len(edges)), label(fmt.Sprint(poolMB)), secs(ns[poolMB]),
				count(int64(rep.FlushAlls), "flush-alls", Lower))
		}
		to16.add(over(ns[1], ns[16]))
		past32.add(over(ns[32], ns[96]))
	}
	// Paper: big gains up to 16, flat past 32. TestFig19Shape's floor: a
	// pool that covers the working set beats one that does not.
	t.shape("to16", num(to16.lo, "%.2f", "x", Higher).floor(1))
	t.shape("past32", num(past32.hi, "%.2f", "x", Higher).paper(0.95, 1.05))
	t.Notes = append(t.Notes,
		"paper Fig.19: big gains up to 16 GB (scaled: MB), flat beyond 32; oversized pools cost nothing (lazy allocation)")
	return t, nil
}

// ---- Fig. 20: XPGraph thread sweep ----

func fig20(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "fig20", Title: "XPGraph archive-thread sweep (FS)",
		Columns: []string{"dataset", "threads", "ingest_s"}}
	var total, to16 span // time at 1 thread over 95, over 16
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		ns := map[int]int64{}
		for _, th := range []int{1, 2, 4, 8, 16, 32, 48, 64, 95} {
			th := th
			_, _, rep, err := ingestXP(edges, ds.NumVertices(), cfg, func(o *core.Options) { o.ArchiveThreads = th })
			if err != nil {
				return Table{}, err
			}
			ns[th] = rep.TotalNs()
			t.add(dsCell(ds, len(edges)), label(fmt.Sprint(th)), secs(ns[th]))
		}
		total.add(over(ns[1], ns[95]))
		to16.add(over(ns[1], ns[16]))
	}
	// The floor is TestFig20Shape's: the whole sweep is worth at least 4x,
	// or a stage of the pipeline is back on one thread.
	t.shape("total", num(total.lo, "%.1f", "x", Higher).floor(4))
	t.shape("to16", num(to16.lo, "%.1f", "x", Higher))
	t.Notes = append(t.Notes,
		"paper Fig.20: XPGraph keeps scaling with archive threads, peaking at the machine's 95 threads")
	return t, nil
}

// ---- Table II: dataset statistics ----

func table2(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "table2", Title: "Datasets (scaled ~1/1024 stand-ins of Table II)",
		Columns: []string{"dataset", "paper_V", "paper_E", "V", "E", "bin_MB", "deg1-2_pct"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		h := gen.DegreeHistogram(edges, ds.NumVertices())
		nonZero := h[1] + h[2] + h[3] + h[4]
		pct := 0.0
		if nonZero > 0 {
			pct = 100 * float64(h[1]) / float64(nonZero)
		}
		t.add(dsCell(ds, len(edges)), text(ds.PaperV), text(ds.PaperE),
			count(int64(ds.NumVertices()), "vertices", Higher), count(int64(len(edges)), "edges", Higher),
			mb(int64(len(edges))*graph.EdgeBytes), num(pct, "%.1f", "%", Higher))
	}
	t.Notes = append(t.Notes, "paper §III-C: vertices with degree 1-2 exceed 40% of non-zero vertices in real graphs")
	return t, nil
}

// ---- Table III: memory usage ----

func table3(cfg Config) (Table, error) {
	dss, err := datasets(cfg, allNames...)
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "table3", Title: "Memory usage of XPGraph (MB; paper Table III is GB at 1024x scale)",
		Columns: []string{"dataset", "meta_dram_MB", "vbuf_dram_MB", "input_MB", "elog_MB", "pblk_MB"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		s, _, _, err := ingestXP(edges, ds.NumVertices(), cfg)
		if err != nil {
			return Table{}, err
		}
		u := s.MemUsage()
		t.add(dsCell(ds, len(edges)), mb(u.MetaDRAM), mb(u.VbufDRAM),
			mb(int64(len(edges))*graph.EdgeBytes), mb(u.ElogPMEM), mb(u.PblkPMEM))
	}
	t.Notes = append(t.Notes,
		"paper Table III: DRAM usage is limited and tunable; PMEM holds input, 8GB elog (scaled 8MB) and adjacency blocks")
	return t, nil
}

// ---- Extensions beyond the paper's figures ----

// ablation isolates each XPGraph technique's contribution by disabling
// them one at a time — the design-choice ablation DESIGN.md calls for.
func ablation(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "ablation", Title: "XPGraph technique ablation (ingest time)",
		Columns: []string{"dataset", "config", "ingest_s", "pmem_write_GB"}}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		run := func(name string, f xpOpt) error {
			_, m, rep, err := ingestXP(edges, ds.NumVertices(), cfg, f)
			if err != nil {
				return err
			}
			t.add(dsCell(ds, len(edges)), label(name), secs(rep.TotalNs()), gb(m.TotalStats().MediaWriteBytes()))
			return nil
		}
		cases := []struct {
			name string
			f    xpOpt
		}{
			{"full", func(o *core.Options) {}},
			{"no-proactive-flush", func(o *core.Options) { o.DisableProactiveFlush = true }},
			{"fixed-64B-buffers", func(o *core.Options) { o.Buffer = core.BufferFixed; o.MinBufBytes = 64; o.MaxBufBytes = 64 }},
			{"no-buffering", func(o *core.Options) { o.Buffer = core.BufferNone }},
			{"no-numa-binding", func(o *core.Options) { o.NUMA = core.NUMANone }},
		}
		for _, c := range cases {
			if err := run(c.name, c.f); err != nil {
				return Table{}, err
			}
		}
	}
	t.Notes = append(t.Notes,
		"extension experiment: each row disables one technique of §III; 'no-buffering' approximates GraphOne's write path inside XPGraph")
	return t, nil
}

// extSSD measures the SSD-supported XPGraph prototype (§V-F future work):
// the same workload on ample PMEM vs PMEM arenas one-eighth of what the
// adjacency lists need, with SSD overflow.
func extSSD(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "ext-ssd", Title: "SSD-supported XPGraph (PMEM-overflow prototype)",
		Columns: []string{"dataset", "config", "ingest_s", "bfs_s", "ssd_MB"}}
	for _, ds := range dss {
		// Ample PMEM first, then arenas an eighth of what the first run's
		// arenas came to hold — the sub-graphs are balanced halves, so every
		// arena holds about the same — with the rest overflowing to SSD.
		edges := edgesFor(ds, cfg)
		need := adjBytesFor(int64(len(edges)), 2)
		var perArena int64
		run := func(name string, adjBytes, overflow int64) error {
			s, m, rep, err := ingestXP(edges, ds.NumVertices(), cfg, func(o *core.Options) {
				o.AdjBytes = adjBytes
				o.SSDOverflow = overflow
			})
			if err != nil {
				return err
			}
			e := analytics.NewEngine(s, &m.Lat, cfg.QueryThreads)
			t.add(dsCell(ds, len(edges)), label(name), secs(rep.TotalNs()),
				secs(e.BFS(bfsRoots(ds)[0]).SimNs), mb(s.SSDBytes()))
			perArena = s.MemUsage().PblkPMEM / int64(2*s.NumPartitions())
			return nil
		}
		if err := run("pmem-only", need, 0); err != nil {
			return Table{}, err
		}
		if err := run("small-pmem+ssd", perArena/8+(4<<10), 4*need); err != nil {
			return Table{}, err
		}
	}
	t.Notes = append(t.Notes,
		"extension experiment: graphs larger than PMEM keep working with cold adjacency blocks on NVMe")
	return t, nil
}

// extHotCold isolates the buffer-as-cache effect behind Fig. 14's query
// wins (§V-C): the same queries on a hot store (vertex buffers resident
// after ingest) and a cold one (all buffers flushed to PMEM).
func extHotCold(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "ext-hotcold", Title: "Query cost with hot vs flushed vertex buffers",
		Columns: []string{"dataset", "state", "1hop_s", "bfs_s", "pmem_read_GB"}}
	oneHopCount := int(float64(1<<14) * cfg.EdgeScale)
	if oneHopCount < 256 {
		oneHopCount = 256
	}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		s, m, _, err := ingestXP(edges, ds.NumVertices(), cfg)
		if err != nil {
			return Table{}, err
		}
		e := analytics.NewEngine(s, &m.Lat, cfg.QueryThreads)
		measure := func(state string) {
			before := m.SnapshotStats()
			oh := e.OneHop(oneHopCount, 0xBEEF)
			var bfsNs int64
			for _, root := range bfsRoots(ds) {
				bfsNs += e.BFS(root).SimNs
			}
			delta := m.SnapshotStats().Sub(before)
			t.add(dsCell(ds, len(edges)), label(state),
				secs(oh.SimNs), secs(bfsNs), gb(delta.MediaReadBytes()))
		}
		measure("hot-buffers")
		if err := s.FlushAllVbufs(); err != nil {
			return Table{}, err
		}
		measure("flushed")
	}
	t.Notes = append(t.Notes,
		"extension experiment: resident vertex buffers serve recent neighbors from DRAM (§III-B note, §V-C)")
	return t, nil
}

// extEvolving runs a deletion-heavy update stream (adds + 15% deletes of
// live edges) through both PMEM systems — the evolving-graph shape of the
// paper's title that the bulk-load figures do not exercise.
func extEvolving(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "FS")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "ext-evolving", Title: "Mixed add/delete stream (15% deletions)",
		Columns: []string{"dataset", "system", "ingest_s", "speedup"}}
	for _, ds := range dss {
		n := int64(float64(ds.Edges) * cfg.EdgeScale)
		if n < 1024 {
			n = 1024
		}
		updates := gen.Evolving(ds.Scale, n, 0.15, ds.Seed^0xDE1)
		_, _, goRep, err := ingestGraphOne(updates, ds.NumVertices(), cfg, graphone.VariantP, false, 0)
		if err != nil {
			return Table{}, err
		}
		t.add(dsCell(ds, len(updates)), label("GraphOne-P"), secs(goRep.TotalNs()), text("-"))
		_, _, xpRep, err := ingestXP(updates, ds.NumVertices(), cfg)
		if err != nil {
			return Table{}, err
		}
		t.add(dsCell(ds, len(updates)), label("XPGraph"), secs(xpRep.TotalNs()), ratio(goRep.TotalNs(), xpRep.TotalNs()))
	}
	t.Notes = append(t.Notes,
		"extension experiment: deletions are logged records like adds, so the XPLine-friendly advantage carries over")
	return t, nil
}
