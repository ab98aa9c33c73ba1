// Command xpgraph drives the XPGraph reproduction: it generates workloads,
// ingests and queries graphs on the simulated Optane machine, exercises
// crash recovery, and regenerates every table and figure of the paper's
// evaluation.
//
// Usage:
//
//	xpgraph bench   -exp fig11 [-scale 1] [-datasets TT,FS] [-threads 16]
//	xpgraph bench   -exp all   # every experiment, printed in order
//	xpgraph ingest  -dataset FS [-scale 0.25] [-system xpgraph|xpgraph-b|graphone-p|graphone-n|graphone-d]
//	xpgraph query   -dataset FS [-scale 0.25] [-algo bfs|pagerank|cc|onehop]
//	xpgraph recover -dataset FS [-scale 0.25]
//	xpgraph gen     -dataset FS -out fs.bin [-scale 1]
//	xpgraph list    # datasets and experiments
//
// `xpgraph bench -exp <name|all> -json report.json` also writes every
// measured number as a row, one JSON object a line, and `xpgraph benchgate
// -new report.json [-baseline BENCH_<pr>.json]` holds the rows to the
// floors and bounds the experiments declare (DESIGN.md §3.1).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analytics"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphone"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/soak"
	"repro/internal/xpsim"
)

func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, "xpgraph:", err)
	}
	os.Exit(exitCode(err))
}

// errUsage is run's answer to a command line that names no command; usage
// has been printed.
var errUsage = errors.New("usage")

// exitCode is the process's exit status: 0, 2 for a usage error, 1 for a
// command that failed (a gate among them).
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	return 1
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return errUsage
	}
	switch args[0] {
	case "bench":
		return cmdBench(args[1:])
	case "ingest":
		return cmdIngest(args[1:])
	case "query":
		return cmdQuery(args[1:])
	case "recover":
		return cmdRecover(args[1:])
	case "gen":
		return cmdGen(args[1:])
	case "benchgate":
		return cmdBenchgate(args[1:])
	case "soak":
		return cmdSoak(args[1:])
	case "list":
		return cmdList()
	case "-h", "--help", "help":
		usage()
		return nil
	}
	usage()
	return errUsage
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xpgraph <bench|ingest|query|recover|gen|list> [flags]
  bench   -exp <fig3..fig20|table2|table3|ablation|ext-*|wire|cluster|soak|prop|all> [-scale f]
          [-datasets A,B] [-threads n] [-qthreads n] [-lat model.json] [-trace out.json]
          [-json rows.json]
  ingest  -dataset D [-scale f] [-system s] [-threads n] [-save state.xpg]
  query   -dataset D [-scale f] [-algo bfs|pagerank|cc|onehop|khop|triangles] [-qthreads n]
  recover -dataset D [-scale f] [-load state.xpg]
  gen     -dataset D -out file [-scale f]
  benchgate -new rows.json [-baseline BENCH_<pr>.json]
  soak    -scenario <short-mix|bursty-ingest|fault-storm|sustained-overload> [-seed n] [-adaptive]
          [-horizon d] [-dump dir] [-json out.json]
  list`)
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment name or 'all'")
	scale := fs.Float64("scale", 1.0, "edge-count scale factor")
	datasets := fs.String("datasets", "", "comma-separated dataset filter")
	threads := fs.Int("threads", 16, "archive threads")
	qthreads := fs.Int("qthreads", 96, "query threads")
	latPath := fs.String("lat", "", "JSON latency-model override (see xpsim.LoadLatency)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the phase timeline to this file")
	jsonPath := fs.String("json", "", "write every measured number to this file, one JSON row a line (input of benchgate)")
	fs.Parse(args)

	cfg := bench.Config{EdgeScale: *scale, ArchiveThreads: *threads, QueryThreads: *qthreads}
	if *tracePath != "" {
		// A full experiment emits a span per phase per batch; size the
		// ring well past fig11's batch count so nothing is overwritten.
		cfg.Tracer = obs.NewTracer(1 << 16)
	}
	if *latPath != "" {
		lat, err := xpsim.LoadLatency(*latPath)
		if err != nil {
			return err
		}
		cfg.Latency = &lat
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	exps := []bench.Experiment{{Name: *exp}}
	if *exp == "all" {
		exps = bench.Experiments()
	}
	var rows []bench.Row
	for _, e := range exps {
		if *exp == "all" {
			fmt.Fprintf(os.Stderr, "running %s: %s...\n", e.Name, e.Title)
		}
		t, err := bench.Run(e.Name, cfg)
		if err != nil {
			return err
		}
		fmt.Println(t)
		rows = append(rows, t.Report()...)
	}
	if *jsonPath != "" {
		var buf bytes.Buffer
		if err := bench.WriteRows(&buf, rows); err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(rows), *jsonPath)
	}
	return writeTrace(*tracePath, cfg.Tracer)
}

// writeTrace dumps the tracer ring as Chrome trace-event JSON, viewable
// in chrome://tracing or https://ui.perfetto.dev.
func writeTrace(path string, t *obs.Tracer) error {
	if path == "" || t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := t.Snapshot()
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d phase spans to %s (dropped %d; open in chrome://tracing)\n",
		len(spans), path, t.Dropped())
	return nil
}

// cmdBenchgate runs the one gate (bench.Gate) over a row report: every
// declared floor, and with -baseline every declared bound against the
// committed trajectory file and every row of it the report has lost.
func cmdBenchgate(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ExitOnError)
	newPath := fs.String("new", "", "row report to check (from: xpgraph bench -json)")
	basePath := fs.String("baseline", "", "committed BENCH_<pr>.json to compare against")
	fs.Parse(args)
	if *newPath == "" {
		return fmt.Errorf("benchgate: -new is required")
	}
	rows, err := bench.ReadRows(*newPath)
	if err != nil {
		return err
	}
	var base []bench.Row
	if *basePath != "" {
		if base, err = bench.ReadRows(*basePath); err != nil {
			return err
		}
	}
	if fails := bench.Gate(rows, base); len(fails) > 0 {
		return fmt.Errorf("benchgate: %d gate(s) failed:\n  %s", len(fails), strings.Join(fails, "\n  "))
	}
	floors, bounds := 0, 0
	for _, r := range rows {
		if r.Floor != nil {
			floors++
		}
		if r.Bound != nil {
			bounds++
		}
	}
	fmt.Printf("benchgate: all gates passed (%d rows: %d floors, %d bounds against %d baseline rows)\n",
		len(rows), floors, bounds, len(base))
	return nil
}

// cmdSoak runs one soak scenario (internal/soak) against the full
// server/cluster/ingest/core stack and reports its SLO verdict: exit 0
// when the scenario meets its spec, exit 1 with the violations (and a
// replayable failure dump when -dump is set) otherwise.
func cmdSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ExitOnError)
	name := fs.String("scenario", soak.ShortMix, "builtin scenario: "+strings.Join(soak.Names(), ", "))
	seed := fs.Uint64("seed", 0, "override the scenario seed (0 keeps the builtin default)")
	adaptive := fs.Bool("adaptive", false, "enable the AIMD adaptive admission controller (DESIGN.md §12.3)")
	horizon := fs.Duration("horizon", 0, "override the virtual horizon (0 keeps the builtin default)")
	dump := fs.String("dump", "", "directory for the failure dump (report+scenario JSON, Chrome trace, metrics) on SLO violation")
	jsonPath := fs.String("json", "", "write the report JSON to this file")
	fs.Parse(args)

	sc, err := soak.ByName(*name)
	if err != nil {
		return err
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *adaptive {
		sc.Adaptive = true
	}
	if *horizon > 0 {
		sc.Horizon = *horizon
	}
	rep, err := soak.Run(sc, *dump)
	if err != nil {
		return err
	}
	fmt.Printf("soak %s seed %d (adaptive=%v): %d reads, %d khops, %d edges accepted over %.1fs virtual\n",
		rep.Scenario, rep.Seed, rep.Adaptive, rep.Reads, rep.KHops, rep.EdgesAccepted, rep.HorizonS)
	fmt.Printf("  read p50/p95/p99/max %.2f/%.2f/%.2f/%.2f us   write p50/p99 %.2f/%.2f ms\n",
		rep.ReadP50Us, rep.ReadP95Us, rep.ReadP99Us, rep.ReadMaxUs, rep.WriteP50Ms, rep.WriteP99Ms)
	fmt.Printf("  shed 429 %d/%d parts   read errors %d/%d   health %s   max queue %d edges\n",
		rep.Shed429, rep.WriteParts, rep.ReadErrors, rep.Reads, rep.FinalHealth, rep.MaxQueueDepthEdges)
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rep.Failed() {
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "soak SLO FAIL:", v)
		}
		if *dump != "" {
			fmt.Fprintf(os.Stderr, "soak: dump in %s; replay with: xpgraph soak -scenario %s -seed %d\n",
				*dump, sc.Name, sc.Seed)
		}
		return fmt.Errorf("soak: %d SLO violation(s)", len(rep.Violations))
	}
	fmt.Println("soak: SLO met")
	return nil
}

// cliAdjBytes sizes adjacency regions consistently across CLI commands so
// that `recover -load` re-attaches to regions created by `ingest -save`.
func cliAdjBytes(edges int) int64 { return int64(edges)*16 + (16 << 20) }

func loadDataset(name string, scale float64) (gen.Dataset, []graph.Edge, error) {
	ds, err := gen.ByName(name)
	if err != nil {
		return gen.Dataset{}, nil, err
	}
	n := int64(float64(ds.Edges) * scale)
	if n < 1024 {
		n = 1024
	}
	return ds, gen.RMAT(ds.Scale, n, ds.Seed), nil
}

func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dataset := fs.String("dataset", "FS", "catalog dataset")
	scale := fs.Float64("scale", 0.25, "edge-count scale factor")
	system := fs.String("system", "xpgraph", "xpgraph|xpgraph-b|xpgraph-d|graphone-p|graphone-n|graphone-d")
	threads := fs.Int("threads", 16, "archive threads")
	save := fs.String("save", "", "write the simulated PMEM to this file after ingesting (xpgraph systems only)")
	fs.Parse(args)

	ds, edges, err := loadDataset(*dataset, *scale)
	if err != nil {
		return err
	}
	m := xpsim.NewMachine(2, int64(len(edges))*48+(256<<20), xpsim.DefaultLatency())
	adjBytes := int64(len(edges))*32 + (32 << 20)

	switch *system {
	case "xpgraph", "xpgraph-b", "xpgraph-d":
		opts := core.Options{Name: "cli", NumVertices: ds.NumVertices(),
			ArchiveThreads: *threads, NUMA: core.NUMASubgraph, AdjBytes: cliAdjBytes(len(edges)),
			Battery: *system == "xpgraph-b"}
		var h *pmem.Heap
		if *system == "xpgraph-d" {
			opts.Medium = core.MediumDRAM
			opts.NUMA = core.NUMANone
		} else {
			h = pmem.NewHeap(m)
		}
		s, err := core.New(m, h, nil, opts)
		if err != nil {
			return err
		}
		m.ResetStats()
		rep, err := s.Ingest(edges)
		if err != nil {
			return err
		}
		st := m.TotalStats()
		u := s.MemUsage()
		fmt.Printf("%s ingested %d edges of %s\n", *system, rep.Edges, ds.Full)
		fmt.Printf("  sim total %.3fs (log %.3fs, buffer %.3fs, flush %.3fs; %d batches, %d flush-alls)\n",
			f(rep.TotalNs()), f(rep.LogNs), f(rep.BufferNs), f(rep.FlushNs), rep.Batches, rep.FlushAlls)
		fmt.Printf("  pmem media read %.3f GB, write %.3f GB\n",
			float64(st.MediaReadBytes())/1e9, float64(st.MediaWriteBytes())/1e9)
		fmt.Printf("  memory: meta %.1f MB DRAM, vbuf %.1f MB DRAM, elog %.1f MB, pblk %.1f MB PMEM\n",
			mbf(u.MetaDRAM), mbf(u.VbufDRAM), mbf(u.ElogPMEM), mbf(u.PblkPMEM))
		if *save != "" {
			if h == nil {
				return fmt.Errorf("-save needs a PMEM-backed system")
			}
			if err := pmem.SaveFile(*save, h); err != nil {
				return err
			}
			fmt.Printf("  simulated PMEM saved to %s (recover with: xpgraph recover -load %s)\n", *save, *save)
		}
	case "graphone-p", "graphone-n", "graphone-d":
		variant := map[string]graphone.Variant{
			"graphone-p": graphone.VariantP,
			"graphone-n": graphone.VariantN,
			"graphone-d": graphone.VariantD,
		}[*system]
		var h *pmem.Heap
		if variant != graphone.VariantD {
			h = pmem.NewHeap(m)
		}
		s, err := graphone.New(m, h, nil, graphone.Options{Name: "cli",
			NumVertices: ds.NumVertices(), ArchiveThreads: *threads,
			AdjBytes: adjBytes, Variant: variant})
		if err != nil {
			return err
		}
		m.ResetStats()
		rep, err := s.Ingest(edges)
		if err != nil {
			return err
		}
		st := m.TotalStats()
		fmt.Printf("%s ingested %d edges of %s\n", *system, rep.Edges, ds.Full)
		fmt.Printf("  sim total %.3fs (log %.3fs, archive %.3fs; %d batches)\n",
			f(rep.TotalNs()), f(rep.LogNs), f(rep.ArchiveNs), rep.Batches)
		fmt.Printf("  pmem media read %.3f GB, write %.3f GB\n",
			float64(st.MediaReadBytes())/1e9, float64(st.MediaWriteBytes())/1e9)
	default:
		return fmt.Errorf("unknown system %q", *system)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dataset := fs.String("dataset", "FS", "catalog dataset")
	scale := fs.Float64("scale", 0.25, "edge-count scale factor")
	algo := fs.String("algo", "bfs", "bfs|pagerank|cc|onehop|khop|triangles")
	qthreads := fs.Int("qthreads", 96, "query threads")
	fs.Parse(args)

	ds, edges, err := loadDataset(*dataset, *scale)
	if err != nil {
		return err
	}
	m := xpsim.NewMachine(2, int64(len(edges))*48+(256<<20), xpsim.DefaultLatency())
	s, err := core.New(m, pmem.NewHeap(m), nil, core.Options{Name: "cli",
		NumVertices: ds.NumVertices(), ArchiveThreads: 16, NUMA: core.NUMASubgraph,
		AdjBytes: int64(len(edges))*16 + (32 << 20)})
	if err != nil {
		return err
	}
	if _, err := s.Ingest(edges); err != nil {
		return err
	}
	e := analytics.NewEngine(s, &m.Lat, *qthreads)
	switch *algo {
	case "bfs":
		r := e.BFS(1)
		fmt.Printf("BFS from 1 on %s: visited %d vertices in %d levels, sim %.3fs\n",
			ds.Full, r.Visited, r.Levels, f(r.SimNs))
	case "pagerank":
		r := e.PageRank(10)
		best, bi := 0.0, 0
		for i, v := range r.Ranks {
			if v > best {
				best, bi = v, i
			}
		}
		fmt.Printf("PageRank(10) on %s: top vertex %d (rank %.6f), sim %.3fs\n", ds.Full, bi, best, f(r.SimNs))
	case "cc":
		r := e.CC()
		fmt.Printf("CC on %s: %d components, sim %.3fs\n", ds.Full, r.Components, f(r.SimNs))
	case "onehop":
		r := e.OneHop(1<<14, 0xBEEF)
		fmt.Printf("1-hop on %s: %d queries touched %d neighbors, sim %.3fs\n",
			ds.Full, r.Queried, r.Touched, f(r.SimNs))
	case "khop":
		r := e.KHop(1, 3)
		fmt.Printf("3-hop from 1 on %s: reached %d vertices %v, sim %.3fs\n",
			ds.Full, r.Reached, r.PerHop, f(r.SimNs))
	case "triangles":
		r := e.Triangles()
		fmt.Printf("triangles on %s: %d, sim %.3fs\n", ds.Full, r.Triangles, f(r.SimNs))
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	return nil
}

func cmdRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	dataset := fs.String("dataset", "FS", "catalog dataset")
	scale := fs.Float64("scale", 0.25, "edge-count scale factor")
	load := fs.String("load", "", "recover from a PMEM image written by 'ingest -save' instead of ingesting in-process")
	fs.Parse(args)

	ds, edges, err := loadDataset(*dataset, *scale)
	if err != nil {
		return err
	}
	opts := core.Options{Name: "cli", NumVertices: ds.NumVertices(),
		ArchiveThreads: 16, NUMA: core.NUMASubgraph,
		AdjBytes: cliAdjBytes(len(edges))}

	var m *xpsim.Machine
	var h *pmem.Heap
	if *load != "" {
		// Cross-process: only the image file survived the "power loss".
		m, h, err = pmem.LoadFile(*load)
		if err != nil {
			return err
		}
		fmt.Printf("loaded simulated PMEM from %s; recovering...\n", *load)
	} else {
		m = xpsim.NewMachine(2, int64(len(edges))*48+(256<<20), xpsim.DefaultLatency())
		h = pmem.NewHeap(m)
		s, err := core.New(m, h, nil, opts)
		if err != nil {
			return err
		}
		if _, err := s.Ingest(edges); err != nil {
			return err
		}
		fmt.Printf("ingested %d edges of %s; simulating power failure...\n", len(edges), ds.Full)
		s = nil // crash: every DRAM structure is gone
	}
	_ = ds
	rs, rep, err := core.Recover(m, h, nil, opts)
	if err != nil {
		return err
	}
	fmt.Printf("recovered: %d blocks scanned in %.3f ms, %d log edges replayed in %.3f ms, property columns attached in %.3f ms, sim %.3fs\n",
		rep.BlocksScanned, float64(rep.ScanNs)/1e6, rep.Replayed, float64(rep.ReplayNs)/1e6, float64(rep.PropsNs)/1e6, f(rep.SimNs))
	vctx := xpsim.NewCtx(xpsim.NodeUnbound)
	vrep, err := rs.Verify(vctx)
	if err != nil {
		return fmt.Errorf("post-recovery verify FAILED: %w", err)
	}
	fmt.Printf("verified: %d chains, %d PMEM records, %d buffered records — consistent\n",
		vrep.ChainsWalked, vrep.AdjRecords, vrep.BufRecords)
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dataset := fs.String("dataset", "FS", "catalog dataset")
	scale := fs.Float64("scale", 1.0, "edge-count scale factor")
	out := fs.String("out", "", "output file (binary edge list)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	ds, edges, err := loadDataset(*dataset, *scale)
	if err != nil {
		return err
	}
	if err := gen.WriteEdgeFile(*out, edges); err != nil {
		return err
	}
	fmt.Printf("wrote %d edges of %s to %s (%.1f MB)\n", len(edges), ds.Full, *out,
		float64(len(edges)*8)/1e6)
	return nil
}

func cmdList() error {
	fmt.Println("datasets (scaled ~1/1024 stand-ins of Table II):")
	for _, d := range gen.Catalog() {
		fmt.Printf("  %-4s %-12s 2^%d vertices, %d edges (paper: %s vertices, %s edges)\n",
			d.Name, d.Full, d.Scale, d.Edges, d.PaperV, d.PaperE)
	}
	fmt.Println("experiments:")
	for _, e := range bench.Experiments() {
		fmt.Printf("  %-7s %s\n", e.Name, e.Title)
	}
	return nil
}

func f(ns int64) float64  { return float64(ns) / 1e9 }
func mbf(b int64) float64 { return float64(b) / 1e6 }
