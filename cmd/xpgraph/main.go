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
// `xpgraph bench -exp wire -json BENCH_6.json` writes the experiment's
// machine-readable report, and `xpgraph benchgate -new BENCH_6.json
// [-baseline old.json]` enforces the PR-6 acceptance gates on it (binary
// ingest ≥2× JSON decode throughput; varint adjacency ≥1.5× the fixed
// layout's edges per 256 B XPLine; no regression vs the committed
// baseline). Likewise `bench -exp cluster -json BENCH_7.json` +
// `benchgate` gate the PR-7 multi-shard scaling claim (4-shard ingest
// ≥2× a single shard); benchgate dispatches on the report's
// "experiment" field.
package main

import (
	"encoding/json"
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
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "bench":
		err = cmdBench(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "recover":
		err = cmdRecover(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "benchgate":
		err = cmdBenchgate(os.Args[2:])
	case "soak":
		err = cmdSoak(os.Args[2:])
	case "list":
		err = cmdList()
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpgraph:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xpgraph <bench|ingest|query|recover|gen|list> [flags]
  bench   -exp <fig3..fig20|table2|table3|ablation|ext-*|wire|all> [-scale f] [-datasets A,B]
          [-threads n] [-qthreads n] [-format table|csv] [-lat model.json] [-trace out.json]
          [-json out.json]
  ingest  -dataset D [-scale f] [-system s] [-threads n] [-save state.xpg]
  query   -dataset D [-scale f] [-algo bfs|pagerank|cc|onehop|khop|triangles] [-qthreads n]
  recover -dataset D [-scale f] [-load state.xpg]
  gen     -dataset D -out file [-scale f]
  benchgate -new report.json [-baseline committed.json] [-tol f]
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
	format := fs.String("format", "table", "output format: table|csv")
	latPath := fs.String("lat", "", "JSON latency-model override (see xpsim.LoadLatency)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the phase timeline to this file")
	jsonPath := fs.String("json", "", "write the experiment's machine-readable report to this file (single -exp only)")
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
	emit := func(t bench.Table) {
		if *format == "csv" {
			fmt.Printf("# %s: %s\n%s\n", t.Exp, t.Title, t.CSV())
			return
		}
		fmt.Println(t)
	}
	if *exp != "all" {
		t, err := bench.Run(*exp, cfg)
		if err != nil {
			return err
		}
		emit(t)
		if err := writeBenchJSON(*jsonPath, t); err != nil {
			return err
		}
		return writeTrace(*tracePath, cfg.Tracer)
	}
	if *jsonPath != "" {
		return fmt.Errorf("bench: -json needs a single -exp, not 'all'")
	}
	for _, e := range bench.Experiments() {
		fmt.Fprintf(os.Stderr, "running %s: %s...\n", e.Name, e.Title)
		t, err := bench.Run(e.Name, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		emit(t)
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

// writeBenchJSON dumps the experiment's machine-readable payload.
func writeBenchJSON(path string, t bench.Table) error {
	if path == "" {
		return nil
	}
	if t.JSON == nil {
		return fmt.Errorf("bench: experiment %s has no machine-readable report", t.Exp)
	}
	buf, err := json.MarshalIndent(t.JSON, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s report to %s\n", t.Exp, path)
	return nil
}

// cmdBenchgate enforces the acceptance gates on a machine-readable
// bench report, dispatching on its "experiment" field: "wire" (PR-6:
// decode throughput + adjacency density) or "cluster" (PR-7: multi-shard
// ingest scaling). With -baseline it also fails on regressions against a
// committed report of the same experiment. Simulated-clock numbers are
// deterministic at a fixed scale; host-clock ones are only gated in
// ratio form.
func cmdBenchgate(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ExitOnError)
	newPath := fs.String("new", "", "bench report to check (from: xpgraph bench -exp <wire|cluster> -json)")
	basePath := fs.String("baseline", "", "committed baseline report to compare against")
	tol := fs.Float64("tol", 0.05, "allowed fractional regression vs the baseline")
	fs.Parse(args)
	if *newPath == "" {
		return fmt.Errorf("benchgate: -new is required")
	}
	exp, raw, err := readBenchReport(*newPath)
	if err != nil {
		return err
	}
	var baseRaw []byte
	if *basePath != "" {
		baseExp, buf, err := readBenchReport(*basePath)
		if err != nil {
			return err
		}
		if baseExp != exp {
			return fmt.Errorf("benchgate: baseline %s is a %q report, new is %q", *basePath, baseExp, exp)
		}
		baseRaw = buf
	}
	switch exp {
	case "wire":
		return gateWire(raw, baseRaw, *tol)
	case "cluster":
		return gateCluster(raw, baseRaw, *tol)
	case "soak":
		return gateSoak(raw, baseRaw, *tol)
	case "prop":
		return gateProp(raw, baseRaw, *tol)
	default:
		return fmt.Errorf("benchgate: no gates defined for experiment %q", exp)
	}
}

// gateSoak enforces the PR-8 adaptive-admission gates on a soak bench
// report: under the bursty-ingest scenario the AIMD controller must
// achieve >= 1.2x lower p99 read latency than the static defaults (or
// >= 1.2x fewer 429s at equal p99), it must actually have tuned, and
// neither mode may violate the scenario's own SLO. With a baseline the
// adaptive advantage must not regress by more than tol.
func gateSoak(raw, baseRaw []byte, tol float64) error {
	cur, err := decodeReports[bench.SoakReport](raw)
	if err != nil {
		return err
	}

	var fails []string
	check := func(ok bool, format string, a ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf(format, a...))
		}
	}
	byMode := map[string]bench.SoakReport{}
	for _, r := range cur {
		byMode[r.Mode] = r
		fmt.Printf("%-8s %6d reads  p99 %8.2fus  wr p99 %6.2fms  shed %d  tuned %d/%d  violations %d\n",
			r.Mode, r.Reads, r.ReadP99Us, r.WriteP99Ms, r.Shed429, r.TuneDecreases, r.TuneIncreases, r.Violations)
	}
	st, okS := byMode["static"]
	ad, okA := byMode["adaptive"]
	if !okS || !okA {
		return fmt.Errorf("benchgate: soak report needs both a static and an adaptive row")
	}
	check(st.Violations == 0, "static run violated the scenario SLO (%d violations)", st.Violations)
	check(ad.Violations == 0, "adaptive run violated the scenario SLO (%d violations)", ad.Violations)
	check(ad.TuneDecreases > 0, "adaptive run never tuned (0 decreases); the comparison is vacuous")
	check(st.Reads > 0 && ad.Reads > 0, "degenerate run: %d/%d reads", st.Reads, ad.Reads)

	// The headline claim: >= 1.2x lower p99 read latency, or >= 1.2x
	// fewer 429s at (approximately) equal p99.
	p99Win := ad.ReadP99Us > 0 && st.ReadP99Us >= 1.2*ad.ReadP99Us
	shedWin := ad.Shed429 > 0 && float64(st.Shed429) >= 1.2*float64(ad.Shed429) &&
		ad.ReadP99Us <= 1.05*st.ReadP99Us
	check(p99Win || shedWin,
		"adaptive admission is not >= 1.2x better: p99 %.2fus vs static %.2fus, shed %d vs %d",
		ad.ReadP99Us, st.ReadP99Us, ad.Shed429, st.Shed429)

	if baseRaw != nil {
		base, err := decodeReports[bench.SoakReport](baseRaw)
		if err != nil {
			return err
		}
		baseByMode := map[string]bench.SoakReport{}
		for _, r := range base {
			baseByMode[r.Mode] = r
		}
		bs, okS := baseByMode["static"]
		ba, okA := baseByMode["adaptive"]
		// Only comparable at the same virtual horizon (same -scale);
		// otherwise the headline >= 1.2x floor above is the whole gate.
		if okS && okA && ba.ReadP99Us > 0 && ad.ReadP99Us > 0 &&
			ba.HorizonS == ad.HorizonS && bs.HorizonS == st.HorizonS {
			baseAdv := bs.ReadP99Us / ba.ReadP99Us
			curAdv := st.ReadP99Us / ad.ReadP99Us
			check(curAdv >= baseAdv*(1-tol),
				"adaptive p99 advantage regressed: %.2fx vs baseline %.2fx", curAdv, baseAdv)
		}
	}
	return gateVerdict(fails)
}

// gateWire enforces the PR-6 gates: binary ingest >= 2x JSON decode
// throughput, varint adjacency >= 1.5x the fixed layout's edges per
// XPLine, and no regression vs the committed baseline.
func gateWire(raw, baseRaw []byte, tol float64) error {
	cur, err := decodeReports[bench.WireReport](raw)
	if err != nil {
		return err
	}

	var fails []string
	check := func(ok bool, format string, a ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf(format, a...))
		}
	}
	for _, r := range cur {
		// Absolute gates from the PR acceptance criteria.
		check(r.BinSpeedup >= 2.0,
			"%s: binary ingest decode only %.2fx JSON (need >= 2x)", r.Dataset, r.BinSpeedup)
		check(r.Varint.EdgesPerLine >= 1.5*r.Fixed.EdgesPerLine,
			"%s: varint density %.2f edges/line vs fixed %.2f (need >= 1.5x)",
			r.Dataset, r.Varint.EdgesPerLine, r.Fixed.EdgesPerLine)
		check(r.Varint.MediaWriteBytesPerEdge > 0 && r.Fixed.MediaWriteBytesPerEdge > 0,
			"%s: missing media write traffic measurements", r.Dataset)
		fmt.Printf("%-4s bin_speedup %.2fx  density fixed %.2f varint %.2f (%.2fx)  wr B/edge fixed %.1f varint %.1f\n",
			r.Dataset, r.BinSpeedup, r.Fixed.EdgesPerLine, r.Varint.EdgesPerLine,
			r.DensityGain, r.Fixed.MediaWriteBytesPerEdge, r.Varint.MediaWriteBytesPerEdge)
	}

	if baseRaw != nil {
		base, err := decodeReports[bench.WireReport](baseRaw)
		if err != nil {
			return err
		}
		byName := map[string]bench.WireReport{}
		for _, r := range base {
			byName[r.Dataset] = r
		}
		for _, r := range cur {
			b, ok := byName[r.Dataset]
			if !ok {
				continue
			}
			floor := 1 - tol
			check(r.Varint.EdgesPerLine >= b.Varint.EdgesPerLine*floor,
				"%s: varint density regressed: %.3f vs baseline %.3f edges/line",
				r.Dataset, r.Varint.EdgesPerLine, b.Varint.EdgesPerLine)
			check(r.DensityGain >= b.DensityGain*floor,
				"%s: density gain regressed: %.3fx vs baseline %.3fx",
				r.Dataset, r.DensityGain, b.DensityGain)
			// Host-clock throughput is noisy across machines; allow a wide
			// band but catch order-of-magnitude regressions in the ratio.
			check(r.BinSpeedup >= b.BinSpeedup*0.5,
				"%s: binary/JSON decode ratio collapsed: %.2fx vs baseline %.2fx",
				r.Dataset, r.BinSpeedup, b.BinSpeedup)
		}
	}
	return gateVerdict(fails)
}

// gateCluster enforces the PR-7 gates on a cluster-scaling report: the
// sweep must reach 4 shards and ingest at >= 2x the single-shard
// throughput there, and (vs a baseline at the same scale) neither the
// speedup nor the absolute simulated throughput may regress. All
// numbers are simulated-clock, so at a fixed scale they are exact.
func gateCluster(raw, baseRaw []byte, tol float64) error {
	cur, err := decodeReports[bench.ClusterReport](raw)
	if err != nil {
		return err
	}

	var fails []string
	check := func(ok bool, format string, a ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf(format, a...))
		}
	}
	maxShards := map[string]bench.ClusterReport{}
	for _, r := range cur {
		if b, ok := maxShards[r.Dataset]; !ok || r.Shards > b.Shards {
			maxShards[r.Dataset] = r
		}
		fmt.Printf("%-4s %d shard(s)  %.3f sim s  %.2f Medges/s  speedup %.2fx\n",
			r.Dataset, r.Shards, r.SimSeconds, r.MEdgesPerSec, r.Speedup)
	}
	for _, r := range cur {
		m := maxShards[r.Dataset]
		if r.Shards != m.Shards {
			continue
		}
		check(r.Shards >= 4, "%s: sweep tops out at %d shards (need >= 4)", r.Dataset, r.Shards)
		check(r.MEdgesPerSec > 0, "%s: missing throughput measurement", r.Dataset)
		check(r.Speedup >= 2.0,
			"%s: %d-shard ingest only %.2fx a single shard (need >= 2x)", r.Dataset, r.Shards, r.Speedup)
	}

	if baseRaw != nil {
		base, err := decodeReports[bench.ClusterReport](baseRaw)
		if err != nil {
			return err
		}
		type key struct {
			ds     string
			shards int
			edges  int64
		}
		byKey := map[key]bench.ClusterReport{}
		for _, r := range base {
			byKey[key{r.Dataset, r.Shards, r.Edges}] = r
		}
		for _, r := range cur {
			b, ok := byKey[key{r.Dataset, r.Shards, r.Edges}]
			if !ok {
				continue // different scale: nothing comparable
			}
			floor := 1 - tol
			check(r.Speedup >= b.Speedup*floor,
				"%s@%d: scaling regressed: %.2fx vs baseline %.2fx",
				r.Dataset, r.Shards, r.Speedup, b.Speedup)
			check(r.MEdgesPerSec >= b.MEdgesPerSec*floor,
				"%s@%d: ingest throughput regressed: %.2f vs baseline %.2f Medges/s",
				r.Dataset, r.Shards, r.MEdgesPerSec, b.MEdgesPerSec)
		}
	}
	return gateVerdict(fails)
}

// propOverheadCeilNs caps what the property layer may add to one typed
// edge, in simulated ns. PR 9 wrote the cap as a throughput ratio (typed >=
// 0.8x plain), which punishes a faster denominator: the same column-log
// cost is a larger share of a faster pipeline. 0.8x of the 13.18 Medges/s
// plain pipeline the ratio last gated allowed 18.96 ns (of PR 9's own,
// 32.8), so 19 is never looser than the ratio has been.
const propOverheadCeilNs = 19.0

// gateProp enforces the PR-9 property-graph gates on a prop bench
// report: the filtered 2-hop with the label predicate pushed into
// adjacency decode must read >= 2x fewer media lines than the
// read-all-then-filter traversal, and the property layer must add no
// more than propOverheadCeilNs to a typed edge. Both sides are
// simulated-clock / simulated-media, so at a fixed scale the numbers
// are exact; the baseline comparison (pushdown savings, typed overhead
// and typed throughput) only applies at matching edge counts.
func gateProp(raw, baseRaw []byte, tol float64) error {
	cur, err := decodeReports[bench.PropReport](raw)
	if err != nil {
		return err
	}

	var fails []string
	check := func(ok bool, format string, a ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf(format, a...))
		}
	}
	for _, r := range cur {
		fmt.Printf("%-4s rd lines filtered %d / read-all %d (%.2fx)  ingest plain %.2f / typed %.2f Medges/s (%.3fx, +%.2f sim-ns/edge)\n",
			r.Dataset, r.FilteredMediaReadLines, r.ReadAllMediaReadLines, r.MediaReadSavings,
			r.PlainIngestMEdgesPerSec, r.TypedIngestMEdgesPerSec, r.TypedIngestRatio, r.TypedOverheadSimNsPerEdge)
		check(r.FilteredMediaReadLines > 0 && r.ReadAllMediaReadLines > 0,
			"%s: degenerate media measurement (%d filtered / %d read-all lines)",
			r.Dataset, r.FilteredMediaReadLines, r.ReadAllMediaReadLines)
		check(r.MediaReadSavings >= 2.0,
			"%s: filtered 2-hop reads only %.2fx fewer media lines than read-all-then-filter (need >= 2x)",
			r.Dataset, r.MediaReadSavings)
		check(r.FilteredReached > 0,
			"%s: filtered traversal reached nothing; the savings are vacuous", r.Dataset)
		check(r.PlainIngestMEdgesPerSec > 0 && r.TypedIngestMEdgesPerSec > 0,
			"%s: missing ingest throughput measurements", r.Dataset)
		check(r.TypedOverheadSimNsPerEdge <= propOverheadCeilNs,
			"%s: the property layer adds %.2f sim-ns per typed edge (need <= %v)",
			r.Dataset, r.TypedOverheadSimNsPerEdge, propOverheadCeilNs)
	}

	if baseRaw != nil {
		base, err := decodeReports[bench.PropReport](baseRaw)
		if err != nil {
			return err
		}
		type key struct {
			ds    string
			edges int64
		}
		byKey := map[key]bench.PropReport{}
		for _, r := range base {
			byKey[key{r.Dataset, r.Edges}] = r
		}
		for _, r := range cur {
			b, ok := byKey[key{r.Dataset, r.Edges}]
			if !ok {
				continue // different scale: nothing comparable
			}
			floor := 1 - tol
			check(r.MediaReadSavings >= b.MediaReadSavings*floor,
				"%s: pushdown savings regressed: %.2fx vs baseline %.2fx",
				r.Dataset, r.MediaReadSavings, b.MediaReadSavings)
			check(r.TypedOverheadSimNsPerEdge <= b.TypedOverheadSimNsPerEdge*(1+tol),
				"%s: typed ingest overhead regressed: %.2f sim-ns/edge vs baseline %.2f",
				r.Dataset, r.TypedOverheadSimNsPerEdge, b.TypedOverheadSimNsPerEdge)
			check(r.TypedIngestMEdgesPerSec >= b.TypedIngestMEdgesPerSec*floor,
				"%s: typed ingest regressed: %.2f Medges/s vs baseline %.2f",
				r.Dataset, r.TypedIngestMEdgesPerSec, b.TypedIngestMEdgesPerSec)
		}
	}
	return gateVerdict(fails)
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

// gateVerdict prints and folds the failure list into the exit status.
func gateVerdict(fails []string) error {
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "benchgate FAIL:", f)
		}
		return fmt.Errorf("benchgate: %d gate(s) failed", len(fails))
	}
	fmt.Println("benchgate: all gates passed")
	return nil
}

// readBenchReport loads a bench JSON report and returns its experiment
// name plus the raw document for typed decoding.
func readBenchReport(path string) (string, []byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var doc struct {
		Experiment string `json:"experiment"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Experiment == "" {
		return "", nil, fmt.Errorf("%s: not a bench report (no experiment field)", path)
	}
	return doc.Experiment, buf, nil
}

// decodeReports extracts the typed report list from a raw bench report.
func decodeReports[T any](raw []byte) ([]T, error) {
	var doc struct {
		Reports []T `json:"reports"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if len(doc.Reports) == 0 {
		return nil, fmt.Errorf("bench report has no reports")
	}
	return doc.Reports, nil
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
	fmt.Printf("recovered: %d blocks scanned, %d log edges replayed (%d deduped), sim %.3fs\n",
		rep.BlocksScanned, rep.Replayed, rep.DedupSkipped, f(rep.SimNs))
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
