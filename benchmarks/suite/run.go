package suite

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/graph"
	"repro/internal/xpsim"
)

// Config is one invocation of the benchmark.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is the measuring budget of the round loop. Rounds are
	// whole, so the loop stops when another round would not fit.
	Seconds float64
	// Trace selects the traced run: per-layer metrics instead of
	// end-to-end ones, spans written to TraceOut.
	Trace    bool
	TraceOut string
	// Scale shrinks the workload for tests; 1 is the committed size.
	Scale float64
	// MinRounds overrides minRounds; only the tests set it.
	MinRounds int
	// Log receives the human-readable report (nil: discarded).
	Log io.Writer
}

// minRounds is the fewest rounds a run takes whatever the budget, so
// every median covers at least three write and read phases and two
// analytics phases.
const minRounds = 3

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// roundStats is what one round measured.
type roundStats struct {
	traced       bool
	hasAnalytics bool
	rssMB        float64 // largest VmRSS seen at the round's phase boundaries
	setup        time.Duration
	ingestHost   time.Duration
	catchup      time.Duration
	readHost     time.Duration
	writeHostNs  []int64 // one per batch, follower catch-up included
	writeSimNs   []int64 // one per batch
	readHostNs   []int32 // one per read, in issue order
	readFound    []int32 // vertices each read returned
	ingestSim    int64
	mallocs      uint64
	allocBytes   uint64
	readSim      []int64 // simulated ns, one per read, in issue order
	khopSim      [2]int64
	khopN        [2]int64
	dev          xpsim.Stats // device counters over the write phase, followers included
	an           analyticsResult
}

// simDigest is the part of a round that must repeat bit for bit: the
// simulator and its counters are deterministic, so any difference
// between two rounds of one run is a bug (or a wall-clock dependence
// that crept into the simulated path), not noise.
func (r *roundStats) simDigest() string {
	var h uint64 = 14695981039346656037
	for _, ns := range r.readSim {
		h = (h ^ uint64(ns)) * 1099511628211
	}
	return fmt.Sprintf("ingest=%d reads=%d/%x media=%d", r.ingestSim, len(r.readSim), h, r.dev.MediaWriteLines)
}

// analyticsDigest is the same for a round that ran the analytics phase.
// BFS time is left out: the engine walks its per-node buckets in map
// order, which reorders the next frontier and with it the worker
// assignment, moving the simulated time by ~0.1 % between identical runs
// (visited counts and levels hold). That is the program's, and outside
// what a change to the benchmark's own files can fix.
func (r *roundStats) analyticsDigest() string {
	return fmt.Sprintf("pr=%d visited=%v levels=%v", r.an.prSimNs, r.an.bfsVisited, r.an.bfsLevels)
}

func (r *roundStats) hostTotal() time.Duration { return r.ingestHost + r.readHost + r.an.host() }

// run holds the state of one invocation.
type run struct {
	cfg    Config
	w      Workload
	spec   streamSpec
	tr     *tracer
	log    io.Writer
	rounds []roundStats

	attempted int64
	failed    int64
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

// fail records one failed operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		r.logf("FAIL: "+format, args...)
	}
}

// check counts one verification as an attempted operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// Run executes one workload and returns its result. An error means the
// run could not be carried out at all; failed operations are counted in
// the result instead.
func Run(cfg Config) (Result, error) {
	w, err := ByName(cfg.Workload)
	if err != nil {
		return Result{}, err
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.MinRounds <= 0 {
		cfg.MinRounds = minRounds
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	r := &run{cfg: cfg, w: w, spec: w.scaled(cfg.Scale), log: cfg.Log}
	if cfg.Trace {
		r.tr = newTracer()
	}
	r.logf("workload %s seed %d scale %g: %s", w.Name, cfg.Seed, cfg.Scale, w.Why)

	tg, st, err := r.roundLoop()
	if err != nil {
		return Result{}, err
	}
	defer tg.close()
	fin, err := r.finish(tg, st)
	if err != nil {
		return Result{}, err
	}

	res := Result{Metrics: map[string]Value{}}
	if cfg.Trace {
		layers, err := r.layerMetrics(tg, st, fin)
		if err != nil {
			return Result{}, err
		}
		r.report(res.Metrics, PerLayer, layers)
		if err := r.writeTrace(); err != nil {
			return Result{}, err
		}
	} else {
		r.report(res.Metrics, EndToEnd, r.endToEnd(st, fin))
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	r.logf("ops_attempted %d ops_failed %d", res.Attempted, res.Failed)
	return res, nil
}

// report prints every metric of the table by name with its unit and
// stores it in the result.
func (r *run) report(out map[string]Value, table []Metric, vals map[string]float64) {
	for _, m := range table {
		v, ok := vals[m.Name]
		if !ok {
			panic("suite: metric " + m.Name + " was not measured")
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
		note := ""
		if m.Bound > 0 {
			note = fmt.Sprintf("  (%s is better, bound %g %%)", m.Better, m.Bound*100)
		}
		r.logf("%-44s %16.6g %-8s%s", m.Name, v, m.Unit, note)
	}
}

// roundLoop runs whole rounds until the budget cannot hold another one
// and returns the last round's system, still open, for the finish phase.
// Every round regenerates the stream and rebuilds the stores, so set-up
// is measured as often as everything else. In the traced run every other
// round records spans.
func (r *run) roundLoop() (target, *stream, error) {
	budget := time.Duration(r.cfg.Seconds * float64(time.Second))
	if r.cfg.Trace {
		// The traced run spends the other half on ladders and primitives.
		budget /= 2
	}
	start := time.Now()
	var tg target
	var st *stream
	every := max(r.spec.analyticsEvery, 1)
	if r.cfg.Trace {
		every = 1 // traced rounds are the odd ones; they need the phase too
	}
	// cost[i%every] is what the last round of that kind took: rounds with
	// and without the analytics phase differ by half.
	cost := make([]time.Duration, every)
	for i := 0; ; i++ {
		if tg != nil {
			// Drop the finished round's stores before building the next:
			// two generations alive at once doubled peak RSS.
			tg.close()
			tg, st = nil, nil
		}
		runtime.GC()
		roundStart := time.Now()
		traced := r.cfg.Trace && i%2 == 1
		rs, t, s, err := r.round(i, traced, i%every == 0)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		tg, st = t, s
		r.rounds = append(r.rounds, rs)
		if d0, d := r.rounds[0].simDigest(), rs.simDigest(); d != d0 {
			r.fail("round %d is not a repeat of round 1:\n  %s\n  %s", i+1, d0, d)
		}
		if d0, d := r.rounds[0].analyticsDigest(), rs.analyticsDigest(); rs.hasAnalytics && d != d0 {
			r.fail("round %d analytics are not a repeat of round 1's:\n  %s\n  %s", i+1, d0, d)
		}
		cost[i%every] = time.Since(roundStart)
		r.logf("round %d: %.2fs (setup %.2fs, write %.2fs, read %.2fs, analytics %.2fs)%s", i+1, cost[i%every].Seconds(),
			rs.setup.Seconds(), rs.ingestHost.Seconds(), rs.readHost.Seconds(), rs.an.host().Seconds(),
			map[bool]string{true: " traced"}[traced])
		next := cost[(i+1)%every]
		if next == 0 {
			next = cost[i%every]
		}
		if i+1 >= r.cfg.MinRounds && time.Since(start)+next > budget {
			return tg, st, nil
		}
	}
}

// round is one build -> write phase (with interleaved reads) -> tail
// reads -> analytics pass on fresh stores.
func (r *run) round(idx int, traced, withAnalytics bool) (roundStats, target, *stream, error) {
	rs := roundStats{traced: traced, hasAnalytics: withAnalytics}
	tr := r.tr
	if !traced {
		tr = nil
	}
	roundSpan := tr.open(fmt.Sprintf("round %d", idx+1), -1)
	defer tr.close(roundSpan)

	t0 := time.Now()
	st := generate(r.spec, streamSeed(r.w.Name, r.cfg.Seed))
	tg, err := r.w.build(r.spec)
	if err != nil {
		return rs, nil, nil, err
	}
	if err := tg.preload(st.preload); err != nil {
		tg.close()
		return rs, nil, nil, err
	}
	rs.setup = time.Since(t0)
	tr.add("setup", time.Now(), rs.setup, roundSpan, -1)
	sampleRSS := func() {
		if mb, err := procStatusMB("VmRSS"); err == nil {
			rs.rssMB = max(rs.rssMB, mb)
		}
	}
	sampleRSS()

	devBefore := deviceStats(tg)
	reads := len(st.batches)*r.spec.readsPerBatch + len(st.tail)
	rs.readSim = make([]int64, 0, reads)
	rs.readHostNs = make([]int32, 0, reads)
	rs.readFound = make([]int32, 0, reads)
	rs.writeHostNs = make([]int64, 0, len(st.batches))
	rs.writeSimNs = make([]int64, 0, len(st.batches))
	phase := tr.open("write+read", roundSpan)
	var ms runtime.MemStats
	for i := range st.batches {
		b := &st.batches[i]
		runtime.ReadMemStats(&ms)
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		wr, err := tg.write(b)
		r.attempted++
		if err != nil {
			r.fail("write %d: %v", i, err)
			continue
		}
		runtime.ReadMemStats(&ms)
		rs.mallocs += ms.Mallocs - mallocs
		rs.allocBytes += ms.TotalAlloc - bytes
		rs.ingestHost += wr.host
		rs.writeHostNs = append(rs.writeHostNs, int64(wr.host))
		rs.writeSimNs = append(rs.writeSimNs, wr.simNs)
		rs.catchup += wr.catchup
		rs.ingestSim += wr.simNs
		tr.add(writeSpanNames[b.kind], time.Now(), wr.host, phase, i)
		r.reads(tg, b.reads, &rs, tr, phase)
		sampleRSS()
	}
	tr.close(phase)
	rs.dev = deviceStats(tg).Sub(devBefore)
	sampleRSS()

	if err := tg.prepare(); err != nil {
		tg.close()
		return rs, nil, nil, err
	}
	phase = tr.open("tail reads", roundSpan)
	r.reads(tg, st.tail, &rs, tr, phase)
	tr.close(phase)
	sampleRSS()

	if withAnalytics {
		t0 = time.Now()
		rs.an, err = tg.analytics(st.roots, pagerankIters, false)
		r.attempted += int64(len(st.roots)) + 1
		if err != nil {
			r.fail("analytics: %v", err)
		}
		tr.add("analytics", time.Now(), time.Since(t0), roundSpan, -1)
		sampleRSS()
	}
	return rs, tg, st, nil
}

var writeSpanNames = [...]string{
	writeBin:   "write bin",
	writeJSON:  "write json",
	writeTyped: "write typed",
}

var readSpanNames = [...]string{
	readOut:          "read out",
	readIn:           "read in",
	readKHop:         "read khop",
	readKHopFiltered: "read khop filtered",
}

func (r *run) reads(tg target, ops []readOp, rs *roundStats, tr *tracer, phase int) {
	for _, op := range ops {
		rr, err := tg.read(op)
		r.attempted++
		if err != nil {
			r.fail("read %s of vertex %d: %v", readSpanNames[op.kind], op.v, err)
			// Keep the per-read slices aligned with the stream.
			rs.readSim = append(rs.readSim, 0)
			rs.readHostNs = append(rs.readHostNs, 0)
			rs.readFound = append(rs.readFound, 0)
			continue
		}
		rs.readHost += rr.host
		if k := int(op.kind) - readKHop; k >= 0 {
			rs.khopSim[k] += rr.simNs
			rs.khopN[k]++
		}
		tr.add(readSpanNames[op.kind], time.Now(), rr.host, phase, len(rs.readSim))
		rs.readSim = append(rs.readSim, rr.simNs)
		rs.readHostNs = append(rs.readHostNs, int32(min(rr.host, 1<<31-1)))
		rs.readFound = append(rs.readFound, int32(rr.found))
	}
}

// deviceStats sums the device counters of every machine of the system,
// followers included. TotalStats drains the XPBuffers so buffered lines
// are counted as written; that perturbs later device state the same way
// in every run.
func deviceStats(tg target) xpsim.Stats {
	var s xpsim.Stats
	for _, m := range tg.machines() {
		s.Add(m.TotalStats())
	}
	return s
}

// lastAnalytics is the latest round that ran the analytics phase; round 1
// always does.
func (r *run) lastAnalytics() *roundStats {
	for i := len(r.rounds) - 1; ; i-- {
		if r.rounds[i].hasAnalytics {
			return &r.rounds[i]
		}
	}
}

// endToEnd folds the rounds and the finish phase into the end-to-end
// metrics. Host-side numbers are medians over rounds; simulated and
// counted ones are the last round's (every round's, by the digest check).
func (r *run) endToEnd(st *stream, fin *finishStats) map[string]float64 {
	ops := float64(st.userOps)
	last := &r.rounds[len(r.rounds)-1]
	perRound := func(f func(*roundStats) float64) float64 { return medianOver(r.rounds, f) }
	readUs := make([]float64, len(last.readSim))
	for i, ns := range last.readSim {
		readUs[i] = float64(ns) / 1e3
	}
	analyticsRounds := 0
	for i := range r.rounds {
		if r.rounds[i].hasAnalytics {
			analyticsRounds++
		}
	}
	r.logf("medians over %d rounds (analytics: %d); read percentiles over %d reads, %d beyond the 99th (plain order statistics: p50 %.3f us, p99 %.3f us)",
		len(r.rounds), analyticsRounds, len(readUs), len(readUs)/100, quantile(readUs, 0.50), quantile(readUs, 0.99))
	r.logf("process VmHWM %.0f MB; connected components %.3f ms simulated (verified, not part of analytics_sim_ms)",
		fin.peakRSSMB, float64(fin.cc.ccSimNs)/1e6)
	m := map[string]float64{
		"setup_s":                          perRound(func(x *roundStats) float64 { return x.setup.Seconds() }),
		"ingest_sim_medges_per_s":          ratio(ops*1e3, float64(last.ingestSim)),
		"ingest_host_allocs_per_edge":      perRound(func(x *roundStats) float64 { return float64(x.mallocs) / ops }),
		"ingest_host_alloc_bytes_per_edge": perRound(func(x *roundStats) float64 { return float64(x.allocBytes) / ops }),
		"read_sim_p50_us":                  bandMean(readUs, 0.25, 0.75),
		"read_sim_p99_us":                  bandMean(readUs, 0.985, 0.995),
		"analytics_sim_ms":                 float64(r.lastAnalytics().an.simNs()) / 1e6,
		"recovery_sim_ms":                  float64(fin.recovery.SimNs) / 1e6,
		"media_write_bytes_per_edge":       float64(last.dev.MediaWriteBytes()) / ops,
		"dram_bytes_per_edge":              ratio(float64(fin.dramBytes), float64(st.liveEdge)),
		"pmem_bytes_per_edge":              ratio(float64(fin.pmemBytes), float64(st.liveEdge)),
		"fig11_speedup_vs_graphone_p":      fin.fig11Speedup,
		"peak_rss_mb":                      perRound(func(x *roundStats) float64 { return x.rssMB }),
	}
	// Host time of the phases is the traced run's business (client.*):
	// this VM's clock is too loose to bound it. Printed for the reader.
	for name, v := range r.clientHost(st, r.rounds) {
		r.logf("%-44s %16.6g (unbounded, see --trace 1)", name, v)
	}
	return m
}

// clientHost is the closed-loop client's view of host time: wall time
// inside write, read and analytics calls per round, medians over the
// given rounds.
func (r *run) clientHost(st *stream, rounds []roundStats) map[string]float64 {
	ops, reads := float64(st.userOps), float64(len(rounds[0].readSim))
	var an []float64
	for i := range rounds {
		if rounds[i].hasAnalytics {
			an = append(an, float64(rounds[i].an.host())/1e6)
		}
	}
	return map[string]float64{
		"client.ingest_host_ns_per_edge": medianOver(rounds, func(x *roundStats) float64 { return float64(x.ingestHost) / ops }),
		"client.read_host_us_per_op":     medianOver(rounds, func(x *roundStats) float64 { return float64(x.readHost) / 1e3 / reads }),
		"client.analytics_host_ms":       median(an),
	}
}

// medianOver is the median over rounds of one per-round quantity.
func medianOver(rounds []roundStats, f func(*roundStats) float64) float64 {
	xs := make([]float64, len(rounds))
	for i := range rounds {
		xs[i] = f(&rounds[i])
	}
	return median(xs)
}

// procStatusMB reads one memory field of /proc/self/status in MB:
// VmHWM, the resident-set high-water mark, or VmRSS, its current value.
func procStatusMB(field string) (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(field+":")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

func (r *run) writeTrace() error {
	if r.cfg.TraceOut == "" {
		return nil
	}
	f, err := os.Create(r.cfg.TraceOut)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := r.tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	r.logf("wrote %d spans to %s (%d call spans over the cap dropped)", len(r.tr.spans), r.cfg.TraceOut, r.tr.dropped)
	return f.Close()
}

// sampleVertices draws n seeded vertices for the reference comparison.
func sampleVertices(seed uint64, numV uint32, n int) []graph.VID {
	rg := rng(seed ^ 0x5eed5a3b1e)
	out := make([]graph.VID, n)
	for i := range out {
		out[i] = graph.VID(rg.intn(int(numV)))
	}
	return out
}
