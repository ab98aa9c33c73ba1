// Package soak is the million-user soak harness (DESIGN.md §12): an
// open-loop load driver on the simulated clock that runs configurable
// scenarios — zipfian neighbor/k-hop reads, bursty batched ingest,
// tenant skew, scheduled fault injection — against a full server/
// cluster/ingest/core stack for long simulated horizons, then judges
// the run against a per-scenario SLO spec.
//
// # Determinism
//
// The driver is a single-threaded discrete-event simulation. Every
// request is served synchronously through the real server.ServeHTTP
// (no network, no goroutine races on the driver side), every random
// choice comes from one splitmix64 stream seeded by Scenario.Seed, and
// every latency is computed on the simulated clock from the store's
// own cost model. Same scenario + same seed ⇒ bit-identical Report —
// which is what makes a failing soak replayable: the failure dump
// carries the seed, the full scenario spec, and a Chrome trace of the
// virtual timeline.
//
// # The virtual pipeline model
//
// The real per-shard ingest pipeline batches on the host clock, which
// would make latencies scheduling-dependent. The harness instead pins
// the real pipeline wide open (one Apply per request, no background
// ticks) and enforces the batching/admission knobs under test — Queue
// Cap, BatchEdges, Linger, and optionally the AIMD adaptive controller
// (ingest.Controller, the same policy code the live pipeline runs) —
// on the virtual clock: each admitted write part becomes one or more
// exclusive write windows on its owner shard, sized by the live
// BatchEdges knob and costed by the store's real simulated apply time;
// reads arriving inside a window wait for its end. That is exactly the
// reader-behind-the-write-lock wait the adaptive controller exists to
// shrink, reproduced deterministically.
package soak

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/splitmix"
	"repro/internal/xpsim"
)

// Trace lanes of the virtual timeline (Chrome tid values): one lane
// per shard for write windows, plus event lanes.
const (
	laneShed   = 90
	laneFault  = 91
	laneScrape = 92
	laneRead   = 93
	laneShard  = 100 // + shard id
)

// TuningReport is one shard's final knob set (static or adaptively
// tuned) plus the controller's step counts.
type TuningReport struct {
	Shard      int   `json:"shard"`
	BatchEdges int   `json:"batch_edges"`
	LingerUs   int64 `json:"linger_us"`
	AdmitEdges int   `json:"admit_edges"`
	Decreases  int64 `json:"decreases"`
	Increases  int64 `json:"increases"`
}

// Report is the outcome of one soak run. Every field is computed on
// the simulated clock from deterministic inputs: running the same
// scenario with the same seed twice yields reflect.DeepEqual reports.
type Report struct {
	Scenario string  `json:"scenario"`
	Seed     uint64  `json:"seed"`
	Adaptive bool    `json:"adaptive"`
	HorizonS float64 `json:"horizon_s"`

	Reads         int64 `json:"reads"`
	KHops         int64 `json:"khops"`
	FilteredKHops int64 `json:"filtered_khops"`
	ReadErrors    int64 `json:"read_errors"`

	WriteParts    int64 `json:"write_parts"`
	EdgesOffered  int64 `json:"edges_offered"`
	EdgesAccepted int64 `json:"edges_accepted"`
	Shed429       int64 `json:"shed_429"`
	Shed503       int64 `json:"shed_503"`
	EdgesShed     int64 `json:"edges_shed"`
	WriteErrors   int64 `json:"write_errors"`

	// Virtual overload-breaker transitions (Scenario.BreakerSheds).
	BreakerTrips  int64 `json:"breaker_trips,omitempty"`
	BreakerCloses int64 `json:"breaker_closes,omitempty"`
	BreakerProbes int64 `json:"breaker_probes,omitempty"`

	// Errors histograms error-envelope codes across reads and writes.
	Errors map[string]int64 `json:"errors,omitempty"`

	ReadP50Us float64 `json:"read_p50_us"`
	ReadP95Us float64 `json:"read_p95_us"`
	ReadP99Us float64 `json:"read_p99_us"`
	ReadMaxUs float64 `json:"read_max_us"`
	// TailReadP99Us is the p99 over reads arriving after the sustained
	// overload window closed (0 without an overload phase).
	TailReadP99Us float64 `json:"tail_read_p99_us,omitempty"`
	WriteP50Ms    float64 `json:"write_p50_ms"`
	WriteP99Ms    float64 `json:"write_p99_ms"`
	WriteMaxMs    float64 `json:"write_max_ms"`

	Scrapes             int64    `json:"scrapes"`
	MaxQueueDepthEdges  int64    `json:"max_queue_depth_edges"`
	MaxReplicaLagEpochs int64    `json:"max_replica_lag_epochs"`
	BreakerOpenScrapes  int64    `json:"breaker_open_scrapes"`
	FinalHealth         string   `json:"final_health"`
	FinalEpochVector    []uint64 `json:"final_epoch_vector"`

	FinalTuning []TuningReport `json:"final_tuning"`

	// Violations lists every SLO assertion the run failed; empty means
	// the scenario met its spec.
	Violations []string `json:"violations,omitempty"`
}

// Failed reports whether the run violated its SLO spec.
func (r Report) Failed() bool { return len(r.Violations) > 0 }

// rng is the scenario's one splitmix64 stream plus the draws soak shapes
// from it.
type rng struct{ splitmix.Rand }

func (r *rng) intn(n int) int { return int(r.Next() % uint64(n)) }

// zipfIdx picks an index in [0,n) with a power-law head: skew 0 is
// uniform, larger skews concentrate mass on the low indices.
func (r *rng) zipfIdx(n int, skew float64) int {
	if n <= 1 {
		return 0
	}
	i := int(float64(n) * math.Pow(r.Float(), 1+3*skew))
	if i >= n {
		i = n - 1
	}
	return i
}

// window is one exclusive write (or scrub) hold on a shard's virtual
// timeline: a read arriving inside it waits for end.
type window struct{ start, end int64 }

// pend is an admitted write part that has not virtually completed:
// its edges count toward queue depth until done.
type pend struct {
	done  int64
	edges int
}

// shardModel is one shard's virtual writer state.
type shardModel struct {
	busyUntil int64
	windows   []window
	pend      []pend
	ctl       *ingest.Controller // nil when the scenario is static
}

// Runner executes one scenario. Build with newRunner via Run.
type runner struct {
	sc  Scenario
	srv *server.Server
	cl  *cluster.Cluster
	// faults holds each shard leader's armed fault-injection handle
	// (MediaGuard scenarios only).
	faults []*xpsim.Faults
	shards []*shardModel
	// vbr holds each shard's virtual overload breaker (BreakerSheds
	// scenarios only): the real cluster.Breaker policy clocked by the
	// simulated time, so its trips are deterministic.
	vbr []*cluster.Breaker
	// tailStart is when the sustained-overload window closes (-1 when
	// the scenario has none); reads at or after it feed TailReadP99Us.
	tailStart int64
	rng       rng
	now       int64 // virtual ns

	// Observability surface: the soak registry carries the driver-side
	// SLO histograms the scrape events gather; the tracer records the
	// virtual timeline for the failure dump.
	reg       *obs.Registry
	tracer    *obs.Tracer
	latHist   *obs.HistogramVec
	shedCtr   *obs.Counter
	brShedCtr *obs.Counter
	errCtr    *obs.CounterVec
	readLatNs []int64
	tailLatNs []int64
	writeLat  []int64

	rep Report
}

// Run executes the scenario and returns its report. dumpDir, when
// non-empty, receives a replayable failure dump (report + scenario,
// Chrome trace, metrics) if the run violates its SLO.
func Run(sc Scenario, dumpDir string) (Report, error) {
	sc = sc.withDefaults()
	r, err := newRunner(sc)
	if err != nil {
		return Report{}, err
	}
	defer r.srv.Shutdown()
	r.drive()
	r.finish()
	if r.rep.Failed() && dumpDir != "" {
		if err := r.dump(dumpDir); err != nil {
			return r.rep, fmt.Errorf("soak: writing failure dump: %w", err)
		}
	}
	return r.rep, nil
}

func newRunner(sc Scenario) (*runner, error) {
	perNode := sc.PMEMPerNodeMB << 20
	newNode := func(name string) (*core.Store, *xpsim.Faults, error) {
		m := xpsim.NewMachine(2, perNode, xpsim.DefaultLatency())
		var f *xpsim.Faults
		if sc.MediaGuard {
			f = m.TrackFaults()
		}
		st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
			Name:           name,
			NumVertices:    sc.Vertices,
			ArchiveThreads: 8,
			NUMA:           core.NUMASubgraph,
			AdjBytes:       perNode / 4,
			MediaGuard:     sc.MediaGuard,
			Props:          sc.FilteredKHopFrac > 0,
		})
		return st, f, err
	}

	stores := make([]*core.Store, sc.Shards)
	faults := make([]*xpsim.Faults, sc.Shards)
	for i := range stores {
		var err error
		stores[i], faults[i], err = newNode(fmt.Sprintf("soak-s%d", i))
		if err != nil {
			return nil, fmt.Errorf("soak: building shard %d: %w", i, err)
		}
	}
	// The real pipeline is pinned wide open — one Apply per request, no
	// background ticks — so the harness's virtual model is the only
	// batching in play and every request's simulated cost is exact.
	ccfg := cluster.Config{
		Replicas:   sc.Replicas,
		QueueCap:   1 << 20,
		BatchEdges: 1 << 20,
		Linger:     time.Nanosecond,
	}
	if sc.Replicas > 0 {
		ccfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
			st, _, err := newNode(fmt.Sprintf("soak-s%d-r%d", shardID, replica))
			return st, err
		}
	}
	cl, err := cluster.New(stores, ccfg)
	if err != nil {
		return nil, fmt.Errorf("soak: building cluster: %w", err)
	}
	if err := cl.Start(); err != nil {
		return nil, fmt.Errorf("soak: starting cluster: %w", err)
	}

	r := &runner{
		sc:        sc,
		cl:        cl,
		faults:    faults,
		tailStart: -1,
		rng:       rng{splitmix.Rand(sc.Seed)},
		tracer:    obs.NewTracer(1 << 15),
		reg:       obs.NewRegistry(),
	}
	if sc.OverloadFor > 0 {
		r.tailStart = int64(sc.OverloadAt + sc.OverloadFor)
	}
	if sc.BreakerSheds > 0 {
		// The media arm is irrelevant on the virtual path (Ingest
		// failures surface as write errors, not recordFailure calls);
		// only the overload arm is exercised.
		r.vbr = make([]*cluster.Breaker, sc.Shards)
		for i := range r.vbr {
			r.vbr[i] = cluster.NewBreaker(1<<30, sc.BreakerSheds, sc.BreakerCooldown)
		}
	}
	r.latHist = obs.NewHistogramVec("soak_latency_seconds",
		"Driver-observed request latency on the simulated clock.",
		"op", obs.LogBuckets(1e-6, 2, 24))
	r.shedCtr = obs.NewCounter("soak_shed_writes_total",
		"Write parts shed by the virtual admission threshold (429).")
	r.brShedCtr = obs.NewCounter("soak_breaker_shed_writes_total",
		"Write parts refused by the open overload breaker (503 circuit_open).")
	r.errCtr = obs.NewCounterVec("soak_errors_total",
		"Error-envelope responses by code.", "code")
	r.reg.Register(r.latHist)
	r.reg.Register(r.shedCtr)
	r.reg.Register(r.brShedCtr)
	r.reg.Register(r.errCtr)

	r.shards = make([]*shardModel, sc.Shards)
	for i := range r.shards {
		sm := &shardModel{}
		if sc.Adaptive {
			sm.ctl = ingest.NewController(sc.QueueCap, ingest.Tuning{
				BatchEdges: sc.BatchEdges,
				Linger:     sc.Linger,
				AdmitEdges: sc.QueueCap,
			}, ingest.AdaptiveConfig{Target: sc.Target})
		}
		r.shards[i] = sm
	}

	// Warm the graph before the clock starts so the zipfian head has
	// real adjacency (and, under MediaGuard, real PMEM lines to damage).
	if sc.WarmEdges > 0 {
		warm := make([]graph.Edge, sc.WarmEdges)
		for i := range warm {
			warm[i] = graph.Edge{Src: r.pickVertex(), Dst: graph.VID(r.rng.intn(int(sc.Vertices)))}
		}
		if _, err := cl.IngestLocal(warm); err != nil {
			cl.Close()
			return nil, fmt.Errorf("soak: warm load: %w", err)
		}
	}
	// Typed warm set for the filtered-khop read fraction: one "hot"
	// label over a tenth of the warm volume, so the typed traversals have
	// real labeled adjacency to prune against.
	if sc.FilteredKHopFrac > 0 {
		hot, err := cl.RegisterLabel(soakLabel)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("soak: registering warm label: %w", err)
		}
		n := sc.WarmEdges/10 + 1
		typed := make([]graph.Edge, n)
		labels := make([]uint16, n)
		for i := range typed {
			typed[i] = graph.Edge{Src: r.pickVertex(), Dst: graph.VID(r.rng.intn(int(sc.Vertices)))}
			labels[i] = hot
		}
		if _, err := cl.IngestTyped(typed, labels, nil); err != nil {
			cl.Close()
			return nil, fmt.Errorf("soak: typed warm load: %w", err)
		}
	}

	r.srv = server.NewCluster(cl, server.Config{
		QueryThreads: 8,
		QueueCap:     1 << 20,
		Tracer:       obs.NewTracer(1 << 14),
	})
	r.rep = Report{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		Adaptive: sc.Adaptive,
		HorizonS: sc.Horizon.Seconds(),
		Errors:   map[string]int64{},
	}
	return r, nil
}

// ---- load generation ----

// pickVertex draws a vertex: tenant-skewed range, zipf-skewed rank
// inside it. The hottest vertices of the hottest tenant are the low
// IDs, which is what the "ue"/"slow" faults target.
func (r *runner) pickVertex() graph.VID {
	sc := &r.sc
	span := int(sc.Vertices) / sc.Tenants
	tenant := r.rng.zipfIdx(sc.Tenants, sc.TenantSkew)
	return graph.VID(tenant*span + r.rng.zipfIdx(span, sc.ZipfSkew))
}

// jitter draws a deterministic inter-arrival gap with mean base:
// uniform over [base/2, 3*base/2).
func (r *rng) jitter(base int64) int64 {
	if base <= 0 {
		return math.MaxInt64
	}
	return base/2 + int64(r.Next()%uint64(base))
}

// inBurst reports whether virtual time t falls inside a burst.
func (r *runner) inBurst(t int64) bool {
	sc := &r.sc
	if sc.BurstEvery <= 0 || sc.BurstLen <= 0 || sc.BurstMult <= 1 {
		return false
	}
	return t%int64(sc.BurstEvery) < int64(sc.BurstLen)
}

// inOverload reports whether virtual time t falls inside the sustained
// overload window.
func (r *runner) inOverload(t int64) bool {
	sc := &r.sc
	if sc.OverloadFor <= 0 || sc.OverloadMult <= 1 {
		return false
	}
	return t >= int64(sc.OverloadAt) && t < int64(sc.OverloadAt+sc.OverloadFor)
}

// vclock materializes the virtual ns clock as a time.Time for the
// breaker policy (which takes explicit nows for exactly this reason).
func (r *runner) vclock() time.Time { return time.Unix(0, r.now) }

// drive runs the discrete-event loop to the horizon. Streams are
// merged by next-fire time with a fixed tie order (faults, scrapes,
// writes, reads) so the event sequence — and therefore the rng
// consumption — is identical run to run.
func (r *runner) drive() {
	sc := &r.sc
	horizon := int64(sc.Horizon)
	readBase, writeBase := int64(0), int64(0)
	if sc.ReadsPerSec > 0 {
		readBase = int64(time.Second) / int64(sc.ReadsPerSec)
	}
	if sc.WritesPerSec > 0 {
		writeBase = int64(time.Second) / int64(sc.WritesPerSec)
	}
	const never = int64(math.MaxInt64)
	nextRead, nextWrite, nextScrape := never, never, never
	if readBase > 0 {
		nextRead = r.rng.jitter(readBase)
	}
	if writeBase > 0 {
		nextWrite = r.rng.jitter(writeBase)
	}
	if sc.ScrapeEvery > 0 {
		nextScrape = int64(sc.ScrapeEvery)
	}
	faultIdx := 0
	for {
		nextFault := never
		if faultIdx < len(sc.Faults) {
			nextFault = int64(sc.Faults[faultIdx].At)
		}
		t := nextFault
		kind := 0
		if nextScrape < t {
			t, kind = nextScrape, 1
		}
		if nextWrite < t {
			t, kind = nextWrite, 2
		}
		if nextRead < t {
			t, kind = nextRead, 3
		}
		if t > horizon {
			r.now = horizon
			return
		}
		r.now = t
		switch kind {
		case 0:
			r.fault(sc.Faults[faultIdx])
			faultIdx++
		case 1:
			r.scrape()
			nextScrape += int64(sc.ScrapeEvery)
		case 2:
			r.write()
			base := writeBase
			if r.inOverload(t) {
				base /= int64(sc.OverloadMult)
			} else if r.inBurst(t) {
				base /= int64(sc.BurstMult)
			}
			if base < 1 {
				base = 1
			}
			nextWrite += r.rng.jitter(base)
		case 3:
			r.read()
			nextRead += r.rng.jitter(readBase)
		}
	}
}

// ---- HTTP plumbing (synchronous, in-process) ----

// errEnvelope mirrors the server's uniform error body.
type errEnvelope struct {
	Error struct {
		Code string `json:"code"`
	} `json:"error"`
}

// call serves one request through the real server stack and decodes
// the response into out. A non-2xx response returns its envelope code.
func (r *runner) call(method, path, contentType string, body []byte, out any) (code string) {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	r.srv.ServeHTTP(w, req)
	if w.Code/100 != 2 {
		var env errEnvelope
		if json.Unmarshal(w.Body.Bytes(), &env) == nil && env.Error.Code != "" {
			return env.Error.Code
		}
		return fmt.Sprintf("http_%d", w.Code)
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			return "bad_body"
		}
	}
	return ""
}

// ---- virtual shard model ----

// tuning reads shard si's live knob set.
func (r *runner) tuning(si int) ingest.Tuning {
	if ctl := r.shards[si].ctl; ctl != nil {
		return ctl.Tuning()
	}
	return ingest.Tuning{
		BatchEdges: r.sc.BatchEdges,
		Linger:     r.sc.Linger,
		AdmitEdges: r.sc.QueueCap,
	}
}

// depthAt returns shard si's virtual queue depth (admitted edges not
// yet applied) at time t, retiring completed parts.
func (r *runner) depthAt(si int, t int64) int64 {
	sm := r.shards[si]
	keep := sm.pend[:0]
	var depth int64
	for _, p := range sm.pend {
		if p.done > t {
			keep = append(keep, p)
			depth += int64(p.edges)
		}
	}
	sm.pend = keep
	return depth
}

// waitAt returns how long a read arriving at t waits behind shard si's
// exclusive write/scrub windows, pruning fully past ones.
func (r *runner) waitAt(si int, pruneBefore, t int64) int64 {
	sm := r.shards[si]
	i := 0
	for i < len(sm.windows) && sm.windows[i].end <= pruneBefore {
		i++
	}
	if i > 0 {
		sm.windows = append(sm.windows[:0], sm.windows[i:]...)
	}
	for _, w := range sm.windows {
		if t >= w.start && t < w.end {
			return w.end - t
		}
		if w.start > t {
			break
		}
	}
	return 0
}

// ---- events ----

// soakLabel is the edge label the typed warm set and the filtered-khop
// reads share.
const soakLabel = "hot"

func (r *runner) read() {
	sc := &r.sc
	v := r.pickVertex()
	khop := sc.KHopFrac > 0 && r.rng.Float() < sc.KHopFrac
	filtered := false
	if !khop && sc.FilteredKHopFrac > 0 && r.rng.Float() < sc.FilteredKHopFrac {
		khop, filtered = true, true
	}

	var costNs, waitNs int64
	var code string
	if khop {
		kreq := server.KHopRequest{Root: v, K: 2}
		if filtered {
			r.rep.FilteredKHops++
			kreq.Types = []string{soakLabel}
		} else {
			r.rep.KHops++
		}
		body, _ := json.Marshal(kreq)
		var resp server.KHopResponse
		code = r.call("POST", "/v1/query/khop", "application/json", body, &resp)
		if code == "" {
			costNs = int64(math.Round(resp.SimMs * 1e6))
		}
		// A k-hop touches every partition: it waits for the longest
		// write hold in flight anywhere.
		for si := range r.shards {
			if w := r.waitAt(si, r.now, r.now); w > waitNs {
				waitNs = w
			}
		}
	} else {
		var resp server.NeighborsResponse
		code = r.call("GET", fmt.Sprintf("/v1/vertices/%d/out", v), "", nil, &resp)
		if code == "" {
			costNs = int64(math.Round(resp.SimUs * 1e3))
		}
		waitNs = r.waitAt(r.cl.Owner(v), r.now, r.now)
	}
	r.rep.Reads++
	if code != "" {
		r.rep.ReadErrors++
		r.rep.Errors[code]++
		r.errCtr.With(code).Inc()
		return
	}
	lat := waitNs + costNs
	r.readLatNs = append(r.readLatNs, lat)
	if r.tailStart >= 0 && r.now >= r.tailStart {
		r.tailLatNs = append(r.tailLatNs, lat)
	}
	r.latHist.With("read").Observe(float64(lat) / 1e9)
	if waitNs > 0 {
		r.tracer.EmitPhase("read-wait", laneRead, r.now, lat)
	}
}

func (r *runner) write() {
	sc := &r.sc
	del := sc.DeleteFrac > 0 && r.rng.Float() < sc.DeleteFrac
	// Split the arrival by owner shard; each part is admitted (or shed)
	// against its shard's live threshold independently, like the real
	// router does.
	parts := make([][]graph.Edge, sc.Shards)
	for i := 0; i < sc.WriteBatch; i++ {
		src := r.pickVertex()
		dst := graph.VID(r.rng.intn(int(sc.Vertices)))
		e := graph.Edge{Src: src, Dst: dst}
		if del {
			e = graph.Del(src, dst)
		}
		si := r.cl.Owner(src)
		parts[si] = append(parts[si], e)
	}
	for si, part := range parts {
		if len(part) == 0 {
			continue
		}
		r.rep.WriteParts++
		r.rep.EdgesOffered += int64(len(part))
		// An open overload breaker refuses the part up front — the typed
		// 503 the live handler maps BreakerOpenError to — before the
		// queue is even consulted.
		if r.vbr != nil {
			if ok, _ := r.vbr[si].Allow(r.vclock()); !ok {
				r.rep.Shed503++
				r.rep.EdgesShed += int64(len(part))
				r.rep.Errors["circuit_open"]++
				r.errCtr.With("circuit_open").Inc()
				r.brShedCtr.Inc()
				r.tracer.EmitPhase("shed-503", laneShed, r.now, 0)
				continue
			}
		}
		tun := r.tuning(si)
		depth := r.depthAt(si, r.now)
		if depth+int64(len(part)) > int64(tun.AdmitEdges) {
			r.rep.Shed429++
			r.rep.EdgesShed += int64(len(part))
			r.shedCtr.Inc()
			r.tracer.EmitPhase("shed-429", laneShed, r.now, 0)
			if r.vbr != nil {
				r.vbr[si].NoteShed(r.vclock())
			}
			continue
		}
		if r.vbr != nil {
			r.vbr[si].NoteAdmit()
		}
		if d := depth + int64(len(part)); d > r.rep.MaxQueueDepthEdges {
			r.rep.MaxQueueDepthEdges = d
		}
		sm := r.shards[si]
		start := r.now + int64(tun.Linger)
		if sm.busyUntil > start {
			start = sm.busyUntil
		}
		failed := false
		for off := 0; off < len(part); {
			end := off + tun.BatchEdges
			if end > len(part) {
				end = len(part)
			}
			chunk := part[off:end]
			var resp server.IngestResponse
			code := r.call("POST", "/v1/ingest/bin", ingest.ContentTypeBatch,
				ingest.EncodeBatch(chunk, false), &resp)
			if code != "" {
				r.rep.WriteErrors++
				r.rep.Errors[code]++
				r.errCtr.With(code).Inc()
				failed = true
				break
			}
			simNs := int64(math.Round(resp.SimMs * 1e6))
			sm.windows = append(sm.windows, window{start, start + simNs})
			r.tracer.EmitPhase("apply", int64(laneShard+si), start, simNs)
			if sm.ctl != nil {
				sm.ctl.Observe(depth, len(chunk), time.Duration(simNs))
			}
			start += simNs
			off = end
		}
		if start > sm.busyUntil {
			sm.busyUntil = start
		}
		if failed {
			continue
		}
		sm.pend = append(sm.pend, pend{done: start, edges: len(part)})
		r.rep.EdgesAccepted += int64(len(part))
		lat := start - r.now
		r.writeLat = append(r.writeLat, lat)
		r.latHist.With("write").Observe(float64(lat) / 1e9)
	}
}

// scrape polls the server's health and metrics surfaces — the same
// endpoints a production scraper hits — and folds them into the
// report's queue/breaker/replica-lag aggregates.
func (r *runner) scrape() {
	r.rep.Scrapes++
	var m server.MetricsResponse
	r.call("GET", "/v1/metrics", "", nil, &m)
	var h server.HealthzResponse
	r.call("GET", "/v1/healthz", "", nil, &h)
	if h.Status == "" {
		// healthz answers 503 when readonly; re-read the body anyway.
		h.Status = "unknown"
	}
	r.rep.FinalHealth = h.Status
	if h.BreakerOpen {
		r.rep.BreakerOpenScrapes++
	}
	for _, sh := range h.Shards {
		if len(sh.ReplicaEpochs) == 0 {
			continue
		}
		minRep := sh.ReplicaEpochs[0]
		for _, e := range sh.ReplicaEpochs[1:] {
			if e < minRep {
				minRep = e
			}
		}
		if sh.Epoch > minRep {
			if lag := int64(sh.Epoch - minRep); lag > r.rep.MaxReplicaLagEpochs {
				r.rep.MaxReplicaLagEpochs = lag
			}
		}
	}
	r.tracer.EmitPhase("scrape", laneScrape, r.now, 0)
}

func (r *runner) fault(op FaultOp) {
	switch op.Kind {
	case "ue", "slow":
		// Materialize adjacency into PMEM lines, then damage (or slow)
		// the lines under the hottest vertices — the ones the zipfian
		// read head keeps hitting.
		r.call("POST", "/v1/flush", "", nil, nil)
		for v := graph.VID(0); v < graph.VID(op.Vertices); v++ {
			si := r.cl.Owner(v)
			if r.faults[si] == nil {
				continue
			}
			for _, ln := range r.cl.Shard(si).Store().VertexMediaLines(core.Out, v) {
				if op.Kind == "ue" {
					r.faults[si].InjectUE(ln.Node, ln.Line)
				} else {
					r.faults[si].MarkSlow(ln.Node, ln.Line, op.Mult)
				}
			}
		}
	case "kill":
		r.cl.KillShard(op.Shard)
	case "scrub":
		var resp server.ScrubResponse
		if code := r.call("POST", "/v1/scrub", "", nil, &resp); code != "" {
			r.rep.Errors[code]++
			r.errCtr.With(code).Inc()
			break
		}
		// A scrub holds every shard's write lock; model it as one
		// exclusive window per shard (they scrub in parallel).
		simNs := int64(math.Round(resp.SimMs * 1e6))
		for _, sm := range r.shards {
			start := r.now
			if sm.busyUntil > start {
				start = sm.busyUntil
			}
			sm.windows = append(sm.windows, window{start, start + simNs})
			if start+simNs > sm.busyUntil {
				sm.busyUntil = start + simNs
			}
		}
	}
	r.tracer.EmitPhase("fault:"+op.Kind, laneFault, r.now, 0)
}

// ---- report assembly ----

// quantile returns the q-quantile of ns samples (exact, from the
// sorted copy — not a histogram estimate, so it is deterministic).
func quantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (r *runner) finish() {
	rep := &r.rep
	rep.ReadP50Us = float64(quantile(r.readLatNs, 0.50)) / 1e3
	rep.ReadP95Us = float64(quantile(r.readLatNs, 0.95)) / 1e3
	rep.ReadP99Us = float64(quantile(r.readLatNs, 0.99)) / 1e3
	rep.ReadMaxUs = float64(quantile(r.readLatNs, 1)) / 1e3
	rep.TailReadP99Us = float64(quantile(r.tailLatNs, 0.99)) / 1e3
	rep.WriteP50Ms = float64(quantile(r.writeLat, 0.50)) / 1e6
	rep.WriteP99Ms = float64(quantile(r.writeLat, 0.99)) / 1e6
	rep.WriteMaxMs = float64(quantile(r.writeLat, 1)) / 1e6
	rep.FinalEpochVector = r.cl.EpochVector()
	if rep.FinalHealth == "" {
		rep.FinalHealth = "ok"
	}
	for _, b := range r.vbr {
		v := b.View(r.vclock())
		rep.BreakerTrips += v.Trips
		rep.BreakerCloses += v.Closes
		rep.BreakerProbes += v.Probes
	}
	for si, sm := range r.shards {
		tr := TuningReport{Shard: si}
		tun := r.tuning(si)
		tr.BatchEdges = tun.BatchEdges
		tr.LingerUs = int64(tun.Linger / time.Microsecond)
		tr.AdmitEdges = tun.AdmitEdges
		if sm.ctl != nil {
			tr.Decreases, tr.Increases = sm.ctl.Steps()
		}
		rep.FinalTuning = append(rep.FinalTuning, tr)
	}
	rep.Violations = r.sc.SLO.check(*rep)
}

// check evaluates the SLO spec against a finished report.
func (s SLO) check(rep Report) []string {
	var v []string
	if s.ReadP99Us >= 0 && rep.ReadP99Us > s.ReadP99Us {
		v = append(v, fmt.Sprintf("read p99 %.1fus exceeds the %.1fus budget", rep.ReadP99Us, s.ReadP99Us))
	}
	if s.WriteP99Ms >= 0 && rep.WriteP99Ms > s.WriteP99Ms {
		v = append(v, fmt.Sprintf("write p99 %.2fms exceeds the %.2fms budget", rep.WriteP99Ms, s.WriteP99Ms))
	}
	if s.Max429Frac >= 0 && rep.WriteParts > 0 {
		frac := float64(rep.Shed429) / float64(rep.WriteParts)
		if frac > s.Max429Frac {
			v = append(v, fmt.Sprintf("429 shed rate %.4f exceeds the %.4f budget (%d/%d parts)",
				frac, s.Max429Frac, rep.Shed429, rep.WriteParts))
		}
	}
	if s.MaxErrorFrac >= 0 && rep.Reads > 0 {
		frac := float64(rep.ReadErrors) / float64(rep.Reads)
		if frac > s.MaxErrorFrac {
			v = append(v, fmt.Sprintf("read error rate %.4f exceeds the %.4f budget (%d/%d reads)",
				frac, s.MaxErrorFrac, rep.ReadErrors, rep.Reads))
		}
	}
	if s.MaxReplicaLag >= 0 && rep.MaxReplicaLagEpochs > s.MaxReplicaLag {
		v = append(v, fmt.Sprintf("replica lag %d epochs exceeds the %d budget",
			rep.MaxReplicaLagEpochs, s.MaxReplicaLag))
	}
	if s.TailReadP99Us >= 0 && rep.TailReadP99Us > s.TailReadP99Us {
		v = append(v, fmt.Sprintf("post-overload read p99 %.1fus exceeds the %.1fus recovery budget",
			rep.TailReadP99Us, s.TailReadP99Us))
	}
	return v
}

// dumpBase names the failure artifacts: scenario plus seed, so the
// printed replay command is just `xpgraph soak -scenario X -seed N`.
func (sc Scenario) dumpBase() string {
	return fmt.Sprintf("%s-seed%d", sc.Name, sc.Seed)
}

// dump writes the replayable failure artifacts into dir: the scenario
// + report JSON, the virtual-timeline Chrome trace, and the soak
// registry's Prometheus exposition.
func (r *runner) dump(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, r.sc.dumpBase())

	repJSON, err := json.MarshalIndent(struct {
		Scenario Scenario `json:"scenario"`
		Report   Report   `json:"report"`
	}{r.sc, r.rep}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".report.json", append(repJSON, '\n'), 0o644); err != nil {
		return err
	}

	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, r.tracer.Snapshot()); err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", trace.Bytes(), 0o644); err != nil {
		return err
	}

	var prom bytes.Buffer
	if err := r.reg.WritePrometheus(&prom); err != nil {
		return err
	}
	return os.WriteFile(base+".metrics.prom", prom.Bytes(), 0o644)
}

// DumpFiles lists the artifact paths a failing run writes into dir.
func (sc Scenario) DumpFiles(dir string) []string {
	base := filepath.Join(dir, sc.withDefaults().dumpBase())
	return []string{base + ".report.json", base + ".trace.json", base + ".metrics.prom"}
}
