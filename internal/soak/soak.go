// Package soak is the million-user soak harness (DESIGN.md §12): scenarios
// on the simulated clock judged against per-scenario SLOs. An open-loop
// load driver runs scenarios — zipfian neighbor/k-hop reads, bursty batched
// ingest, tenant skew, scheduled fault injection — against a full
// server/cluster/ingest/core stack for long simulated horizons.
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
// # Policy is the system's, measurement is the harness's
//
// The cluster is built with the scenario's own QueueCap, BatchEdges,
// Linger, adaptive controller and overload breaker, on a virtual clock
// the driver owns (DESIGN.md §12.5 "Clocks"). A stepped cluster starts
// no goroutines: writes go in through POST /v1/ingest/bin?async=1 — a 429
// queue_full or a 503 circuit_open is the router's own answer — and the
// event loop calls each shard's Step at the time it asked to be woken, so
// admission, gathering, linger, chunking, the AIMD feed, the breaker and
// replication — ship retries, chaos delays, follower apply and resync —
// are the code production runs, not a model of it. A scenario with a
// chaos plan also journals what the cluster applied, in order, for the
// differential its tests end in.
//
// What the harness keeps is what virtual time cannot give it. A shard is
// its own machine: the chunk its pipeline applied at t occupies the
// shard for the chunk's simulated cost, and a read arriving inside that
// write window waits for its end — on the host there is a lock to wait
// on, in virtual time the driver keeps the window list. And a write's
// latency is arrival to applied, so the driver keeps admitted parts'
// arrival times in admission order and retires them by the edge counts
// the pipeline reports.
package soak

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
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
	// TypedWrites counts typed batches every owner shard applied.
	TypedWrites int64 `json:"typed_writes,omitempty"`

	// Circuit-breaker transitions, summed over the shards' breakers.
	BreakerTrips  int64 `json:"breaker_trips,omitempty"`
	BreakerCloses int64 `json:"breaker_closes,omitempty"`
	BreakerProbes int64 `json:"breaker_probes,omitempty"`

	// Errors histograms error-envelope codes across reads and writes.
	Errors map[string]int64 `json:"errors,omitempty"`

	ReadP50Us float64 `json:"read_p50_us"`
	ReadP95Us float64 `json:"read_p95_us"`
	ReadP99Us float64 `json:"read_p99_us"`
	ReadMaxUs float64 `json:"read_max_us"`
	// ReadWaitUs is the mean time a read spent waiting behind a write
	// (or scrub) window, over all successful reads, the ones that met no
	// window included: the reader-behind-the-writer wait the admission
	// controller exists to shrink, as an average rather than an order
	// statistic.
	ReadWaitUs float64 `json:"read_wait_us"`
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

// part is an admitted write part the shard's pipeline has not finished
// with: when it arrived, its edges (for a chaos run's journal) and how
// many of them are still queued.
type part struct {
	at, left int64
	edges    []graph.Edge
}

// applied is one application the cluster made, journaled in the order it
// made it: plain edges (inserts and tombstones), a typed write's edges
// with their labels and its property writes, or a label registration.
type applied struct {
	edges  []graph.Edge
	labels []uint16 // non-nil: a typed write
	props  []graph.PropSet
	label  string
}

// never is the wake time of a shard with nothing scheduled.
const never = int64(math.MaxInt64)

// shardTimeline is what the driver measures about one shard; every
// decision is the shard's own pipeline's.
type shardTimeline struct {
	// wake is when the pipeline next wants to be stepped.
	wake int64
	// windows are the write windows the pipeline applied (and scrub
	// holds), in time order; free is the end of the last one.
	windows []window
	free    int64
	// parts are the admitted parts in admission order — the order the
	// pipeline applies them in — and inflight is their edges left.
	parts    []part
	inflight int64
	// applied and dropped are the pipeline's counters when last read.
	applied, dropped int64
}

// Runner executes one scenario. Build with newRunner via Run.
type runner struct {
	sc     Scenario
	srv    *server.Server
	cl     *cluster.Cluster
	shards []*shardTimeline
	// labels are the label ids typed writes draw from.
	labels []uint16
	// plan is the chaos schedule on the shipping links, journal what the
	// cluster applied, in order, and live the inserts it applied that no
	// write has deleted since (chaos runs only).
	plan    *chaos.Plan
	journal []applied
	live    []graph.Edge
	// tailStart is when the sustained-overload window closes (-1 when
	// the scenario has none); reads at or after it feed TailReadP99Us.
	tailStart int64
	rng       rng
	now       int64         // virtual ns
	clk       clock.Virtual // the cluster's clock, set to now at every event
	// depthDrift sums, over the scrapes, how far /v1/metrics' queue depth
	// was from the driver's own count of admitted-not-yet-applied edges.
	depthDrift int64

	// tracer records the virtual timeline for the failure dump.
	tracer    *obs.Tracer
	readLatNs []int64
	tailLatNs []int64
	waitNs    int64 // summed read waits behind write windows
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
	newNode := func(name string) (*core.Store, error) {
		m := xpsim.NewMachine(2, perNode, xpsim.DefaultLatency())
		if sc.MediaGuard {
			m.TrackFaults()
		}
		return core.New(m, pmem.NewHeap(m), nil, core.Options{
			Name:           name,
			NumVertices:    sc.Vertices,
			ArchiveThreads: 8,
			NUMA:           core.NUMASubgraph,
			AdjBytes:       perNode / 4,
			MediaGuard:     sc.MediaGuard,
			Props:          sc.FilteredKHopFrac > 0 || sc.TypedFrac > 0,
		})
	}

	stores := make([]*core.Store, sc.Shards)
	for i := range stores {
		var err error
		if stores[i], err = newNode(fmt.Sprintf("soak-s%d", i)); err != nil {
			return nil, fmt.Errorf("soak: building shard %d: %w", i, err)
		}
	}
	r := &runner{
		sc:        sc,
		tailStart: -1,
		rng:       rng{splitmix.Rand(sc.Seed)},
		tracer:    obs.NewTracer(1 << 15),
	}
	ccfg := cluster.Config{
		Replicas:        sc.Replicas,
		QueueCap:        sc.QueueCap,
		BatchEdges:      sc.BatchEdges,
		Linger:          sc.Linger,
		Adaptive:        sc.Adaptive,
		AdaptiveTarget:  sc.Target,
		BreakerSheds:    sc.BreakerSheds,
		BreakerCooldown: sc.BreakerCooldown,
		Clock:           &r.clk,
	}
	if sc.Replicas > 0 {
		ccfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
			return newNode(fmt.Sprintf("soak-s%d-r%d", shardID, replica))
		}
	}
	if sc.Chaos != "" {
		plan, err := chaos.Parse(sc.Chaos, chaos.Links(sc.Shards, sc.Replicas))
		if err != nil {
			return nil, fmt.Errorf("soak: %w", err)
		}
		r.plan = plan
		ccfg.Transport = cluster.NewChaosTransport(plan)
	}
	cl, err := cluster.New(stores, ccfg)
	if err != nil {
		return nil, fmt.Errorf("soak: building cluster: %w", err)
	}
	if err := cl.Start(); err != nil {
		return nil, fmt.Errorf("soak: starting cluster: %w", err)
	}

	r.cl = cl
	if sc.OverloadFor > 0 {
		r.tailStart = int64(sc.OverloadAt + sc.OverloadFor)
	}

	// Every shard is stepped once at t=0: its followers take the warm
	// load's shipments then.
	r.shards = make([]*shardTimeline, sc.Shards)
	for i := range r.shards {
		r.shards[i] = &shardTimeline{}
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
		r.record(applied{edges: warm})
	}
	// Labels: one "hot" label for the filtered-khop reads, and a second
	// one when typed writes draw from two.
	var names []string
	if sc.FilteredKHopFrac > 0 || sc.TypedFrac > 0 {
		names = append(names, soakLabel)
	}
	if sc.TypedFrac > 0 {
		names = append(names, "cold")
	}
	for _, name := range names {
		id, err := cl.RegisterLabel(name)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("soak: registering label %q: %w", name, err)
		}
		r.labels = append(r.labels, id)
		r.record(applied{label: name})
	}
	// Typed warm set for the filtered-khop read fraction: the "hot" label
	// over a tenth of the warm volume, so the typed traversals have real
	// labeled adjacency to prune against.
	if sc.FilteredKHopFrac > 0 {
		n := sc.WarmEdges/10 + 1
		typed := make([]graph.Edge, n)
		labels := make([]uint16, n)
		for i := range typed {
			typed[i] = graph.Edge{Src: r.pickVertex(), Dst: graph.VID(r.rng.intn(int(sc.Vertices)))}
			labels[i] = r.labels[0]
		}
		if _, err := cl.IngestTyped(typed, labels, nil); err != nil {
			cl.Close()
			return nil, fmt.Errorf("soak: typed warm load: %w", err)
		}
		r.record(applied{edges: typed, labels: labels})
	}

	r.srv = server.NewCluster(cl, server.Config{
		QueryThreads: 8,
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

// record journals one application, in a chaos run.
func (r *runner) record(a applied) {
	if r.plan == nil {
		return
	}
	r.journal = append(r.journal, a)
	for _, e := range a.edges {
		if !e.IsDelete() {
			r.live = append(r.live, e)
		}
	}
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

// drive runs the discrete-event loop to the horizon. Streams are
// merged by next-fire time with a fixed tie order (pipeline steps by
// shard, faults, scrapes, writes, reads) so the event sequence — and
// therefore the rng consumption — is identical run to run. A step that
// is due comes first: what a pipeline would have done by t is done before
// a request arriving at t sees the shard.
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
	// A stream with no rate never fires (jitter of 0 is never).
	nextRead, nextWrite, nextScrape := r.rng.jitter(readBase), r.rng.jitter(writeBase), never
	if sc.ScrapeEvery > 0 {
		nextScrape = int64(sc.ScrapeEvery)
	}
	faultIdx := 0
	for {
		nextFault := never
		if faultIdx < len(sc.Faults) {
			nextFault = int64(sc.Faults[faultIdx].At)
		}
		t, kind := never, 0
		for si, sh := range r.shards {
			if sh.wake < t {
				t, kind = sh.wake, -1-si
			}
		}
		if nextFault < t {
			t, kind = nextFault, 0
		}
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
			r.at(horizon)
			return
		}
		r.at(t)
		switch kind {
		default:
			r.step(-1 - kind)
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

// at moves virtual time — the driver's and the cluster's — to t.
func (r *runner) at(t int64) {
	r.now = t
	r.clk.Set(t)
}

// ---- HTTP plumbing (synchronous, in-process) ----

// errEnvelope mirrors the server's uniform error body.
type errEnvelope struct {
	Error struct {
		Code  string `json:"code"`
		Shard *int   `json:"shard"`
	} `json:"error"`
}

// call serves one request through the real server stack and decodes
// the response into out. A non-2xx response returns its envelope code
// and the shard the envelope names (-1 when it names none).
func (r *runner) call(method, path, contentType string, body []byte, out any) (code string, shard int) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	r.srv.ServeHTTP(w, req)
	if w.Code/100 != 2 {
		var env errEnvelope
		if json.Unmarshal(w.Body.Bytes(), &env) == nil && env.Error.Code != "" {
			if env.Error.Shard != nil {
				return env.Error.Code, *env.Error.Shard
			}
			return env.Error.Code, -1
		}
		return fmt.Sprintf("http_%d", w.Code), -1
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			return "bad_body", -1
		}
	}
	return "", -1
}

// ---- shard timelines ----

// step runs shard si's pipeline writer at the current virtual time and
// records what it did: a chunk applied now is a write window from now
// for the chunk's simulated cost.
func (r *runner) step(si int) {
	sh := r.shards[si]
	sh.wake = never
	if wake := r.cl.Shard(si).Step(); !wake.IsZero() {
		sh.wake = max(wake.UnixNano(), r.now)
	}
	r.settle(si)
	sh.wake = max(sh.wake, sh.free)
}

// settle reads shard si's pipeline counters and retires the parts they
// say are done: a part whose last edge was applied by the window ending
// at the shard's free time has its write latency; a dropped one (failed
// apply, killed leader) has none.
func (r *runner) settle(si int) {
	sh := r.shards[si]
	st := r.cl.Shard(si).PipeStats()
	if n := st.EdgesApplied - sh.applied; n > 0 {
		sh.applied = st.EdgesApplied
		sh.free = r.now + st.LastBatchSimNs
		sh.windows = append(sh.windows, window{r.now, sh.free})
		r.tracer.EmitPhase("apply", int64(laneShard+si), r.now, st.LastBatchSimNs)
		for _, at := range sh.retire(n, r.record) {
			lat := sh.free - at
			r.writeLat = append(r.writeLat, lat)
		}
	}
	if n := st.EdgesDropped - sh.dropped; n > 0 {
		sh.dropped = st.EdgesDropped
		sh.retire(n, nil)
	}
}

// retire takes n edges off the front of the admitted parts and returns
// the arrival times of the parts that ended among them; record, when
// set, gets the edges themselves, as applied.
func (sh *shardTimeline) retire(n int64, record func(applied)) (ended []int64) {
	sh.inflight -= n
	for n > 0 && len(sh.parts) > 0 {
		p := &sh.parts[0]
		take := min(p.left, n)
		if record != nil {
			off := int64(len(p.edges)) - p.left
			record(applied{edges: p.edges[off : off+take]})
		}
		p.left -= take
		n -= take
		if p.left == 0 {
			ended = append(ended, p.at)
			sh.parts = sh.parts[1:]
		}
	}
	return ended
}

// waitAt returns how long a read arriving at t waits behind shard si's
// exclusive write/scrub windows, pruning fully past ones.
func (r *runner) waitAt(si int, pruneBefore, t int64) int64 {
	sh := r.shards[si]
	i := 0
	for i < len(sh.windows) && sh.windows[i].end <= pruneBefore {
		i++
	}
	if i > 0 {
		sh.windows = append(sh.windows[:0], sh.windows[i:]...)
	}
	for _, w := range sh.windows {
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
		code, _ = r.call("POST", "/v1/query/khop", "application/json", body, &resp)
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
		code, _ = r.call("GET", fmt.Sprintf("/v1/vertices/%d/out", v), "", nil, &resp)
		if code == "" {
			costNs = int64(math.Round(resp.SimUs * 1e3))
		}
		waitNs = r.waitAt(r.cl.Owner(v), r.now, r.now)
	}
	r.rep.Reads++
	if code != "" {
		r.rep.ReadErrors++
		r.rep.Errors[code]++
		return
	}
	lat := waitNs + costNs
	r.readLatNs = append(r.readLatNs, lat)
	r.waitNs += waitNs
	if r.tailStart >= 0 && r.now >= r.tailStart {
		r.tailLatNs = append(r.tailLatNs, lat)
	}
	if waitNs > 0 {
		r.tracer.EmitPhase("read-wait", laneRead, r.now, lat)
	}
}

// write posts one arrival through the real router, asynchronously: the
// answer is the admission decision, the application happens when the
// owner shards' pipelines are stepped. The router offers the batch's
// parts to their owner shards in shard order and stops at the first that
// refuses — a 429 from a full queue, a 503 from an open breaker or a dead
// leader — so the parts before the refusing shard are in, its own and
// the ones behind it are not.
func (r *runner) write() {
	sc := &r.sc
	if sc.TypedFrac > 0 && r.rng.Float() < sc.TypedFrac {
		r.writeTyped()
		return
	}
	del := sc.DeleteFrac > 0 && r.rng.Float() < sc.DeleteFrac
	var edges []graph.Edge
	if del && r.plan != nil {
		// A chaos run deletes only inserts it has seen applied: a store
		// resolves a deletion that matches no earlier insert against a
		// later one until a compaction drops it, and a follower rebuilt
		// from a snapshot never holds it (ROADMAP item 3), so an unmatched
		// deletion would fail the differential for a reason that is not
		// replication's.
		for len(edges) < sc.WriteBatch && len(r.live) > 0 {
			i := r.rng.intn(len(r.live))
			edges = append(edges, graph.Del(r.live[i].Src, r.live[i].Dst))
			r.live[i] = r.live[len(r.live)-1]
			r.live = r.live[:len(r.live)-1]
		}
		if len(edges) == 0 {
			return
		}
	} else {
		edges = make([]graph.Edge, sc.WriteBatch)
		for i := range edges {
			src := r.pickVertex()
			dst := graph.VID(r.rng.intn(int(sc.Vertices)))
			edges[i] = graph.Edge{Src: src, Dst: dst}
			if del {
				edges[i] = graph.Del(src, dst)
			}
		}
	}
	parts := make([][]graph.Edge, sc.Shards)
	for _, e := range edges {
		o := r.cl.Owner(e.Src)
		parts[o] = append(parts[o], e)
	}
	code, refused := r.call("POST", "/v1/ingest/bin?async=1", ingest.ContentTypeBatch,
		ingest.EncodeBatch(edges, false), nil)
	switch {
	case code == "":
		refused = sc.Shards
	case refused < 0:
		refused = 0
	}
	for si, p := range parts {
		n := int64(len(p))
		if n == 0 {
			continue
		}
		r.rep.WriteParts++
		r.rep.EdgesOffered += n
		if si >= refused {
			r.rep.EdgesShed += n
			continue
		}
		r.rep.EdgesAccepted += n
		sh := r.shards[si]
		sh.parts = append(sh.parts, part{at: r.now, left: n, edges: p})
		sh.inflight += n
		if sh.inflight > r.rep.MaxQueueDepthEdges {
			r.rep.MaxQueueDepthEdges = sh.inflight
		}
		// The Enqueue would have kicked the writer goroutine; the driver
		// is the writer, as soon as the shard is free.
		sh.wake = min(sh.wake, max(r.now, sh.free))
	}
	switch code {
	case "":
	case "queue_full":
		r.rep.Shed429++
		r.tracer.EmitPhase("shed-429", laneShed, r.now, 0)
	case "circuit_open":
		r.rep.Shed503++
		r.rep.Errors[code]++
		r.tracer.EmitPhase("shed-503", laneShed, r.now, 0)
	default:
		r.rep.WriteErrors++
		r.rep.Errors[code]++
	}
}

// writeTyped posts one typed batch — its edges under the scenario's two
// labels, and a property write per edge's source — which every owner
// shard applies now, under its lock, for the batch's simulated cost: the
// typed path bypasses the pipelines. The router stops at the first shard
// that refuses, so the parts before it are in.
func (r *runner) writeTyped() {
	sc := &r.sc
	n := sc.WriteBatch
	edges := make([]graph.Edge, n)
	labels := make([]uint16, n)
	props := make([]graph.PropSet, n)
	for i := range edges {
		src := r.pickVertex()
		edges[i] = graph.Edge{Src: src, Dst: graph.VID(r.rng.intn(int(sc.Vertices)))}
		labels[i] = r.labels[r.rng.intn(len(r.labels))]
		props[i] = graph.PropSet{V: src, Key: 1, Val: int64(r.rng.intn(1000))}
	}
	var resp server.IngestResponse
	code, refused := r.call("POST", "/v1/ingest/bin", ingest.ContentTypeBatch,
		ingest.EncodeTypedBatch(edges, labels, props), &resp)
	switch {
	case code == "":
		refused = sc.Shards
		r.rep.TypedWrites++
	case refused < 0:
		refused = 0
	}
	parts := make([]applied, sc.Shards)
	for i, e := range edges {
		p := &parts[r.cl.Owner(e.Src)]
		p.edges, p.labels, p.props = append(p.edges, e), append(p.labels, labels[i]), append(p.props, props[i])
	}
	simNs := int64(math.Round(resp.SimMs * 1e6))
	for si, p := range parts[:refused] {
		if len(p.edges) > 0 {
			r.record(p)
			r.hold(si, simNs)
			// The part shipped as it applied: the shard's followers have
			// an arrival to step.
			r.shards[si].wake = min(r.shards[si].wake, r.shards[si].free)
		}
	}
	if code != "" {
		r.rep.WriteErrors++
		r.rep.Errors[code]++
	}
}

// hold puts an exclusive window of simNs on shard si's timeline, behind
// the window it is in; its pipeline is not stepped before the hold ends.
func (r *runner) hold(si int, simNs int64) {
	sh := r.shards[si]
	start := max(r.now, sh.free)
	sh.free = start + simNs
	sh.windows = append(sh.windows, window{start, sh.free})
	if sh.wake != never {
		sh.wake = max(sh.wake, sh.free)
	}
}

// scrape polls the server's health and metrics surfaces — the same
// endpoints a production scraper hits — and folds them into the
// report's queue/breaker/replica-lag aggregates.
func (r *runner) scrape() {
	r.rep.Scrapes++
	var m server.MetricsResponse
	r.call("GET", "/v1/metrics", "", nil, &m)
	counted := int64(0)
	for _, sh := range r.shards {
		counted += sh.inflight
	}
	r.depthDrift += max(m.QueueDepthEdges-counted, counted-m.QueueDepthEdges)
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
		minRep := slices.Min(sh.ReplicaEpochs)
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
		// Damage (or slow) the lines under the hottest vertices — the ones
		// the zipfian read head keeps hitting — on every owner shard's
		// leader, flushed first to materialize its adjacency in PMEM lines,
		// or on one follower.
		if op.Replica == 0 {
			r.call("POST", "/v1/flush", "", nil, nil)
		}
		for v := graph.VID(0); v < graph.VID(op.Vertices); v++ {
			si := r.cl.Owner(v)
			st := r.cl.Shard(si).Store()
			if op.Replica > 0 {
				if si != op.Shard {
					continue
				}
				st = r.cl.Shard(si).Replicas()[op.Replica-1].Store()
			}
			f := st.Machine().Faults()
			if f == nil {
				continue
			}
			for _, ln := range st.VertexMediaLines(core.Out, v) {
				if op.Kind == "ue" {
					f.InjectUE(ln.Node, ln.Line)
				} else {
					f.MarkSlow(ln.Node, ln.Line, op.Mult)
				}
			}
		}
	case "kill":
		// The dead leader's pipeline fails what it still held; its
		// followers keep being stepped.
		r.cl.KillShard(op.Shard)
		r.step(op.Shard)
	case "scrub":
		var resp server.ScrubResponse
		if code, _ := r.call("POST", "/v1/scrub", "", nil, &resp); code != "" {
			r.rep.Errors[code]++
			break
		}
		// A scrub holds every shard's write lock: one exclusive window per
		// shard (they scrub in parallel).
		simNs := int64(math.Round(resp.SimMs * 1e6))
		for si := range r.shards {
			r.hold(si, simNs)
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
	if n := len(r.readLatNs); n > 0 {
		rep.ReadWaitUs = float64(r.waitNs) / float64(n) / 1e3
	}
	rep.TailReadP99Us = float64(quantile(r.tailLatNs, 0.99)) / 1e3
	rep.WriteP50Ms = float64(quantile(r.writeLat, 0.50)) / 1e6
	rep.WriteP99Ms = float64(quantile(r.writeLat, 0.99)) / 1e6
	rep.WriteMaxMs = float64(quantile(r.writeLat, 1)) / 1e6
	rep.FinalEpochVector = r.cl.EpochVector()
	if rep.FinalHealth == "" {
		rep.FinalHealth = "ok"
	}
	for si := range r.shards {
		b := r.cl.Shard(si).Breaker()
		rep.BreakerTrips += b.Trips
		rep.BreakerCloses += b.Closes
		rep.BreakerProbes += b.Probes
		st := r.cl.Shard(si).PipeStats()
		rep.FinalTuning = append(rep.FinalTuning, TuningReport{
			Shard:      si,
			BatchEdges: int(st.CurBatchEdges),
			LingerUs:   st.CurLingerNs / int64(time.Microsecond),
			AdmitEdges: int(st.AdmitEdges),
			Decreases:  st.TuneDecreases,
			Increases:  st.TuneIncreases,
		})
	}
	rep.Violations = r.sc.SLO.check(*rep)
	if r.depthDrift != 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"harness: /v1/metrics queue depth and the driver's admitted-not-applied count differ by %d edges over the scrapes",
			r.depthDrift))
	}
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

	// The serving stack's own exposition: queue, tuning, breaker and
	// device counters as a production scraper would have seen them last.
	prom := httptest.NewRecorder()
	r.srv.ServeHTTP(prom, httptest.NewRequest("GET", "/v1/metrics?format=prometheus", nil))
	return os.WriteFile(base+".metrics.prom", prom.Body.Bytes(), 0o644)
}
