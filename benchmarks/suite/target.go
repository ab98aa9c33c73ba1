package suite

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/analytics"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/prop"
	"repro/internal/server"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// target is the system under test at one public entry point. A workload
// drives its target; the traced run drives the same stream through
// targets at successive entry points (the ladder) and subtracts.
//
// Every call reports the host time spent inside the system, measured
// around the call into it alone: building a request or scanning a
// response is the client's work and stays outside.
type target interface {
	// preload ingests the untimed head of the stream by the bulk path.
	preload(edges []graph.Edge) error
	// write applies one batch and returns once it is readable everywhere
	// it must be (for a replicated target: on every follower).
	write(b *batch) (writeResult, error)
	// prepare runs after the last batch, before the tail reads.
	prepare() error
	read(op readOp) (readResult, error)
	// analytics runs BFS from each root, PageRank for prIters iterations
	// (0: skipped) and, with withCC, connected components.
	analytics(roots []graph.VID, prIters int, withCC bool) (analyticsResult, error)
	// leaders are the stores holding the graph; machines adds followers'.
	leaders() []*core.Store
	machines() []*xpsim.Machine
	close()
}

type writeResult struct {
	simNs int64
	host  time.Duration
	// catchup is the part of host spent waiting for followers to publish
	// the leader's epoch.
	catchup time.Duration
}

type readResult struct {
	simNs int64
	host  time.Duration
	// found is how many vertices the read returned: neighbors, or vertices
	// reached by a k-hop. It is the read's work in a unit that does not
	// depend on what the simulated device happened to have buffered.
	found int
}

type analyticsResult struct {
	bfsVisited []int64
	bfsLevels  []int
	components int
	bfsSimNs   int64
	prSimNs    int64
	ccSimNs    int64
	bfsHost    time.Duration
	prHost     time.Duration
	ccHost     time.Duration
}

func (a analyticsResult) simNs() int64 { return a.bfsSimNs + a.prSimNs }

func (a analyticsResult) host() time.Duration { return a.bfsHost + a.prHost }

// filteredFilter is the predicate of readKHopFiltered on the library path.
func filteredFilter() prop.Filter {
	return prop.Filter{Types: []uint16{1, 2}, Key: propKey, Op: prop.OpGe, Val: filterMinVal}
}

// runAnalytics is BFS from each root, PageRank, and optionally CC over
// one view. CC stays out of the end-to-end number: its simulated time is
// rounds-to-convergence times a sweep, and the round count flips between
// seeds (4 vs 5 on graphs of one shape), a 25 % step no bound survives.
func runAnalytics(v view.View, lat *xpsim.LatencyModel, roots []graph.VID, prIters int, withCC bool) analyticsResult {
	eng := analytics.NewEngine(v, lat, queryThreads)
	var res analyticsResult
	t0 := time.Now()
	for _, root := range roots {
		b := eng.BFS(root)
		res.bfsVisited = append(res.bfsVisited, b.Visited)
		res.bfsLevels = append(res.bfsLevels, b.Levels)
		res.bfsSimNs += b.SimNs
	}
	t1 := time.Now()
	if prIters > 0 {
		res.prSimNs = eng.PageRank(prIters).SimNs
	}
	t2 := time.Now()
	res.bfsHost, res.prHost = t1.Sub(t0), t2.Sub(t1)
	if withCC {
		cc := eng.CC()
		res.components, res.ccSimNs, res.ccHost = cc.Components, cc.SimNs, time.Since(t2)
	}
	return res
}

// ---- library target ----

// libTarget drives a core.Store directly. Reads go to the live store
// (hot vertex buffers plus chains) or, with compactFirst, to a snapshot
// of the flushed and compacted store.
type libTarget struct {
	store        *core.Store
	compactFirst bool
	view         view.Full // what reads see
	snap         *core.Snapshot
	eng          *analytics.Engine
	scratch      []uint32
	prepSimNs    int64
	prepHost     time.Duration
}

func newLibTarget(numV uint32, edges int, so storeOpts, compactFirst bool) (*libTarget, error) {
	s, err := newStore("s0", numV, edges, so)
	if err != nil {
		return nil, err
	}
	if so.props {
		for _, name := range labelNames[1:] {
			if _, err := s.RegisterLabel(name); err != nil {
				return nil, err
			}
		}
	}
	t := &libTarget{store: s, compactFirst: compactFirst, view: s}
	t.eng = analytics.NewEngine(t.view, &s.Machine().Lat, queryThreads)
	return t, nil
}

func (t *libTarget) preload(edges []graph.Edge) error {
	_, err := t.store.Ingest(edges)
	return err
}

func (t *libTarget) write(b *batch) (writeResult, error) {
	var rep core.IngestReport
	var err error
	t0 := time.Now()
	if b.labels != nil {
		if rep, err = t.store.IngestTyped(b.edges, b.labels); err == nil {
			err = t.store.SetProps(b.props)
		}
	} else {
		rep, err = t.store.Ingest(b.edges)
	}
	return writeResult{simNs: rep.TotalNs(), host: time.Since(t0)}, err
}

func (t *libTarget) prepare() error {
	if !t.compactFirst {
		return nil
	}
	t0 := time.Now()
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	before := t.store.Report().FlushNs
	if err := t.store.CompactAllAdjs(ctx); err != nil {
		return err
	}
	t.prepSimNs = ctx.Cost.Ns() + t.store.Report().FlushNs - before
	t.prepHost = time.Since(t0)
	t.snap = t.store.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound))
	t.view = t.snap
	t.eng = analytics.NewEngine(t.view, &t.store.Machine().Lat, queryThreads)
	return nil
}

func (t *libTarget) read(op readOp) (readResult, error) {
	var simNs int64
	var found int
	var err error
	t0 := time.Now()
	switch op.kind {
	case readOut:
		ctx := xpsim.NewCtx(t.view.OutNode(op.v))
		t.scratch = t.view.NbrsOut(ctx, op.v, t.scratch[:0])
		simNs, found = ctx.Cost.Ns(), len(t.scratch)
	case readIn:
		ctx := xpsim.NewCtx(t.view.InNode(op.v))
		t.scratch = t.view.NbrsIn(ctx, op.v, t.scratch[:0])
		simNs, found = ctx.Cost.Ns(), len(t.scratch)
	case readKHop:
		res := t.eng.KHop(op.v, khopDepth)
		simNs, found = res.SimNs, int(res.Reached)
	default:
		var res analytics.KHopResult
		res, err = t.eng.KHopFiltered(op.v, khopDepth, filteredFilter())
		simNs, found = res.SimNs, int(res.Reached)
	}
	return readResult{simNs: simNs, host: time.Since(t0), found: found}, err
}

func (t *libTarget) analytics(roots []graph.VID, prIters int, withCC bool) (analyticsResult, error) {
	v := view.View(t.view)
	if t.snap == nil {
		// Analytics never run on the live store: they take a snapshot,
		// as the server does.
		snap := t.store.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound))
		defer snap.Close()
		v = snap
	}
	return runAnalytics(v, &t.store.Machine().Lat, roots, prIters, withCC), nil
}

func (t *libTarget) leaders() []*core.Store { return []*core.Store{t.store} }

func (t *libTarget) machines() []*xpsim.Machine {
	return []*xpsim.Machine{t.store.Machine()}
}

func (t *libTarget) close() {
	if t.snap != nil {
		t.snap.Close()
	}
}

// ---- HTTP target ----

// httpTarget drives the serving stack through Server.ServeHTTP with
// in-process recorders: every layer from route matching to JSON encode
// runs, no socket does.
type httpTarget struct {
	srv *server.Server
	cl  *cluster.Cluster
	// Request accounting for server.requests / server.failed and
	// server.resp_bytes_per_read.
	requests  int64
	failed    int64
	readBytes int64
	reads     int64
	// lingerRisk counts plain writes whose part on some shard was below
	// that shard's live batch cap: the pipeline would have waited on the
	// wall-clock Linger timer for company. expectBatches is the number of
	// pipeline batches the stream implies.
	lingerRisk    int64
	expectBatches int64
}

func newHTTPTarget(numV uint32, edges int, shape clusterShape, so storeOpts) (*httpTarget, error) {
	srv, err := newServer(numV, edges, shape, so)
	if err != nil {
		return nil, err
	}
	t := &httpTarget{srv: srv, cl: srv.Cluster()}
	if so.props {
		for _, name := range labelNames[1:] {
			if _, err := t.cl.RegisterLabel(name); err != nil {
				srv.Close()
				return nil, err
			}
		}
	}
	return t, nil
}

// serve runs one request through the server and times ServeHTTP alone.
// Any status but 200 (a 429 included) is a failed operation.
func (t *httpTarget) serve(method, path, contentType string, body []byte) (*httptest.ResponseRecorder, time.Duration, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	t.srv.ServeHTTP(rec, req)
	host := time.Since(t0)
	t.requests++
	if rec.Code != http.StatusOK {
		t.failed++
		return rec, host, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec, host, nil
}

// jsonNumber extracts a top-level numeric field without decoding the
// body: a neighbor response can carry thousands of IDs the benchmark has
// no use for, and decoding them would be client work inside the loop.
func jsonNumber(body []byte, key string) (float64, error) {
	pat := []byte(`"` + key + `":`)
	i := bytes.LastIndex(body, pat)
	if i < 0 {
		return 0, fmt.Errorf("response has no %q field", key)
	}
	rest := body[i+len(pat):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, fmt.Errorf("response field %q is unterminated", key)
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
}

// jsonArrayLen counts the elements of a top-level array of numbers, again
// without decoding it.
func jsonArrayLen(body []byte, key string) int {
	pat := []byte(`"` + key + `":[`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return 0
	}
	rest := body[i+len(pat):]
	end := bytes.IndexByte(rest, ']')
	if end <= 0 {
		return 0
	}
	return bytes.Count(rest[:end], []byte(",")) + 1
}

func (t *httpTarget) preload(edges []graph.Edge) error {
	if len(edges) == 0 {
		return nil
	}
	_, err := t.cl.IngestLocal(edges)
	awaitFollowers(t.cl)
	return err
}

func (t *httpTarget) write(b *batch) (writeResult, error) {
	path, ctype := "/v1/ingest/bin", ingest.ContentTypeBatch
	if b.kind == writeJSON {
		path, ctype = "/v1/edges", "application/json"
	}
	if b.kind != writeTyped {
		t.notePlainWrite(b.edges)
	}
	rec, host, err := t.serve(http.MethodPost, path, ctype, b.body)
	if err != nil {
		return writeResult{}, err
	}
	res := writeResult{catchup: awaitFollowers(t.cl)}
	res.host = host + res.catchup
	simMs, err := jsonNumber(rec.Body.Bytes(), "sim_ms")
	res.simNs = int64(simMs * 1e6)
	return res, err
}

// notePlainWrite checks the timer hygiene of one pipeline-bound write:
// every shard it touches must receive at least a full batch, or the
// writer goroutine sleeps on Linger and host time measures a timer.
func (t *httpTarget) notePlainWrite(edges []graph.Edge) {
	parts := make([]int64, t.cl.Shards())
	for _, e := range edges {
		parts[t.cl.Owner(e.Src)]++
	}
	risk := false
	for i, n := range parts {
		if n == 0 {
			continue
		}
		lim := t.cl.Shard(i).PipeStats().CurBatchEdges
		if n < lim {
			risk = true
		}
		t.expectBatches += (n + lim - 1) / lim
	}
	if risk {
		t.lingerRisk++
	}
}

// awaitFollowers spins until every follower has published its leader's
// epoch, so shipping and follower apply are blocking steps of a write and
// later reads never race a background apply for the second core.
func awaitFollowers(cl *cluster.Cluster) time.Duration {
	if cl.Replicas() == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < cl.Shards(); i++ {
		sh := cl.Shard(i)
		for _, r := range sh.Replicas() {
			for r.Epoch() < sh.Epoch() {
				runtime.Gosched()
			}
		}
	}
	return time.Since(t0)
}

func (t *httpTarget) prepare() error { return nil }

// issue sends the request a read operation maps onto.
func (t *httpTarget) issue(op readOp) (*httptest.ResponseRecorder, time.Duration, error) {
	switch op.kind {
	case readOut:
		return t.serve(http.MethodGet, fmt.Sprintf("/v1/vertices/%d/out", op.v), "", nil)
	case readIn:
		return t.serve(http.MethodGet, fmt.Sprintf("/v1/vertices/%d/in", op.v), "", nil)
	case readKHop:
		return t.serve(http.MethodPost, "/v1/query/khop", "application/json",
			fmt.Appendf(nil, `{"root":%d,"k":%d}`, op.v, khopDepth))
	default:
		return t.serve(http.MethodPost, "/v1/query/khop", "application/json",
			fmt.Appendf(nil, `{"root":%d,"k":%d,"types":[%q,%q],"filter":{"key":%d,"op":"ge","value":%d}}`,
				op.v, khopDepth, labelNames[1], labelNames[2], propKey, filterMinVal))
	}
}

func (t *httpTarget) read(op readOp) (readResult, error) {
	rec, host, err := t.issue(op)
	if err != nil {
		return readResult{}, err
	}
	t.reads++
	t.readBytes += int64(rec.Body.Len())
	// Neighbor reads report sim_us, queries sim_ms.
	field, scale := "sim_us", 1e3
	found := jsonArrayLen(rec.Body.Bytes(), "neighbors")
	if op.kind >= readKHop {
		field, scale = "sim_ms", 1e6
		reached, err := jsonNumber(rec.Body.Bytes(), "reached")
		if err != nil {
			return readResult{}, err
		}
		found = int(reached)
	}
	val, err := jsonNumber(rec.Body.Bytes(), field)
	return readResult{simNs: int64(val * scale), host: host, found: found}, err
}

func (t *httpTarget) analytics(roots []graph.VID, prIters int, withCC bool) (analyticsResult, error) {
	var res analyticsResult
	query := func(path, body string, simNs *int64, host *time.Duration) (*httptest.ResponseRecorder, error) {
		rec, h, err := t.serve(http.MethodPost, path, "application/json", []byte(body))
		if err != nil {
			return nil, err
		}
		*host += h
		simMs, err := jsonNumber(rec.Body.Bytes(), "sim_ms")
		*simNs += int64(simMs * 1e6)
		return rec, err
	}
	for _, root := range roots {
		rec, err := query("/v1/query/bfs", fmt.Sprintf(`{"root":%d}`, root), &res.bfsSimNs, &res.bfsHost)
		if err != nil {
			return res, err
		}
		visited, err := jsonNumber(rec.Body.Bytes(), "visited")
		if err != nil {
			return res, err
		}
		levels, err := jsonNumber(rec.Body.Bytes(), "levels")
		if err != nil {
			return res, err
		}
		res.bfsVisited = append(res.bfsVisited, int64(visited))
		res.bfsLevels = append(res.bfsLevels, int(levels))
	}
	if prIters > 0 {
		if _, err := query("/v1/query/pagerank", fmt.Sprintf(`{"iterations":%d,"top":1}`, prIters),
			&res.prSimNs, &res.prHost); err != nil {
			return res, err
		}
	}
	if withCC {
		rec, err := query("/v1/query/cc", `{}`, &res.ccSimNs, &res.ccHost)
		if err != nil {
			return res, err
		}
		comps, err := jsonNumber(rec.Body.Bytes(), "components")
		if err != nil {
			return res, err
		}
		res.components = int(comps)
	}
	return res, nil
}

func (t *httpTarget) leaders() []*core.Store {
	out := make([]*core.Store, t.cl.Shards())
	for i := range out {
		out[i] = t.cl.Shard(i).Store()
	}
	return out
}

func (t *httpTarget) machines() []*xpsim.Machine {
	var out []*xpsim.Machine
	for i := 0; i < t.cl.Shards(); i++ {
		sh := t.cl.Shard(i)
		out = append(out, sh.Store().Machine())
		for _, r := range sh.Replicas() {
			out = append(out, r.Store().Machine())
		}
	}
	return out
}

func (t *httpTarget) close() { t.srv.Close() }

// lingerWaits is ingest.linger_waits: writes that could have waited on
// the Linger timer, plus any disagreement between the batches the
// pipelines applied and the batches the stream implies. It must be 0.
func (t *httpTarget) lingerWaits() int64 {
	var applied int64
	for i := 0; i < t.cl.Shards(); i++ {
		applied += t.cl.Shard(i).PipeStats().BatchesApplied
	}
	diff := applied - t.expectBatches
	if diff < 0 {
		diff = -diff
	}
	return t.lingerRisk + diff
}
