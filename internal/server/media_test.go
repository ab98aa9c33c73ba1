package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// mediaServer builds a server over a MediaGuard store with fault
// tracking armed, so tests can inject uncorrectable errors.
func mediaServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *xpsim.Machine) {
	t.Helper()
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	m.TrackFaults()
	st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: "httpmedia", NumVertices: 1024, LogCapacity: 1 << 12,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 4,
		MediaGuard: true, ArchiveSSDBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, m, cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, m
}

// TestRetryAfterJitter pins the satellite contract: the jittered 429
// Retry-After is always within [1,3] seconds and actually varies.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[int]bool{}
	for seq := uint64(0); seq < 10_000; seq++ {
		v := retryAfterSecs(seq)
		if v < 1 || v > 3 {
			t.Fatalf("retryAfterSecs(%d) = %d, outside [1,3]", seq, v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("jitter produced only %v; want all of 1,2,3", seen)
	}
}

// The breaker state-machine test moved to internal/cluster with the
// breaker itself (the per-shard failure-shedding policy lives there now).

// TestDegradedServing drives the full degraded-mode loop over HTTP:
// inject UEs under a vertex's adjacency chain, watch the checked read
// answer 503 media_error instead of wrong data, scrub, and watch the
// store return to ok with the data intact.
func TestDegradedServing(t *testing.T) {
	srv, ts, m := mediaServer(t, Config{QueryThreads: 4})

	var edges []edgeJSON
	for i := uint32(0); i < 8; i++ {
		edges = append(edges, edgeJSON{Src: 1, Dst: 10 + i})
	}
	if code := do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: edges}, nil); code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/flush", nil, nil); code != 200 {
		t.Fatalf("flush: %d", code)
	}

	var h HealthzResponse
	if code := do(t, "GET", ts.URL+"/v1/healthz", nil, &h); code != 200 || h.Status != "ok" {
		t.Fatalf("healthz before damage: code=%d %+v", code, h)
	}

	lines := srv.cl.Shard(0).Store().VertexMediaLines(core.Out, 1)
	if len(lines) == 0 {
		t.Fatal("vertex 1 has no PMEM chain to damage")
	}
	for _, ln := range lines {
		m.Faults().InjectUE(ln.Node, ln.Line)
	}

	// Republish so the served snapshot has no pre-damage frozen copy.
	do(t, "POST", ts.URL+"/v1/snapshot", nil, nil)

	var eb errorBody
	if code := do(t, "GET", ts.URL+"/v1/vertices/1/out", nil, &eb); code != http.StatusServiceUnavailable {
		t.Fatalf("read of damaged vertex: code=%d body=%+v", code, eb)
	}
	if eb.Error.Code != "media_error" {
		t.Fatalf("error code = %q, want media_error", eb.Error.Code)
	}

	var sc ScrubResponse
	if code := do(t, "POST", ts.URL+"/v1/scrub", nil, &sc); code != 200 {
		t.Fatalf("scrub: %d", code)
	}
	if sc.Damaged == 0 || sc.Repaired != sc.Damaged || sc.Unrecoverable != 0 {
		t.Fatalf("scrub report: %+v", sc)
	}
	if sc.Health != "ok" {
		t.Fatalf("health after scrub = %q", sc.Health)
	}

	var nb NeighborsResponse
	if code := do(t, "GET", ts.URL+"/v1/vertices/1/out", nil, &nb); code != 200 {
		t.Fatalf("read after repair: %d", code)
	}
	if len(nb.Neighbors) != 8 {
		t.Fatalf("out(1) after repair = %v", nb.Neighbors)
	}
	if code := do(t, "GET", ts.URL+"/v1/healthz", nil, &h); code != 200 || h.Status != "ok" {
		t.Fatalf("healthz after scrub: code=%d %+v", code, h)
	}
}

// TestNodeFailureReadonly checks the whole-device failure path: healthz
// flips to 503 readonly, writes are refused as media errors and trip the
// circuit breaker, analytics are suspended, and revival restores service.
func TestNodeFailureReadonly(t *testing.T) {
	_, ts, m := mediaServer(t, Config{QueryThreads: 4, BreakerThreshold: 2, BreakerCooldown: time.Hour})

	do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: []edgeJSON{{Src: 1, Dst: 2}}}, nil)
	m.Faults().FailNode(1)

	var h HealthzResponse
	if code := do(t, "GET", ts.URL+"/v1/healthz", nil, &h); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead node: code=%d %+v", code, h)
	}
	if h.Status != "readonly" || len(h.DeadNodes) != 1 {
		t.Fatalf("healthz body: %+v", h)
	}

	var eb errorBody
	if code := do(t, "POST", ts.URL+"/v1/query/bfs", bfsRequest{Root: 1}, &eb); code != http.StatusServiceUnavailable || eb.Error.Code != "degraded" {
		t.Fatalf("bfs on readonly store: code=%d body=%+v", code, eb)
	}

	// Two failed writes trip the breaker (threshold 2); the next one is
	// shed up front with circuit_open and a Retry-After.
	body := EdgesRequest{Edges: []edgeJSON{{Src: 3, Dst: 4}}}
	for i := 0; i < 2; i++ {
		if code := do(t, "POST", ts.URL+"/v1/edges", body, &eb); code != http.StatusServiceUnavailable || eb.Error.Code != "media_error" {
			t.Fatalf("write %d on dead node: code=%d body=%+v", i, code, eb)
		}
	}
	resp := doRaw(t, "POST", ts.URL+"/v1/edges", body)
	if resp.code != http.StatusServiceUnavailable || resp.errCode != "circuit_open" {
		t.Fatalf("post-trip write: %+v", resp)
	}
	if ra, err := strconv.Atoi(resp.retryAfter); err != nil || ra < 1 {
		t.Fatalf("circuit_open Retry-After = %q", resp.retryAfter)
	}

	// Reads on the healthy partition keep answering. Vertex 1's out-chain
	// lives on node 0 (out-direction data is interleave-partitioned).
	var nb NeighborsResponse
	if code := do(t, "GET", ts.URL+"/v1/vertices/1/out", nil, &nb); code != 200 || len(nb.Neighbors) != 1 {
		t.Fatalf("healthy-partition read: code=%d %v", code, nb.Neighbors)
	}

	m.Faults().ReviveNode(1)
	if code := do(t, "GET", ts.URL+"/v1/healthz", nil, &h); code != 200 || h.Status != "ok" {
		t.Fatalf("healthz after revive: code=%d %+v", code, h)
	}
}

// rawResult captures status, error code, and Retry-After for assertions
// the JSON helpers drop.
type rawResult struct {
	code       int
	errCode    string
	retryAfter string
}

func doRaw(t *testing.T, method, url string, body any) rawResult {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	return rawResult{code: resp.StatusCode, errCode: eb.Error.Code, retryAfter: resp.Header.Get("Retry-After")}
}

// TestRequestTimeout pins the deadline satellite: a request running past
// Config.RequestTimeout answers 503 with the deadline_exceeded envelope.
func TestRequestTimeout(t *testing.T) {
	_, ts := testServerCfg(t, Config{QueryThreads: 4, RequestTimeout: 50 * time.Millisecond, batchDelay: 300 * time.Millisecond, BatchEdges: 2})

	// A 3-chunk synchronous ingest sleeps 2x300ms between chunks — well
	// past the 50ms deadline.
	var edges []edgeJSON
	for i := uint32(0); i < 6; i++ {
		edges = append(edges, edgeJSON{Src: i, Dst: i + 1})
	}
	resp := doRaw(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: edges})
	if resp.code != http.StatusServiceUnavailable || resp.errCode != "deadline_exceeded" {
		t.Fatalf("slow request: %+v", resp)
	}
}
