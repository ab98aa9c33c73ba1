package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

func scrape(t *testing.T, url, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestPrometheusScrape: with Accept: text/plain the metrics endpoint
// serves the Prometheus text format carrying the paper's device
// telemetry and the per-endpoint latency histograms.
func TestPrometheusScrape(t *testing.T) {
	_, ts := testServer(t)
	var edges []edgeJSON
	for i := uint32(0); i < 200; i++ {
		edges = append(edges, edgeJSON{Src: i % 50, Dst: i%50 + 1})
	}
	do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: edges}, nil)
	do(t, "GET", ts.URL+"/v1/vertices/1/out", nil, nil)

	body, ctype := scrape(t, ts.URL+"/v1/metrics", "text/plain")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ctype)
	}
	for _, want := range []string{
		`xpsim_media_write_lines_total{node="0"}`,
		`xpsim_media_read_lines_total{node="0"}`,
		"\n# TYPE xpsim_write_amplification gauge\n",
		`xpbuffer_hit_ratio{node="`,
		`xpsim_local_accesses_total{node="`,
		"# TYPE xpgraph_http_request_duration_seconds histogram",
		`xpgraph_http_request_duration_seconds_bucket{route="/edges",le="`,
		`xpgraph_http_requests_total{route="/vertices/{id}/out"}`,
		"xpgraph_ingest_edges_accepted_total",
		"xpgraph_elog_occupancy_ratio",
		`xpgraph_phase_seconds_total{phase="logging"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
	// ?format=prometheus works without an Accept header.
	body2, _ := scrape(t, ts.URL+"/v1/metrics?format=prometheus", "")
	if !strings.Contains(body2, "xpsim_media_write_lines_total") {
		t.Error("?format=prometheus did not switch to text exposition")
	}
	// Default Accept still serves the JSON shape.
	var mr MetricsResponse
	if code := do(t, "GET", ts.URL+"/v1/metrics", nil, &mr); code != 200 {
		t.Fatalf("JSON metrics: %d", code)
	}
	if mr.EdgesAccepted != 200 || mr.EdgesApplied != 200 {
		t.Fatalf("JSON metrics: accepted=%d applied=%d, want 200/200", mr.EdgesAccepted, mr.EdgesApplied)
	}
}

// TestMetricsConsistentUnderIngest hammers async ingest while scraping:
// no observation may ever show applied > accepted or a queue depth that
// disagrees with accepted - applied - dropped. Run under -race this also
// pins the counters' synchronization.
func TestMetricsConsistentUnderIngest(t *testing.T) {
	_, ts := testServerCfg(t, Config{QueryThreads: 4, QueueCap: 1 << 14, BatchEdges: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			for i := uint32(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var edges []edgeJSON
				for j := uint32(0); j < 32; j++ {
					edges = append(edges, edgeJSON{Src: (seed*31 + i + j) % 900, Dst: (i + j) % 900})
				}
				do(t, "POST", ts.URL+"/v1/edges?async=1", EdgesRequest{Edges: edges}, nil)
			}
		}(uint32(w))
	}

	deadline := time.After(400 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
		}
		var mr MetricsResponse
		if code := do(t, "GET", ts.URL+"/v1/metrics", nil, &mr); code != 200 {
			t.Fatalf("scrape: %d", code)
		}
		if mr.EdgesApplied > mr.EdgesAccepted {
			t.Fatalf("scrape saw applied %d > accepted %d", mr.EdgesApplied, mr.EdgesAccepted)
		}
		if got := mr.EdgesApplied + mr.EdgesDropped + mr.QueueDepthEdges; got != mr.EdgesAccepted {
			t.Fatalf("scrape saw applied %d + dropped %d + queued %d = %d != accepted %d",
				mr.EdgesApplied, mr.EdgesDropped, mr.QueueDepthEdges, got, mr.EdgesAccepted)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTraceEndpoint: GET /trace returns a Chrome trace-event array of
// phase spans and drains the ring, so the next scrape starts empty.
func TestTraceEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var edges []edgeJSON
	for i := uint32(0); i < 400; i++ {
		edges = append(edges, edgeJSON{Src: i % 100, Dst: (i + 1) % 100})
	}
	do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: edges}, nil)
	do(t, "POST", ts.URL+"/v1/flush", nil, nil)

	body, ctype := scrape(t, ts.URL+"/v1/trace", "")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("Content-Type = %q", ctype)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Pid  int     `json:"pid"`
		Tid  int64   `json:"tid"`
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	complete := 0
	sawLog, sawFlush := false, false
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		complete++
		switch e.Name {
		case "log":
			sawLog = true
		case "flush":
			sawFlush = true
		}
	}
	if complete == 0 || !sawLog || !sawFlush {
		t.Fatalf("trace events incomplete: %d complete, log=%v flush=%v", complete, sawLog, sawFlush)
	}

	// Drained: a second scrape has no complete events.
	body2, _ := scrape(t, ts.URL+"/v1/trace", "")
	var events2 []map[string]any
	if err := json.Unmarshal([]byte(body2), &events2); err != nil {
		t.Fatalf("second trace not valid JSON: %v", err)
	}
	for _, e := range events2 {
		if e["ph"] == "X" {
			t.Fatalf("ring not drained: %v", e)
		}
	}
}

// TestGracefulShutdown: Shutdown applies every accepted async write,
// flushes vertex buffers, and fences new writes with 503.
func TestGracefulShutdown(t *testing.T) {
	srv, ts := testServerCfg(t, Config{QueryThreads: 4, QueueCap: 1 << 14, BatchEdges: 128})
	accepted := int64(0)
	for i := uint32(0); i < 20; i++ {
		var edges []edgeJSON
		for j := uint32(0); j < 50; j++ {
			edges = append(edges, edgeJSON{Src: i*50 + j, Dst: j})
		}
		if code := do(t, "POST", ts.URL+"/v1/edges?async=1", EdgesRequest{Edges: edges}, nil); code != 202 {
			t.Fatalf("async ingest: %d", code)
		}
		accepted += int64(len(edges))
	}
	srv.Shutdown()

	v := srv.cl.Shard(0).PipeStats()
	if v.Queued != 0 {
		t.Fatalf("after Shutdown queue depth = %d, want 0", v.Queued)
	}
	if v.EdgesDropped != 0 {
		t.Fatalf("graceful Shutdown dropped %d edges", v.EdgesDropped)
	}
	if v.EdgesApplied != accepted {
		t.Fatalf("applied %d of %d accepted edges", v.EdgesApplied, accepted)
	}
	// The final flush left nothing buffered in DRAM: the live pool gauge
	// (not the peak watermark) reads zero.
	metrics, _ := scrape(t, ts.URL+"/v1/metrics?format=prometheus", "")
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "xpgraph_pool_used_bytes ") {
			if !strings.HasSuffix(line, " 0") {
				t.Fatalf("pool still holds buffered bytes after final flush: %q", line)
			}
		}
	}

	// New writes are fenced with 503.
	var er errorBody
	code := do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: []edgeJSON{{Src: 1, Dst: 2}}}, &er)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("write after Shutdown: code=%d, want 503", code)
	}
	// Reads keep serving the last published snapshot.
	var nb NeighborsResponse
	if code := do(t, "GET", ts.URL+"/v1/vertices/0/in", nil, &nb); code != 200 {
		t.Fatalf("read after Shutdown: %d", code)
	}
}

// TestMetricCatalogMatchesDesign holds DESIGN.md §8's "Metric catalog"
// tables to the registry of a live server — its store's gauges and
// counters, the machine's device collector, the pipeline's and the
// server's own series — name for name, in both directions. A catalog name
// may abbreviate alternatives as {a,b}; a {key="..."} selector names a
// label and is not part of the name.
func TestMetricCatalogMatchesDesign(t *testing.T) {
	store := func(name string) *core.Store {
		m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
		st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
			Name: name, NumVertices: 1024, LogCapacity: 1 << 12, ArchiveThreshold: 1 << 8, ArchiveThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// One follower, so the replica series exist.
	cfg := Config{}.withDefaults().clusterConfig()
	cfg.Replicas = 1
	cfg.ReplicaFactory = func(int, int) (*core.Store, error) { return store("follower"), nil }
	cl, err := cluster.New([]*core.Store{store("leader")}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCluster(cl, Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: []edgeJSON{{Src: 1, Dst: 2}}}, nil)
	body, _ := scrape(t, ts.URL+"/v1/metrics", "text/plain")
	live := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			live[f[2]] = true
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n### Metric catalog\n")
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]bool{}
	name := regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		// The first cell ends at the first pipe a backslash does not escape.
		cell := line[1:]
		for i := 0; i < len(cell); i++ {
			if cell[i] == '|' && cell[i-1] != '\\' {
				cell = cell[:i]
				break
			}
		}
		for i, tok := range strings.Split(cell, "`") {
			if i%2 == 0 {
				continue
			}
			for _, n := range expandBraces(tok) {
				if !name.MatchString(n) {
					t.Fatalf("catalog entry %q expands to %q, not a series name", tok, n)
				}
				documented[n] = true
			}
		}
	}
	if len(documented) == 0 {
		t.Fatal("no series names found under DESIGN.md's Metric catalog")
	}
	for n := range live {
		if !documented[n] {
			t.Errorf("the registry exports %s; DESIGN.md §8's catalog does not list it", n)
		}
	}
	for n := range documented {
		if !live[n] {
			t.Errorf("DESIGN.md §8's catalog lists %s; the registry does not export it", n)
		}
	}
}

// expandBraces expands every {a,b,...} group of s into its alternatives and
// drops label selectors ({key="..."}).
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	group, rest := s[open+1:end], s[end+1:]
	if strings.Contains(group, "=") {
		return expandBraces(s[:open] + rest)
	}
	var out []string
	for _, alt := range strings.Split(group, ",") {
		out = append(out, expandBraces(s[:open]+alt+rest)...)
	}
	return out
}
