package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	return testServerCfg(t, Config{QueryThreads: 8})
}

func testServerCfg(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	st := testStore(t)
	return serve(t, New(st, st.Machine(), cfg))
}

// pipelineServer is testServerCfg with the one-shard cluster's pipeline
// and breaker knobs taken from ccfg.
func pipelineServer(t *testing.T, cfg Config, ccfg cluster.Config) (*Server, *httptest.Server) {
	t.Helper()
	return serveCluster(t, []*core.Store{testStore(t)}, cfg, ccfg)
}

func testStore(t *testing.T) *core.Store {
	t.Helper()
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: "http", NumVertices: 1024, LogCapacity: 1 << 12,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// serveCluster builds a cluster over stores and serves it.
func serveCluster(t *testing.T, stores []*core.Store, cfg Config, ccfg cluster.Config) (*Server, *httptest.Server) {
	t.Helper()
	cl, err := cluster.New(stores, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, NewCluster(cl, cfg))
}

// serve puts srv behind an httptest server; both close at cleanup.
func serve(t *testing.T, srv *Server) (*Server, *httptest.Server) {
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func do(t *testing.T, method, url string, body any, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestIngestAndQuery(t *testing.T) {
	_, ts := testServer(t)
	var ing IngestResponse
	code := do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: []edgeJSON{
		{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}, {Src: 3, Dst: 1},
	}}, &ing)
	if code != 200 || ing.Accepted != 4 {
		t.Fatalf("ingest: code=%d resp=%+v", code, ing)
	}

	var nb NeighborsResponse
	if code := do(t, "GET", ts.URL+"/v1/vertices/1/out", nil, &nb); code != 200 {
		t.Fatalf("out: %d", code)
	}
	if len(nb.Neighbors) != 2 {
		t.Fatalf("out(1) = %v", nb.Neighbors)
	}
	if code := do(t, "GET", ts.URL+"/v1/vertices/1/in", nil, &nb); code != 200 || len(nb.Neighbors) != 1 {
		t.Fatalf("in(1): code=%d %v", code, nb.Neighbors)
	}

	var deg degreeResponse
	do(t, "GET", ts.URL+"/v1/vertices/1/degree", nil, &deg)
	if deg.Out != 2 || deg.In != 1 {
		t.Fatalf("degree = %+v", deg)
	}
}

func TestDeleteEdges(t *testing.T) {
	_, ts := testServer(t)
	do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: []edgeJSON{{Src: 5, Dst: 6}, {Src: 5, Dst: 7}}}, nil)
	if code := do(t, "DELETE", ts.URL+"/v1/edges", EdgesRequest{Edges: []edgeJSON{{Src: 5, Dst: 6}}}, nil); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	var nb NeighborsResponse
	do(t, "GET", ts.URL+"/v1/vertices/5/out", nil, &nb)
	if len(nb.Neighbors) != 1 || nb.Neighbors[0] != 7 {
		t.Fatalf("after delete out(5) = %v", nb.Neighbors)
	}
}

func TestQueries(t *testing.T) {
	_, ts := testServer(t)
	// A small chain plus a hub.
	var edges []edgeJSON
	for i := uint32(0); i < 20; i++ {
		edges = append(edges, edgeJSON{Src: i, Dst: i + 1})
		edges = append(edges, edgeJSON{Src: i + 100, Dst: 0})
	}
	do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: edges}, nil)

	var bfs bfsResponse
	do(t, "POST", ts.URL+"/v1/query/bfs", bfsRequest{Root: 0}, &bfs)
	if bfs.Visited != 21 {
		t.Fatalf("bfs visited = %d, want 21", bfs.Visited)
	}

	var pr pageRankResponse
	do(t, "POST", ts.URL+"/v1/query/pagerank", pageRankRequest{Iterations: 5, Top: 3}, &pr)
	if len(pr.Top) != 3 {
		t.Fatalf("pagerank top = %+v", pr.Top)
	}
	if pr.Top[0].Rank < pr.Top[1].Rank || pr.Top[1].Rank < pr.Top[2].Rank {
		t.Fatalf("top list not sorted: %+v", pr.Top)
	}
	// The 20-follower hub must outrank an arbitrary leaf vertex.
	var all pageRankResponse
	do(t, "POST", ts.URL+"/v1/query/pagerank", pageRankRequest{Iterations: 5, Top: 1 << 20}, &all)
	var hub, leaf float64
	for _, rv := range all.Top {
		if rv.Vertex == 0 {
			hub = rv.Rank
		}
		if rv.Vertex == 100 {
			leaf = rv.Rank
		}
	}
	if hub <= leaf {
		t.Fatalf("hub rank %g <= leaf rank %g", hub, leaf)
	}

	var cc ccResponse
	do(t, "POST", ts.URL+"/v1/query/cc", struct{}{}, &cc)
	if cc.Components <= 0 {
		t.Fatalf("cc = %+v", cc)
	}
}

func TestStatsFlushCompact(t *testing.T) {
	_, ts := testServer(t)
	do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: []edgeJSON{{Src: 1, Dst: 2}}}, nil)
	var st statsResponse
	if code := do(t, "GET", ts.URL+"/v1/stats", nil, &st); code != 200 {
		t.Fatal("stats failed")
	}
	if st.LoggedEdges != 1 || st.NumVertices < 3 || st.ElogPMEMBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if code := do(t, "POST", ts.URL+"/v1/flush", nil, nil); code != 200 {
		t.Fatal("flush failed")
	}
	if code := do(t, "POST", ts.URL+"/v1/compact/1", nil, nil); code != 200 {
		t.Fatal("compact failed")
	}
	var nb NeighborsResponse
	do(t, "GET", ts.URL+"/v1/vertices/1/out", nil, &nb)
	if len(nb.Neighbors) != 1 {
		t.Fatalf("after flush+compact: %v", nb.Neighbors)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t)
	if code := do(t, "POST", ts.URL+"/v1/edges", map[string]any{"edges": []any{}}, nil); code != 400 {
		t.Fatalf("empty edges = %d, want 400", code)
	}
	if code := do(t, "PUT", ts.URL+"/v1/edges", EdgesRequest{Edges: []edgeJSON{{Src: 1, Dst: 2}}}, nil); code != 405 {
		t.Fatalf("PUT = %d, want 405", code)
	}
	if code := do(t, "GET", ts.URL+"/v1/vertices/abc/out", nil, nil); code != 400 {
		t.Fatalf("bad id = %d, want 400", code)
	}
	if code := do(t, "GET", ts.URL+"/v1/vertices/1/sideways", nil, nil); code != 404 {
		t.Fatalf("bad view = %d, want 404", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/vertices/1/out", nil, nil); code != 405 {
		t.Fatalf("POST vertex = %d, want 405", code)
	}
}

func TestConcurrentClients(t *testing.T) {
	// The HTTP layer is concurrent; the store is serialized behind the
	// server mutex. Hammer it from several goroutines.
	_, ts := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				src := uint32(g*100 + i)
				body, _ := json.Marshal(EdgesRequest{Edges: []edgeJSON{{Src: src, Dst: src + 1}}})
				resp, err := http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var st statsResponse
	do(t, "GET", ts.URL+"/v1/stats", nil, &st)
	if st.LoggedEdges != 64 {
		t.Fatalf("logged = %d, want 64", st.LoggedEdges)
	}
}

func TestKHopEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var edges []edgeJSON
	for i := uint32(0); i < 6; i++ {
		edges = append(edges, edgeJSON{Src: i, Dst: i + 1})
	}
	do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: edges}, nil)
	var kh KHopResponse
	if code := do(t, "POST", ts.URL+"/v1/query/khop", KHopRequest{Root: 0, K: 3}, &kh); code != 200 {
		t.Fatalf("khop: %d", code)
	}
	if kh.Reached != 3 {
		t.Fatalf("khop reached %d, want 3", kh.Reached)
	}
}

// TestDegreeOnDeadPartitionFailsTyped: with a shard down and no replica
// to fail over to, the degree route must answer 503 partition_down like
// /out and /in on the same view — not 200 with the dead partition's
// records silently missing from the counts.
func TestDegreeOnDeadPartitionFailsTyped(t *testing.T) {
	stores := make([]*core.Store, 2)
	for i := range stores {
		m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
		st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
			Name: fmt.Sprintf("shard%d", i), NumVertices: 1024, LogCapacity: 1 << 12,
			ArchiveThreshold: 1 << 8, ArchiveThreads: 2})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	srv, ts := serveCluster(t, stores, Config{}, cluster.Config{})
	cl := srv.Cluster()

	const victim = 0
	var deadV, liveV uint32
	for v := uint32(1); deadV == 0 || liveV == 0; v++ {
		if cl.Owner(v) == victim {
			deadV = v
		} else {
			liveV = v
		}
	}
	if code := do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: []edgeJSON{
		{Src: deadV, Dst: liveV}, {Src: liveV, Dst: deadV},
	}}, nil); code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	var dg degreeResponse
	if code := do(t, "GET", fmt.Sprintf("%s/v1/vertices/%d/degree", ts.URL, liveV), nil, &dg); code != 200 || dg.Out != 1 || dg.In != 1 {
		t.Fatalf("degree before the kill: code=%d %+v", code, dg)
	}

	cl.KillShard(victim)
	for _, path := range []string{
		fmt.Sprintf("%d/out", deadV), fmt.Sprintf("%d/degree", deadV),
		fmt.Sprintf("%d/degree", liveV), // its in-count sums over the dead partition too
	} {
		var eb errorBody
		code := do(t, "GET", ts.URL+"/v1/vertices/"+path, nil, &eb)
		if code != http.StatusServiceUnavailable || eb.Error.Code != "partition_down" ||
			eb.Error.Shard == nil || *eb.Error.Shard != victim {
			t.Fatalf("GET %s with partition %d down: code=%d body=%+v", path, victim, code, eb)
		}
	}
}

// TestNewClusterRefusesADisagreeingBatchEdges: the cluster's pipelines
// are fixed at cluster.New, so NewCluster takes a Config.BatchEdges only
// when it is the cluster's own, and panics rather than ignore another.
func TestNewClusterRefusesADisagreeingBatchEdges(t *testing.T) {
	cl, err := cluster.New([]*core.Store{testStore(t)}, cluster.Config{BatchEdges: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster accepted BatchEdges 128 over a cluster applying 64")
		}
	}()
	NewCluster(cl, Config{BatchEdges: 128})
}
