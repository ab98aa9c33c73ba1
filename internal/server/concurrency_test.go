package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVersionedRoutes(t *testing.T) {
	_, ts := testServer(t)

	// /v1 is canonical: no deprecation header, epoch in header and body.
	body, _ := json.Marshal(EdgesRequest{Edges: []edgeJSON{{Src: 1, Dst: 2}}})
	resp, err := http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ing IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || ing.Accepted != 1 || ing.Epoch == 0 {
		t.Fatalf("v1 ingest: code=%d resp=%+v", resp.StatusCode, ing)
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Fatal("/v1 route must not carry a Deprecation header")
	}
	if resp.Header.Get("X-Snapshot-Epoch") == "" {
		t.Fatal("/v1 response missing X-Snapshot-Epoch")
	}

	resp, err = http.Get(ts.URL + "/v1/vertices/1/out")
	if err != nil {
		t.Fatal(err)
	}
	var nb NeighborsResponse
	if err := json.NewDecoder(resp.Body).Decode(&nb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nb.Neighbors) != 1 || nb.Neighbors[0] != 2 {
		t.Fatalf("v1 out(1) = %v", nb.Neighbors)
	}
	if nb.Epoch == 0 {
		t.Fatal("neighbor response missing epoch")
	}

	// New v1-era endpoints.
	var hz HealthzResponse
	if code := do(t, "GET", ts.URL+"/v1/healthz", nil, &hz); code != 200 || hz.Status != "ok" {
		t.Fatalf("healthz: code=%d %+v", code, hz)
	}
	var snap snapshotResponse
	if code := do(t, "POST", ts.URL+"/v1/snapshot", nil, &snap); code != 200 || snap.Epoch <= hz.Epoch {
		t.Fatalf("snapshot: code=%d %+v (healthz epoch %d)", code, snap, hz.Epoch)
	}
	var mt MetricsResponse
	if code := do(t, "GET", ts.URL+"/v1/metrics", nil, &mt); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if mt.EdgesApplied != 1 || mt.BatchesApplied < 1 || mt.SnapshotEpoch < snap.Epoch || mt.QueueCapEdges == 0 {
		t.Fatalf("metrics = %+v", mt)
	}
}

// TestLegacyRoutesRemoved pins the API-redesign contract: the pre-/v1
// unversioned aliases served their deprecation release and are gone —
// 404 with the JSON envelope and a successor-version pointer, never the
// old handler.
func TestLegacyRoutesRemoved(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{"/stats", "/edges", "/vertices/1/out", "/query/bfs", "/flush"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("legacy %s: body not the JSON envelope: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || eb.Error.Code != "not_found" {
			t.Fatalf("legacy %s: code=%d envelope=%+v, want 404 not_found", path, resp.StatusCode, eb)
		}
		if resp.Header.Get("Link") == "" {
			t.Fatalf("legacy %s: missing successor-version Link header", path)
		}
	}
}

func TestErrorEnvelope(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/vertices/abc/out")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 || eb.Error.Code != "bad_request" || eb.Error.Message == "" {
		t.Fatalf("envelope: code=%d %+v", resp.StatusCode, eb)
	}
}

// TestConcurrentReadWrite hammers POST /v1/edges and GET
// /v1/vertices/{id}/out from many goroutines. Run under -race: the
// assertion here is that every request succeeds and the final state is
// complete; the race detector asserts the synchronization.
func TestConcurrentReadWrite(t *testing.T) {
	_, ts := testServer(t)
	const writers, readers, perWriter = 6, 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter+readers*perWriter)

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				src := uint32(g*100 + i)
				body, _ := json.Marshal(EdgesRequest{Edges: []edgeJSON{{Src: src, Dst: src + 1}}})
				resp, err := http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("write status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/vertices/%d/out", ts.URL, g*100+i))
				if err != nil {
					errs <- err
					return
				}
				var nb NeighborsResponse
				if err := json.NewDecoder(resp.Body).Decode(&nb); err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("read status %d", resp.StatusCode)
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
	if st.LoggedEdges != writers*perWriter {
		t.Fatalf("logged = %d, want %d", st.LoggedEdges, writers*perWriter)
	}
}

// TestReadsDuringLargeIngest asserts the tentpole property: a GET
// completes while a large, multi-batch ingest is still mid-flight. The
// batchDelay hook stretches the gap between batch applications (outside
// the write lock), and the async write path keeps the client from
// waiting, so the test can observe the overlap deterministically.
func TestReadsDuringLargeIngest(t *testing.T) {
	_, ts := testServerCfg(t, Config{
		QueryThreads: 4,
		BatchEdges:   256,
		QueueCap:     1 << 16,
		Linger:       time.Millisecond,
		batchDelay:   20 * time.Millisecond,
	})

	// Seed a vertex so reads have something stable to fetch.
	body, _ := json.Marshal(EdgesRequest{Edges: []edgeJSON{{Src: 1, Dst: 2}}})
	resp, err := http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Kick off a 4096-edge ingest: 16 batches with 20ms pauses between
	// applications, so the ingest is in flight for ~300ms.
	var big []edgeJSON
	for i := uint32(0); i < 4096; i++ {
		big = append(big, edgeJSON{Src: 5000 + i%50, Dst: i})
	}
	body, _ = json.Marshal(EdgesRequest{Edges: big})
	resp, err = http.Post(ts.URL+"/v1/edges?async=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("async ingest status = %d, want 202", resp.StatusCode)
	}

	// While the queue is non-empty (ingest mid-flight), reads must both
	// complete and succeed.
	readsDuring := 0
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var mt MetricsResponse
		if code := do(t, "GET", ts.URL+"/v1/metrics", nil, &mt); code != 200 {
			t.Fatalf("metrics: %d", code)
		}
		if mt.QueueDepthEdges == 0 {
			break
		}
		start := time.Now()
		var nb NeighborsResponse
		if code := do(t, "GET", ts.URL+"/v1/vertices/1/out", nil, &nb); code != 200 {
			t.Fatalf("read during ingest: %d", code)
		}
		if len(nb.Neighbors) != 1 {
			t.Fatalf("read during ingest: out(1) = %v", nb.Neighbors)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("read blocked for %v during ingest", el)
		}
		readsDuring++
	}
	if readsDuring == 0 {
		t.Skip("ingest drained before a read could overlap (slow machine heuristic)")
	}

	// Eventually all edges apply.
	for time.Now().Before(deadline) {
		var mt MetricsResponse
		do(t, "GET", ts.URL+"/v1/metrics", nil, &mt)
		if mt.EdgesApplied == int64(1+len(big)) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("ingest did not drain")
}

// TestBackpressure fills the bounded queue and expects 429+Retry-After.
func TestBackpressure(t *testing.T) {
	_, ts := testServerCfg(t, Config{
		QueryThreads: 4,
		BatchEdges:   64,
		QueueCap:     512,
		Linger:       time.Millisecond,
		batchDelay:   50 * time.Millisecond,
	})

	// Async-post until the queue rejects. The writer drains 64 edges per
	// 50ms, so 512 queued edges cannot drain between posts.
	var rejected atomic.Bool
	var retryAfter string
	for i := 0; i < 64 && !rejected.Load(); i++ {
		var edges []edgeJSON
		for j := uint32(0); j < 128; j++ {
			edges = append(edges, edgeJSON{Src: uint32(i), Dst: j})
		}
		body, _ := json.Marshal(EdgesRequest{Edges: edges})
		resp, err := http.Post(ts.URL+"/v1/edges?async=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected.Store(true)
			retryAfter = resp.Header.Get("Retry-After")
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if eb.Error.Code != "queue_full" {
				t.Fatalf("error code = %q, want queue_full", eb.Error.Code)
			}
		}
		resp.Body.Close()
	}
	if !rejected.Load() {
		t.Fatal("queue never produced backpressure")
	}
	if retryAfter == "" {
		t.Fatal("429 without Retry-After header")
	}
	var mt MetricsResponse
	do(t, "GET", ts.URL+"/v1/metrics", nil, &mt)
	if mt.RejectedWrites == 0 {
		t.Fatalf("metrics did not count rejections: %+v", mt)
	}

	// An oversized single request is rejected outright, not queued.
	var huge []edgeJSON
	for j := uint32(0); j < 600; j++ {
		huge = append(huge, edgeJSON{Src: 9, Dst: j})
	}
	body, _ := json.Marshal(EdgesRequest{Edges: huge})
	resp, err := http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status = %d, want 413", resp.StatusCode)
	}
}
