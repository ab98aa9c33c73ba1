package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestGracefulShutdownDuringScrub is the satellite-4 regression test at
// the serving layer: a MediaGuard server with a tight background-scrub
// period takes concurrent writes while Shutdown lands. The drain must
// apply every accepted write, run its final flush, and return without
// racing the scrub ticks — no deadlock, no panic, and the counters add
// up afterwards. Run under -race this pins that ScrubEvery work and the
// graceful drain cannot interleave on a shard's writer goroutine.
func TestGracefulShutdownDuringScrub(t *testing.T) {
	srv, ts, _ := mediaServer(t, Config{QueryThreads: 4}, cluster.Config{
		// Scrub constantly so Shutdown almost certainly lands with a
		// scrub tick pending or in flight.
		ScrubEvery: 200 * time.Microsecond,
		BatchEdges: 64,
		Linger:     time.Millisecond,
	})

	// Hammer writes from several goroutines while the scrubber spins.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted, rejected int64
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var edges []edgeJSON
				for k := 0; k < 16; k++ {
					edges = append(edges, edgeJSON{
						Src: uint32((g*1000 + i*16 + k) % 1024),
						Dst: uint32((g + i + k) % 1024),
					})
				}
				body, _ := json.Marshal(EdgesRequest{Edges: edges})
				resp, err := http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
				if err != nil {
					return // listener closed during shutdown
				}
				resp.Body.Close()
				mu.Lock()
				if resp.StatusCode == 200 {
					accepted += int64(len(edges))
				} else {
					rejected++
				}
				mu.Unlock()
			}
		}(g)
	}

	// Let writes and scrubs overlap for a while, then drain gracefully
	// mid-traffic. Shutdown must return promptly even with scrub ticks
	// firing every 200us.
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hung with background scrubs in flight")
	}
	close(stop)
	wg.Wait()

	// After the drain every accepted synchronous write was applied: the
	// pipeline counters must cover everything we got a 200 for.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	acc := accepted
	mu.Unlock()
	if metrics.EdgesApplied < acc {
		t.Fatalf("drain lost writes: %d edges got 200 but only %d applied (%d dropped)",
			acc, metrics.EdgesApplied, metrics.EdgesDropped)
	}
	if metrics.QueueDepthEdges != 0 {
		t.Fatalf("graceful drain left %d edges queued", metrics.QueueDepthEdges)
	}

	// The pipeline is fenced: post-shutdown writes answer shutting_down.
	body, _ := json.Marshal(EdgesRequest{Edges: []edgeJSON{{Src: 1, Dst: 2}}})
	resp, err = http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown write: got %d, want 503", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "shutting_down" {
		t.Fatalf("post-shutdown error code: got %q, want shutting_down", env.Error.Code)
	}
}

// TestShutdownIdempotentAfterScrubbyLife pins that Shutdown then Close
// is safe (Close must be a no-op) even when the server spent its life
// scrubbing.
func TestShutdownIdempotentAfterScrubbyLife(t *testing.T) {
	srv, ts, _ := mediaServer(t, Config{}, cluster.Config{ScrubEvery: 100 * time.Microsecond})
	for i := 0; i < 4; i++ {
		body, _ := json.Marshal(EdgesRequest{Edges: []edgeJSON{
			{Src: uint32(i), Dst: uint32(i + 1)},
		}})
		resp, err := http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("write %d: %d", i, resp.StatusCode)
		}
		time.Sleep(time.Millisecond) // let scrub ticks land between writes
	}
	srv.Shutdown()
	srv.Close() // registered cleanup will call it again; all no-ops
	if err := pingHealthz(ts.URL); err == nil {
		// healthz still serves (read path is lock-free against a
		// published snapshot); that is fine — just don't hang.
		_ = err
	}
}

func pingHealthz(base string) error {
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		return fmt.Errorf("healthz: %d", resp.StatusCode)
	}
	return nil
}
