package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/xpsim"
)

func testService(t *testing.T) *Client {
	t.Helper()
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: "clienttest", NumVertices: 1 << 10, LogCapacity: 1 << 14,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return serveStore(t, st)
}

// serveStore serves st through a real server whose pipeline lingers 1ms.
func serveStore(t *testing.T, st *core.Store) *Client {
	t.Helper()
	cl, err := cluster.New([]*core.Store{st}, cluster.Config{Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewCluster(cl, server.Config{QueryThreads: 4})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return New(ts.URL, Options{})
}

// TestRoundTrip drives the typed client end to end against a real
// server: JSON ingest, binary ingest, point reads, degree, stats,
// health, admin, and the analytics queries — asserting the epoch vector
// arrives everywhere (length 1: single-shard deployment).
func TestRoundTrip(t *testing.T) {
	c := testService(t)
	ctx := context.Background()

	ir, err := c.AddEdges(ctx, []Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 3 || ir.Epoch == 0 || len(ir.EpochVector) != 1 {
		t.Fatalf("AddEdges = %+v", ir)
	}

	ir, err = c.AddEdgesBinary(ctx, []Edge{{Src: 3, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 1 {
		t.Fatalf("AddEdgesBinary = %+v", ir)
	}

	nb, err := c.OutNeighbors(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Neighbors) != 2 || len(nb.EpochVector) != 1 {
		t.Fatalf("OutNeighbors(1) = %+v", nb)
	}
	in, err := c.InNeighbors(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Neighbors) != 2 {
		t.Fatalf("InNeighbors(3) = %+v", in)
	}
	dg, err := c.Degree(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Out != 2 {
		t.Fatalf("Degree(1) = %+v", dg)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.LoggedEdges != 4 || st.Shards != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Shards) != 1 {
		t.Fatalf("Healthz = %+v", h)
	}

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch <= ir.Epoch {
		t.Fatalf("Snapshot epoch %d did not advance past %d", snap.Epoch, ir.Epoch)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(ctx, 1); err != nil {
		t.Fatal(err)
	}

	bfs, err := c.BFS(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Visited != 3 {
		t.Fatalf("BFS = %+v", bfs)
	}
	pr, err := c.PageRank(ctx, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Top) != 2 {
		t.Fatalf("PageRank = %+v", pr)
	}
	cc, err := c.CC(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Components == 0 {
		t.Fatalf("CC = %+v", cc)
	}
	kh, err := c.KHop(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if kh.Reached == 0 {
		t.Fatalf("KHop = %+v", kh)
	}
}

// TestRetryOn429 pins the retry contract: a write shed with 429 +
// Retry-After is replayed (honoring the header) until it succeeds,
// within Options.Retries.
func TestRetryOn429(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/edges" {
			t.Errorf("unexpected path %q", r.URL.Path)
		}
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"queue_full","message":"full","shard":0}}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"accepted":1,"epoch":2,"epoch_vector":[2]}`)
	}))
	defer stub.Close()

	c := New(stub.URL, Options{Retries: 3})
	ir, err := c.AddEdges(context.Background(), []Edge{{Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 1 || calls.Load() != 3 {
		t.Fatalf("accepted=%d calls=%d, want 1 accepted after 3 calls", ir.Accepted, calls.Load())
	}
}

// TestRetryExhaustion: when every attempt sheds, the final 429 surfaces
// as a typed *APIError carrying the shard attribution.
func TestRetryExhaustion(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":{"code":"queue_full","message":"full","shard":2,"epoch_vector":[1,1,1,1]}}`)
	}))
	defer stub.Close()

	c := New(stub.URL, Options{Retries: 2})
	_, err := c.AddEdges(context.Background(), []Edge{{Src: 1, Dst: 2}})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.Status != 429 || ae.Code != "queue_full" || ae.Shard == nil || *ae.Shard != 2 || len(ae.EpochVector) != 4 {
		t.Fatalf("APIError = %+v", ae)
	}
	if calls.Load() != 3 { // initial + 2 retries
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

// TestNo503Retry: 503 circuit_open is NOT retried — it surfaces
// immediately for the caller to decide.
func TestNo503Retry(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"circuit_open","message":"open"}}`)
	}))
	defer stub.Close()

	c := New(stub.URL, Options{Retries: 5})
	_, err := c.AddEdges(context.Background(), []Edge{{Src: 1, Dst: 2}})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "circuit_open" {
		t.Fatalf("err = %v, want circuit_open APIError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want exactly 1 (no 503 retry)", calls.Load())
	}
	if ae.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s", ae.RetryAfter)
	}
}
