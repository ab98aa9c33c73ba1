package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/graph"
	"repro/internal/ingest"
)

// postBin posts a raw body to /v1/ingest/bin and decodes the response.
func postBin(t *testing.T, url string, body []byte, contentType string, out any) int {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/ingest/bin", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestIngestBinRoundTrip(t *testing.T) {
	for _, compact := range []bool{false, true} {
		_, ts := testServer(t)
		edges := []graph.Edge{
			{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}, {Src: 3, Dst: 1},
		}
		var ing IngestResponse
		code := postBin(t, ts.URL, ingest.EncodeBatch(edges, compact), ingest.ContentTypeBatch, &ing)
		if code != 200 || ing.Accepted != 4 || ing.Epoch == 0 {
			t.Fatalf("compact=%v: code=%d resp=%+v", compact, code, ing)
		}
		var nb NeighborsResponse
		if code := do(t, "GET", ts.URL+"/v1/vertices/1/out", nil, &nb); code != 200 || len(nb.Neighbors) != 2 {
			t.Fatalf("compact=%v: out(1) code=%d %v", compact, code, nb.Neighbors)
		}
	}
}

func TestIngestBinDeletes(t *testing.T) {
	_, ts := testServer(t)
	adds := []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}}
	if code := postBin(t, ts.URL, ingest.EncodeBatch(adds, false), ingest.ContentTypeBatch, nil); code != 200 {
		t.Fatalf("adds: %d", code)
	}
	dels := []graph.Edge{graph.Del(1, 2)}
	if code := postBin(t, ts.URL, ingest.EncodeBatch(dels, false), ingest.ContentTypeBatch, nil); code != 200 {
		t.Fatalf("deletes: %d", code)
	}
	var nb NeighborsResponse
	if code := do(t, "GET", ts.URL+"/v1/vertices/1/out", nil, &nb); code != 200 {
		t.Fatalf("out: %d", code)
	}
	if len(nb.Neighbors) != 1 || nb.Neighbors[0] != 3 {
		t.Fatalf("out(1) after delete = %v", nb.Neighbors)
	}
}

func TestIngestBinAsync(t *testing.T) {
	srv, ts := testServer(t)
	edges := []graph.Edge{{Src: 9, Dst: 10}}
	var ing IngestResponse
	code := postBin(t, ts.URL, ingest.EncodeBatch(edges, true), ingest.ContentTypeBatch, &ing)
	if code != 200 {
		t.Fatalf("sync warmup: %d", code)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/ingest/bin?async=1",
		bytes.NewReader(ingest.EncodeBatch(edges, true)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ingest.ContentTypeBatch)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("async: %d", resp.StatusCode)
	}
	srv.Shutdown() // drain so the async write lands before cleanup
}

func TestIngestBinErrors(t *testing.T) {
	_, ts := testServerCfg(t, Config{QueryThreads: 4, QueueCap: 16})

	var e errorBody
	if code := postBin(t, ts.URL, ingest.EncodeBatch([]graph.Edge{{Src: 1, Dst: 2}}, false),
		"application/json", &e); code != 415 || e.Error.Code != "unsupported_media_type" {
		t.Fatalf("wrong content type: code=%d %+v", code, e)
	}

	e = errorBody{}
	if code := postBin(t, ts.URL, []byte("NOPE"), ingest.ContentTypeBatch, &e); code != 400 || e.Error.Code != "bad_frame" {
		t.Fatalf("bad magic: code=%d %+v", code, e)
	}

	e = errorBody{}
	truncated := ingest.EncodeBatch([]graph.Edge{{Src: 1, Dst: 2}}, false)
	truncated = truncated[:len(truncated)-3]
	if code := postBin(t, ts.URL, truncated, ingest.ContentTypeBatch, &e); code != 400 || e.Error.Code != "bad_frame" {
		t.Fatalf("truncated: code=%d %+v", code, e)
	}

	e = errorBody{}
	var big []graph.Edge
	for i := uint32(0); i < 17; i++ {
		big = append(big, graph.Edge{Src: i, Dst: i + 1})
	}
	if code := postBin(t, ts.URL, ingest.EncodeBatch(big, false), ingest.ContentTypeBatch, &e); code != 413 || e.Error.Code != "batch_too_large" {
		t.Fatalf("too large: code=%d %+v", code, e)
	}

	e = errorBody{}
	if code := postBin(t, ts.URL, []byte(ingest.BatchMagic), ingest.ContentTypeBatch, &e); code != 400 || e.Error.Code != "bad_request" {
		t.Fatalf("empty batch: code=%d %+v", code, e)
	}

	e = errorBody{}
	if code := do(t, "GET", ts.URL+"/v1/ingest/bin", nil, &e); code != 405 || e.Error.Code != "method_not_allowed" {
		t.Fatalf("GET: code=%d %+v", code, e)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	_, ts := testServerCfg(t, Config{QueryThreads: 4, MaxBodyBytes: 64})
	var big []edgeJSON
	for i := uint32(0); i < 64; i++ {
		big = append(big, edgeJSON{Src: i, Dst: i + 1})
	}
	var e errorBody
	if code := do(t, "POST", ts.URL+"/v1/edges", EdgesRequest{Edges: big}, &e); code != 413 || e.Error.Code != "batch_too_large" {
		t.Fatalf("oversized body: code=%d %+v", code, e)
	}
}
