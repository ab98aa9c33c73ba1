package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// typedService is testService with the property layer attached.
func typedService(t *testing.T) *Client {
	t.Helper()
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	st, err := core.New(m, pmem.NewHeap(m), nil, core.Options{
		Name: "clienttyped", NumVertices: 1 << 10, LogCapacity: 1 << 14,
		ArchiveThreshold: 1 << 8, ArchiveThreads: 2, Props: true})
	if err != nil {
		t.Fatal(err)
	}
	return serveStore(t, st)
}

// TestTypedWire is the table-driven stub test of the property-graph
// client surface: each method must hit its route with the documented
// method and JSON body, and decode the documented response shape.
func TestTypedWire(t *testing.T) {
	type recorded struct {
		method, path, ctype string
		body                []byte
	}
	cases := []struct {
		name     string
		call     func(ctx context.Context, c *Client) (any, error)
		method   string
		path     string
		wantBody map[string]any // JSON requests only; nil skips the check
		respond  string
		verify   func(t *testing.T, got any)
	}{
		{
			name: "Labels",
			call: func(ctx context.Context, c *Client) (any, error) {
				return c.Labels(ctx)
			},
			method:  http.MethodGet,
			path:    "/v1/labels",
			respond: `{"labels":["","follows"],"epoch":3,"epoch_vector":[3]}`,
			verify: func(t *testing.T, got any) {
				lt := got.(LabelTable)
				if len(lt.Labels) != 2 || lt.Labels[1] != "follows" || lt.Epoch != 3 {
					t.Fatalf("LabelTable = %+v", lt)
				}
			},
		},
		{
			name: "RegisterLabel",
			call: func(ctx context.Context, c *Client) (any, error) {
				return c.RegisterLabel(ctx, "follows")
			},
			method:   http.MethodPost,
			path:     "/v1/labels",
			wantBody: map[string]any{"name": "follows"},
			respond:  `{"id":1,"name":"follows","epoch":4,"epoch_vector":[4]}`,
			verify: func(t *testing.T, got any) {
				l := got.(Label)
				if l.ID != 1 || l.Name != "follows" {
					t.Fatalf("Label = %+v", l)
				}
			},
		},
		{
			name: "KHopFiltered",
			call: func(ctx context.Context, c *Client) (any, error) {
				return c.KHopFiltered(ctx, 7, 2, []string{"follows"},
					&Filter{Key: 1, Op: "ge", Value: 10})
			},
			method: http.MethodPost,
			path:   "/v1/query/khop",
			wantBody: map[string]any{
				"root": float64(7), "k": float64(2),
				"types":  []any{"follows"},
				"filter": map[string]any{"key": float64(1), "op": "ge", "value": float64(10)},
			},
			respond: `{"root":7,"reached":2,"per_hop":[1,1],"epoch":5,"epoch_vector":[5]}`,
			verify: func(t *testing.T, got any) {
				kh := got.(KHopResult)
				if kh.Reached != 2 || len(kh.PerHop) != 2 {
					t.Fatalf("KHopResult = %+v", kh)
				}
			},
		},
		{
			name: "Path",
			call: func(ctx context.Context, c *Client) (any, error) {
				return c.Path(ctx, 1, 9, 4, []string{"follows"}, nil)
			},
			method: http.MethodPost,
			path:   "/v1/query/path",
			wantBody: map[string]any{
				"root": float64(1), "target": float64(9), "max_depth": float64(4),
				"types": []any{"follows"}, "filter": nil,
			},
			respond: `{"root":1,"target":9,"found":true,"path":[1,4,9],"hops":2,"epoch":6,"epoch_vector":[6]}`,
			verify: func(t *testing.T, got any) {
				p := got.(PathResult)
				if !p.Found || p.Hops != 2 || len(p.Path) != 3 {
					t.Fatalf("PathResult = %+v", p)
				}
			},
		},
		{
			name: "AddTypedEdges",
			call: func(ctx context.Context, c *Client) (any, error) {
				return c.AddTypedEdges(ctx, []Edge{{Src: 1, Dst: 2}}, []uint16{1},
					[]PropSet{{V: 2, Key: 1, Val: 42}})
			},
			method:  http.MethodPost,
			path:    "/v1/ingest/bin",
			respond: `{"accepted":1,"batches":1,"epoch":7,"epoch_vector":[7]}`,
			verify: func(t *testing.T, got any) {
				ir := got.(IngestResult)
				if ir.Accepted != 1 || ir.Epoch != 7 {
					t.Fatalf("IngestResult = %+v", ir)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rec recorded
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec.method, rec.path = r.Method, r.URL.Path
				rec.ctype = r.Header.Get("Content-Type")
				rec.body, _ = io.ReadAll(r.Body)
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, tc.respond)
			}))
			defer stub.Close()

			got, err := tc.call(context.Background(), New(stub.URL, Options{}))
			if err != nil {
				t.Fatal(err)
			}
			if rec.method != tc.method || rec.path != tc.path {
				t.Fatalf("request = %s %s, want %s %s", rec.method, rec.path, tc.method, tc.path)
			}
			if tc.wantBody != nil {
				var sent map[string]any
				if err := json.Unmarshal(rec.body, &sent); err != nil {
					t.Fatalf("body %q: %v", rec.body, err)
				}
				for k, want := range tc.wantBody {
					if gotv, ok := sent[k]; !ok || !jsonEq(gotv, want) {
						t.Fatalf("body[%q] = %#v, want %#v (body %s)", k, gotv, want, rec.body)
					}
				}
			}
			tc.verify(t, got)
		})
	}
}

func jsonEq(a, b any) bool {
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return string(ab) == string(bb)
}

// TestTypedRoundTrip drives the property-graph surface end to end
// against a real single-shard server: register labels, ingest a typed
// batch with vertex properties, and assert the filtered traversals
// prune exactly what the types/filter pair says.
func TestTypedRoundTrip(t *testing.T) {
	c := typedService(t)
	ctx := context.Background()

	follows, err := c.RegisterLabel(ctx, "follows")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := c.RegisterLabel(ctx, "blocks")
	if err != nil {
		t.Fatal(err)
	}
	if follows.ID == 0 || blocks.ID == 0 || follows.ID == blocks.ID {
		t.Fatalf("label ids: follows=%d blocks=%d", follows.ID, blocks.ID)
	}

	// 1-follows->2-follows->3, 1-blocks->4, plus an untyped 1->5.
	// age: v2=30, v3=10, v4=30 (v5 unset).
	ir, err := c.AddTypedEdges(ctx,
		[]Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 1, Dst: 4}},
		[]uint16{follows.ID, follows.ID, blocks.ID},
		[]PropSet{{V: 2, Key: 1, Val: 30}, {V: 3, Key: 1, Val: 10}, {V: 4, Key: 1, Val: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 3 {
		t.Fatalf("AddTypedEdges = %+v", ir)
	}
	if _, err := c.AddEdges(ctx, []Edge{{Src: 1, Dst: 5}}); err != nil {
		t.Fatal(err)
	}

	lt, err := c.Labels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.Labels) != 3 || lt.Labels[follows.ID] != "follows" {
		t.Fatalf("Labels = %+v", lt)
	}

	// Unfiltered 1-hop sees all three out-edges of 1.
	kh, err := c.KHop(ctx, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kh.Reached != 3 {
		t.Fatalf("unfiltered KHop = %+v", kh)
	}
	// Typed: only the follows chain.
	kh, err = c.KHopFiltered(ctx, 1, 2, []string{"follows"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kh.Reached != 2 {
		t.Fatalf("follows KHop = %+v", kh)
	}
	// Typed + predicate: age>=20 keeps v2, prunes v3 and v4.
	kh, err = c.KHopFiltered(ctx, 1, 2, []string{"follows"}, &Filter{Key: 1, Op: "ge", Value: 20})
	if err != nil {
		t.Fatal(err)
	}
	if kh.Reached != 1 {
		t.Fatalf("filtered KHop = %+v", kh)
	}

	p, err := c.Path(ctx, 1, 3, 4, []string{"follows"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Found || p.Hops != 2 || len(p.Path) != 3 || p.Path[0] != 1 || p.Path[2] != 3 {
		t.Fatalf("Path = %+v", p)
	}
	// No follows path to the blocked vertex.
	p, err = c.Path(ctx, 1, 4, 4, []string{"follows"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Found {
		t.Fatalf("Path to blocked vertex = %+v, want not found", p)
	}

	// Unknown type names and bad K bounds answer 400 invalid_argument.
	var ae *APIError
	if _, err := c.KHopFiltered(ctx, 1, 2, []string{"nope"}, nil); !errors.As(err, &ae) ||
		ae.Status != http.StatusBadRequest || ae.Code != "invalid_argument" {
		t.Fatalf("unknown type err = %v", err)
	}
	if _, err := c.KHop(ctx, 1, -1); !errors.As(err, &ae) ||
		ae.Status != http.StatusBadRequest || ae.Code != "invalid_argument" {
		t.Fatalf("negative k err = %v", err)
	}
	if _, err := c.KHop(ctx, 1, 1<<20); !errors.As(err, &ae) || ae.Code != "invalid_argument" {
		t.Fatalf("absurd k err = %v", err)
	}
}

// TestNoPropertyLayer pins the typed surface's failure mode against a
// store built without the property columns: label registration answers
// 501 no_property_layer instead of pretending.
func TestNoPropertyLayer(t *testing.T) {
	c := testService(t)
	var ae *APIError
	if _, err := c.RegisterLabel(context.Background(), "follows"); !errors.As(err, &ae) ||
		ae.Status != http.StatusNotImplemented || ae.Code != "no_property_layer" {
		t.Fatalf("RegisterLabel err = %v, want 501 no_property_layer", err)
	}
}
