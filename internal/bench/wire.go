package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/xpsim"
)

func init() {
	register("wire", "Binary batch ingest protocol + delta-varint adjacency density", wire)
}

// jsonBodyFor renders edges as the POST /v1/edges JSON request body.
func jsonBodyFor(edges []graph.Edge) []byte {
	type edgeJSON struct {
		Src uint32 `json:"src"`
		Dst uint32 `json:"dst"`
	}
	var body struct {
		Edges []edgeJSON `json:"edges"`
	}
	body.Edges = make([]edgeJSON, len(edges))
	for i, e := range edges {
		body.Edges[i] = edgeJSON{Src: e.Src, Dst: e.Dst}
	}
	buf, err := json.Marshal(body)
	if err != nil {
		panic(err) // static shape; cannot fail
	}
	return buf
}

// decodeRate times fn over the body a few times and reports the best
// edges-per-second rate (host clock; the decoders are pure CPU).
func decodeRate(nEdges int, rounds int, fn func() error) (float64, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best <= 0 {
		best = time.Nanosecond
	}
	return float64(nEdges) / best.Seconds(), nil
}

// khopSample is how many 2-hops khop2Max takes the slowest of.
const khopSample = 64

// khop2Max is the benchmark's read on one store: the slowest simulated
// 2-hop over a fixed sample of roots — the vertices at a stride through the
// ID space whose out-degree is 1..64, as the benchmark picks its k-hop
// roots. Its first level can hold a hub, whose expansion sets the time.
func khop2Max(e *analytics.Engine, s *core.Store) int64 {
	numV := s.NumVertices()
	step := max(numV/(4*khopSample), 1)
	var slowest int64
	for r, n := graph.VID(0), 0; r < numV && n < khopSample; r += step {
		if d := s.OutDegree(r); d == 0 || d > 64 {
			continue
		}
		slowest = max(slowest, e.KHop(r, 2).SimNs)
		n++
	}
	return slowest
}

// wire regenerates the PR-6 evaluation: binary batch decode throughput
// vs the JSON handler path, and delta-varint adjacency density vs the
// fixed 4-byte layout on a power-law ingest.
func wire(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "TT")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "wire",
		Title: "Binary batch ingest + delta-varint adjacency blocks",
		Columns: []string{"dataset", "edges", "json_Medges_s", "bin_Medges_s", "bin_speedup",
			"fixed_edges_per_line", "varint_edges_per_line", "density_gain",
			"fixed_wr_B_edge", "varint_wr_B_edge"},
		Notes: []string{
			"decode throughput is host-clock (transport decode only); density is simulated media layout",
			"edges_per_line = live records per 256 B XPLine of adjacency block footprint after compaction",
		},
	}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		n := float64(len(edges))

		// Transport decode throughput: the same edge stream through the
		// streaming JSON decoder and the binary batch decoder, both into
		// a reused destination buffer.
		jsonBody := jsonBodyFor(edges)
		binBody := ingest.EncodeBatch(edges, true)
		dst := make([]graph.Edge, 0, len(edges))
		const rounds = 3
		jsonRate, err := decodeRate(len(edges), rounds, func() error {
			var derr error
			dst, derr = ingest.DecodeJSONEdges(bytes.NewReader(jsonBody), dst[:0], false, 0)
			return derr
		})
		if err != nil {
			return Table{}, fmt.Errorf("wire: json decode: %w", err)
		}
		binRate, err := decodeRate(len(edges), rounds, func() error {
			var derr error
			dst, derr = ingest.DecodeBatch(bytes.NewReader(binBody), dst[:0], 0)
			return derr
		})
		if err != nil {
			return Table{}, fmt.Errorf("wire: binary decode: %w", err)
		}

		// Adjacency density: ingest + flush + whole-store compaction on
		// both block formats, measuring the live layout and the total
		// media write traffic.
		key := dsCell(ds, len(edges))
		var perLine, wrBytes [2]float64 // [fixed, varint]
		for i, format := range []string{"fixed", "varint"} {
			s, m, _, err := ingestXP(edges, ds.NumVertices(), cfg, func(o *core.Options) {
				o.CompressedAdj = format == "varint"
			})
			if err != nil {
				return Table{}, err
			}
			if err := s.FlushAllVbufs(); err != nil {
				return Table{}, err
			}
			ctx := xpsim.NewCtx(xpsim.NodeUnbound)
			if err := s.CompactAllAdjs(ctx); err != nil {
				return Table{}, err
			}
			ls := s.AdjLayout(ctx)
			// Total simulated media write traffic of the whole run, per
			// input edge, and live records per 256 B XPLine of block
			// footprint (headers included — the real on-media cost).
			wrBytes[i] = float64(m.TotalStats().MediaWriteBytes()) / n
			// The same traffic split by the pmem region the lines belong to.
			var logLines, adjLines int64
			s.MediaWriteLines(func(region string, lines int64) {
				if region == "elog" {
					logLines += lines
				} else if strings.HasPrefix(region, "adj-") {
					adjLines += lines
				}
			})
			t.derive(key.Key+"/"+format+"_log_wr_B_edge",
				num(float64(logLines*xpsim.XPLineSize)/n, "%.2f", "B/edge", Lower).bound(simBound))
			t.derive(key.Key+"/"+format+"_adj_wr_B_edge",
				num(float64(adjLines*xpsim.XPLineSize)/n, "%.2f", "B/edge", Lower).bound(simBound))
			if ls.BlockBytes > 0 {
				perLine[i] = float64(ls.Records) * float64(xpsim.XPLineSize) / float64(ls.BlockBytes)
			}
			if ls.Records > 0 {
				t.derive(key.Key+"/"+format+"_payload_B_edge",
					num(float64(ls.PayloadBytes)/float64(ls.Records), "%.2f", "B/edge", Lower).bound(simBound))
			}
			// The read side of the same blocks: one PageRank iteration over
			// the compacted store at 8 query workers, 4 a node — the media
			// lines it reads and the XPLine accesses it makes.
			eng := analytics.NewEngine(s, &m.Lat, 8)
			before := m.TotalStats()
			eng.PageRank(1)
			pr := m.TotalStats().Sub(before)
			t.derive(key.Key+"/"+format+"_pr_rd_lines", count(pr.MediaReadLines, "lines", Lower).bound(simBound))
			t.derive(key.Key+"/"+format+"_pr_accesses", count(pr.BufHits+pr.BufMisses, "accesses", Lower).bound(simBound))
			t.derive(key.Key+"/"+format+"_khop2_max_us",
				num(float64(khop2Max(eng, s))/1e3, "%.2f", "us", Lower).bound(simBound))
		}
		gain := 0.0
		if perLine[0] > 0 {
			gain = perLine[1] / perLine[0]
		}

		t.add(key, text(fmt.Sprint(len(edges))),
			num(jsonRate/1e6, "%.2f", "Medges/s", Higher),
			num(binRate/1e6, "%.2f", "Medges/s", Higher),
			num(binRate/jsonRate, "%.2fx", "x", Higher).floor(2).bound(0.5),
			num(perLine[0], "%.1f", "edges/line", Higher).bound(simBound),
			num(perLine[1], "%.1f", "edges/line", Higher).bound(simBound),
			num(gain, "%.2fx", "x", Higher).floor(1.5).bound(simBound),
			num(wrBytes[0], "%.1f", "B/edge", Lower).bound(simBound),
			num(wrBytes[1], "%.1f", "B/edge", Lower).bound(simBound))
		t.derive(key.Key+"/json_wire_B_edge", num(float64(len(jsonBody))/n, "%.2f", "B/edge", Lower).bound(simBound))
		t.derive(key.Key+"/bin_wire_B_edge", num(float64(len(binBody))/n, "%.2f", "B/edge", Lower).bound(simBound))
	}
	return t, nil
}
