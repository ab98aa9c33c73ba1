// Package gen produces evolving-graph workloads. The paper evaluates on
// four real-world graphs (Twitter, Friendster, UKdomain, YahooWeb) and
// three Graph500 Kronecker graphs (Kron28-30). The real graphs are not
// redistributable and the originals are billions of edges, so the catalog
// here provides ~1/1024-scale RMAT stand-ins that preserve each graph's
// |E|/|V| ratio and power-law degree skew — the two properties XPGraph's
// design decisions depend on (§III-C). The Kron graphs are generated with
// the Graph500 RMAT parameters directly, scaled the same way.
package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/splitmix"
)

// RMAT generates numEdges directed edges over 2^scale vertices using the
// recursive-matrix method with the Graph500 parameters
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05).
func RMAT(scale int, numEdges int64, seed uint64) []graph.Edge {
	const a, b, c = 0.57, 0.19, 0.19
	rng := splitmix.Rand(seed)
	edges := make([]graph.Edge, numEdges)
	for i := range edges {
		var src, dst uint32
		for bit := 0; bit < scale; bit++ {
			r := rng.Float()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges[i] = graph.Edge{Src: src, Dst: dst}
	}
	return edges
}

// Uniform generates numEdges edges uniformly over numV vertices
// (Erdős–Rényi-style; useful as a low-skew contrast workload).
func Uniform(numV uint32, numEdges int64, seed uint64) []graph.Edge {
	rng := splitmix.Rand(seed)
	edges := make([]graph.Edge, numEdges)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: uint32(rng.Next() % uint64(numV)),
			Dst: uint32(rng.Next() % uint64(numV)),
		}
	}
	return edges
}

// Dataset describes one catalog workload.
type Dataset struct {
	Name  string // paper name (the generated stand-in is ~1/1024 scale)
	Full  string
	Scale int   // RMAT scale: 2^Scale vertices
	Edges int64 // edge count
	Seed  uint64
	// PaperV/PaperE record the original graph's size for documentation.
	PaperV, PaperE string
}

// NumVertices reports the vertex-ID space of the dataset.
func (d Dataset) NumVertices() uint32 { return 1 << d.Scale }

// Generate materializes the edge stream.
func (d Dataset) Generate() []graph.Edge { return RMAT(d.Scale, d.Edges, d.Seed) }

// BinBytes reports the binary edge-list size ("Bin Size" of Table II).
func (d Dataset) BinBytes() int64 { return d.Edges * graph.EdgeBytes }

// Catalog returns the seven evaluation datasets of Table II at ~1/1024
// scale, preserving each |E|/|V| ratio.
func Catalog() []Dataset {
	return []Dataset{
		{Name: "TT", Full: "Twitter", Scale: 16, Edges: 1_465_000, Seed: 0x7717, PaperV: "61.6M", PaperE: "1.5B"},
		{Name: "FS", Full: "Friendster", Scale: 16, Edges: 2_539_000, Seed: 0xF500, PaperV: "68.3M", PaperE: "2.6B"},
		{Name: "UK", Full: "UKdomain", Scale: 17, Edges: 3_027_000, Seed: 0x0071, PaperV: "101.7M", PaperE: "3.1B"},
		{Name: "YW", Full: "YahooWeb", Scale: 21, Edges: 6_445_000, Seed: 0x9A00, PaperV: "1.4B", PaperE: "6.6B"},
		{Name: "K28", Full: "Kron28", Scale: 18, Edges: 4_194_304, Seed: 0x2800, PaperV: "256M", PaperE: "4B"},
		{Name: "K29", Full: "Kron29", Scale: 19, Edges: 8_388_608, Seed: 0x2900, PaperV: "512M", PaperE: "8B"},
		{Name: "K30", Full: "Kron30", Scale: 20, Edges: 16_777_216, Seed: 0x3000, PaperV: "1B", PaperE: "16B"},
	}
}

// ByName finds a catalog dataset.
func ByName(name string) (Dataset, error) {
	for _, d := range Catalog() {
		if d.Name == name || d.Full == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("gen: unknown dataset %q", name)
}

// DegreeHistogram buckets out-degrees: [0]=deg 0, [1]=1-2, [2]=3-7,
// [3]=8-63, [4]=64+. Real-world graphs put >40%% of vertices in the 1-2
// bucket (§III-C); the catalog's RMAT stand-ins must too.
func DegreeHistogram(edges []graph.Edge, numV uint32) [5]int64 {
	deg := make([]uint32, numV)
	for _, e := range edges {
		if !e.IsDelete() && e.Src < numV {
			deg[e.Src]++
		}
	}
	var h [5]int64
	for _, d := range deg {
		switch {
		case d == 0:
			h[0]++
		case d <= 2:
			h[1]++
		case d <= 7:
			h[2]++
		case d <= 63:
			h[3]++
		default:
			h[4]++
		}
	}
	return h
}

// Evolving produces a mixed add/delete update stream over a power-law
// base: adds come from RMAT, and with probability delRatio an update
// deletes a previously added (still-live) edge — the evolving-graph
// workload shape of the paper's title that pure bulk loads do not
// exercise.
func Evolving(scale int, updates int64, delRatio float64, seed uint64) []graph.Edge {
	rng := splitmix.Rand(seed)
	adds := RMAT(scale, updates, seed^0xE0177E)
	out := make([]graph.Edge, 0, updates)
	live := make([]graph.Edge, 0, updates)
	ai := 0
	for int64(len(out)) < updates {
		if len(live) > 0 && rng.Float() < delRatio {
			i := int(rng.Next() % uint64(len(live)))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, graph.Del(e.Src, e.Dst))
			continue
		}
		e := adds[ai%len(adds)]
		ai++
		out = append(out, e)
		live = append(live, e)
	}
	return out
}
