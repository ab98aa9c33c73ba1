package analytics

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestKHop(t *testing.T) {
	// Line graph 0->1->...->9: k hops reach exactly k vertices.
	e := NewEngine(newMapView(10, lineGraph(10)), testLat(), 4)
	for k := 1; k <= 4; k++ {
		res := e.KHop(0, k)
		if res.Reached != int64(k) {
			t.Fatalf("KHop(0,%d) reached %d, want %d", k, res.Reached, k)
		}
		if len(res.PerHop) != k || res.PerHop[k-1] != 1 {
			t.Fatalf("per-hop = %v", res.PerHop)
		}
	}
	if res := e.KHop(0, 100); res.Reached != 9 {
		t.Fatalf("unbounded-ish KHop reached %d, want 9", res.Reached)
	}
	if res := e.KHop(99, 2); res.Reached != 0 {
		t.Fatal("out-of-range root must reach nothing")
	}
}

func TestTrianglesKnownGraphs(t *testing.T) {
	// A triangle plus a dangling edge: exactly one triangle.
	tri := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3}}
	e := NewEngine(newMapView(5, tri), testLat(), 2)
	if got := e.Triangles().Triangles; got != 1 {
		t.Fatalf("triangle graph: %d, want 1", got)
	}

	// K4 has 4 triangles; direction and duplicate edges must not matter.
	var k4 []graph.Edge
	for i := uint32(0); i < 4; i++ {
		for j := uint32(0); j < 4; j++ {
			if i != j {
				k4 = append(k4, graph.Edge{Src: i, Dst: j})
			}
		}
	}
	e = NewEngine(newMapView(4, k4), testLat(), 2)
	if got := e.Triangles().Triangles; got != 4 {
		t.Fatalf("K4: %d triangles, want 4", got)
	}

	// A line has none.
	e = NewEngine(newMapView(10, lineGraph(10)), testLat(), 2)
	if got := e.Triangles().Triangles; got != 0 {
		t.Fatalf("line: %d triangles, want 0", got)
	}
}

func TestTrianglesMatchesBruteForce(t *testing.T) {
	edges := gen.RMAT(6, 300, 20)
	mv := newMapView(64, edges)
	got := NewEngine(mv, testLat(), 4).Triangles().Triangles

	// Brute force on the undirected simple graph.
	und := make([][]bool, 64)
	for i := range und {
		und[i] = make([]bool, 64)
	}
	for _, e := range edges {
		if e.Src != e.Dst {
			und[e.Src][e.Dst] = true
			und[e.Dst][e.Src] = true
		}
	}
	var want int64
	for a := 0; a < 64; a++ {
		for b := a + 1; b < 64; b++ {
			if !und[a][b] {
				continue
			}
			for c := b + 1; c < 64; c++ {
				if und[a][c] && und[b][c] {
					want++
				}
			}
		}
	}
	if got != want {
		t.Fatalf("triangles = %d, brute force = %d", got, want)
	}
}
