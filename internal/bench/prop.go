package bench

import (
	"fmt"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

func init() {
	register("prop", "Typed edges + property columns: filter pushdown media savings and typed-ingest overhead", propExp)
}

// propHotMod labels one edge in propHotMod with the hot label the
// filtered traversal selects on; the rest split across two cold labels.
const propHotMod = 8

// propRoots is how many traversal roots the k-hop measurements
// aggregate over (spread deterministically across the vertex space so
// the numbers do not hinge on one root's degree).
const propRoots = 64

// propOverheadCeilNs caps what the property layer may add to one typed
// edge, in simulated ns. PR 9 wrote the cap as a throughput ratio (typed >=
// 0.8x plain), which punishes a faster denominator: the same column-log
// cost is a larger share of a faster pipeline. 0.8x of the 13.18 Medges/s
// plain pipeline the ratio last gated allowed 18.96 ns (of PR 9's own,
// 32.8), so 19 is never looser than the ratio has been.
const propOverheadCeilNs = 19.0

// propLabelsFor assigns the benchmark labeling: edge i carries the hot
// label when i%propHotMod == 0, otherwise one of two cold labels.
func propLabelsFor(n int, hot, coldA, coldB uint16) []uint16 {
	labels := make([]uint16, n)
	for i := range labels {
		switch {
		case i%propHotMod == 0:
			labels[i] = hot
		case i%2 == 0:
			labels[i] = coldA
		default:
			labels[i] = coldB
		}
	}
	return labels
}

// propRootsFor spreads traversal roots deterministically over the
// vertex space (Weyl sequence on a large odd multiplier).
func propRootsFor(numV uint32) []graph.VID {
	roots := make([]graph.VID, propRoots)
	for i := range roots {
		roots[i] = graph.VID((uint64(i+1) * 2654435761) % uint64(numV))
	}
	return roots
}

// buildTypedStore ingests the typed workload into a fresh
// property-enabled store and flushes it so queries read PMEM adjacency,
// not resident vertex buffers.
func buildTypedStore(edges []graph.Edge, labels []uint16, ds gen.Dataset, cfg Config) (*core.Store, *xpsim.Machine, core.IngestReport, error) {
	s, m, err := newXPGraph(edges, ds.NumVertices(), cfg, func(o *core.Options) {
		o.Props = true
		// Every edge in this workload carries a non-default label (one
		// 16 B column record each; 15 ride per 256 B block): size the
		// column log for the stream instead of the 1 MiB default.
		o.PropLogBytes = int64(len(edges))*20 + (1 << 20)
	})
	if err != nil {
		return nil, nil, core.IngestReport{}, err
	}
	for _, name := range []string{"hot", "cold-a", "cold-b"} {
		if _, err := s.RegisterLabel(name); err != nil {
			return nil, nil, core.IngestReport{}, err
		}
	}
	if _, err := s.IngestTyped(edges, labels); err != nil {
		return nil, nil, core.IngestReport{}, err
	}
	if err := s.FlushAllVbufs(); err != nil {
		return nil, nil, core.IngestReport{}, err
	}
	return s, m, s.Report(), nil
}

// khopLines runs the 2-hop traversal from every root under f and
// reports (media lines read, vertices reached). Stats are reset first,
// so the count is the traversal's own traffic.
func khopLines(e *analytics.Engine, m *xpsim.Machine, roots []graph.VID, f prop.Filter) (int64, int64, error) {
	m.ResetStats()
	var reached int64
	for _, root := range roots {
		res, err := e.KHopFiltered(root, 2, f)
		if err != nil {
			return 0, 0, err
		}
		reached += res.Reached
	}
	return m.TotalStats().MediaReadLines, reached, nil
}

// propExp regenerates the PR-9 evaluation: a typed 2-hop with the label
// filter pushed into adjacency decode against read-all-then-filter, and
// typed-edge ingest against the plain pipeline. Pushdown saves media by
// shrinking the frontier — a pruned hop-1 neighbor's adjacency is never
// read at hop 2; the post-hoc filter in the baseline costs no media (the
// label index is DRAM), so the measured gap is pure frontier shrinkage.
func propExp(cfg Config) (Table, error) {
	dss, err := datasets(cfg, "TT")
	if err != nil {
		return Table{}, err
	}
	t := Table{Exp: "prop",
		Title: "Typed edges + property columns: pushdown vs read-all-then-filter, typed ingest overhead",
		Columns: []string{"dataset", "edges", "hot_frac",
			"filtered_rd_lines", "readall_rd_lines", "rd_savings",
			"plain_Medges_s", "typed_Medges_s", "typed_ratio", "typed_overhead_ns"},
		Notes: []string{
			"rd_lines = simulated media XPLines read by a 2-hop from 64 roots (cold store per side)",
			"pushdown prunes the frontier during adjacency decode; read-all expands everything and filters in DRAM",
			"ingest rates are simulated-clock (final flush included); typed adds column-log appends at flush points",
			"typed_overhead_ns = simulated ns the property layer adds per edge (1e3/typed - 1e3/plain)",
		},
	}
	for _, ds := range dss {
		edges := edgesFor(ds, cfg)
		labels := propLabelsFor(len(edges), 1, 2, 3)
		roots := propRootsFor(ds.NumVertices())

		// Filtered 2-hop on a typed store: the hot-label predicate rides
		// down into VisitOutTyped.
		sF, mF, typedRep, err := buildTypedStore(edges, labels, ds, cfg)
		if err != nil {
			return Table{}, fmt.Errorf("prop: typed build: %w", err)
		}
		eF := analytics.NewEngine(sF, &mF.Lat, cfg.QueryThreads)
		filteredLines, filteredReached, err := khopLines(eF, mF, roots, prop.Filter{Types: []uint16{1}})
		if err != nil {
			return Table{}, fmt.Errorf("prop: filtered khop: %w", err)
		}

		// Read-all-then-filter on an identically-built store, so neither
		// side inherits the other's XPBuffer warmth: expand every edge
		// (empty filter), filter afterwards against the DRAM label index
		// (no media charge — the baseline's media cost is the traversal
		// itself).
		sA, mA, _, err := buildTypedStore(edges, labels, ds, cfg)
		if err != nil {
			return Table{}, fmt.Errorf("prop: baseline build: %w", err)
		}
		eA := analytics.NewEngine(sA, &mA.Lat, cfg.QueryThreads)
		readAllLines, readAllReached, err := khopLines(eA, mA, roots, prop.Filter{})
		if err != nil {
			return Table{}, fmt.Errorf("prop: read-all khop: %w", err)
		}

		// Typed ingest throughput came from the filtered store's build;
		// plain runs the same stream through a property-less store. Both
		// on the simulated clock, final flush included — the typed path
		// pays for column-log appends at every flush point.
		sP, _, _, err := ingestXP(edges, ds.NumVertices(), cfg)
		if err != nil {
			return Table{}, err
		}
		if err := sP.FlushAllVbufs(); err != nil {
			return Table{}, err
		}
		plainNs, typedNs := sP.Report().TotalNs(), typedRep.TotalNs()
		n := float64(len(edges))
		rate := func(ns int64) Cell {
			return num(n/(float64(ns)/1e9)/1e6, "%.2f", "Medges/s", Higher).bound(simBound)
		}

		key := dsCell(ds, len(edges))
		t.add(key, text(fmt.Sprint(len(edges))),
			text(fmt.Sprintf("%.3f", 1.0/float64(propHotMod))),
			count(filteredLines, "lines", Lower).bound(simBound),
			count(readAllLines, "lines", Lower).bound(simBound),
			ratio(readAllLines, filteredLines).floor(2).bound(simBound),
			rate(plainNs), rate(typedNs),
			// Reported, not gated: the ratio falls whenever the plain
			// pipeline gets faster. What is held is what the property
			// layer adds to one edge.
			num(float64(plainNs)/float64(typedNs), "%.3f", "x", Higher),
			num(float64(typedNs-plainNs)/n, "%.2f", "ns/edge", Lower).floor(propOverheadCeilNs).bound(simBound))
		// A traversal that reached nothing would make the savings vacuous.
		t.derive(key.Key+"/filtered_reached", count(filteredReached, "vertices", Higher).floor(1))
		t.derive(key.Key+"/readall_reached", count(readAllReached, "vertices", Higher))
	}
	return t, nil
}
