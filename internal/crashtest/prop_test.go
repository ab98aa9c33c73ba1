package crashtest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// The property-column crash sweep (DESIGN.md §13). The column log shares
// the edge log's prefix-durability shape: records land in CRC-guarded
// 256B blocks in append order and a torn tail truncates at attach, so
// after any crash the recovered labels and properties must be a prefix of
// the applied record stream — difftest's prefix mode: every label of a
// durable edge and every property exact or absent, never wrong, none
// present after an absent one.

const (
	propChunks     = 8
	propChunkEdges = 60
	propNV         = 64
)

// propEdge returns the i'th workload edge; all pairs are distinct.
func propEdge(i int) graph.Edge {
	return graph.Edge{Src: uint32(i % 16), Dst: uint32(16 + i/16)}
}

// propLabel is the i'th edge's label: ~1/4 of the edges stay untyped.
func propLabel(i int) uint16 {
	e := propEdge(i)
	if (e.Src+e.Dst)%4 == 0 {
		return 0
	}
	return uint16(1 + (e.Src*31+e.Dst)%3)
}

// propOpts is the typed workload's store: its two archive workers attach
// the column log at recovery.
var propOpts = core.Options{Name: "propcrash", NumVertices: propNV,
	LogCapacity: 256, ArchiveThreshold: 32, ArchiveThreads: 2, Props: true}

// runPropCrash drives the typed workload under plan, recovers from the
// durable image, and holds the recovered store to the prefix mode — to the
// exact mode when the plan never fired. It returns the media writes the
// workload made and the recovered store.
func runPropCrash(plan xpsim.FaultPlan) (int64, *core.Store, error) {
	opts := propOpts
	st, faults, err := newStore(opts)
	if err != nil {
		return 0, nil, err
	}
	m := difftest.New()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := st.RegisterLabel(name); err != nil {
			return 0, nil, err
		}
		m.RegisterLabel(name)
	}

	faults.Arm(plan)
	for c := 0; c < propChunks; c++ {
		edges := make([]graph.Edge, propChunkEdges)
		labels := make([]uint16, propChunkEdges)
		for j := range edges {
			edges[j], labels[j] = propEdge(c*propChunkEdges+j), propLabel(c*propChunkEdges+j)
		}
		if _, err := st.IngestTyped(edges, labels); err != nil {
			return 0, nil, fmt.Errorf("chunk %d: %w", c, err)
		}
		// One never-rewritten property per chunk.
		ps := []graph.PropSet{{V: uint32(c), Key: 1, Val: int64(c + 1)}}
		if err := st.SetProps(ps); err != nil {
			return 0, nil, err
		}
		m.IngestTyped(edges, labels)
		m.SetProps(ps)
		if err := st.FlushAllVbufs(); err != nil {
			return 0, nil, fmt.Errorf("flush chunk %d: %w", c, err)
		}
	}

	clone, err := st.Heap().CrashClone()
	if err != nil {
		return faults.MediaWrites(), nil, err
	}
	rs, _, err := core.Recover(clone.Machine(), clone, nil, opts)
	if err == nil && faults.Crashed() {
		err = difftest.Compare{Labels: true}.Prefix(m, int(rs.Log().Head()), rs)
	} else if err == nil {
		_, err = difftest.Compare{Labels: true, Props: []uint16{1}}.Run(m, rs)
	}
	if err != nil {
		return faults.MediaWrites(), nil, fmt.Errorf("%w (crash: %s)", err, faults.CrashDescription())
	}
	return faults.MediaWrites(), rs, nil
}

// TestCrashSweepPropColumns sweeps crash points across the typed
// workload's media writes under each tear mode.
func TestCrashSweepPropColumns(t *testing.T) {
	m, rs, err := runPropCrash(xpsim.FaultPlan{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if m < 50 {
		t.Fatalf("workload too small to sweep: only %d media writes", m)
	}
	// The recovery's attach reads a round of one interleave stripe per
	// worker, the first from the log's first block on; the all-zero block
	// that ends the log lies past it.
	r, ok := rs.Heap().Get(propOpts.Name + "-prop")
	if !ok {
		t.Fatal("no column log region")
	}
	base := (r.UserStart() + prop.BlockBytes - 1) / prop.BlockBytes * prop.BlockBytes
	workers := int64(propOpts.ArchiveThreads)
	if first := ((base/pmem.DefaultStripe+workers)*pmem.DefaultStripe - base) / prop.BlockBytes; workers < 2 || rs.Props().Blocks() < first {
		t.Fatalf("setup: %d column blocks on %d workers, whose first round reads %d: want two rounds or more", rs.Props().Blocks(), workers, first)
	}
	s := difftest.Sweep{Name: "propcrash", Writes: m, Points: difftest.Short[int64](0, 25), Tears: allTears}
	s.Run(t, func(c difftest.Case) error {
		_, _, err := runPropCrash(c.Plan)
		return err
	})
}
