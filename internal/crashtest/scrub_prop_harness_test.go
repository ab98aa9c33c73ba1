// Property-column media scenarios (DESIGN.md §13). The column log is a
// different media surface than the adjacency chains — sequential
// CRC-guarded 256B blocks with a DRAM mirror — so its scrub contract is
// pinned separately:
//
//   - live reads answer from the DRAM index, so UEs under column blocks
//     are invisible until a scrub or a recovery touches the media;
//   - a scrub rebuilds every bad block as a patch block from the mirror,
//     and the patched image recovers with the full typed state intact;
//   - unscrubbed mid-log damage surfaces at recovery as fail-closed
//     typed reads (prop.ErrDamaged) — never default-label answers —
//     while untyped adjacency reads keep serving model-exactly.
package crashtest

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// propOptions is the MediaGuard store with property columns both scenarios
// run on.
func propOptions(name string) core.Options {
	return core.Options{Name: name, NumVertices: propNV, LogCapacity: 1 << 10,
		ArchiveThreshold: 1 << 6, ArchiveThreads: 2, MediaGuard: true, Props: true}
}

// buildProp constructs the store, ingests the deterministic typed workload
// — 300 distinct edges, all typed, plus one property per source vertex —
// flushes every record into PMEM blocks, and returns the workload's model.
func buildProp(name string) (*core.Store, *xpsim.Faults, *difftest.Model, error) {
	st, faults, err := newStore(propOptions(name))
	if err != nil {
		return nil, nil, nil, err
	}
	m := difftest.New()
	for _, l := range []string{"a", "b", "c"} {
		if _, err := st.RegisterLabel(l); err != nil {
			return nil, nil, nil, err
		}
		m.RegisterLabel(l)
	}
	edges, labels := make([]graph.Edge, 300), make([]uint16, 300)
	for i := range edges {
		edges[i], labels[i] = graph.Edge{Src: uint32(i % 16), Dst: uint32(16 + i/16)}, uint16(1+i%3)
	}
	props := make([]graph.PropSet, 16)
	for v := range props {
		props[v] = graph.PropSet{V: uint32(v), Key: 1, Val: int64(v * 10)}
	}
	m.IngestTyped(edges, labels)
	m.SetProps(props)
	if _, err := st.IngestTyped(edges, labels); err != nil {
		return nil, nil, nil, err
	}
	if err := errors.Join(st.SetProps(props), st.BufferAllEdges(), st.FlushAllVbufs()); err != nil {
		return nil, nil, nil, err
	}
	return st, faults, m, nil
}

// typed is the comparator of the typed read surface: every edge with
// exactly its label, every written property exactly.
var typed = difftest.Compare{Labels: true, Props: []uint16{1}}

// RunPropScrubRepair drives the repair loop over the column log: UEs
// land under every written block, the scrub rebuilds each from the DRAM
// mirror as patch blocks, and the patched image survives crash +
// recovery with the full typed state.
func runPropScrubRepair() error {
	st, faults, m, err := buildProp("prop-repair")
	if err != nil {
		return err
	}
	if _, err := typed.Run(m, st); err != nil {
		return fmt.Errorf("pre-damage: %w", err)
	}
	lines := st.PropMediaLines()
	if len(lines) < 4 {
		return fmt.Errorf("workload wrote only %d column blocks", len(lines))
	}
	for _, ln := range lines {
		faults.InjectUE(ln.Node, ln.Line)
	}
	// Live reads stay exact: they answer from the DRAM index.
	if _, err := typed.Run(m, st); err != nil {
		return fmt.Errorf("post-damage live reads: %w", err)
	}

	rep, err := st.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.PropBlocksBad != int64(len(lines)) {
		return fmt.Errorf("scrub found %d bad column blocks, injected %d (%+v)", rep.PropBlocksBad, len(lines), rep)
	}
	if rep.PropBlocksRebuilt != rep.PropBlocksBad || rep.PropUnrecoverable != 0 {
		return fmt.Errorf("scrub did not rebuild every column block: %+v", rep)
	}

	// The patched durable image recovers with the typed state intact,
	// even though every original block still sits on bad media.
	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	rs, _, err := core.Recover(clone.Machine(), clone, nil, propOptions("prop-repair"))
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if _, err := typed.Run(m, rs); err != nil {
		return fmt.Errorf("recovered: %w", err)
	}
	// Retired blocks are out of the scan set: a fresh scrub is clean.
	rep2, err := rs.Scrub()
	if err != nil {
		return fmt.Errorf("post-recovery scrub: %w", err)
	}
	if rep2.PropBlocksBad != 0 || rep2.PropUnrecoverable != 0 {
		return fmt.Errorf("post-recovery scrub found damage in a patched image: %+v", rep2)
	}
	return nil
}

// RunPropUnrecoverable pins the fail-closed path: mid-log damage that no
// scrub patched before the crash leaves the recovered columns damaged —
// every typed read fails with prop.ErrDamaged (never a default-label
// answer), the scrub reports it unrecoverable, and the untyped adjacency
// surface keeps serving.
func runPropUnrecoverable() error {
	st, faults, m, err := buildProp("prop-unrec")
	if err != nil {
		return err
	}
	lines := st.PropMediaLines()
	if len(lines) < 3 {
		return fmt.Errorf("workload wrote only %d column blocks", len(lines))
	}
	// A mid-log block: trailing damage would truncate as a torn tail.
	faults.InjectUE(lines[0].Node, lines[0].Line)

	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	rs, _, err := core.Recover(clone.Machine(), clone, nil, propOptions("prop-unrec"))
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	if err := rs.VisitOutTyped(ctx, 1, prop.Filter{}, func(uint32, uint16) {}); !errors.Is(err, prop.ErrDamaged) {
		return fmt.Errorf("typed visit over damaged columns = %v, want prop.ErrDamaged", err)
	}
	if _, _, err := rs.VProp(1, 1); !errors.Is(err, prop.ErrDamaged) {
		return fmt.Errorf("VProp over damaged columns = %v, want prop.ErrDamaged", err)
	}
	rep, err := rs.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.PropUnrecoverable == 0 {
		return fmt.Errorf("scrub recovered a block with no mirror: %+v", rep)
	}
	// Adjacency is a separate surface: untyped checked reads stay exact.
	if err := clean(m, rs); err != nil {
		return fmt.Errorf("untyped reads: %w", err)
	}
	return nil
}
