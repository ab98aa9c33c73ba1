package crashtest

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/splitmix"
	"repro/internal/xpsim"
)

// tornWrite is a two-act crash scenario: the setup runs unarmed and ends
// with everything flush-acknowledged (and, with compact, every chain
// rewritten, so the free lists hold the old blocks); the fault plan is armed
// for the target alone — one Ingest and one flushing phase — whose few
// media writes can then be killed one by one under many tear geometries.
type tornWrite struct {
	cfg     Config
	setup   []graph.Edge
	compact bool
	target  []graph.Edge
}

// run plays the scenario under plan and verifies the recovered store against
// the prefix oracle. It also reports how much adjacency space the target
// allocated and where the log head stood before it.
func (tw tornWrite) run(plan xpsim.FaultPlan) (res *Result, pblkGrowth, headBefore int64, err error) {
	cfg := tw.cfg.withDefaults()
	st, faults, err := build(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	if _, err := st.Ingest(tw.setup); err != nil {
		return nil, 0, 0, fmt.Errorf("setup: %w", err)
	}
	if err := st.FlushAllVbufs(); err != nil {
		return nil, 0, 0, fmt.Errorf("setup: %w", err)
	}
	if tw.compact {
		if err := st.CompactAllAdjs(xpsim.NewCtx(xpsim.NodeUnbound)); err != nil {
			return nil, 0, 0, fmt.Errorf("setup: %w", err)
		}
	}
	pblk, headBefore := st.MemUsage().PblkPMEM, st.Log().Head()

	faults.Arm(plan)
	if _, err := st.Ingest(tw.target); err != nil {
		return nil, 0, 0, fmt.Errorf("target: %w", err)
	}
	if err := st.FlushAllVbufs(); err != nil {
		return nil, 0, 0, fmt.Errorf("target: %w", err)
	}
	res = &Result{
		MediaWrites: faults.MediaWrites(),
		Sites:       faults.SiteHits(),
		Crashed:     faults.Crashed(),
		CrashDesc:   faults.CrashDescription(),
	}
	pblkGrowth = st.MemUsage().PblkPMEM - pblk

	rs, err := recoverClone(st.Heap(), cfg, res)
	if err != nil {
		return res, pblkGrowth, headBefore, err
	}
	all := append(append([]graph.Edge(nil), tw.setup...), tw.target...)
	if !res.Crashed && res.DurableEdges != int64(len(all)) {
		return res, pblkGrowth, headBefore, fmt.Errorf("no crash, but only %d/%d edges durable", res.DurableEdges, len(all))
	}
	return res, pblkGrowth, headBefore, verify(rs, all, res.DurableEdges)
}

// sweep kills the target at every one of its media writes, word-torn under
// several geometries each (-crashtest.tearseeds multiplies them).
func (tw tornWrite) sweep(t *testing.T, mediaWrites int64) {
	t.Helper()
	geometries := uint64(16)
	if testing.Short() {
		geometries = 2
	}
	for n := int64(1); n <= mediaWrites; n++ {
		for g := uint64(0); g < geometries; g++ {
			for _, seed := range tearSeeds(splitmix.Mix(uint64(n)<<8 | g)) {
				plan := xpsim.FaultPlan{KillAtMediaWrite: n, Tear: xpsim.TearWords, Seed: seed}
				if res, _, _, err := tw.run(plan); err != nil {
					t.Errorf("%s: kill at media write %d/%d tear seed=%#x: %v (crash: %s)", tw.cfg.Name, n, mediaWrites, seed, err, res.CrashDesc)
				}
			}
		}
	}
}

// TestCrashTornFirstAppend kills inside the one write that carries a new
// block's header, its count and its first records. The target gives sixteen
// new vertices their first block in a single flushing phase, so that
// phase's media writes — evictions during the drain, the barrier's
// write-backs — are those merged writes, each torn word by word: any subset
// of {vid, cap}, {prev, fmt}, the count and the records may be all that
// reached the media. Recovery must come back with exactly the durable log
// prefix: the count went into the slot the interrupted phase would have
// selected, so the slot recovery trusts reads zero whatever the tear, and a
// block that kept its vid but lost its prev link is pruned as a zero-visible
// dangler.
//
// Fresh blocks come off the arena's frontier, fixed-width and varint.
// Recycled blocks come off the free lists a compaction of every chain just
// filled: their old contents are a dead header with durably zeroed slots,
// not zeroes, and they sit in the middle of the arena, where taking a torn
// header for the never-durable frontier would zero acknowledged blocks
// behind it.
func TestCrashTornFirstAppend(t *testing.T) {
	setup := gen.RMAT(4, 150, 23) // vertices 0..15, several flush-alls
	var target []graph.Edge       // first out-blocks for 16..23, first in-blocks for 24..31
	for i := uint32(0); i < 8; i++ {
		target = append(target, graph.Edge{Src: 16 + i, Dst: 24 + i}, graph.Edge{Src: 16 + i, Dst: 24 + (i+3)%8})
	}
	base := Config{Scale: 5, LogCapacity: 128, ArchiveThreshold: 16}
	for _, sc := range []struct {
		name             string
		varint, recycled bool
	}{
		{name: "torn-fresh-fixed"},
		{name: "torn-fresh-varint", varint: true},
		{name: "torn-recycled-fixed", recycled: true},
		{name: "torn-recycled-varint", varint: true, recycled: true},
	} {
		tw := tornWrite{cfg: base, setup: setup, compact: sc.recycled, target: target}
		tw.cfg.Name, tw.cfg.Varint = sc.name, sc.varint
		probe, growth, _, err := tw.run(xpsim.FaultPlan{})
		if err != nil {
			t.Fatalf("%s: probe: %v", sc.name, err)
		}
		// Sixteen 12-record blocks, or none: the free lists must have
		// supplied every block of the recycled scenarios.
		if sc.recycled != (growth == 0) {
			t.Fatalf("%s: the target allocated %d bytes of adjacency blocks", sc.name, growth)
		}
		if probe.Sites["flush:committed"] != 1 || probe.MediaWrites < 4 {
			t.Fatalf("%s: the target is %d flushing phases and %d media writes, want one phase to kill inside", sc.name, probe.Sites["flush:committed"], probe.MediaWrites)
		}
		tw.sweep(t, probe.MediaWrites)
		t.Logf("%s: %d media writes swept", sc.name, probe.MediaWrites)
	}
}

// TestCrashTornWrappedLogAppend kills inside a log append that wraps: the
// chunk leaves as two writes, the ring's last records and its first, flushed
// as two spans before the head that publishes both. Whichever words of
// either span a tear keeps, the recovered head is the old one or the new
// one, and every record below it reads back as logged.
func TestCrashTornWrappedLogAppend(t *testing.T) {
	const logCap = 64
	edges := gen.RMAT(4, 2*logCap+6, 29)
	tw := tornWrite{
		cfg:    Config{Name: "torn-wrap", Scale: 4, LogCapacity: logCap, ArchiveThreshold: 16},
		setup:  edges[:2*logCap-4], // head four records short of the wrap
		target: edges[2*logCap-4:],
	}
	probe, _, head, err := tw.run(xpsim.FaultPlan{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if at := head % logCap; at == 0 || at+int64(len(tw.target)) <= logCap {
		t.Fatalf("setup: the target's %d records start at ring position %d of %d: no wrap", len(tw.target), at, logCap)
	}
	if probe.MediaWrites < 3 {
		t.Fatalf("the target is %d media writes, want two ring spans and a header at least", probe.MediaWrites)
	}
	tw.sweep(t, probe.MediaWrites)
	t.Logf("%d media writes swept", probe.MediaWrites)
}
