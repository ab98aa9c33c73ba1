package adj

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// TestReplaceChainTornKillKeepsArena kills the machine at every media write
// of a scrub repair on a checksummed varint store, under word tears, and
// recovers. The repair's kill step used to write dead headers with a zeroed
// {prev, fmt} word; a tear that made that word durable beside the old
// owner's {vid, cap} word and count slots left a live FIXED block carrying
// a varint count above its capacity, which the recovery scan takes for the
// never-durable frontier — and zeroed every block behind it, the journal
// and the staged replacement included. Every vertex must come back exactly,
// whichever side of the swap the crash fell on.
func TestReplaceChainTornKillKeepsArena(t *testing.T) {
	opts := Options{CrashSafe: true, Checksums: true, VarintBlocks: true}
	// The victim's chain is several varint blocks of one-byte deltas: four
	// records per capacity unit, so every count exceeds its capacity word.
	var dense []uint32
	for i := uint32(0); i < 400; i++ {
		dense = append(dense, i)
	}
	want := map[graph.VID][]uint32{1: dense, 2: {7, 9, 11}, 3: {1000, 5, 77, 78}}

	// run repairs vertex 1 under the given fault plan and recovers the
	// durable image; it reports how many media writes the repair issued.
	run := func(plan xpsim.FaultPlan) (int64, *Store, error) {
		m := xpsim.NewMachine(2, 64<<20, xpsim.DefaultLatency())
		faults := m.TrackFaults()
		h := pmem.NewHeap(m)
		r, err := h.Map("pblk", 16<<20, pmem.Placement{Kind: pmem.Bind, Node: 0})
		if err != nil {
			t.Fatal(err)
		}
		ctx := xpsim.NewCtx(0)
		s := New(r, &m.Lat, 16, opts)
		for _, part := range [][]uint32{dense[:1], dense[1:150], dense[150:]} {
			if err := s.Append(ctx, 1, part); err != nil {
				t.Fatal(err)
			}
		}
		for v := graph.VID(2); v <= 3; v++ { // blocks behind the victim's
			if err := s.Append(ctx, v, want[v]); err != nil {
				t.Fatal(err)
			}
		}
		// Committed, and durable.
		s.Ack(ctx, 1, 0, 1)
		s.Ack(ctx, 2, 0, 1)
		m.TotalStats()

		faults.Arm(plan)
		if _, err := s.ReplaceChain(ctx, 1, dense); err != nil {
			t.Fatal(err)
		}
		writes := faults.MediaWrites()
		clone, err := h.CrashClone()
		if err != nil {
			t.Fatal(err)
		}
		cr, _ := clone.Get("pblk")
		rs, err := RecoverWith(xpsim.NewCtx(0), nil, 1, cr, &m.Lat, opts, 2, nil)
		return writes, rs, err
	}

	writes, _, err := run(xpsim.FaultPlan{})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if writes < 8 {
		t.Fatalf("the repair issued only %d media writes", writes)
	}
	for n := int64(1); n <= writes; n++ {
		for seed := uint64(0); seed < 8; seed++ {
			_, rs, err := run(xpsim.FaultPlan{KillAtMediaWrite: n, Tear: xpsim.TearWords, Seed: seed})
			if err != nil {
				t.Errorf("kill at media write %d/%d, tear seed %d: recover: %v", n, writes, seed, err)
				continue
			}
			for v, recs := range want {
				if got := oldestFirst(rs, xpsim.NewCtx(0), v); !equalU32s(got, recs) {
					t.Errorf("kill at media write %d/%d, tear seed %d: vertex %d recovers %d records, want %d", n, writes, seed, v, len(got), len(recs))
				}
			}
		}
	}
}
