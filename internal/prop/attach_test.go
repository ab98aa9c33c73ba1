package prop

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// columnImage writes a column log straight onto a fresh interleaved region
// of a two-socket machine: closed flushes, two patches of one block (the
// first superseded by the second), a UE'd block its patch replaces, a UE'd
// block no patch replaces, and from block 40 on a torn flush that never
// closed (one of its blocks garbage) up to zero, the first all-zero block,
// with a closing block right behind that hole. The region starts its
// blocks 15 blocks before a stripe boundary, so the rounds of 2 workers are
// blocks [0,31), [31,63), [63,95), [95,127)…, those of 3 workers [0,47),
// [47,95), [95,143)…, and those of 16 workers [0,255): the torn flush
// crosses a round boundary at 2 and 3 workers, and a zero block at 94 is
// the last of a round there, one at 95 the first.
func columnImage(t *testing.T, zero int64) (*pmem.Region, *xpsim.Machine, int64) {
	t.Helper()
	m := xpsim.NewMachine(2, 64<<20, xpsim.DefaultLatency())
	const capBlocks = 160
	r, err := pmem.NewHeap(m).Map("cols", BlockBytes+capBlocks*BlockBytes, pmem.Placement{Kind: pmem.Interleave})
	if err != nil {
		t.Fatal(err)
	}
	base := (r.UserStart() + BlockBytes - 1) / BlockBytes * BlockBytes
	if (base+15*BlockBytes)%stripeBytes != 0 {
		t.Fatalf("setup: blocks start at %d, not 15 blocks before a stripe boundary", base)
	}
	ctx := xpsim.NewCtx(0)
	put := func(i int64, b block) {
		var buf [BlockBytes]byte
		encodeBlock(buf[:], b)
		r.Write(ctx, base+i*BlockBytes, buf[:])
	}
	recs := func(i int64) []record {
		out := []record{edgeLabelRecord(uint32(i%7), uint32(100+i), uint16(1+i%3)), vPropRecord(uint32(i%5), 1, i)}
		if i%4 == 0 && i >= 4 { // relabel an earlier edge, or reset it to the default
			out = append(out, edgeLabelRecord(uint32((i-4)%7), uint32(96+i), uint16(i%3)))
		}
		return out
	}
	patches := map[int64]int64{9: 5, 14: 5, 16: 15} // patch block -> target
	start := int64(0)
	for i := int64(0); i < zero; i++ {
		b := block{Recs: recs(i)}
		switch {
		case i == 0:
			b.Recs = append(b.Recs, labelDefRecord(1, "a"), labelDefRecord(2, "b"))
		case patches[i] != 0:
			b.Recs, b.Patch = recs(patches[i]+1000), uint16(patches[i]+1)
			start = i + 1
			put(i, b)
			continue
		}
		switch {
		case i >= 40:
			b.Open = 41 // the torn flush that started at block 40
		case i%4 != 3 && i != 15 && i != 20:
			b.Open = uint32(start + 1)
		default:
			start = i + 1 // a closing block: the next flush starts behind it
		}
		put(i, b)
	}
	put(zero+1, block{Recs: recs(zero + 1)}) // a closing block past the hole
	garbage := make([]byte, BlockBytes)
	for i := range garbage {
		garbage[i] = byte(i*7 + 1)
	}
	r.Write(ctx, base+50*BlockBytes, garbage)
	for _, i := range []int64{15, 20} {
		m.InjectUE(r.LineAt(base + i*BlockBytes))
	}
	return r, m, base
}

// attachState is everything Attach recovers: its report, the head, the
// damage flag, the label table and the index, sorted.
func attachState(s *Store, info RecoverInfo) []any {
	var index []string
	s.VisitState(func(src, dst uint32, lbl uint16) { index = append(index, fmt.Sprintf("e %d %d %d", src, dst, lbl)) },
		func(v uint32, key uint16, val int64) { index = append(index, fmt.Sprintf("p %d %d %d", v, key, val)) })
	slices.Sort(index)
	return []any{info, s.Blocks(), s.Damaged(), s.Labels(), index}
}

// TestSplitAttachIsTheSerialAttach: the column scan split over 2, 3 and 16
// workers, a round of whole stripes at a time, recovers what the serial
// scan does — the report, the head, the damage flag, the labels and the
// index — whether the first all-zero block ends a round or starts one, and
// though a closing block lies behind it. No worker reads a block of the
// other node.
func TestSplitAttachIsTheSerialAttach(t *testing.T) {
	lat := xpsim.DefaultLatency()
	for _, zero := range []int64{94, 95} {
		r, m, base := columnImage(t, zero)
		s, info, err := Attach(xpsim.NewCtx(xpsim.NodeUnbound), nil, 1, r, &lat, base, 160)
		if err != nil {
			t.Fatal(err)
		}
		want := attachState(s, info)
		if !info.TornTail || info.BadBlocks != 3 || info.Unreadable != 1 || info.Quarantined != 2 || s.Blocks() != 40 || !s.Damaged() {
			t.Fatalf("zero block %d, serial attach: %+v, head %d, damaged %v", zero, info, s.Blocks(), s.Damaged())
		}
		var sw xpsim.Sweep
		for _, workers := range []int{2, 3, 16} {
			m.ResetStats()
			s, info, err := Attach(xpsim.NewCtx(xpsim.NodeUnbound), &sw, workers, r, &lat, base, 160)
			if err != nil {
				t.Fatal(err)
			}
			if got := attachState(s, info); !reflect.DeepEqual(got, want) {
				t.Errorf("zero block %d, %d workers: %v, serially %v", zero, workers, got, want)
			}
			if st := m.TotalStats(); st.RemoteAccesses != 0 || st.LocalAccesses == 0 {
				t.Errorf("zero block %d, %d workers: %d remote and %d local line reads", zero, workers, st.RemoteAccesses, st.LocalAccesses)
			}
		}
	}
}
