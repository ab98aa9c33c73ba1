package prop

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

func testRegion(t *testing.T, capBlocks int64) (*pmem.Region, *xpsim.Machine, int64) {
	t.Helper()
	m := xpsim.NewMachine(1, 64<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	r, err := h.Map("t-prop", BlockBytes+capBlocks*BlockBytes, pmem.Placement{Kind: pmem.Interleave})
	if err != nil {
		t.Fatal(err)
	}
	base := (r.UserStart() + BlockBytes - 1) / BlockBytes * BlockBytes
	return r, m, base
}

func TestBlockRoundTrip(t *testing.T) {
	recs := []record{
		edgeLabelRecord(1, 2, 7),
		vPropRecord(9, 3, -123456789),
		labelDefRecord(4, "follows"),
	}
	var buf [BlockBytes]byte
	encodeBlock(buf[:], block{Recs: recs, Patch: 5})
	b, err := decodeBlock(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	got := b.Recs
	if b.Patch != 5 || b.Open != 0 || len(got) != 3 {
		t.Fatalf("patch %d open %d len %d", b.Patch, b.Open, len(got))
	}
	if got[0] != recs[0] || got[1] != recs[1] || got[2] != recs[2] {
		t.Fatalf("records differ: %+v vs %+v", got, recs)
	}
	if got[1].value() != -123456789 {
		t.Fatalf("value %d", got[1].value())
	}
	if got[2].labelName() != "follows" {
		t.Fatalf("name %q", got[2].labelName())
	}
	// Corrupt one byte: decode must fail, not return wrong records.
	buf[100] ^= 0xFF
	if _, err := decodeBlock(buf[:]); err == nil {
		t.Fatal("corrupt block decoded cleanly")
	}
	// All-zero block is a clean end-of-log.
	var zero [BlockBytes]byte
	b2, err := decodeBlock(zero[:])
	if err != nil || b2.Recs != nil {
		t.Fatalf("zero block: %v %v", b2.Recs, err)
	}
}

func TestApplyFlushAttach(t *testing.T) {
	r, _, base := testRegion(t, 64)
	lat := xpsim.DefaultLatency()
	s, err := Create(r, &lat, base, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)

	id, err := s.RegisterLabel(ctx, "follows")
	if err != nil || id != 1 {
		t.Fatalf("register: id %d err %v", id, err)
	}
	// Re-registering is idempotent.
	if id2, _ := s.RegisterLabel(ctx, "follows"); id2 != id {
		t.Fatalf("re-register gave %d", id2)
	}

	edges := []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}}
	s.ApplyEdgeLabels(edges, []uint16{id, 0, id})
	s.ApplyProps([]graph.PropSet{{V: 2, Key: 1, Val: 42}, {V: 2, Key: 1, Val: 43}})
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	if got := s.Label(1, 2); got != id {
		t.Fatalf("label(1,2)=%d", got)
	}
	if got := s.Label(1, 3); got != 0 {
		t.Fatalf("untyped edge label %d", got)
	}
	if v, ok := s.VProp(2, 1); !ok || v != 43 {
		t.Fatalf("vprop %d %v (want last-write-wins 43)", v, ok)
	}

	// Relabel back to default must round-trip through recovery too.
	s.ApplyEdgeLabels([]graph.Edge{{Src: 2, Dst: 3}}, []uint16{0})
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	s2, info, err := Attach(ctx, nil, 1, r, &lat, base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if info.Unreadable != 0 || info.TornTail {
		t.Fatalf("clean attach reported damage: %+v", info)
	}
	if got := s2.Label(1, 2); got != id {
		t.Fatalf("recovered label(1,2)=%d", got)
	}
	if got := s2.Label(2, 3); got != 0 {
		t.Fatalf("recovered relabeled edge %d", got)
	}
	if v, ok := s2.VProp(2, 1); !ok || v != 43 {
		t.Fatalf("recovered vprop %d %v", v, ok)
	}
	if name := s2.LabelName(id); name != "follows" {
		t.Fatalf("recovered name %q", name)
	}
	if lid, ok := s2.LabelID("follows"); !ok || lid != id {
		t.Fatalf("recovered id %d %v", lid, ok)
	}
}

func TestTornTailTruncates(t *testing.T) {
	r, _, base := testRegion(t, 8)
	lat := xpsim.DefaultLatency()
	s, _ := Create(r, &lat, base, 8)
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	s.ApplyProps([]graph.PropSet{{V: 1, Key: 1, Val: 10}})
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	s.ApplyProps([]graph.PropSet{{V: 1, Key: 1, Val: 20}})
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Tear the newest block: flip a byte mid-record area.
	var b [1]byte
	off := base + 1*BlockBytes + 17
	r.Read(ctx, off, b[:])
	b[0] ^= 0xA5
	r.Write(ctx, off, b[:])
	r.Flush(ctx, off, 1)

	s2, info, err := Attach(ctx, nil, 1, r, &lat, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TornTail || info.Unreadable != 0 {
		t.Fatalf("want torn tail, got %+v", info)
	}
	if s2.Damaged() {
		t.Fatal("torn tail must not poison the store")
	}
	if v, ok := s2.VProp(1, 1); !ok || v != 10 {
		t.Fatalf("rolled-back vprop = %d %v (want flushed prefix 10)", v, ok)
	}
}

func TestMidLogDamageFailsClosed(t *testing.T) {
	r, _, base := testRegion(t, 8)
	lat := xpsim.DefaultLatency()
	s, _ := Create(r, &lat, base, 8)
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for i := 0; i < 3; i++ {
		s.ApplyProps([]graph.PropSet{{V: uint32(i), Key: 1, Val: int64(i)}})
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the middle block: a later valid block exists, so this is
	// data loss, not a torn tail.
	var b [1]byte
	off := base + 1*BlockBytes + 9
	r.Read(ctx, off, b[:])
	b[0] ^= 0xA5
	r.Write(ctx, off, b[:])
	r.Flush(ctx, off, 1)

	s2, info, err := Attach(ctx, nil, 1, r, &lat, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if info.Unreadable != 1 || !s2.Damaged() {
		t.Fatalf("mid-log damage not flagged: %+v damaged=%v", info, s2.Damaged())
	}
	if _, err := s2.LabelChecked(1, 2); err == nil {
		t.Fatal("checked read served a damaged store")
	}
	if _, _, err := s2.VPropChecked(1, 1); err == nil {
		t.Fatal("checked vprop served a damaged store")
	}
}

func TestScrubRebuildsUEBlock(t *testing.T) {
	r, m, base := testRegion(t, 16)
	lat := xpsim.DefaultLatency()
	s, _ := Create(r, &lat, base, 16)
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	faults := m.TrackFaults()

	s.ApplyProps([]graph.PropSet{{V: 7, Key: 2, Val: 99}})
	s.ApplyEdgeLabels([]graph.Edge{{Src: 4, Dst: 5}}, []uint16{3})
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Uncorrectable error on the first column block's line.
	node, line := r.LineAt(base)
	faults.InjectUE(node, line)

	rep, err := s.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadBlocks != 1 || rep.Rebuilt != 1 || rep.Unrecoverable != 0 {
		t.Fatalf("scrub report %+v", rep)
	}
	if s.Damaged() {
		t.Fatal("rebuilt store still damaged")
	}
	// Reads stay correct after the rebuild.
	if lbl, err := s.LabelChecked(4, 5); err != nil || lbl != 3 {
		t.Fatalf("post-scrub label %d %v", lbl, err)
	}
	// A second scrub pass skips the quarantined block and stays clean.
	rep2, err := s.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BadBlocks != 0 {
		t.Fatalf("second scrub still sees damage: %+v", rep2)
	}

	// Recovery over the patched image: the UE block is superseded by the
	// patch, so the attach is clean and the index is intact.
	s2, info, err := Attach(ctx, nil, 1, r, &lat, base, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Damaged() || info.Unreadable != 0 {
		t.Fatalf("patched image attach damaged: %+v", info)
	}
	if lbl := s2.Label(4, 5); lbl != 3 {
		t.Fatalf("recovered patched label %d", lbl)
	}
	if v, ok := s2.VProp(7, 2); !ok || v != 99 {
		t.Fatalf("recovered patched vprop %d %v", v, ok)
	}
}

func TestFilter(t *testing.T) {
	props := map[uint16]int64{1: 10}
	get := func(k uint16) (int64, bool) { v, ok := props[k]; return v, ok }

	f := Filter{}
	if !f.Empty() || !f.MatchLabel(5) || !f.MatchVertex(get) {
		t.Fatal("empty filter must accept everything")
	}
	f = Filter{Types: []uint16{2, 3}}
	if f.MatchLabel(1) || !f.MatchLabel(3) {
		t.Fatal("type set mismatch")
	}
	for _, tc := range []struct {
		op   string
		val  int64
		want bool
	}{
		{opEq, 10, true}, {opEq, 11, false},
		{opNe, 10, false}, {opNe, 11, true},
		{opLt, 11, true}, {opLt, 10, false},
		{opLe, 10, true}, {opGt, 9, true},
		{OpGe, 10, true}, {OpGe, 11, false},
		{opExists, 0, true},
	} {
		f := Filter{Key: 1, Op: tc.op, Val: tc.val}
		if got := f.MatchVertex(get); got != tc.want {
			t.Fatalf("%s %d: got %v", tc.op, tc.val, got)
		}
	}
	// Unset property fails every real predicate.
	f = Filter{Key: 9, Op: opExists}
	if f.MatchVertex(get) {
		t.Fatal("unset property passed exists")
	}
	if (Filter{Op: "bogus"}).Validate() == nil {
		t.Fatal("bogus op validated")
	}
}

func TestLogFull(t *testing.T) {
	r, _, base := testRegion(t, 2)
	lat := xpsim.DefaultLatency()
	s, _ := Create(r, &lat, base, 2)
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for i := 0; i < 2*RecordsPerBlock; i++ {
		s.ApplyProps([]graph.PropSet{{V: uint32(i), Key: 1, Val: 1}})
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	s.ApplyProps([]graph.PropSet{{V: 999, Key: 1, Val: 1}})
	if err := s.Flush(ctx); err != errFull {
		t.Fatalf("want ErrFull, got %v", err)
	}
}

// writeBlock puts b at physical block i, durably, as a crashed flush may
// have left it.
func writeBlock(r *pmem.Region, base, i int64, b block) {
	var buf [BlockBytes]byte
	encodeBlock(buf[:], b)
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	r.Write(ctx, base+i*BlockBytes, buf[:])
	r.Flush(ctx, base+i*BlockBytes, BlockBytes)
}

func TestUnclosedFlushTruncates(t *testing.T) {
	r, _, base := testRegion(t, 8)
	lat := xpsim.DefaultLatency()
	s, _ := Create(r, &lat, base, 8)
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	s.ApplyProps([]graph.PropSet{{V: 1, Key: 1, Val: 10}})
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// A flush starting at block 1 crashed with blocks 1 and 3 on the media,
	// block 2 missing and its closing block never written.
	writeBlock(r, base, 1, block{Recs: []record{vPropRecord(1, 1, 20)}, Open: 2})
	writeBlock(r, base, 3, block{Recs: []record{vPropRecord(2, 1, 30)}, Open: 2})

	s2, info, err := Attach(ctx, nil, 1, r, &lat, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !info.TornTail || info.Unreadable != 0 || s2.Damaged() || s2.Blocks() != 1 {
		t.Fatalf("want the unclosed flush truncated, got %+v, %d blocks", info, s2.Blocks())
	}
	if v, ok := s2.VProp(1, 1); !ok || v != 10 {
		t.Fatalf("vprop = %d %v (want the closed flush's 10)", v, ok)
	}
	// The next flush closes at block 1; block 3 stays behind it, open, and
	// the next attach drops it again.
	s2.ApplyProps([]graph.PropSet{{V: 3, Key: 1, Val: 40}})
	if err := s2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	s3, _, err := Attach(ctx, nil, 1, r, &lat, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.VProp(2, 1); ok || s3.Blocks() != 2 {
		t.Fatalf("a stale open block came back: %d blocks", s3.Blocks())
	}
	if v, ok := s3.VProp(3, 1); !ok || v != 40 {
		t.Fatalf("vprop = %d %v (want 40)", v, ok)
	}
}

func TestDamagedClosingBlockIsDamage(t *testing.T) {
	r, _, base := testRegion(t, 8)
	lat := xpsim.DefaultLatency()
	s, _ := Create(r, &lat, base, 8)
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for i := 0; i < RecordsPerBlock+1; i++ {
		s.ApplyProps([]graph.PropSet{{V: uint32(i), Key: 1, Val: 1}})
	}
	if err := s.Flush(ctx); err != nil { // blocks 0 (open) and 1 (closing)
		t.Fatal(err)
	}
	var b [1]byte
	off := base + 1*BlockBytes + 9
	r.Read(ctx, off, b[:])
	b[0] ^= 0xA5
	r.Write(ctx, off, b[:])
	r.Flush(ctx, off, 1)
	// The next flush, crashed: its open block names block 2 as its start,
	// so blocks 0 and 1 were a closed flush and block 1 is damage, not a
	// torn tail.
	writeBlock(r, base, 2, block{Recs: []record{vPropRecord(99, 1, 1)}, Open: 3})

	s2, info, err := Attach(ctx, nil, 1, r, &lat, base, 8)
	if err != nil {
		t.Fatal(err)
	}
	if info.Unreadable != 1 || !s2.Damaged() || !info.TornTail || s2.Blocks() != 2 {
		t.Fatalf("want block 1 damaged and block 2 truncated, got %+v, %d blocks", info, s2.Blocks())
	}
}

func TestLongFlushPaysOnlyResidentLines(t *testing.T) {
	const blocks = 400
	r, m, base := testRegion(t, blocks)
	lat := xpsim.DefaultLatency()
	s, _ := Create(r, &lat, base, blocks)
	for i := 0; i < blocks*RecordsPerBlock; i++ {
		s.ApplyProps([]graph.PropSet{{V: uint32(i), Key: 1, Val: 1}})
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for _, d := range m.Devices() {
		d.WritebackAll(ctx) // the region's own header lines
	}
	m.ResetStats()
	ctx = xpsim.NewCtx(xpsim.NodeUnbound)
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Every block is one line write; the run's closing flush pays only for
	// the lines still in the XPBuffer (64 a device), and the closing block
	// for its own.
	resident := int64(len(m.Devices())) * 64
	if lo, hi := blocks*lat.LineWrite, (blocks+resident+1)*lat.LineWrite; ctx.Cost.Ns() < lo || ctx.Cost.Ns() > hi {
		t.Errorf("flush of %d blocks took %d ns, want %d..%d", blocks, ctx.Cost.Ns(), lo, hi)
	}
	if st := m.TotalStats(); st.MediaWriteLines > blocks {
		t.Errorf("%d media line writes for %d blocks", st.MediaWriteLines, blocks)
	}
}
