package adj

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

func TestZigzagRoundTrip(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64,
		int64(math.MaxUint32), -int64(math.MaxUint32)} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("zigzag round trip: %d -> %d", d, got)
		}
	}
	if err := quick.Check(func(d int64) bool { return unzigzag(zigzag(d)) == d }, nil); err != nil {
		t.Fatal(err)
	}
}

// encodeVarintRun encodes vals as one delta chain starting from prev,
// appending to buf.
func encodeVarintRun(buf []byte, prev uint32, vals []uint32) []byte {
	buf, _, _ = encodeRun(buf, fmtVarint, maxVarintRec*len(vals), prev, vals)
	return buf
}

// decodeAll decodes cnt records from a raw payload slice.
func decodeAll(t *testing.T, payload []byte, cnt int) []uint32 {
	t.Helper()
	vr := newVarintReader(func(off int64, p []byte) error {
		copy(p, payload[off:off+int64(len(p))])
		return nil
	}, 0, int64(len(payload)), false)
	out := make([]uint32, 0, cnt)
	for i := 0; i < cnt; i++ {
		v, err := vr.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		out = append(out, v)
	}
	return out
}

func TestVarintEncodeDecodeRun(t *testing.T) {
	vals := []uint32{0, 1, math.MaxUint32, 5, 5, 1 << 30, 7, graph.DelFlag | 123}
	enc := encodeVarintRun(nil, 0, vals)
	got := decodeAll(t, enc, len(vals))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("record %d: got %d, want %d", i, got[i], vals[i])
		}
	}
	// Sorted small-delta runs must beat 4 bytes/record — the density claim.
	sortedRun := make([]uint32, 1000)
	for i := range sortedRun {
		sortedRun[i] = uint32(i * 3)
	}
	enc = encodeVarintRun(nil, 0, sortedRun)
	if len(enc) >= 4*len(sortedRun)/2 {
		t.Fatalf("sorted run encoded to %d bytes, expected < %d", len(enc), 4*len(sortedRun)/2)
	}
}

func varintStore(t *testing.T, opts Options) (*Store, *pmem.Region, *xpsim.Ctx) {
	t.Helper()
	opts.VarintBlocks = true
	_, r, m, ctx := testStore(t)
	return New(r, &m.Lat, 16, opts), r, ctx
}

func TestVarintAppendAndRead(t *testing.T) {
	s, _, ctx := varintStore(t, Options{})
	// Descending and jumping values: negative deltas, large zigzags.
	want := []uint32{100, 7, math.MaxUint32, 0, 50, 49, 48, 1 << 31}
	for _, v := range want {
		if err := s.Append(ctx, 3, []uint32{v}); err != nil {
			t.Fatal(err)
		}
	}
	if got := oldestFirst(s, ctx, 3); !equalU32s(got, want) {
		t.Fatalf("oldest-first = %v, want %v", got, want)
	}
	if got, _ := raw(s, ctx, 3, false); !equalMultiset(got, want) {
		t.Fatalf("records = %v", got)
	}
	if s.Records(3) != len(want) {
		t.Fatalf("records = %d", s.Records(3))
	}
	if st := s.Encoding(); st.VarintRecords != int64(len(want)) || st.VarintBytes == 0 {
		t.Fatalf("encoding stats = %+v", st)
	}
}

func TestVarintChainAcrossBlocks(t *testing.T) {
	s, _, ctx := varintStore(t, Options{})
	rng := rand.New(rand.NewSource(42))
	var want []uint32
	for i := 0; i < 2000; i++ {
		v := uint32(rng.Int63())
		want = append(want, v)
		if err := s.Append(ctx, 1, []uint32{v}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Blocks() < 2 {
		t.Fatalf("expected multiple blocks, got %d", s.Blocks())
	}
	if got := oldestFirst(s, ctx, 1); !equalU32s(got, want) {
		t.Fatalf("%d neighbors back, want %d (order-preserving)", len(got), len(want))
	}
	if got, _ := raw(s, ctx, 1, false); len(got) != len(want) {
		t.Fatalf("record count = %d, want %d", len(got), len(want))
	}
}

func TestMixedFormatChain(t *testing.T) {
	s, r, ctx := ackedStore(t)
	var want []uint32
	for i := uint32(0); i < 100; i++ {
		want = append(want, i*7)
		if err := s.Append(ctx, 5, []uint32{i * 7}); err != nil {
			t.Fatal(err)
		}
	}
	// Flip the store to varint mid-stream: the fixed tail keeps filling,
	// then fresh blocks come up varint — one chain, two formats.
	s.opts.VarintBlocks = true
	for i := uint32(0); i < 300; i++ {
		v := uint32(1<<24) - i
		want = append(want, v)
		if err := s.Append(ctx, 5, []uint32{v}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Encoding()
	if st.FixedRecords == 0 || st.VarintRecords == 0 {
		t.Fatalf("expected both formats in use: %+v", st)
	}
	if got := oldestFirst(s, ctx, 5); !equalU32s(got, want) {
		t.Fatalf("mixed chain read back %d records, want %d", len(got), len(want))
	}

	// The mixed chain must scan-recover, and the recovered varint tail must
	// keep appending (byte cursor + delta predecessor rebuilt from media).
	rs := crashAfterCommit(t, s, r, ctx)
	if got := oldestFirst(rs, ctx, 5); !equalU32s(got, want) {
		t.Fatalf("recovered mixed chain mismatch: %d records, want %d", len(got), len(want))
	}
	more := []uint32{1, math.MaxUint32, 2, 2}
	if err := rs.Append(ctx, 5, more); err != nil {
		t.Fatal(err)
	}
	want = append(want, more...)
	if got := oldestFirst(rs, ctx, 5); !equalU32s(got, want) {
		t.Fatalf("post-recovery append mismatch: got %d records, want %d", len(got), len(want))
	}
}

func TestVarintCompactSortsAndResolves(t *testing.T) {
	s, _, ctx := varintStore(t, Options{})
	if err := s.Append(ctx, 1, []uint32{30, 10, 20, 10, 40}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ctx, 1, []uint32{10 | graph.DelFlag}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(ctx, 1); err != nil {
		t.Fatal(err)
	}
	got := oldestFirst(s, ctx, 1)
	want := []uint32{10, 20, 30, 40} // sorted run, one tombstone resolved
	if !equalU32s(got, want) {
		t.Fatalf("compacted = %v, want %v", got, want)
	}
	if s.Records(1) != len(want) {
		t.Fatalf("records = %d", s.Records(1))
	}
}

func TestVarintCompactDensity(t *testing.T) {
	s, _, ctx := varintStore(t, Options{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		if err := s.Append(ctx, 2, []uint32{uint32(rng.Intn(1 << 16))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(ctx, 2); err != nil {
		t.Fatal(err)
	}
	lay := s.Layout(ctx)
	if lay.Records != 3000 {
		t.Fatalf("layout records = %d", lay.Records)
	}
	// A compacted sorted run over a dense value range must beat the fixed
	// encoding's 4 bytes/record.
	if lay.PayloadBytes*2 >= lay.Records*4 {
		t.Fatalf("compacted varint payload %d bytes for %d records — no density win", lay.PayloadBytes, lay.Records)
	}
}

func TestVarintRecoverTailCursor(t *testing.T) {
	s, r, ctx := varintStore(t, Options{Counts: CountsAcked})
	rng := rand.New(rand.NewSource(9))
	var want []uint32
	for i := 0; i < 700; i++ {
		v := uint32(rng.Int63())
		want = append(want, v)
		if err := s.Append(ctx, 4, []uint32{v}); err != nil {
			t.Fatal(err)
		}
	}
	rs := crashAfterCommit(t, s, r, ctx)
	if got := oldestFirst(rs, ctx, 4); !equalU32s(got, want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	// Appends after recovery continue the tail's delta chain; a wrong byte
	// cursor or predecessor would garble every value from here on.
	for i := 0; i < 100; i++ {
		v := uint32(rng.Int63())
		want = append(want, v)
		if err := rs.Append(ctx, 4, []uint32{v}); err != nil {
			t.Fatal(err)
		}
	}
	if got := oldestFirst(rs, ctx, 4); !equalU32s(got, want) {
		t.Fatalf("post-recovery appends garbled: got %d records, want %d", len(got), len(want))
	}
}

func TestVarintChecksumsDetectCorruption(t *testing.T) {
	opts := Options{CrashSafe: true, Checksums: true}
	s, r, ctx := varintStore(t, opts)
	rng := rand.New(rand.NewSource(11))
	var want []uint32
	for i := 0; i < 400; i++ {
		v := uint32(rng.Int63())
		want = append(want, v)
		if err := s.Append(ctx, 6, []uint32{v}); err != nil {
			t.Fatal(err)
		}
	}
	s.Ack(ctx, 1, 0, 1) // a fresh store's first epoch
	if err := s.VerifyChain(ctx, 6); err != nil {
		t.Fatalf("clean chain: %v", err)
	}
	got, err := raw(s, ctx, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if !equalMultiset(got, want) {
		t.Fatalf("checked read %d records, want %d", len(got), len(want))
	}

	// Flip one payload byte of the oldest block behind the store's back.
	spans := s.ChainSpans(6)
	off := spans[len(spans)-1][0] + headerBytes
	var b [1]byte
	r.Read(ctx, off, b[:])
	b[0] ^= 0xFF
	r.Write(ctx, off, b[:])

	var ce *CorruptError
	if err := s.VerifyChain(ctx, 6); !errors.As(err, &ce) {
		t.Fatalf("VerifyChain after corruption = %v, want CorruptError", err)
	}
	if _, err := readOldestFirst(s, ctx, 6, true); !errors.As(err, &ce) {
		t.Fatalf("checked read after corruption = %v, want CorruptError", err)
	}

	// Recovery recomputes payload CRCs: the vertex must come back suspect.
	rs, err := RecoverWith(ctx, nil, 1, r, s.lat, Options{CrashSafe: true, Checksums: true, VarintBlocks: true}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rs.Suspects() {
		if v == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("suspects = %v, want vertex 6", rs.Suspects())
	}
}

func TestVarintReplaceChainRoundTrip(t *testing.T) {
	s, _, ctx := varintStore(t, Options{CrashSafe: true, Checksums: true})
	recs := []uint32{9, 2, 2 | graph.DelFlag, 100, 3} // tombstones stay, order kept
	if err := s.Append(ctx, 8, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	s.Ack(ctx, 1, 0, 1)
	if _, err := s.ReplaceChain(ctx, 8, recs); err != nil {
		t.Fatal(err)
	}
	got, err := readOldestFirst(s, ctx, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU32s(got, recs) {
		t.Fatalf("replaced chain = %v, want %v (as given)", got, recs)
	}
	if err := s.VerifyChain(ctx, 8); err != nil {
		t.Fatal(err)
	}
}

func equalU32s(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzVarintBlockDecode throws arbitrary payload bytes at the streaming
// decoder: truncated streams, overlong varints, and deltas that walk
// outside uint32 must all surface as errVarintCorrupt, never a panic or an
// out-of-bounds read, and whatever does decode must survive a re-encode
// round trip.
func FuzzVarintBlockDecode(f *testing.F) {
	f.Add(encodeVarintRun(nil, 0, []uint32{0, 1, math.MaxUint32, 5, 5}), uint32(5))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint32(1)) // overlong varint
	f.Add([]byte{0xFE, 0xFF, 0xFF, 0xFF, 0x1F}, uint32(2))       // max delta then truncation
	f.Add([]byte{0x01}, uint32(1))                               // delta -1 from 0: underflow
	f.Add([]byte{}, uint32(3))                                   // records claimed, no bytes
	f.Fuzz(func(t *testing.T, payload []byte, cnt uint32) {
		cnt %= 1 << 12
		end := int64(len(payload))
		vr := newVarintReader(func(off int64, p []byte) error {
			copy(p, payload[off:off+int64(len(p))])
			return nil
		}, 0, end, true)
		var vals []uint32
		for i := uint32(0); i < cnt; i++ {
			v, err := vr.next()
			if err != nil {
				if !errors.Is(err, errVarintCorrupt) {
					t.Fatalf("decode error %v, want errVarintCorrupt", err)
				}
				break
			}
			vals = append(vals, v)
		}
		if vr.bytesConsumed() > end {
			t.Fatalf("consumed %d of %d payload bytes", vr.bytesConsumed(), end)
		}
		vr.sum() // must not panic regardless of decode outcome
		if len(vals) > 0 {
			enc := encodeVarintRun(nil, 0, vals)
			vr2 := newVarintReader(func(off int64, p []byte) error {
				copy(p, enc[off:off+int64(len(p))])
				return nil
			}, 0, int64(len(enc)), false)
			for i, want := range vals {
				got, err := vr2.next()
				if err != nil || got != want {
					t.Fatalf("re-encode round trip record %d: got %d/%v, want %d", i, got, err, want)
				}
			}
		}
	})
}

// TestRecoverTornKillKeepsBlocksBehind hand-builds the torn kill that used
// to truncate an arena: powerfail atomicity is per 8-byte word, so killing
// a varint block can leave the dead header's {prev, stamp} word durable
// while the {vid, cap} word and the count slots are still the live owner's.
// If the dead header dropped the format bit, that reads as a live fixed
// block whose (varint) count in slot 0, the one a dead stamp selects,
// exceeds its capacity — the scan's never-durable frontier — and every
// committed block behind it gets zeroed.
func TestRecoverTornKillKeepsBlocksBehind(t *testing.T) {
	opts := Options{CrashSafe: true}
	s, r, ctx := varintStore(t, opts)
	opts.VarintBlocks = true

	// Vertex 1: one varint block holding more records than its capacity
	// word (one-byte deltas, four per capacity unit).
	var dense []uint32
	for i := uint32(0); i < 40; i++ {
		dense = append(dense, i)
	}
	// The first append sizes the block (12 units = 48 payload bytes); the
	// second, an epoch later, turns the count to slot 0 — the slot a dead
	// header's stamp selects.
	for epoch, part := range [][]uint32{dense[:1], dense[1:]} {
		if err := s.Append(ctx, 1, part); err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			s.Ack(ctx, 1, 0, 1)
		}
	}
	victim := s.vx[1].tail
	if s.vx[1].cnt <= s.vx[1].capacity {
		t.Fatalf("setup: cnt %d must exceed cap %d", s.vx[1].cnt, s.vx[1].capacity)
	}
	// Blocks allocated behind it.
	behind := map[graph.VID][]uint32{2: {7, 9, 11}, 3: {1000, 5, 77, 78}}
	for v, recs := range behind {
		if err := s.Append(ctx, v, recs); err != nil {
			t.Fatal(err)
		}
		if s.vx[v].tail < victim {
			t.Fatalf("setup: vertex %d's block is not behind the victim", v)
		}
	}
	s.Ack(ctx, 2, 0, 1)

	// Kill the block for real, then put every word but {prev, stamp} back.
	var live, dead [headerBytes]byte
	r.Read(ctx, victim, live[:])
	s.killBlock(ctx, victim, int(s.vx[1].capacity), fmtVarint)
	r.Read(ctx, victim, dead[:])
	torn := live
	copy(torn[offPrev:offPrev+8], dead[offPrev:offPrev+8])
	r.Write(ctx, victim, torn[:])

	rs, err := RecoverWith(ctx, nil, 1, r, s.lat, opts, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range behind {
		if got := oldestFirst(rs, ctx, v); !equalU32s(got, want) {
			t.Errorf("vertex %d behind the torn kill = %v, want %v", v, got, want)
		}
	}
	if got := oldestFirst(rs, ctx, 1); !equalU32s(got, dense) {
		t.Errorf("torn-killed vertex = %d records, want %d", len(got), len(dense))
	}
}

// TestRecoverTornReuseKeepsBlocksBehind hand-builds the torn reuse of a
// recycled block across formats. A store recovered from fixed-width media
// appends varint blocks, and takes them off the free lists: the block's old
// contents are a dead header whose format bit says fixed. Its new owner's
// appends leave their count in slot 1, and a varint count may exceed the
// capacity word. If the line is torn so that {vid, cap} and the count reach
// the media but {prev, stamp} does not, the scan sees a live fixed block
// whose dead stamp selects slot 0, carrying, in the slot it does NOT trust,
// a count above its capacity. That slot is scratch: the block must be taken
// for what the trusted slot says — an empty dangler — not for the
// never-durable frontier, behind which every acknowledged block gets zeroed.
func TestRecoverTornReuseKeepsBlocksBehind(t *testing.T) {
	opts := Options{CrashSafe: true}
	_, r, m, ctx := testStore(t)
	s := New(r, &m.Lat, 16, opts)
	want := map[graph.VID][]uint32{1: {4, 5, 6}, 2: {7, 9, 11}, 3: {1000, 5, 77, 78}}
	for v := graph.VID(1); v <= 3; v++ {
		if err := s.Append(ctx, v, want[v]); err != nil {
			t.Fatal(err)
		}
	}
	s.Ack(ctx, 1, 0, 1)
	// Compacting vertex 1 moves it to the frontier and recycles its first
	// block, which sits in front of the other two.
	victim := s.vx[1].tail
	if err := s.Compact(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if victim > s.vx[2].tail || victim > s.vx[3].tail || s.vx[1].tail < s.vx[3].tail {
		t.Fatalf("setup: recycled block %d is not in front of blocks %d and %d", victim, s.vx[2].tail, s.vx[3].tail)
	}
	var dead [headerBytes]byte
	r.Read(ctx, victim, dead[:])

	// The recovered store turns varint on and gives the recycled block to
	// vertex 4: one record sizes it, forty one-byte deltas overfill its
	// capacity word, all counted into slot 1 beside the records.
	opts.VarintBlocks = true
	rs, err := RecoverWith(ctx, nil, 1, r, &m.Lat, opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dense []uint32
	for i := uint32(0); i < 41; i++ {
		dense = append(dense, i)
	}
	for _, part := range [][]uint32{dense[:1], dense[1:]} {
		if err := rs.Append(ctx, 4, part); err != nil {
			t.Fatal(err)
		}
	}
	if rs.vx[4].tail != victim || rs.vx[4].cnt <= rs.vx[4].capacity {
		t.Fatalf("setup: vertex 4's block %d (recycled: %d) holds %d records, capacity word %d", rs.vx[4].tail, victim, rs.vx[4].cnt, rs.vx[4].capacity)
	}
	var torn [headerBytes]byte
	r.Read(ctx, victim, torn[:])
	if cnt1 := parseHeader(torn[:]).cnt[1]; cnt1 != rs.vx[4].cnt {
		t.Fatalf("setup: the appends left %d in slot 1, want their count %d", cnt1, rs.vx[4].cnt)
	}
	copy(torn[offPrev:offPrev+8], dead[offPrev:offPrev+8])
	r.Write(ctx, victim, torn[:])

	rs, err = RecoverWith(ctx, nil, 1, r, &m.Lat, opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, recs := range want {
		if got := oldestFirst(rs, ctx, v); !equalU32s(got, recs) {
			t.Errorf("vertex %d behind the torn reuse = %v, want %v", v, got, recs)
		}
	}
	if got := rs.Records(4); got != 0 {
		t.Errorf("vertex 4 recovers %d records of a flushing phase that never committed", got)
	}
}
