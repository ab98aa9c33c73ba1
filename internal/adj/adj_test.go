package adj

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

func testStore(t *testing.T) (*Store, *pmem.Region, *xpsim.Machine, *xpsim.Ctx) {
	t.Helper()
	m := xpsim.NewMachine(2, 64<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	r, err := h.Map("pblk", 16<<20, pmem.Placement{Kind: pmem.Bind, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	lat := &m.Lat
	return New(r, lat, 16, Options{}), r, m, xpsim.NewCtx(0)
}

// ackedStore is testStore's store under the one policy a scan recovers.
func ackedStore(t *testing.T) (*Store, *pmem.Region, *xpsim.Ctx) {
	t.Helper()
	_, r, m, ctx := testStore(t)
	return New(r, &m.Lat, 16, Options{Counts: CountsAcked}), r, ctx
}

// crashAfterCommit runs one Ack cycle on s — what a flushing phase writes
// before the edge log commits its epoch — and rebuilds a store from r
// alone, with that epoch committed, as core.Recover does.
func crashAfterCommit(t *testing.T, s *Store, r RecoverableMem, ctx *xpsim.Ctx) *Store {
	t.Helper()
	epoch := s.epoch
	s.Ack(ctx, epoch, 0, 1)
	rs, err := RecoverWith(ctx, r, s.lat, s.opts, epoch, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// oldestFirst reads v's records in insertion order through the trusting path.
func oldestFirst(s *Store, ctx *xpsim.Ctx, v graph.VID) []uint32 {
	recs, _ := readOldestFirst(s, ctx, v, false)
	return recs
}

// raw reads v's stored records as Read lays them out, tombstones and all.
func raw(s *Store, ctx *xpsim.Ctx, v graph.VID, checked bool) ([]uint32, error) {
	return s.Read(ctx, v, nil, func([]uint32) {}, checked)
}

// readOldestFirst reads v's raw records in insertion order: Read's block
// runs, oldest block first.
func readOldestFirst(s *Store, ctx *xpsim.Ctx, v graph.VID, checked bool) ([]uint32, error) {
	var runs [][]uint32
	_, err := s.Read(ctx, v, nil, func(run []uint32) { runs = append(runs, slices.Clone(run)) }, checked)
	var recs []uint32
	for i := len(runs) - 1; i >= 0; i-- {
		recs = append(recs, runs[i]...)
	}
	return recs, err
}

func sorted(u []uint32) []uint32 {
	v := append([]uint32(nil), u...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

func equalMultiset(a, b []uint32) bool {
	a, b = sorted(a), sorted(b)
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

func TestAppendNeighbors(t *testing.T) {
	s, _, _, ctx := testStore(t)
	if err := s.Append(ctx, 3, []uint32{10, 11, 12}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ctx, 3, []uint32{13}); err != nil {
		t.Fatal(err)
	}
	got := s.Neighbors(ctx, 3, nil)
	if !equalMultiset(got, []uint32{10, 11, 12, 13}) {
		t.Fatalf("neighbors = %v", got)
	}
	if s.Records(3) != 4 {
		t.Fatalf("records = %d", s.Records(3))
	}
	if got := s.Neighbors(ctx, 9, nil); len(got) != 0 {
		t.Fatalf("vertex 9 neighbors = %v, want none", got)
	}
}

func TestChainAcrossBlocks(t *testing.T) {
	s, _, _, ctx := testStore(t)
	var want []uint32
	for i := uint32(0); i < 500; i++ {
		if err := s.Append(ctx, 1, []uint32{i}); err != nil {
			t.Fatal(err)
		}
		want = append(want, i)
	}
	if s.Blocks() < 2 {
		t.Fatalf("expected multiple blocks, got %d", s.Blocks())
	}
	if got := s.Neighbors(ctx, 1, nil); !equalMultiset(got, want) {
		t.Fatalf("%d neighbors back, want %d", len(got), len(want))
	}
}

func TestContains(t *testing.T) {
	s, _, _, ctx := testStore(t)
	s.Append(ctx, 2, []uint32{5, 6})
	contains := func(v graph.VID, nbr uint32) bool {
		return slices.Contains(s.Neighbors(ctx, v, nil), nbr)
	}
	if !contains(2, 5) || contains(2, 7) || contains(99, 5) {
		t.Fatal("Neighbors reports a record that was not appended, or misses one that was")
	}
}

func TestCompactResolvesTombstones(t *testing.T) {
	s, _, _, ctx := testStore(t)
	s.Append(ctx, 4, []uint32{1, 2, 3, 2})
	s.Append(ctx, 4, []uint32{2 | graph.DelFlag})
	if err := s.Compact(ctx, 4); err != nil {
		t.Fatal(err)
	}
	got := s.Neighbors(ctx, 4, nil)
	if !equalMultiset(got, []uint32{1, 2, 3}) {
		t.Fatalf("after compact: %v", got)
	}
	// Everything now sits in one block.
	if s.vx[4].tail == 0 || s.vx[4].cnt != 3 {
		t.Fatalf("compact left tailCnt=%d", s.vx[4].cnt)
	}
}

func TestCompactEmptiesFullyDeletedVertex(t *testing.T) {
	s, _, _, ctx := testStore(t)
	s.Append(ctx, 5, []uint32{9})
	s.Append(ctx, 5, []uint32{9 | graph.DelFlag})
	if err := s.Compact(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if got := s.Neighbors(ctx, 5, nil); len(got) != 0 {
		t.Fatalf("after full delete: %v", got)
	}
}

func TestRecoverRebuildsChains(t *testing.T) {
	s, r, ctx := ackedStore(t)
	want := map[graph.VID][]uint32{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		v := graph.VID(rng.Intn(50))
		nbr := rng.Uint32() >> 1
		if err := s.Append(ctx, v, []uint32{nbr}); err != nil {
			t.Fatal(err)
		}
		want[v] = append(want[v], nbr)
	}
	// Crash: all DRAM state is lost; rebuild from the region alone.
	rs := crashAfterCommit(t, s, r, ctx)
	if rs.Blocks() != s.Blocks() || rs.Bytes() != s.Bytes() {
		t.Fatalf("recovered blocks=%d bytes=%d, want %d/%d", rs.Blocks(), rs.Bytes(), s.Blocks(), s.Bytes())
	}
	for v, w := range want {
		if got := rs.Neighbors(ctx, v, nil); !equalMultiset(got, w) {
			t.Fatalf("vertex %d: recovered %d nbrs, want %d", v, len(got), len(w))
		}
		if rs.Records(v) != s.Records(v) {
			t.Fatalf("vertex %d: records %d vs %d", v, rs.Records(v), s.Records(v))
		}
	}
}

// Property: Append then Neighbors is a multiset identity under random
// interleavings of vertices and batch sizes.
func TestAppendNeighborsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := xpsim.NewMachine(1, 32<<20, xpsim.DefaultLatency())
		h := pmem.NewHeap(m)
		r, err := h.Map("p", 8<<20, pmem.Placement{Kind: pmem.Bind, Node: 0})
		if err != nil {
			return false
		}
		s := New(r, &m.Lat, 8, Options{})
		ctx := xpsim.NewCtx(0)
		want := map[graph.VID][]uint32{}
		for i := 0; i < 120; i++ {
			v := graph.VID(rng.Intn(8))
			n := rng.Intn(70) + 1
			nbrs := make([]uint32, n)
			for j := range nbrs {
				nbrs[j] = rng.Uint32() >> 1
			}
			if err := s.Append(ctx, v, nbrs); err != nil {
				return false
			}
			want[v] = append(want[v], nbrs...)
		}
		for v, w := range want {
			if !equalMultiset(s.Neighbors(ctx, v, nil), w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedFlushCheaperThanPerEdge(t *testing.T) {
	// The core XPGraph claim (§III-B): flushing 63 buffered neighbors in
	// one contiguous write costs far less PMEM traffic than 63 separate
	// single-neighbor appends across many vertices.
	m := xpsim.NewMachine(1, 64<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	r, _ := h.Map("a", 32<<20, pmem.Placement{Kind: pmem.Bind, Node: 0})
	s := New(r, &m.Lat, 4096, Options{})
	ctx := xpsim.NewCtx(0)

	// Scattered: one neighbor to each of 63*64 distinct vertices.
	m.ResetStats()
	scattered := xpsim.NewCtx(0)
	for round := 0; round < 64; round++ {
		for v := graph.VID(0); v < 63; v++ {
			s.Append(scattered, v+graph.VID(round)*63, []uint32{1})
		}
	}
	scatterWrites := m.TotalStats().MediaWriteBytes()

	// Batched: the same edge count, 63 at a time.
	m.ResetStats()
	batched := xpsim.NewCtx(0)
	nbrs := make([]uint32, 63)
	for round := 0; round < 64; round++ {
		s.Append(batched, 5000, nbrs)
	}
	batchWrites := m.TotalStats().MediaWriteBytes()
	_ = ctx

	if batchWrites*2 > scatterWrites {
		t.Errorf("batched media writes %d vs scattered %d; want >=2x reduction", batchWrites, scatterWrites)
	}
	if batched.Cost.Ns()*2 > scattered.Cost.Ns() {
		t.Errorf("batched cost %dns vs scattered %dns; want >=2x cheaper", batched.Cost.Ns(), scattered.Cost.Ns())
	}
}

func TestCompactRecyclesBlocks(t *testing.T) {
	s, _, _, ctx := testStore(t)
	for i := uint32(0); i < 200; i++ {
		if err := s.Append(ctx, 1, []uint32{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(ctx, 1); err != nil {
		t.Fatal(err)
	}
	base := s.Mem().AllocBytes()
	// Repeated compaction of the same content must reuse the freed
	// exact-size block instead of growing the arena.
	for round := 0; round < 5; round++ {
		if err := s.Compact(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	if grew := s.Mem().AllocBytes() - base; grew != 0 {
		t.Fatalf("repeated compaction leaked %d arena bytes", grew)
	}
	got := s.Neighbors(ctx, 1, nil)
	if len(got) != 200 {
		t.Fatalf("after compactions: %d nbrs, want 200", len(got))
	}
}

func TestRecoverSkipsDeadBlocks(t *testing.T) {
	s, r, ctx := ackedStore(t)
	for i := uint32(0); i < 100; i++ {
		s.Append(ctx, 2, []uint32{i})
		s.Append(ctx, 3, []uint32{i + 1000})
	}
	s.Ack(ctx, 1, 0, 1) // compaction rewrites acknowledged records only
	if err := s.Compact(ctx, 2); err != nil {
		t.Fatal(err)
	}
	rs := crashAfterCommit(t, s, r, ctx)
	if got := rs.Neighbors(ctx, 2, nil); len(got) != 100 {
		t.Fatalf("recovered vertex 2: %d nbrs, want 100 (dead blocks must not resurrect)", len(got))
	}
	if got := rs.Neighbors(ctx, 3, nil); len(got) != 100 {
		t.Fatalf("recovered vertex 3: %d nbrs, want 100", len(got))
	}
	// The recovered store keeps recycling the dead blocks.
	if len(rs.freeBlocks) == 0 {
		t.Fatal("recovered store lost the free-block lists")
	}
}

func TestRecoverAfterRecycleReorder(t *testing.T) {
	// Regression: a vertex whose next block is a recycled low-offset one has
	// a chain that is NOT offset-ordered; recovery must find the tail via
	// prev links, not arena order.
	s, r, ctx := ackedStore(t)
	// Vertex 1 builds a chain of small blocks at the front of the arena;
	// vertex 2 fills one 12-record block behind them.
	for i := uint32(0); i < 100; i++ {
		s.Append(ctx, 1, []uint32{i})
	}
	s.Append(ctx, 2, make([]uint32, 12))
	first := s.vx[2].tail
	s.Ack(ctx, 1, 0, 1)
	// Compaction frees vertex 1's blocks; vertex 2's next 12-record block
	// is one of them.
	if err := s.Compact(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 5; i++ {
		s.Append(ctx, 2, []uint32{2000 + i})
	}
	if s.vx[2].tail >= first {
		t.Fatalf("setup: vertex 2's tail %d is not in front of its first block %d", s.vx[2].tail, first)
	}
	want2 := s.Neighbors(ctx, 2, nil)

	rs := crashAfterCommit(t, s, r, ctx)
	got := rs.Neighbors(ctx, 2, nil)
	if !equalMultiset(got, want2) {
		t.Fatalf("recovered vertex 2: %d records, want %d", len(got), len(want2))
	}
	if rs.Records(2) != len(want2) {
		t.Fatalf("records = %d, want %d", rs.Records(2), len(want2))
	}
}

// TestReadRunsAreBlocks: Read hands out a chain's blocks as runs, newest
// first, each in insertion order.
func TestReadRunsAreBlocks(t *testing.T) {
	s, _, _, ctx := testStore(t)
	var want []uint32
	for i := uint32(0); i < 300; i++ {
		s.Append(ctx, 7, []uint32{i})
		want = append(want, i)
	}
	if s.Blocks() < 2 {
		t.Fatalf("one block: no run order to check")
	}
	old := oldestFirst(s, ctx, 7)
	if len(old) != len(want) {
		t.Fatalf("oldest-first %d records", len(old))
	}
	for i := range want {
		if old[i] != want[i] {
			t.Fatalf("oldest-first out of order at %d: %d != %d", i, old[i], want[i])
		}
	}
	// Out-of-range vertices are no-ops.
	if got := oldestFirst(s, ctx, 9999); len(got) != 0 {
		t.Fatal("missing vertex has records")
	}
}

func TestReserveAndSizings(t *testing.T) {
	s, _, _, ctx := testStore(t)
	if err := s.Reserve(ctx, 3, 10); err != nil {
		t.Fatal(err)
	}
	blocks := s.Blocks()
	// Space already reserved: appending 10 must not allocate again.
	if err := s.Append(ctx, 3, make([]uint32, 10)); err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != blocks {
		t.Fatal("Append allocated despite Reserve")
	}
	if err := s.Reserve(ctx, 3, 5); err != nil { // tail has only 2 free
		t.Fatal(err)
	}
	if s.Blocks() != blocks+1 {
		t.Fatal("Reserve beyond the tail's free space must allocate")
	}
	if s.NumVertices() == 0 {
		t.Fatal("NumVertices")
	}
	// GraphOneSizing doubles with degree and respects floors/caps.
	if GraphOneSizing(0, 1) != 4 || GraphOneSizing(5, 1) != 8 ||
		GraphOneSizing(100, 1) != 128 || GraphOneSizing(5000, 1) != 1024 ||
		GraphOneSizing(0, 50) != 50 {
		t.Fatal("GraphOneSizing shape wrong")
	}
}

func TestVolatileCountsVisit(t *testing.T) {
	_, r, m, ctx := testStore(t)
	s := New(r, &m.Lat, 16, Options{Counts: CountsVolatile})
	// Fill past one block so retired-full and partial paths both run.
	for i := uint32(0); i < 30; i++ {
		s.Append(ctx, 1, []uint32{i})
	}
	s.Reserve(ctx, 1, 25) // retire a partial tail
	s.Append(ctx, 1, []uint32{999})
	if got := s.Neighbors(ctx, 1, nil); len(got) != 31 {
		t.Fatalf("volatile-count visit = %d records, want 31", len(got))
	}
}

// TestAckSplitIsInvisibleToDevice acknowledges twin stores with one worker
// and with four: however many workers share the offset-sorted pending
// list, the arenas must come out byte-identical and the devices must have
// seen the same access sequence (identical counters, cache state included).
func TestAckSplitIsInvisibleToDevice(t *testing.T) {
	type twin struct {
		s *Store
		r *pmem.Region
		m *xpsim.Machine
	}
	build := func() twin {
		_, r, m, _ := testStore(t)
		return twin{New(r, &m.Lat, 16, Options{CrashSafe: true}), r, m}
	}
	one, four := build(), build()
	rng := rand.New(rand.NewSource(5))
	ctx := xpsim.NewCtx(0)
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < 300; i++ {
			v := graph.VID(rng.Intn(200))
			nbrs := make([]uint32, 1+rng.Intn(20))
			for j := range nbrs {
				nbrs[j] = rng.Uint32() &^ graph.DelFlag
			}
			for _, tw := range []twin{one, four} {
				if err := tw.s.Append(ctx, v, nbrs); err != nil {
					t.Fatal(err)
				}
			}
		}
		if cycle == 3 {
			// Kills drop pending entries; recycled offsets get new owners.
			for v := graph.VID(0); v < 50; v++ {
				for _, tw := range []twin{one, four} {
					if err := tw.s.Compact(ctx, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Same contention on both sides: only the split differs. A fresh
		// store's first cycle acknowledges epoch 1.
		for i, tw := range []twin{one, four} {
			n := 1 + 3*i
			var sw xpsim.Sweep
			sw.Each(n, 4, xpsim.PinnedTo(0), func(w int, wctx *xpsim.Ctx) {
				tw.s.Ack(wctx, uint32(cycle+1), w, n)
			})
		}
		a := make([]byte, one.r.AllocBytes())
		b := make([]byte, four.r.AllocBytes())
		one.r.Read(ctx, 0, a)
		four.r.Read(ctx, 0, b)
		if !bytes.Equal(a, b) {
			t.Fatalf("cycle %d: arenas differ between n=1 and n=4 acks", cycle)
		}
		if sa, sb := one.m.SnapshotStats(), four.m.SnapshotStats(); sa != sb {
			t.Fatalf("cycle %d: device stats differ:\n n=1 %+v\n n=4 %+v", cycle, sa, sb)
		}
	}
	if sa, sb := one.m.TotalStats(), four.m.TotalStats(); sa != sb {
		t.Fatalf("drained device stats differ:\n n=1 %+v\n n=4 %+v", sa, sb)
	}
}

// countingMem counts the write requests a store hands its memory, and
// remembers the clock the last one was charged to and what allocations
// cost.
type countingMem struct {
	RecoverableMem
	writes   int
	lastCost *xpsim.Cost
	allocNs  int64
}

func (c *countingMem) Write(ctx *xpsim.Ctx, off int64, p []byte) {
	c.writes++
	c.lastCost = ctx.Cost
	c.RecoverableMem.Write(ctx, off, p)
}

func (c *countingMem) Alloc(ctx *xpsim.Ctx, size, align int64) (int64, error) {
	before := ctx.Cost.Ns()
	defer func() { c.allocNs += ctx.Cost.Ns() - before }()
	return c.RecoverableMem.Alloc(ctx, size, align)
}

// TestCountsRideTheRecordsWrite pins the device accesses of the crash-safe
// append path. A new block's header, count and first records are ONE write
// request: a count written separately is one more access that ages every
// other line's XPBuffer reuse window, and costs media writes wherever no
// flush-all earns them back. An append that starts in the XPLine of the
// slot its block's stamp names writes the count beside its records, and
// the cycle's Ack then skips the block; only a block whose tail has moved
// on to another line is left for Ack. A flush drain's tail fill writes the
// count (and the stamp the media lacks) itself wherever its records start,
// so Ack skips its block too. A block left alone in the next epoch owes
// nothing; one changed there turns to its other slot and stamps it.
func TestCountsRideTheRecordsWrite(t *testing.T) {
	for name, opts := range map[string]Options{
		"fixed": {CrashSafe: true}, "varint": {CrashSafe: true, VarintBlocks: true}, "checksums": {CrashSafe: true, Checksums: true},
	} {
		// Every block spans several XPLines, whatever it is asked to hold.
		opts.Sizing = func(int, int) int { return 256 }
		_, r, m, ctx := testStore(t)
		cm := &countingMem{RecoverableMem: r}
		s := New(cm, &m.Lat, 16, opts)
		records := func(n int) []uint32 {
			nbrs := make([]uint32, n)
			for i := range nbrs {
				nbrs[i] = uint32(i+1) * 0x9E3779B1 &^ graph.DelFlag // far apart: a varint record is 5 bytes
			}
			return nbrs
		}
		appendN := func(v graph.VID, n int) int {
			t.Helper()
			before := cm.writes
			if err := s.Append(ctx, v, records(n)); err != nil {
				t.Fatal(err)
			}
			return cm.writes - before
		}
		fillN := func(v graph.VID, n int) int {
			t.Helper()
			before := cm.writes
			if k, err := s.FillTail(ctx, v, records(n)); err != nil || k != n {
				t.Fatalf("%s: FillTail stored %d of %d records: %v", name, k, n, err)
			}
			return cm.writes - before
		}
		media := func(v graph.VID) header {
			var hdr [headerBytes]byte
			r.Read(ctx, s.vx[v].tail, hdr[:])
			return parseHeader(hdr[:])
		}

		if w := appendN(1, 3); w != 1 {
			t.Fatalf("%s: a new block's first append is %d write requests, want 1", name, w)
		}
		if h := media(1); h.cnt != [2]uint32{0, 3} || h.sel != 1 || h.epoch != 1 {
			t.Fatalf("%s: new block's slots = %v, stamp %d@%d; want 0 (trusted until the commit) and 3, slot 1 stamped by epoch 1", name, h.cnt, h.sel, h.epoch)
		}
		if w := appendN(1, 1); w != 2 {
			t.Fatalf("%s: an append beside its header is %d write requests, want records + count", name, w)
		}
		// Vertex 2's tail leaves the header's line.
		appendN(2, 3)
		appendN(2, 100)
		roomy := s.vx[2].tail
		if (roomy+slotOff(1))/xpsim.XPLineSize == (roomy+headerBytes+int64(s.vx[2].bytes))/xpsim.XPLineSize {
			t.Fatalf("%s: setup: block %d's tail is still in its header's line", name, roomy)
		}
		if w := appendN(2, 1); w != 1 || s.vx[2].tail != roomy {
			t.Fatalf("%s: an append in another line than its header is %d write requests, want the records alone", name, w)
		}
		// Vertex 3's tail leaves the header's line too, and a tail fill
		// writes its count before its records.
		appendN(3, 3)
		appendN(3, 100)
		filled := s.vx[3].tail
		if w := fillN(3, 1); w != 2 || s.vx[3].tail != filled {
			t.Fatalf("%s: a tail fill in another line than its header is %d write requests, want count and records", name, w)
		}

		s.Ack(ctx, 1, 0, 1)
		if len(s.ackList) != 1 || s.ackList[0].off() != roomy {
			t.Fatalf("%s: the cycle acknowledges %v, want block %d alone", name, s.ackList, roomy)
		}
		for v := graph.VID(1); v <= 3; v++ {
			if h := media(v); h.cnt[1] != s.vx[v].cnt {
				t.Fatalf("%s: vertex %d's block holds %d of %d records in the slot to commit", name, v, h.cnt[1], s.vx[v].cnt)
			}
		}
		// Epoch 2 changes vertex 3's block by a tail fill alone: the fill
		// turns to slot 0 and writes it beside the stamp, one write before
		// its records, and Ack owes nothing.
		if w := fillN(3, 1); w != 2 {
			t.Fatalf("%s: epoch 2's tail fill is %d write requests, want stamp and count, then records", name, w)
		}
		if h := media(3); h.sel != 0 || h.epoch != 2 || h.cnt[0] != s.vx[3].cnt {
			t.Fatalf("%s: after epoch 2's tail fill the slots are %v stamped %d@%d, want %d records in slot 0 stamped by epoch 2", name, h.cnt, h.sel, h.epoch, s.vx[3].cnt)
		}
		s.Ack(ctx, 2, 0, 1)
		if len(s.ackList) != 0 {
			t.Fatalf("%s: epoch 2 acknowledges %v, want nothing", name, s.ackList)
		}
		// Epoch 3 changes vertex 1's block: its other slot, stamped beside
		// it, one write; epoch 4 turns back to slot 1, whose stamp and count
		// are two.
		for _, tc := range []struct {
			epoch  uint32
			sel    uint32
			writes int
		}{{3, 0, 2}, {4, 1, 3}} {
			before := media(1).cnt
			if w := appendN(1, 1); w != tc.writes {
				t.Fatalf("%s: epoch %d's first append beside the header is %d write requests, want %d", name, tc.epoch, w, tc.writes)
			}
			h := media(1)
			if h.sel != tc.sel || h.epoch != tc.epoch || h.cnt[tc.sel] != s.vx[1].cnt || h.cnt[1-tc.sel] != before[1-tc.sel] {
				t.Fatalf("%s: epoch %d: slots %v stamped %d@%d, want %d records in slot %d, the other untouched", name, tc.epoch, h.cnt, h.sel, h.epoch, s.vx[1].cnt, tc.sel)
			}
			s.Ack(ctx, tc.epoch, 0, 1)
			if len(s.ackList) != 0 {
				t.Fatalf("%s: epoch %d acknowledges %v, want nothing", name, tc.epoch, s.ackList)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Ack of an epoch the store is not stamping did not panic", name)
				}
			}()
			s.Ack(ctx, 4, 0, 1)
		}()
	}
}

// TestCountPolicies pins each row of countRules at the device: for every
// policy, which count slots hold what on the media after a new block's
// first append, an append inside the header's XPLine, one past it and an
// Ack cycle; how many write requests each append is; and whether a new
// block's header write is charged to the device or, for CountsVolatile,
// costs a DRAM metadata update alone.
func TestCountPolicies(t *testing.T) {
	type slots [2]uint32
	for _, tc := range []struct {
		p CountPolicy
		// media slots after each step: new block (3 records), an append in
		// the header's line (1), one that leaves it (100), one past it (1),
		// and the Ack cycle
		first, inLine, leave, past, acked slots
		writes                            [4]int // write requests per append
	}{
		{CountsAtAppend, slots{3, 0}, slots{4, 0}, slots{104, 0}, slots{105, 0}, slots{105, 0}, [4]int{1, 2, 2, 2}},
		{CountsVolatile, slots{}, slots{}, slots{}, slots{}, slots{}, [4]int{2, 1, 1, 1}},
		{CountsDeferred, slots{}, slots{}, slots{}, slots{}, slots{}, [4]int{1, 1, 1, 1}},
		{CountsAcked, slots{0, 3}, slots{0, 4}, slots{0, 104}, slots{0, 104}, slots{0, 105}, [4]int{1, 2, 2, 1}},
	} {
		t.Run(tc.p.String(), func(t *testing.T) {
			_, r, m, ctx := testStore(t)
			cm := &countingMem{RecoverableMem: r}
			s := New(cm, &m.Lat, 16, Options{Counts: tc.p, Sizing: func(int, int) int { return 256 }})
			media := func() slots {
				var hdr [headerBytes]byte
				r.Read(ctx, s.vx[1].tail, hdr[:])
				return parseHeader(hdr[:]).cnt
			}
			for i, n := range []int{3, 1, 100, 1} {
				before := cm.writes
				if err := s.Append(ctx, 1, make([]uint32, n)); err != nil {
					t.Fatal(err)
				}
				want := []slots{tc.first, tc.inLine, tc.leave, tc.past}[i]
				if got := media(); got != want || cm.writes-before != tc.writes[i] {
					t.Errorf("append %d of %d records: slots %v in %d write requests, want %v in %d",
						i, n, got, cm.writes-before, want, tc.writes[i])
				}
			}
			if tail := s.vx[1].tail; (tail+slotOff(1))/xpsim.XPLineSize == (tail+headerBytes+4*104)/xpsim.XPLineSize {
				t.Fatal("setup: the last append did not leave the header's line")
			}
			if tc.p.Acked() {
				s.Ack(ctx, 1, 0, 1)
			} else {
				func() {
					defer func() { _ = recover() }()
					s.Ack(ctx, 1, 0, 1)
					t.Error("Ack did not panic")
				}()
			}
			if got := media(); got != tc.acked {
				t.Errorf("after the ack cycle: slots %v, want %v", got, tc.acked)
			}

			// A reserved block is its header alone: written on the caller's
			// clock, or for free beside a DRAM metadata update.
			dram := xpsim.NewCtx(0)
			m.Lat.DRAM(dram, headerBytes, true, false)
			hdr := xpsim.NewCtx(0)
			cm.allocNs = 0
			if err := s.Reserve(hdr, 2, 10); err != nil {
				t.Fatal(err)
			}
			charged, ns := cm.lastCost == hdr.Cost, hdr.Cost.Ns()-cm.allocNs
			if want := tc.p != CountsVolatile; charged != want || !charged && ns != dram.Cost.Ns() {
				t.Errorf("header write charged = %v at %d ns beside the allocation, want %v (a DRAM update is %d ns)",
					charged, ns, want, dram.Cost.Ns())
			}
		})
	}
}

// TestRecoverWithRefusesUnrecoverablePolicies: a scan rebuilds acked stores
// only, and refuses every other policy — or options New would panic on —
// with an error.
func TestRecoverWithRefusesUnrecoverablePolicies(t *testing.T) {
	for _, opts := range []Options{
		{}, {Counts: CountsVolatile}, {Counts: CountsDeferred},
		{Counts: CountsDeferred, Checksums: true}, {Checksums: true},
		{Counts: CountsVolatile, CrashSafe: true},
	} {
		_, r, m, ctx := testStore(t)
		if rs, err := RecoverWith(ctx, r, &m.Lat, opts, 1, nil); err == nil || rs != nil {
			t.Errorf("RecoverWith(%+v) = %v, %v; want a refusal", opts, rs, err)
		}
	}
	for _, opts := range []Options{{CrashSafe: true}, {Counts: CountsAcked, CrashSafe: true}, {Counts: CountsAcked, Checksums: true}} {
		_, r, m, ctx := testStore(t)
		if _, err := RecoverWith(ctx, r, &m.Lat, opts, 1, nil); err != nil {
			t.Errorf("RecoverWith(%+v): %v", opts, err)
		}
	}
	_, r, m, _ := testStore(t)
	for _, opts := range []Options{{Counts: CountsDeferred, CrashSafe: true}, {Checksums: true}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", opts)
				}
			}()
			New(r, &m.Lat, 16, opts)
		}()
	}
}

// TestBoundsAreTypedRefusals: a block too large for a pending count's
// flags, and an append past the last epoch a stamp can name, are refused
// with errors — never a count that spills into the flags, never a stamp
// that wraps to the epoch every block is created in.
func TestBoundsAreTypedRefusals(t *testing.T) {
	s, _, ctx := ackedStore(t)
	if _, err := s.allocBlock(ctx, 1, int(maxBlockRecords/4)); err == nil {
		t.Error("a block of 2^27 capacity units was allocated")
	}
	s.epoch = maxEpoch
	if err := s.Append(ctx, 1, []uint32{7}); err != nil {
		t.Fatalf("an append in the last epoch: %v", err)
	}
	s.Ack(ctx, maxEpoch, 0, 1)
	if err := s.Append(ctx, 1, []uint32{8}); !errors.Is(err, errEpochBound) {
		t.Fatalf("an append past the last epoch: %v, want ErrEpochBound", err)
	}
}

// TestRunTagsWrapWithoutAStaleStamp holds the index to 32 bytes a vertex
// and the epoch tags to their cycle: a block stamped 0xFFFF epochs back
// (the same tag) is not the running epoch's, so its next change still
// turns to the other slot.
func TestRunTagsWrapWithoutAStaleStamp(t *testing.T) {
	if n := unsafe.Sizeof(vertex{}); n != 32 {
		t.Fatalf("vertex index entry is %d bytes, want 32", n)
	}
	s, r, ctx := ackedStore(t)
	if err := s.Append(ctx, 1, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	stamped := s.epoch
	for i := 0; i < 0xFFFF; i++ {
		s.Ack(ctx, s.epoch, 0, 1)
	}
	if runTag(s.epoch) != runTag(stamped) {
		t.Fatalf("setup: epoch %d's tag %d is not epoch %d's %d", s.epoch, runTag(s.epoch), stamped, runTag(stamped))
	}
	if err := s.Append(ctx, 1, []uint32{8}); err != nil {
		t.Fatal(err)
	}
	var hdr [headerBytes]byte
	r.Read(ctx, s.vx[1].tail, hdr[:])
	if h := parseHeader(hdr[:]); h.sel != 0 || h.cnt != [2]uint32{2, 1} || h.epoch != s.epoch {
		t.Fatalf("the change counted into slot %d (slots %v, stamp epoch %d), want slot 0 stamped by epoch %d beside the committed 1", h.sel, h.cnt, h.epoch, s.epoch)
	}
}

// historyLive is the reference meaning of a record stream in insertion
// order: a delete cancels an earlier matching insert if one is live, and
// cancels nothing otherwise.
func historyLive(stream []uint32) []uint32 {
	var live []uint32
	for _, r := range stream {
		if r&graph.DelFlag == 0 {
			live = append(live, r)
		} else if i := slices.Index(live, r&^graph.DelFlag); i >= 0 {
			live = slices.Delete(live, i, i+1)
		}
	}
	return live
}

// randomStream is a record stream over a few neighbors, a third of it
// deletes, many of them of edges not live.
func randomStream(rng *rand.Rand, n int) []uint32 {
	stream := make([]uint32, n)
	for i := range stream {
		stream[i] = uint32(rng.Intn(4))
		if rng.Intn(3) == 0 {
			stream[i] |= graph.DelFlag
		}
	}
	return stream
}

// Resolving a stream whole equals resolving a prefix first — what a
// compaction or a rebuild from a snapshot does — then the prefix's
// survivors followed by the rest, at every cut.
func TestResolveAtEveryCut(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		stream := randomStream(rng, 1+rng.Intn(30))
		whole := ResolveTombstones(slices.Clone(stream), 0)
		if want := historyLive(stream); !equalMultiset(whole, want) {
			t.Fatalf("%x resolves to %v, want %v", stream, whole, want)
		}
		for cut := 0; cut <= len(stream); cut++ {
			two := append(ResolveTombstones(slices.Clone(stream[:cut]), 0), stream[cut:]...)
			if got := ResolveTombstones(two, 0); !equalMultiset(got, whole) {
				t.Fatalf("%x cut at %d resolves to %v, whole to %v", stream, cut, got, whole)
			}
		}
	}
}

// A Resolver fed a newer run and then a chain's block runs, newest first,
// resolves the stream they hold in history order.
func TestResolverTakesRunsNewestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		s, _, _, ctx := testStore(t)
		stream := randomStream(rng, 1+rng.Intn(60))
		chained := rng.Intn(len(stream) + 1)
		for rest := stream[:chained]; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(8))
			if err := s.Append(ctx, 1, rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		var res Resolver
		res.Run(stream[chained:])
		recs, err := s.Read(ctx, 1, nil, res.Run, false)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Live(append(recs, stream[chained:]...), 0)
		if want := historyLive(stream); !equalMultiset(got, want) {
			t.Fatalf("%x (%d chained) reads %v, want %v", stream, chained, got, want)
		}
	}
}
