package elog

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

var lastMachine *xpsim.Machine

func testLog(t *testing.T, capEntries int64, battery bool) (*Log, *pmem.Region, *xpsim.Ctx) {
	t.Helper()
	m := xpsim.NewMachine(2, 32<<20, xpsim.DefaultLatency())
	lastMachine = m
	h := pmem.NewHeap(m)
	r, err := h.Map("elog", 1<<20, pmem.Placement{Kind: pmem.Interleave})
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	l, err := Create(ctx, r, capEntries, battery)
	if err != nil {
		t.Fatal(err)
	}
	return l, r, ctx
}

func edges(n int, start uint32) []graph.Edge {
	es := make([]graph.Edge, n)
	for i := range es {
		es[i] = graph.Edge{Src: start + uint32(i), Dst: start + uint32(i) + 1}
	}
	return es
}

func TestAppendRead(t *testing.T) {
	l, _, ctx := testLog(t, 128, false)
	es := edges(10, 100)
	n, err := l.Append(ctx, es)
	if err != nil || n != 10 {
		t.Fatalf("Append = %d, %v", n, err)
	}
	got := l.Read(ctx, 0, 10, nil)
	for i := range es {
		if got[i] != es[i] {
			t.Fatalf("edge %d: got %v want %v", i, got[i], es[i])
		}
	}
}

func TestOverwriteProtection(t *testing.T) {
	l, _, ctx := testLog(t, 16, false)
	if n, err := l.Append(ctx, edges(16, 0)); err != nil || n != 16 {
		t.Fatalf("fill: %d %v", n, err)
	}
	// Nothing buffered or flushed: a further append must refuse.
	if n, err := l.Append(ctx, edges(1, 99)); !errors.Is(err, ErrFull) || n != 0 {
		t.Fatalf("overfull append = %d, %v; want 0, ErrFull", n, err)
	}
	// Buffering alone is NOT enough in the standard (non-battery)
	// variant: buffered-but-unflushed edges live only in DRAM.
	l.MarkBuffered(ctx, 16)
	if _, err := l.Append(ctx, edges(1, 99)); !errors.Is(err, ErrFull) {
		t.Fatal("non-battery log must not overwrite unflushed edges")
	}
	// After flushing they may be overwritten.
	l.MarkFlushed(ctx, 16)
	if n, err := l.Append(ctx, edges(8, 50)); err != nil || n != 8 {
		t.Fatalf("append after flush = %d, %v", n, err)
	}
}

func TestBatteryVariantOverwritesBuffered(t *testing.T) {
	l, _, ctx := testLog(t, 16, true)
	l.Append(ctx, edges(16, 0))
	l.MarkBuffered(ctx, 16)
	// XPGraph-B: buffered edges are protected by the battery; the head
	// may overwrite them without a flush.
	if n, err := l.Append(ctx, edges(4, 77)); err != nil || n != 4 {
		t.Fatalf("battery append = %d, %v", n, err)
	}
}

func TestPartialAppend(t *testing.T) {
	l, _, ctx := testLog(t, 16, false)
	n, err := l.Append(ctx, edges(20, 0))
	if !errors.Is(err, ErrFull) || n != 16 {
		t.Fatalf("partial append = %d, %v; want 16, ErrFull", n, err)
	}
}

func TestWrapAround(t *testing.T) {
	l, _, ctx := testLog(t, 8, false)
	l.Append(ctx, edges(8, 0))
	l.MarkBuffered(ctx, 8)
	l.MarkFlushed(ctx, 8)
	es := edges(6, 100)
	if n, err := l.Append(ctx, es); err != nil || n != 6 {
		t.Fatalf("wrap append = %d, %v", n, err)
	}
	got := l.Read(ctx, 8, 14, nil)
	for i := range es {
		if got[i] != es[i] {
			t.Fatalf("wrapped edge %d: got %v want %v", i, got[i], es[i])
		}
	}
}

func TestAttachRecoversCursors(t *testing.T) {
	l, r, ctx := testLog(t, 64, false)
	l.Append(ctx, edges(40, 0))
	l.MarkBuffered(ctx, 30)
	l.MarkFlushed(ctx, 20)

	// Simulated crash: rebuild the Log object purely from PMEM.
	l2, err := Attach(ctx, r, l.HeaderOffset(), l.BaseOffset(), false)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Head() != 40 || l2.Buffered() != 30 || l2.Flushed() != 20 || l2.Cap() != 64 {
		t.Fatalf("recovered cursors head=%d buffered=%d flushed=%d cap=%d",
			l2.Head(), l2.Buffered(), l2.Flushed(), l2.Cap())
	}
	// The replay window [flushed, head) survives verbatim.
	got := l2.Read(ctx, 20, 40, nil)
	for i, e := range got {
		want := graph.Edge{Src: uint32(20 + i), Dst: uint32(21 + i)}
		if e != want {
			t.Fatalf("replay edge %d = %v, want %v", i, e, want)
		}
	}
}

func TestDeletionFlagSurvivesLog(t *testing.T) {
	l, _, ctx := testLog(t, 16, false)
	del := graph.Del(3, 4)
	l.Append(ctx, []graph.Edge{del})
	got := l.Read(ctx, 0, 1, nil)
	if !got[0].IsDelete() || got[0].Target() != 4 || got[0].Src != 3 {
		t.Fatalf("deletion round-trip: %v", got[0])
	}
}

// Property: cursors stay ordered (flushed <= buffered <= head) and
// head-flushed never exceeds capacity, across random operation sequences.
func TestCursorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lat := xpsim.DefaultLatency()
		space := mem.NewDRAM(&lat, 1<<20, nil)
		ctx := xpsim.NewCtx(0)
		l, err := Create(ctx, space, 32, false)
		if err != nil {
			return false
		}
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0:
				l.Append(ctx, edges(rng.Intn(10)+1, rng.Uint32()>>8))
			case 1:
				room := l.Head() - l.Buffered()
				if room > 0 {
					l.MarkBuffered(ctx, l.Buffered()+rng.Int63n(room)+1)
				}
			case 2:
				room := l.Buffered() - l.Flushed()
				if room > 0 {
					l.MarkFlushed(ctx, l.Flushed()+rng.Int63n(room)+1)
				}
			}
			if !(l.Flushed() <= l.Buffered() && l.Buffered() <= l.Head()) {
				return false
			}
			if l.Head()-l.Flushed() > l.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLogAppendIsSequentialOnPMEM(t *testing.T) {
	// Logging is the cheap phase (Fig. 3a): appends must not incur
	// read-modify-write media reads.
	l, _, ctx := testLog(t, 4096, false)
	m := lastMachine
	m.ResetStats()
	l.Append(ctx, edges(4096, 0))
	s := m.TotalStats()
	if s.MediaReadLines > 8 {
		t.Fatalf("log append caused %d media reads; appends must stream", s.MediaReadLines)
	}
}

func TestPendingAndBytes(t *testing.T) {
	l, _, ctx := testLog(t, 32, false)
	l.Append(ctx, edges(10, 0))
	if l.PendingBuffer() != 10 || l.PendingFlush() != 0 {
		t.Fatalf("pending: buffer=%d flush=%d", l.PendingBuffer(), l.PendingFlush())
	}
	l.MarkBuffered(ctx, 6)
	if l.PendingBuffer() != 4 || l.PendingFlush() != 6 {
		t.Fatalf("pending after buffer: %d/%d", l.PendingBuffer(), l.PendingFlush())
	}
	if l.Bytes() != 64+32*8 {
		t.Fatalf("bytes = %d", l.Bytes())
	}
}

// TestStripeCutsAtInterleaveAndWrap: walking a window with Stripe visits
// every record once, each piece lies in one interleave stripe of the region
// (one home node, the one Stripe reports), never crosses the ring wrap, and
// is as long as those two limits allow.
func TestStripeCutsAtInterleaveAndWrap(t *testing.T) {
	if stripeBytes != pmem.DefaultStripe {
		t.Fatalf("elog cuts at %d bytes, PMEM interleaves at %d", stripeBytes, pmem.DefaultStripe)
	}
	const capEntries = 1500 // not a multiple of the 512 records a stripe holds
	l, r, ctx := testLog(t, capEntries, false)
	// Two laps, so that windows wrap.
	for lap := 0; lap < 2; lap++ {
		if _, err := l.Append(ctx, edges(capEntries, 0)); err != nil {
			t.Fatal(err)
		}
		l.MarkBuffered(ctx, l.Head())
		l.MarkFlushed(ctx, l.Head())
	}
	off := func(i int64) int64 { return l.BaseOffset() + i%capEntries*graph.EdgeBytes }
	from, to := l.Head()-capEntries+7, l.Head()
	nodes := map[int]bool{}
	for at := from; at < to; {
		end, node := l.Stripe(at, to)
		if end <= at || end > to {
			t.Fatalf("Stripe(%d, %d) = %d", at, to, end)
		}
		for i := at; i < end; i++ {
			if r.NodeOf(off(i)) != node || off(i)/stripeBytes != off(at)/stripeBytes {
				t.Fatalf("piece [%d,%d): record %d is in another stripe (node %d, piece on %d)", at, end, i, r.NodeOf(off(i)), node)
			}
		}
		if end < to && end%capEntries != 0 && off(end)/stripeBytes == off(at)/stripeBytes {
			t.Fatalf("piece [%d,%d) stops inside its stripe", at, end)
		}
		// Line cuts the stripe the same way at XPLines.
		for l0 := at; l0 < end; {
			l1 := l.Line(l0, end)
			if l1 <= l0 || off(l1-1)/xpsim.XPLineSize != off(l0)/xpsim.XPLineSize ||
				l1 < end && off(l1)/xpsim.XPLineSize == off(l0)/xpsim.XPLineSize {
				t.Fatalf("Line(%d, %d) = %d: not the rest of one XPLine", l0, end, l1)
			}
			l0 = l1
		}
		nodes[node] = true
		at = end
	}
	if len(nodes) != 2 {
		t.Fatalf("an interleaved log should have stripes on both nodes, saw %v", nodes)
	}
}

// perRecordRead is the reference Read: one 8-byte memory read per record.
func perRecordRead(l *Log, ctx *xpsim.Ctx, from, to int64) []graph.Edge {
	var dst []graph.Edge
	var rec [graph.EdgeBytes]byte
	for i := from; i < to; i++ {
		l.m.Read(ctx, l.base+i%l.cap*graph.EdgeBytes, rec[:])
		dst = append(dst, graph.DecodeEdge(rec[:]))
	}
	return dst
}

// wrappedLog is a 1500-record log — its ring ends mid-line and mid-stripe —
// on its own machine, two laps in, so that windows wrap.
func wrappedLog(t *testing.T) (*Log, *xpsim.Machine) {
	t.Helper()
	const capEntries = 1500
	l, _, ctx := testLog(t, capEntries, false)
	for lap := 0; lap < 2; lap++ {
		if _, err := l.Append(ctx, edges(capEntries, uint32(lap)*capEntries)); err != nil {
			t.Fatal(err)
		}
		l.MarkBuffered(ctx, l.Head())
		l.MarkFlushed(ctx, l.Head())
	}
	return l, lastMachine
}

// TestReadInLines: Read returns what the per-record loop returns and the
// device sees the same bytes requested and the same lines read from media,
// but one access per XPLine touched instead of one per record — across the
// ring wrap, with partial first and last lines, inside one line, over the
// whole ring.
func TestReadInLines(t *testing.T) {
	probe, _ := wrappedLog(t)
	head, c := probe.Head(), probe.Cap()
	windows := [][2]int64{
		{head - c + 7, head - 5},       // partial first and last line, across the wrap
		{head - 300, head - 200},       // across the wrap only
		{head - 20, head - 13},         // inside one line
		{head - c, head},               // the whole ring
		{head - c + 33, head - c + 33}, // empty
	}
	for _, w := range windows {
		lines := map[int64]bool{}
		for i := w[0]; i < w[1]; i++ {
			lines[(probe.base+i%c*graph.EdgeBytes)/xpsim.XPLineSize] = true
		}
		run := func(read func(l *Log, ctx *xpsim.Ctx) []graph.Edge) ([]graph.Edge, xpsim.Stats, int64) {
			l, m := wrappedLog(t)
			ctx := xpsim.NewCtx(0)
			before := m.SnapshotStats()
			got := read(l, ctx)
			return got, m.SnapshotStats().Sub(before), ctx.Cost.Ns()
		}
		got, st, ns := run(func(l *Log, ctx *xpsim.Ctx) []graph.Edge { return l.Read(ctx, w[0], w[1], nil) })
		want, ref, refNs := run(func(l *Log, ctx *xpsim.Ctx) []graph.Edge { return perRecordRead(l, ctx, w[0], w[1]) })
		if len(got) != len(want) {
			t.Fatalf("%v: %d edges, the per-record loop %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: edge %d = %v, the per-record loop %v", w, i, got[i], want[i])
			}
		}
		if st.ReqReadBytes != ref.ReqReadBytes || st.MediaReadLines != ref.MediaReadLines {
			t.Fatalf("%v: requested %d B and read %d media lines, the per-record loop %d B and %d lines", w, st.ReqReadBytes, st.MediaReadLines, ref.ReqReadBytes, ref.MediaReadLines)
		}
		if n := st.BufHits + st.BufMisses; n != int64(len(lines)) {
			t.Fatalf("%v: %d XPBuffer accesses for %d XPLines touched", w, n, len(lines))
		}
		if ns > refNs || len(want) > 1 && len(lines) < len(want) && ns == refNs {
			t.Fatalf("%v: %d sim-ns, the per-record loop %d", w, ns, refNs)
		}
	}
}

// TestReadAllocatesNothing: a warmed Read into a buffer with room allocates
// nothing, though the span buffer it hands the memory escapes.
func TestReadAllocatesNothing(t *testing.T) {
	l, _ := wrappedLog(t)
	ctx := xpsim.NewCtx(0)
	dst := make([]graph.Edge, 0, l.Cap())
	read := func() { dst = l.Read(ctx, l.Head()-l.Cap()+7, l.Head()-5, dst[:0]) }
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
		t.Fatalf("a warmed Read allocates %.0f times", allocs)
	}
}

// TestConcurrentReads: readers of the log window share no scratch (run
// under -race).
func TestConcurrentReads(t *testing.T) {
	l, _ := wrappedLog(t)
	want := l.Read(xpsim.NewCtx(0), l.Head()-l.Cap(), l.Head(), nil)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			ctx := xpsim.NewCtx(node)
			for k := 0; k < 20; k++ {
				got := l.Read(ctx, l.Head()-l.Cap(), l.Head(), nil)
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Sprintf("reader %d, pass %d: edge %d = %v, want %v", node, k, i, got[i], want[i])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRewindBuffered: recovery's rewind moves only the DRAM mirror; the
// window it opens is buffered again like any other.
func TestRewindBuffered(t *testing.T) {
	l, r, ctx := testLog(t, 128, false)
	if _, err := l.Append(ctx, edges(40, 0)); err != nil {
		t.Fatal(err)
	}
	l.MarkBuffered(ctx, 30)
	l.MarkFlushed(ctx, 10)
	l.RewindBuffered()
	if l.Buffered() != 10 || l.PendingBuffer() != 30 {
		t.Fatalf("after rewind buffered = %d, pending = %d", l.Buffered(), l.PendingBuffer())
	}
	if again, err := Attach(ctx, r, l.HeaderOffset(), l.BaseOffset(), false); err != nil || again.Buffered() != 30 {
		t.Fatalf("persisted buffered cursor moved: %v, %v", again, err)
	}
	l.MarkBuffered(ctx, 25)
	if again, err := Attach(ctx, r, l.HeaderOffset(), l.BaseOffset(), false); err != nil || again.Buffered() != 25 {
		t.Fatalf("replay did not persist its cursor: %v, %v", again, err)
	}
}

// TestCommitEpochSurvivesEveryTear crashes a commit at each of its two
// stores: whichever of the flushed cursor and the epoch word is durable,
// the log attaches at the epoch the durable cursor says — the old one until
// the cursor moves, the new one once it has — and a commit that does not
// move the cursor commits with its epoch word.
func TestCommitEpochSurvivesEveryTear(t *testing.T) {
	for _, advance := range []int64{3, 0} {
		l, r, ctx := testLog(t, 16, false)
		if _, err := l.Append(ctx, edges(8, 0)); err != nil {
			t.Fatal(err)
		}
		l.MarkBuffered(ctx, 8)
		if err := l.Commit(ctx, 4); err != nil {
			t.Fatal(err)
		}
		old := make([]byte, HeaderBytes)
		r.Read(ctx, l.HeaderOffset(), old)
		if err := l.Commit(ctx, 4+advance); err != nil {
			t.Fatal(err)
		}
		committed := make([]byte, HeaderBytes)
		r.Read(ctx, l.HeaderOffset(), committed)
		for _, tc := range []struct {
			cursor, word bool // durable: the new flushed cursor, the new epoch word
			want         uint32
		}{{false, false, 1}, {true, true, 2}, {true, false, map[bool]uint32{true: 2, false: 1}[advance > 0]}, {false, true, map[bool]uint32{true: 1, false: 2}[advance > 0]}} {
			hdr := append([]byte(nil), old...)
			if tc.cursor {
				copy(hdr[offFlush:offFlush+8], committed[offFlush:])
			}
			if tc.word {
				copy(hdr[offEpoch:offEpoch+8], committed[offEpoch:])
			}
			r.Write(ctx, l.HeaderOffset(), hdr)
			got, err := Attach(ctx, r, l.HeaderOffset(), l.BaseOffset(), false)
			if err != nil {
				t.Fatal(err)
			}
			if got.Epoch() != tc.want {
				t.Errorf("advance %d, new cursor durable %v, new epoch word %v: epoch %d, want %d", advance, tc.cursor, tc.word, got.Epoch(), tc.want)
			}
		}
	}
}

// TestCommitRefusesPastMaxEpoch: the epochs end in a typed refusal, never a
// wrap to the epoch every block is created in.
func TestCommitRefusesPastMaxEpoch(t *testing.T) {
	l, _, ctx := testLog(t, 16, false)
	l.epoch = maxEpoch - 1
	if err := l.Commit(ctx, 0); err != nil || l.Epoch() != maxEpoch {
		t.Fatalf("commit of the last epoch: %v, epoch %d", err, l.Epoch())
	}
	if err := l.Commit(ctx, 0); !errors.Is(err, errEpochBound) || l.Epoch() != maxEpoch {
		t.Fatalf("commit past the last epoch: %v, epoch %d; want ErrEpochBound", err, l.Epoch())
	}
}
