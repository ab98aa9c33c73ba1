package elog

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// fuzzLogSetup builds a small log in a real region with a representative
// cursor state (wrapped head, all three cursors distinct, epoch 1), and
// returns the region, the log, and the raw header bytes.
func fuzzLogSetup(tb testing.TB) (*pmem.Region, *Log, []byte) {
	m := xpsim.NewMachine(2, 32<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	r, err := h.Map("fuzz-elog", 1<<16, pmem.Placement{Kind: pmem.Interleave})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	l, err := Create(ctx, r, 8, false)
	if err != nil {
		tb.Fatal(err)
	}
	// head=12 (wrapped), buffered=10, flushed=6, epoch=1.
	if _, err := l.Append(ctx, edges(8, 0)); err != nil {
		tb.Fatal(err)
	}
	l.MarkBuffered(ctx, 8)
	if err := l.Commit(ctx, 6); err != nil {
		tb.Fatal(err)
	}
	if _, err := l.Append(ctx, edges(4, 8)); err != nil {
		tb.Fatal(err)
	}
	l.MarkBuffered(ctx, 10)
	hdr := make([]byte, HeaderBytes)
	r.Read(ctx, l.HeaderOffset(), hdr)
	return r, l, hdr
}

// FuzzLogCursors mutates the persisted 64-byte cursor header and checks
// that Attach either reproduces a valid state or rejects it with an
// error — it must never panic, and when it accepts a header, reading the
// whole replay window [flushed, head) must stay inside the resident ring
// (no out-of-window replay) and return exactly head-flushed edges.
func FuzzLogCursors(f *testing.F) {
	_, _, valid := fuzzLogSetup(f)
	f.Add(valid)
	// The all-zero header of a just-created log (with cap patched in).
	empty := make([]byte, HeaderBytes)
	binary.LittleEndian.PutUint64(empty[offCap:], 8)
	f.Add(empty)
	// Interesting single-field corruptions.
	for _, mut := range []struct{ off, val uint64 }{
		{offHead, 1 << 40},            // head far beyond the ring
		{offBuf, 11},                  // buffered > head? (10 -> 11 keeps order; 13 breaks it)
		{offBuf, 13},                  // buffered ahead of head
		{offFlush, 11},                // flushed ahead of buffered
		{offFlush, uint64(6) | 1<<63}, // negative flushed cursor
		{offEpoch, uint64(9) | 6<<32}, // an epoch the cursor never committed
		{offCap, 0},                   // zero capacity
		{offCap, 1 << 50},             // capacity beyond the region
		{offHead, ^uint64(0)},         // negative head when read as int64
	} {
		h := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(h[mut.off:], mut.val)
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, hdr []byte) {
		if len(hdr) != HeaderBytes {
			return
		}
		r, l, orig := fuzzLogSetup(t)
		ctx := xpsim.NewCtx(0)
		r.Write(ctx, l.HeaderOffset(), hdr)
		got, err := Attach(ctx, r, l.HeaderOffset(), l.BaseOffset(), false)
		if bytes.Equal(hdr, orig) {
			// Round-trip: the untouched header must attach and reproduce
			// the live cursors exactly.
			if err != nil {
				t.Fatalf("valid header rejected: %v", err)
			}
			if got.Head() != l.Head() || got.Buffered() != l.Buffered() ||
				got.Flushed() != l.Flushed() || got.Epoch() != l.Epoch() || got.Cap() != l.Cap() {
				t.Fatalf("round-trip mismatch: got head=%d buf=%d flush=%d epoch=%d cap=%d, want head=%d buf=%d flush=%d epoch=%d cap=%d",
					got.Head(), got.Buffered(), got.Flushed(), got.Epoch(), got.Cap(),
					l.Head(), l.Buffered(), l.Flushed(), l.Epoch(), l.Cap())
			}
		}
		if err != nil {
			return // corrupt header rejected: exactly what we want
		}
		// Accepted: every invariant replay relies on must hold.
		if got.Flushed() > got.Buffered() || got.Buffered() > got.Head() {
			t.Fatalf("accepted unordered cursors: flushed=%d buffered=%d head=%d",
				got.Flushed(), got.Buffered(), got.Head())
		}
		if got.Head()-got.Flushed() > got.Cap() {
			t.Fatalf("accepted out-of-window replay: window %d > cap %d",
				got.Head()-got.Flushed(), got.Cap())
		}
		if got.Cap() <= 0 {
			t.Fatalf("accepted non-positive cap %d", got.Cap())
		}
		// The whole replay window must be readable without panicking and
		// yield exactly window-many edges.
		win := got.Read(ctx, got.Flushed(), got.Head(), nil)
		if int64(len(win)) != got.Head()-got.Flushed() {
			t.Fatalf("replay window read %d edges, want %d", len(win), got.Head()-got.Flushed())
		}
	})
}
