package ssd

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/xpsim"
)

// mustPanic runs f and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want message containing %q", r, want)
		}
	}()
	f()
}

// TestOutOfBoundsAccess pins the bounds contract: any access past the
// namespace or at a negative offset is a programming error and panics
// rather than silently truncating (a short read would hand the caller a
// buffer that is part data, part stale garbage).
func TestOutOfBoundsAccess(t *testing.T) {
	lat := xpsim.DefaultLatency()
	s := New(&lat, 1<<16)
	ctx := xpsim.NewCtx(0)

	mustPanic(t, "out of bounds", func() { s.Read(ctx, 1<<16-8, make([]byte, 16)) })
	mustPanic(t, "out of bounds", func() { s.Write(ctx, 1<<16, make([]byte, 1)) })
	mustPanic(t, "out of bounds", func() { s.Read(ctx, -1, make([]byte, 1)) })

	// One byte inside the end is fine.
	s.Write(ctx, 1<<16-1, []byte{0xAB})
	p := make([]byte, 1)
	s.Read(ctx, 1<<16-1, p)
	if p[0] != 0xAB {
		t.Fatalf("last-byte round trip: %#x", p[0])
	}
}

// TestAllocOverflow exercises the namespace-full path: the error names
// the shortfall, a failed Alloc must not move the allocator, and the
// space that was free before the failure stays allocatable.
func TestAllocOverflow(t *testing.T) {
	lat := xpsim.DefaultLatency()
	s := New(&lat, 8192)
	ctx := xpsim.NewCtx(0)

	if _, err := s.Alloc(ctx, 4096, 1); err != nil {
		t.Fatal(err)
	}
	before := s.AllocBytes()
	if _, err := s.Alloc(ctx, 8192, 1); err == nil {
		t.Fatal("oversized alloc succeeded")
	} else if !strings.Contains(err.Error(), "namespace full") {
		t.Fatalf("error %v; want namespace full", err)
	}
	if got := s.AllocBytes(); got != before {
		t.Fatalf("failed alloc moved the allocator: %d -> %d", before, got)
	}
	// The remaining tail is still usable after the failure.
	off, err := s.Alloc(ctx, 1024, 1)
	if err != nil || off != before {
		t.Fatalf("post-failure alloc: off=%d err=%v (want %d)", off, err, before)
	}
}

// TestAllocAlignmentOverflow: an allocation that fits by size but not
// once aligned must fail, not wrap or overlap.
func TestAllocAlignmentOverflow(t *testing.T) {
	lat := xpsim.DefaultLatency()
	s := New(&lat, 4096+64)
	ctx := xpsim.NewCtx(0)
	if _, err := s.Alloc(ctx, 100, 1); err != nil { // move past the header
		t.Fatal(err)
	}
	if _, err := s.Alloc(ctx, 4096, 4096); err == nil {
		t.Fatal("aligned alloc fit where only unaligned space remains")
	}
}

// TestPartialWriteThenReopen covers the reopen-after-partial-write shape
// the archive depends on: a writer that stopped mid-page leaves the
// written prefix intact and the unwritten tail deterministically zero, so
// a reader attaching later sees no stale garbage.
func TestPartialWriteThenReopen(t *testing.T) {
	lat := xpsim.DefaultLatency()
	s := New(&lat, 1<<16)
	w := xpsim.NewCtx(0)

	prefix := bytes.Repeat([]byte{0x5A}, 1000) // not page aligned
	s.Write(w, pageSize, prefix)

	// "Reopen": a fresh reader context over the same space reads the
	// whole page the partial write touched.
	r := xpsim.NewCtx(0)
	page := make([]byte, pageSize)
	s.Read(r, pageSize, page)
	if !bytes.Equal(page[:1000], prefix) {
		t.Fatal("written prefix lost")
	}
	for i, b := range page[1000:] {
		if b != 0 {
			t.Fatalf("unwritten tail byte %d = %#x; want zero", 1000+i, b)
		}
	}

	// Never-written regions read fully zero too.
	far := make([]byte, 512)
	s.Read(r, 1<<15, far)
	if !bytes.Equal(far, make([]byte, 512)) {
		t.Fatal("unwritten region not zero")
	}
}

// TestZeroLengthAccess: empty reads and writes are no-ops — no panic, no
// page charge, no simulated cost.
func TestZeroLengthAccess(t *testing.T) {
	lat := xpsim.DefaultLatency()
	s := New(&lat, 4096)
	ctx := xpsim.NewCtx(0)
	s.Write(ctx, 100, nil)
	s.Read(ctx, 100, nil)
	if r, w := s.Pages(); r != 0 || w != 0 {
		t.Fatalf("zero-length access charged pages: r=%d w=%d", r, w)
	}
	if ctx.Cost.Ns() != 0 {
		t.Fatalf("zero-length access cost %dns", ctx.Cost.Ns())
	}
}

// TestPagesAccounting pins the page-counter arithmetic across aligned,
// sub-page, and straddling accesses.
func TestPagesAccounting(t *testing.T) {
	lat := xpsim.DefaultLatency()
	s := New(&lat, 1<<20)
	ctx := xpsim.NewCtx(0)

	s.Write(ctx, 0, make([]byte, pageSize))      // exactly one page
	s.Write(ctx, pageSize*2+100, []byte{1})      // sub-page: still one page
	s.Write(ctx, pageSize*4-8, make([]byte, 16)) // straddles two pages
	s.Read(ctx, pageSize*4-8, make([]byte, 16))  // straddles two pages

	r, w := s.Pages()
	if w != 4 {
		t.Fatalf("pages written = %d, want 4", w)
	}
	if r != 2 {
		t.Fatalf("pages read = %d, want 2", r)
	}
}
