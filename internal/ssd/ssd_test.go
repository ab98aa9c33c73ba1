package ssd

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/xpsim"
)

func testSpace() (*Space, *xpsim.Ctx) {
	lat := xpsim.DefaultLatency()
	return New(&lat, 16<<20), xpsim.NewCtx(0)
}

func TestReadAfterWrite(t *testing.T) {
	s, ctx := testSpace()
	want := []byte("cold adjacency block")
	s.Write(ctx, 8192, want)
	got := make([]byte, len(want))
	s.Read(ctx, 8192, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	r, w := s.Pages()
	if r == 0 || w == 0 {
		t.Fatalf("page counters not tracked: r=%d w=%d", r, w)
	}
}

func TestPageGranularCosts(t *testing.T) {
	s, _ := testSpace()
	small := xpsim.NewCtx(0)
	s.Write(small, 0, make([]byte, 8))
	big := xpsim.NewCtx(0)
	s.Write(big, pageSize*4, make([]byte, pageSize))
	// A sub-page write costs a full page program.
	if small.Cost.Ns() != big.Cost.Ns() {
		t.Fatalf("8B write %dns vs 4K write %dns; both should cost one page", small.Cost.Ns(), big.Cost.Ns())
	}
	span := xpsim.NewCtx(0)
	s.Write(span, pageSize*8+100, make([]byte, pageSize)) // straddles two pages
	if span.Cost.Ns() != 2*big.Cost.Ns() {
		t.Fatalf("straddling write %dns, want two pages (%dns)", span.Cost.Ns(), 2*big.Cost.Ns())
	}
}

func TestMuchSlowerThanPMEMFlush(t *testing.T) {
	lat := xpsim.DefaultLatency()
	s := New(&lat, 1<<20)
	ctx := xpsim.NewCtx(0)
	p := make([]byte, 256)
	s.Write(ctx, 0, p)
	// One XPLine-sized write: SSD should be ~an order of magnitude
	// above the PMEM line-write cost.
	if ctx.Cost.Ns() < 10*lat.LineWrite {
		t.Fatalf("SSD write %dns too cheap vs PMEM line %dns", ctx.Cost.Ns(), lat.LineWrite)
	}
}

func TestAllocBounds(t *testing.T) {
	s, ctx := testSpace()
	off, err := s.Alloc(ctx, 100, 16)
	if err != nil || off == 0 || off%16 != 0 {
		t.Fatalf("alloc: %d, %v", off, err)
	}
	if _, err := s.Alloc(ctx, 32<<20, 1); err == nil {
		t.Fatal("expected namespace-full error")
	}
}

func TestMatchesShadow(t *testing.T) {
	f := func(seed int64) bool {
		lat := xpsim.DefaultLatency()
		s := New(&lat, 1<<16)
		ctx := xpsim.NewCtx(0)
		rng := rand.New(rand.NewSource(seed))
		shadow := make([]byte, 1<<16)
		for i := 0; i < 100; i++ {
			off := rng.Int63n(1<<16 - 600)
			n := 1 + rng.Int63n(599)
			if rng.Intn(2) == 0 {
				p := make([]byte, n)
				rng.Read(p)
				s.Write(ctx, off, p)
				copy(shadow[off:], p)
			} else {
				p := make([]byte, n)
				s.Read(ctx, off, p)
				if !bytes.Equal(p, shadow[off:off+n]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTieredOverflow(t *testing.T) {
	lat := xpsim.DefaultLatency()
	fast := mem.NewDRAM(&lat, 4096, nil)
	slow := New(&lat, 1<<20)
	tier := mem.NewTiered(fast, slow)
	ctx := xpsim.NewCtx(0)

	// Fill the fast tier, then overflow.
	a, err := tier.Alloc(ctx, 3000, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tier.Alloc(ctx, 3000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a >= fast.Size() {
		t.Fatalf("first alloc (%d) should land on the fast tier", a)
	}
	if b < fast.Size() {
		t.Fatalf("second alloc (%d) should overflow to the slow tier", b)
	}
	if tier.SlowBytes() == 0 {
		t.Fatal("slow tier bytes not accounted")
	}

	// Data round-trips on both tiers and across the boundary.
	for _, off := range []int64{a, b} {
		want := []byte("tiered payload 1234")
		tier.Write(ctx, off, want)
		got := make([]byte, len(want))
		tier.Read(ctx, off, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("tier round trip at %d failed", off)
		}
	}
	// Straddle the boundary explicitly.
	want := make([]byte, 200)
	rand.New(rand.NewSource(1)).Read(want)
	off := fast.Size() - 100
	tier.Write(ctx, off, want)
	got := make([]byte, len(want))
	tier.Read(ctx, off, got)
	if !bytes.Equal(got, want) {
		t.Fatal("boundary-straddling access corrupted data")
	}

	// Slow-tier accesses cost more.
	cFast, cSlow := xpsim.NewCtx(0), xpsim.NewCtx(0)
	tier.Write(cFast, a, want[:64])
	tier.Write(cSlow, b, want[:64])
	if cSlow.Cost.Ns() <= cFast.Cost.Ns() {
		t.Fatalf("slow tier write %dns <= fast %dns", cSlow.Cost.Ns(), cFast.Cost.Ns())
	}
}
