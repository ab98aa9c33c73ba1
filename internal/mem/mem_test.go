package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xpsim"
)

func TestBudgetChargeRelease(t *testing.T) {
	b := NewBudget(100)
	if err := b.Charge(60); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(50); !errors.Is(err, ErrOOM) {
		t.Fatalf("overcharge err = %v, want ErrOOM", err)
	}
	b.Release(30)
	if err := b.Charge(50); err != nil {
		t.Fatalf("charge after release: %v", err)
	}
	if b.Used() != 80 {
		t.Fatalf("used = %d, want 80", b.Used())
	}
	if b.Peak() != 80 {
		t.Fatalf("peak = %d, want 80", b.Peak())
	}
}

func TestBudgetUnlimited(t *testing.T) {
	b := NewBudget(0)
	if err := b.Charge(1 << 40); err != nil {
		t.Fatal(err)
	}
	var nilBudget *Budget
	if err := nilBudget.Charge(1); err != nil {
		t.Fatal("nil budget must be unlimited")
	}
}

func TestSpaceReadWrite(t *testing.T) {
	lat := xpsim.DefaultLatency()
	s := NewDRAM(&lat, 1<<20, nil)
	ctx := xpsim.NewCtx(0)
	want := []byte("volatile but fast")
	s.Write(ctx, 4242, want)
	got := make([]byte, len(want))
	s.Read(ctx, 4242, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	if s.Persistent() {
		t.Fatal("DRAM space must not claim persistence")
	}
}

func TestSpaceAllocBudgetOOM(t *testing.T) {
	lat := xpsim.DefaultLatency()
	b := NewBudget(1000)
	s := NewDRAM(&lat, 1<<20, b)
	ctx := xpsim.NewCtx(0)
	if _, err := s.Alloc(ctx, 900, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(ctx, 900, 8); !errors.Is(err, ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestSpaceAllocAlignment(t *testing.T) {
	lat := xpsim.DefaultLatency()
	s := NewDRAM(&lat, 1<<20, nil)
	ctx := xpsim.NewCtx(0)
	if _, err := s.Alloc(ctx, 10, 1); err != nil {
		t.Fatal(err)
	}
	off, err := s.Alloc(ctx, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	if off%256 != 0 {
		t.Fatalf("off = %d, want 256-aligned", off)
	}
}

func TestMemoryModeSlowerThanDRAM(t *testing.T) {
	lat := xpsim.DefaultLatency()
	d := NewDRAM(&lat, 1<<20, nil)
	m := NewMemoryMode(&lat, 1<<20)
	p := make([]byte, 4096)
	cd, cm := xpsim.NewCtx(0), xpsim.NewCtx(0)
	d.Write(cd, 0, p)
	m.Write(cm, 0, p)
	if cm.Cost.Ns() <= cd.Cost.Ns() {
		t.Fatalf("memory mode write %dns <= DRAM %dns", cm.Cost.Ns(), cd.Cost.Ns())
	}
}

func TestScalarRoundTrip(t *testing.T) {
	lat := xpsim.DefaultLatency()
	// Room for a U64 at the highest uint16 offset.
	s := NewDRAM(&lat, 1<<16+8, nil)
	ctx := xpsim.NewCtx(0)
	f := func(off16 uint16, v32 uint32, v64 uint64) bool {
		off := int64(off16)
		WriteU32(s, ctx, off, v32)
		if ReadU32(s, ctx, off) != v32 {
			return false
		}
		WriteU64(s, ctx, off, v64)
		return ReadU64(s, ctx, off) == v64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceMatchesShadow(t *testing.T) {
	lat := xpsim.DefaultLatency()
	const size = 1 << 14
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewDRAM(&lat, size, nil)
		ctx := xpsim.NewCtx(0)
		shadow := make([]byte, size)
		for i := 0; i < 200; i++ {
			off := rng.Int63n(size - 1)
			n := 1 + rng.Int63n(min64(256, size-off))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
