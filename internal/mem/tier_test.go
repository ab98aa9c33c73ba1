package mem

import (
	"bytes"
	"testing"

	"repro/internal/xpsim"
)

// slowStub is a second DRAM space standing in for the SSD, with a marker
// cost so tier routing is observable.
func tierUnderTest() (*Tiered, *Space, *Space) {
	lat := xpsim.DefaultLatency()
	fast := NewDRAM(&lat, 1000, nil) // deliberately unaligned size
	slow := NewDRAM(&lat, 1<<16, nil)
	return NewTiered(fast, slow), fast, slow
}

func TestTieredSplitAligned(t *testing.T) {
	tier, fast, slow := tierUnderTest()
	ctx := xpsim.NewCtx(0)
	// Exhaust the fast tier.
	var offs []int64
	for {
		off, err := tier.Alloc(ctx, 64, 16)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
		if off >= fast.Size() {
			break
		}
	}
	over := offs[len(offs)-1]
	// Overflow offsets are 16-aligned even though fast.Size() is not.
	if over%16 != 0 {
		t.Fatalf("overflow offset %d not aligned", over)
	}
	if over < 1024 { // fast size 1000 rounds up to the 1024 XPLine boundary
		t.Fatalf("overflow offset %d below the aligned split", over)
	}
	if tier.NodeOf(offs[0]) != fast.NodeOf(offs[0]) {
		t.Fatal("fast-range NodeOf should delegate")
	}
	_ = slow
	if tier.Persistent() {
		t.Fatal("DRAM-backed tiers are volatile")
	}
	if tier.Size() <= fast.Size() {
		t.Fatal("tier size must include the slow space")
	}
	if tier.AllocBytes() == 0 || tier.SlowBytes() == 0 {
		t.Fatal("allocation accounting missing")
	}
}

func TestTieredDataPlacement(t *testing.T) {
	tier, _, slow := tierUnderTest()
	ctx := xpsim.NewCtx(0)
	// Write through the tier at a slow-range offset; the bytes must land
	// in the slow space at the rebased offset.
	want := []byte("spilled")
	tier.Write(ctx, 1024+128, want)
	got := make([]byte, len(want))
	slow.Read(ctx, 128, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("slow tier holds %q, want %q", got, want)
	}
	back := make([]byte, len(want))
	tier.Read(ctx, 1024+128, back)
	if !bytes.Equal(back, want) {
		t.Fatal("tier read mismatch")
	}
	tier.Flush(ctx, 1024+128, int64(len(want))) // must route without panic
}

func TestTieredGapAccessPanics(t *testing.T) {
	tier, _, _ := tierUnderTest()
	ctx := xpsim.NewCtx(0)
	defer func() {
		if recover() == nil {
			t.Fatal("access crossing the dead gap must panic")
		}
	}()
	tier.Write(ctx, 990, make([]byte, 64)) // straddles [1000,1024)
}

func TestTieredExhaustion(t *testing.T) {
	lat := xpsim.DefaultLatency()
	tier := NewTiered(NewDRAM(&lat, 256, nil), NewDRAM(&lat, 256, nil))
	ctx := xpsim.NewCtx(0)
	for i := 0; i < 2; i++ {
		if _, err := tier.Alloc(ctx, 128, 16); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := tier.Alloc(ctx, 4096, 16); err == nil {
		t.Fatal("expected both tiers exhausted")
	}
}

// TestAllocatedEnd: a flat space's allocated range ends at its cursor, a
// tiered one's at the cursor of the tier that holds the offset — its
// AllocBytes, a sum of both, is neither.
func TestAllocatedEnd(t *testing.T) {
	tier, fast, slow := tierUnderTest()
	ctx := xpsim.NewCtx(0)
	if _, err := tier.Alloc(ctx, 900, 16); err != nil { // fast
		t.Fatal(err)
	}
	off, err := tier.Alloc(ctx, 300, 16) // overflows to slow
	if err != nil {
		t.Fatal(err)
	}
	if got, want := AllocatedEnd(fast, 0), fast.AllocBytes(); got != want {
		t.Fatalf("flat space: %d, want its cursor %d", got, want)
	}
	if got, want := AllocatedEnd(tier, 128), fast.AllocBytes(); got != want {
		t.Fatalf("fast tier: %d, want %d", got, want)
	}
	if got, want := AllocatedEnd(tier, off), 1024+slow.AllocBytes(); got != want || got != off+300 {
		t.Fatalf("slow tier: %d, want %d (the block at %d ends at %d)", got, want, off, off+300)
	}
}
