package mempool

import (
	"errors"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestClassSizing(t *testing.T) {
	sizes := []int64{8, 16, 32, 64, 128, 256, 512}
	for c, want := range sizes {
		if got := ClassSize(c); got != want {
			t.Errorf("ClassSize(%d) = %d, want %d", c, got, want)
		}
	}
	if ClassFor(8) != 0 || ClassFor(9) != 1 || ClassFor(256) != 5 || ClassFor(511) != 6 {
		t.Errorf("ClassFor mapping wrong: %d %d %d %d",
			ClassFor(8), ClassFor(9), ClassFor(256), ClassFor(511))
	}
}

func TestAllocZeroedAndAligned(t *testing.T) {
	p := New(Config{BulkSize: 1 << 16, Threads: 1})
	for c := 0; c < NumClasses; c++ {
		h, err := p.Alloc(0, c)
		if err != nil {
			t.Fatal(err)
		}
		if h == None {
			t.Fatal("got nil handle")
		}
		if h.off()%ClassSize(c) != 0 {
			t.Errorf("class %d alloc at %d, want %d-aligned", c, h.off(), ClassSize(c))
		}
		b := p.Bytes(h, c)
		if int64(len(b)) != ClassSize(c) {
			t.Errorf("class %d bytes len %d", c, len(b))
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("class %d byte %d not zeroed", c, i)
			}
		}
	}
}

func TestFreeRecyclesSameClass(t *testing.T) {
	p := New(Config{BulkSize: 1 << 16, Threads: 1})
	h1, _ := p.Alloc(0, 2)
	p.Bytes(h1, 2)[0] = 0xAB
	p.Free(0, h1, 2)
	h2, err := p.Alloc(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h1 {
		t.Fatalf("free list did not recycle: %v then %v", h1, h2)
	}
	if p.Bytes(h2, 2)[0] != 0 {
		t.Fatal("recycled buffer not re-zeroed")
	}
}

func TestBuddySplit(t *testing.T) {
	p := New(Config{BulkSize: 1 << 16, Threads: 1})
	// One small alloc splits a superblock; the buddies must serve
	// subsequent allocations of every class without a new superblock.
	if _, err := p.Alloc(0, 0); err != nil {
		t.Fatal(err)
	}
	carvedAfterFirst := p.threads[0].bump
	for c := 0; c < superClass; c++ {
		if _, err := p.Alloc(0, c); err != nil {
			t.Fatal(err)
		}
	}
	if p.threads[0].bump != carvedAfterFirst {
		t.Fatalf("buddy halves not reused: bump moved %d -> %d", carvedAfterFirst, p.threads[0].bump)
	}
}

// Property: no two live buffers ever overlap, all stay class-aligned, and
// each keeps what was written into it — in offsets, and in the host memory
// behind them, over bulks that span several segments.
func TestNoOverlapProperty(t *testing.T) {
	type live struct {
		h   Handle
		c   int
		tag byte
	}
	for _, bulk := range []int64{1 << 14, 5 << 16} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			p := New(Config{BulkSize: bulk, Threads: 2})
			var lives []live
			intact := func(l live) bool {
				for _, b := range p.Bytes(l.h, l.c) {
					if b != l.tag {
						return false
					}
				}
				return true
			}
			for op := 0; op < 4000; op++ {
				th := rng.Intn(2)
				if len(lives) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(lives))
					if !intact(lives[i]) {
						return false
					}
					p.Free(th, lives[i].h, lives[i].c)
					lives[i] = lives[len(lives)-1]
					lives = lives[:len(lives)-1]
					continue
				}
				c := rng.Intn(NumClasses)
				h, err := p.Alloc(th, c)
				if err != nil {
					return false
				}
				if h.off()%ClassSize(c) != 0 {
					return false
				}
				for _, l := range lives {
					if l.h.bulk() != h.bulk() {
						continue
					}
					a0, a1 := h.off(), h.off()+ClassSize(c)
					b0, b1 := l.h.off(), l.h.off()+ClassSize(l.c)
					if a0 < b1 && b0 < a1 {
						return false // overlap
					}
				}
				l := live{h, c, byte(op) | 1}
				buf := p.Bytes(h, c)
				for i := range buf {
					buf[i] = l.tag
				}
				lives = append(lives, l)
			}
			for _, l := range lives {
				if !intact(l) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("bulk %d: %v", bulk, err)
		}
	}
}

func TestPoolLimitAndNeedsFlush(t *testing.T) {
	p := New(Config{BulkSize: 1 << 12, MaxBytes: 1 << 12, Threads: 1})
	if p.NeedsFlush() {
		t.Fatal("empty pool should not need flush")
	}
	var hs []Handle
	for {
		h, err := p.Alloc(0, superClass)
		if err != nil {
			break
		}
		hs = append(hs, h)
	}
	if len(hs) == 0 {
		t.Fatal("no allocations succeeded")
	}
	if !p.NeedsFlush() {
		t.Fatal("full pool must report NeedsFlush")
	}
	// Reset recycles everything.
	p.Reset()
	if p.Used() != 0 {
		t.Fatalf("used after reset = %d", p.Used())
	}
	if _, err := p.Alloc(0, 0); err != nil {
		t.Fatalf("alloc after reset: %v", err)
	}
}

func TestBudgetOOM(t *testing.T) {
	b := mem.NewBudget(1 << 12)
	p := New(Config{BulkSize: 1 << 12, Threads: 2, Budget: b})
	if _, err := p.Alloc(0, 0); err != nil {
		t.Fatal(err)
	}
	// Second thread needs its own bulk; the budget is exhausted.
	if _, err := p.Alloc(1, 0); !errors.Is(err, mem.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestAccounting(t *testing.T) {
	p := New(Config{BulkSize: 1 << 14, Threads: 1})
	h, _ := p.Alloc(0, 3) // 64 B
	if p.Used() != 64 {
		t.Fatalf("used = %d, want 64", p.Used())
	}
	p.Free(0, h, 3)
	if p.Used() != 0 {
		t.Fatalf("used = %d, want 0", p.Used())
	}
	if p.Peak() != 64 {
		t.Fatalf("peak = %d, want 64", p.Peak())
	}
}

func TestResetRecyclesBulks(t *testing.T) {
	b := mem.NewBudget(1 << 20)
	p := New(Config{BulkSize: 1 << 14, Threads: 2, Budget: b})
	for th := 0; th < 2; th++ {
		for i := 0; i < 10; i++ {
			if _, err := p.Alloc(th, superClass); err != nil {
				t.Fatal(err)
			}
		}
	}
	foot := p.Footprint()
	charged := b.Used()
	p.Reset()
	// Bulks are retained and recycled: no new budget charge on reuse.
	for th := 0; th < 2; th++ {
		if _, err := p.Alloc(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	if p.Footprint() != foot {
		t.Fatalf("footprint grew across reset: %d -> %d", foot, p.Footprint())
	}
	if b.Used() != charged {
		t.Fatalf("budget charged again after reset: %d -> %d", charged, b.Used())
	}
}

// A bulk is reserved whole and backed as carving reaches it: 16 threads
// that each take one buffer charge the budget and Footprint for 16 default
// bulks, 256 MiB, but allocate one first segment, 256 KiB, each.
func TestBulkIsAReservation(t *testing.T) {
	const threads = 16
	b := mem.NewBudget(1 << 40)
	p := New(Config{Threads: threads, Budget: b})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for th := 0; th < threads; th++ {
		if _, err := p.Alloc(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if want := int64(threads * DefaultBulkSize); p.Footprint() != want || b.Used() != want {
		t.Fatalf("footprint %d, budget %d: want both %d", p.Footprint(), b.Used(), want)
	}
	first := FirstSegment(DefaultBulkSize)
	if want := threads * first; p.Backed() != want {
		t.Fatalf("backed %d bytes, want %d", p.Backed(), want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(2*threads*first) {
		t.Fatalf("the first buffers of %d threads allocated %d bytes, want about %d", threads, got, threads*first)
	}
}

// Carving a bulk to its end backs exactly its size in doubling segments,
// and a recycled bulk is carved again without allocating.
func TestSegmentsBackAWholeBulkExactly(t *testing.T) {
	for _, bulk := range []int64{4 << 10, 64 << 10, 3<<16 + 512, 16 << 20} {
		p := New(Config{BulkSize: bulk, MaxBytes: bulk, Threads: 1})
		carveAll := func() {
			for i := int64(0); i < bulk/ClassSize(superClass); i++ {
				if _, err := p.Alloc(0, superClass); err != nil {
					t.Fatalf("bulk %d: superblock %d: %v", bulk, i, err)
				}
			}
		}
		carveAll()
		if _, err := p.Alloc(0, superClass); err == nil {
			t.Fatalf("bulk %d: carved past its end", bulk)
		}
		if p.Backed() != bulk || p.Footprint() != bulk {
			t.Fatalf("bulk %d: backed %d, footprint %d", bulk, p.Backed(), p.Footprint())
		}
		if want := 1 + bits.Len64(uint64(bulk-1)>>firstSegmentShift(bulk)); len(p.bulks[0]) != want || want > 8 {
			t.Fatalf("bulk %d: %d segments, want %d (at most 8)", bulk, len(p.bulks[0]), want)
		}
		if allocs := testing.AllocsPerRun(1, func() { p.Reset(); carveAll() }); allocs != 0 {
			t.Fatalf("bulk %d: carving a recycled bulk allocated %.0f times", bulk, allocs)
		}
		if p.Backed() != bulk {
			t.Fatalf("bulk %d: backed %d after reuse", bulk, p.Backed())
		}
	}
}

// The free lists live in the free buffers: the alloc/free churn of
// hierarchical buffers allocates nothing once the bulk is backed.
func TestChurnAllocatesNothing(t *testing.T) {
	p := New(Config{BulkSize: 1 << 16, Threads: 1})
	var hs [NumClasses]Handle
	churn := func() {
		for c := range hs {
			hs[c], _ = p.Alloc(0, c)
		}
		for c := range hs {
			p.Free(0, hs[c], c)
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("alloc/free churn allocated %.0f times per round", allocs)
	}
}
