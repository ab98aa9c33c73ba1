package xpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func testDevice(size int64) *Device {
	lat := DefaultLatency()
	return NewDevice(0, 2, size, &lat)
}

func TestDeviceReadAfterWrite(t *testing.T) {
	d := testDevice(1 << 20)
	ctx := NewCtx(0)
	want := []byte("hello, xpline world")
	d.Write(ctx, 12345, want)
	got := make([]byte, len(want))
	d.Read(ctx, 12345, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

func TestDeviceZeroInitialized(t *testing.T) {
	d := testDevice(1 << 20)
	ctx := NewCtx(0)
	p := make([]byte, 512)
	for i := range p {
		p[i] = 0xff
	}
	d.Read(ctx, 777, p)
	for i, b := range p {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

// Property: arbitrary interleavings of reads and writes behave exactly
// like a plain byte array (the XPBuffer must never lose or corrupt data).
func TestDeviceMatchesShadowArray(t *testing.T) {
	const size = 1 << 16
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testDevice(size)
		ctx := NewCtx(0)
		shadow := make([]byte, size)
		for op := 0; op < 300; op++ {
			off := rng.Int63n(size - 1)
			n := 1 + rng.Int63n(min64(600, size-off))
			if rng.Intn(2) == 0 {
				p := make([]byte, n)
				rng.Read(p)
				d.Write(ctx, off, p)
				copy(shadow[off:], p)
			} else {
				p := make([]byte, n)
				d.Read(ctx, off, p)
				if !bytes.Equal(p, shadow[off:off+n]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestSmallRandomWritesAmplify(t *testing.T) {
	// The motivating observation (§II-C): scattered 4-byte writes cause
	// 256-byte read-modify-writes. Spread writes far apart so each
	// misses the XPBuffer.
	d := testDevice(64 << 20)
	ctx := NewCtx(0)
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	for i := 0; i < n; i++ {
		off := rng.Int63n((64<<20)/XPLineSize) * XPLineSize
		// Offset 8 within the line: partial, not line-start.
		var v [4]byte
		d.Write(ctx, off+8, v[:])
	}
	s := d.drain()
	if amp := s.WriteAmplification(); amp < 10 {
		t.Errorf("write amplification = %.1f, want >> 1 for scattered 4B writes", amp)
	}
	if s.MediaReadLines < n/2 {
		t.Errorf("media reads = %d, want RMW reads for most of %d scattered partial writes", s.MediaReadLines, n)
	}
}

func TestSequentialAppendDoesNotRMW(t *testing.T) {
	// Sequential log appends (8-byte edges) should combine in the
	// XPBuffer: no RMW media reads, ~1 media write per line.
	d := testDevice(1 << 20)
	ctx := NewCtx(0)
	var e [8]byte
	const n = 8192
	for i := int64(0); i < n; i++ {
		d.Write(ctx, i*8, e[:])
	}
	s := d.drain()
	if s.MediaReadLines != 0 {
		t.Errorf("media reads = %d, want 0 for pure sequential appends", s.MediaReadLines)
	}
	wantLines := int64(n * 8 / XPLineSize)
	if s.MediaWriteLines < wantLines || s.MediaWriteLines > wantLines+64 {
		t.Errorf("media writes = %d lines, want about %d", s.MediaWriteLines, wantLines)
	}
	if amp := s.WriteAmplification(); amp > 1.5 {
		t.Errorf("write amplification = %.2f, want ~1 for sequential appends", amp)
	}
}

func TestFullLineWriteCheaperThanScattered(t *testing.T) {
	d := testDevice(16 << 20)
	// 64 scattered 4B writes to distinct lines...
	scattered := NewCtx(0)
	for i := int64(0); i < 64; i++ {
		var v [4]byte
		d.Write(scattered, i*XPLineSize*7+8, v[:])
	}
	// ...vs one 256B full-line write carrying the same payload.
	batched := NewCtx(0)
	var line [XPLineSize]byte
	d.Write(batched, 8<<20, line[:])
	if batched.Cost.Ns()*10 > scattered.Cost.Ns() {
		t.Errorf("full-line write cost %d ns vs scattered %d ns; want >=10x cheaper",
			batched.Cost.Ns(), scattered.Cost.Ns())
	}
}

func TestRemoteAccessCostsMore(t *testing.T) {
	lat := DefaultLatency()
	d := NewDevice(0, 2, 1<<20, &lat)
	local := NewCtx(0)
	remote := NewCtx(1)
	p := make([]byte, 4096)
	d.Write(local, 0, p)
	d.Write(remote, 512<<10, p)
	if remote.Cost.Ns() <= local.Cost.Ns() {
		t.Errorf("remote write %d ns <= local %d ns", remote.Cost.Ns(), local.Cost.Ns())
	}
	s := d.Stats()
	if s.RemoteAccesses == 0 || s.LocalAccesses == 0 {
		t.Errorf("locality counters not populated: %+v", s)
	}
}

func TestUnboundWorkerPlacement(t *testing.T) {
	// Unbound workers are spread round-robin across sockets: worker 0
	// lands on node 0 (local to device 0), worker 1 on node 1 (remote).
	lat := DefaultLatency()
	d := NewDevice(0, 2, 1<<20, &lat)
	w0 := &Ctx{Cost: &Cost{}, Node: NodeUnbound, Worker: 0, Workers: 2}
	w1 := &Ctx{Cost: &Cost{}, Node: NodeUnbound, Worker: 1, Workers: 2}
	p := make([]byte, 1024)
	d.Write(w0, 0, p)
	d.Write(w1, 4096, p)
	if w1.Cost.Ns() <= w0.Cost.Ns() {
		t.Errorf("worker on remote socket cost %d ns <= local %d ns", w1.Cost.Ns(), w0.Cost.Ns())
	}
}

func TestWriteContentionKnee(t *testing.T) {
	lat := DefaultLatency()
	// Remote writes degrade past the knee.
	if m8, m16 := lat.writeContention(8, true), lat.writeContention(16, true); m16 <= m8 {
		t.Errorf("remote contention at 16 workers (%.2f) should exceed 8 workers (%.2f)", m16, m8)
	}
	// Per-access slowdown at 2w workers must outweigh the 2x worker
	// speedup for remote stores past the knee (the Fig. 4b collapse)...
	if m := lat.writeContention(16, true); m <= 2 {
		t.Errorf("remote contention at 16 = %.2f, want > 2 so that 16 threads are slower than 8", m)
	}
	// ...but local stores must keep scaling to ~95 threads (Fig. 20).
	prev := 1e18
	for _, w := range []int{16, 32, 64, 95} {
		perWorker := lat.writeContention(w, false) / float64(w)
		if perWorker >= prev {
			t.Errorf("local write throughput should still improve at %d workers", w)
		}
		prev = perWorker
	}
}

func TestReserve(t *testing.T) {
	d := testDevice(4096)
	a, err := d.Reserve(100, 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Reserve(100, 256)
	if err != nil {
		t.Fatal(err)
	}
	if a%256 != 0 || b%256 != 0 || b <= a {
		t.Fatalf("bad reservations a=%d b=%d", a, b)
	}
	if _, err := d.Reserve(1<<20, 1); err == nil {
		t.Fatal("expected out-of-space error")
	}
}

func TestParallelReturnsMaxWorker(t *testing.T) {
	dur := Parallel(4, Unpinned, func(w int, ctx *Ctx) {
		ctx.Cost.Add(int64(100 * (w + 1)))
	})
	if dur.Nanoseconds() != 400 {
		t.Fatalf("Parallel = %v, want 400ns (max worker)", dur)
	}
}

func TestFlushWritesBackDirtyLines(t *testing.T) {
	d := testDevice(1 << 20)
	ctx := NewCtx(0)
	p := make([]byte, XPLineSize)
	d.Write(ctx, 0, p)
	before := d.Stats().MediaWriteLines
	d.Flush(ctx, 0, XPLineSize)
	after := d.Stats().MediaWriteLines
	if after != before+1 {
		t.Fatalf("flush wrote back %d lines, want 1", after-before)
	}
	// Second flush of the now-clean line is a no-op.
	d.Flush(ctx, 0, XPLineSize)
	if got := d.Stats().MediaWriteLines; got != after {
		t.Fatalf("idempotent flush wrote %d extra lines", got-after)
	}
}

func TestMediaWriteAccounting(t *testing.T) {
	// Property: after drain, media write bytes >= requested bytes for
	// non-overlapping writes (the media can never write less than asked).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testDevice(1 << 20)
		ctx := NewCtx(0)
		var req int64
		for i := 0; i < 100; i++ {
			off := rng.Int63n(1<<20 - 512)
			n := 1 + rng.Int63n(511)
			p := make([]byte, n)
			d.Write(ctx, off, p)
			req += n
		}
		s := d.drain()
		return s.MediaWriteBytes() >= 0 && s.ReqWriteBytes == req
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
