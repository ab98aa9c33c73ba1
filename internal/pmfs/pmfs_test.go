package pmfs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
	"repro/internal/xpsim"
)

func testFS(t *testing.T) (*FS, *xpsim.Ctx) {
	t.Helper()
	m := xpsim.NewMachine(2, 64<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	r, err := h.Map("fs", 32<<20, pmem.Placement{Kind: pmem.Interleave})
	if err != nil {
		t.Fatal(err)
	}
	return NewFS(r, &m.Lat), xpsim.NewCtx(0)
}

func TestFileReadWrite(t *testing.T) {
	fs, ctx := testFS(t)
	f, err := fs.create(ctx, "adj.dat")
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("persisted through the kernel")
	if err := f.writeAt(ctx, 100, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := f.readAt(ctx, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	if f.Size() != 100+int64(len(want)) {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestOpenMissing(t *testing.T) {
	fs, ctx := testFS(t)
	if _, err := fs.Open(ctx, "nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestReadPastEOF(t *testing.T) {
	fs, ctx := testFS(t)
	f, _ := fs.create(ctx, "f")
	f.writeAt(ctx, 0, []byte("xy"))
	if err := f.readAt(ctx, 0, make([]byte, 10)); err == nil {
		t.Fatal("expected EOF error")
	}
}

func TestWriteAcrossExtents(t *testing.T) {
	fs, ctx := testFS(t)
	f, _ := fs.create(ctx, "big")
	want := make([]byte, extentSize+4096)
	rand.New(rand.NewSource(1)).Read(want)
	off := int64(extentSize - 2048)
	if err := f.writeAt(ctx, off, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := f.readAt(ctx, off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("extent-straddling write corrupted data")
	}
}

func TestVFSOverheadCharged(t *testing.T) {
	fs, ctx := testFS(t)
	f, _ := fs.create(ctx, "f")
	lat := xpsim.DefaultLatency()
	before := ctx.Cost.Ns()
	f.writeAt(ctx, 0, []byte{1, 2, 3, 4})
	if ctx.Cost.Ns()-before < lat.VFSOp {
		t.Fatalf("pwrite charged %dns, want at least the VFS overhead %dns",
			ctx.Cost.Ns()-before, lat.VFSOp)
	}
}

func TestFileIOMuchSlowerThanRegion(t *testing.T) {
	// The GraphOne-N motivation: per-neighbor 4-byte writes through the
	// file system are ~an order of magnitude slower than the same writes
	// through mapped memory.
	m := xpsim.NewMachine(2, 64<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	r, _ := h.Map("raw", 16<<20, pmem.Placement{Kind: pmem.Interleave})
	fileRegion, _ := h.Map("fsdata", 16<<20, pmem.Placement{Kind: pmem.Interleave})
	fs := NewFS(fileRegion, &m.Lat)
	setup := xpsim.NewCtx(0)
	fm, err := NewFileMem(setup, fs, "adj", 8<<20)
	if err != nil {
		t.Fatal(err)
	}

	mmapCtx, fileCtx := xpsim.NewCtx(0), xpsim.NewCtx(0)
	var v [4]byte
	for i := int64(0); i < 1000; i++ {
		r.Write(mmapCtx, r.UserStart()+i*1024, v[:])
		fm.Write(fileCtx, i*1024, v[:])
	}
	if fileCtx.Cost.Ns() < 4*mmapCtx.Cost.Ns() {
		t.Errorf("file I/O %dns vs mmap %dns; want >=4x slower", fileCtx.Cost.Ns(), mmapCtx.Cost.Ns())
	}
}

func TestFileMemMatchesShadow(t *testing.T) {
	f := func(seed int64) bool {
		m := xpsim.NewMachine(1, 32<<20, xpsim.DefaultLatency())
		h := pmem.NewHeap(m)
		r, err := h.Map("fs", 16<<20, pmem.Placement{Kind: pmem.Bind, Node: 0})
		if err != nil {
			return false
		}
		fs := NewFS(r, &m.Lat)
		ctx := xpsim.NewCtx(0)
		fm, err := NewFileMem(ctx, fs, "m", 1<<16)
		if err != nil {
			return false
		}
		if _, err := fm.Alloc(ctx, 1<<16, 1); err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		shadow := make([]byte, 1<<16)
		for i := 0; i < 100; i++ {
			off := rng.Int63n(1<<16 - 300)
			n := 1 + rng.Int63n(299)
			if rng.Intn(2) == 0 {
				p := make([]byte, n)
				rng.Read(p)
				fm.Write(ctx, off, p)
				copy(shadow[off:], p)
			} else {
				p := make([]byte, n)
				fm.Read(ctx, off, p)
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

func TestJournalingAddsMediaTraffic(t *testing.T) {
	// NOVA-style metadata journaling: each pwrite drags a journal record
	// with it, multiplying small-write media traffic (the paper's
	// Fig. 13 GraphOne-N columns).
	m := xpsim.NewMachine(1, 128<<20, xpsim.DefaultLatency())
	h := pmem.NewHeap(m)
	r, _ := h.Map("fsj", 64<<20, pmem.Placement{Kind: pmem.Bind, Node: 0})
	fs := NewFS(r, &m.Lat)
	ctx := xpsim.NewCtx(0)
	f, _ := fs.create(ctx, "adj")
	m.ResetStats()
	var v [4]byte
	const n = 2000
	for i := int64(0); i < n; i++ {
		f.writeAt(ctx, i*1024, v[:])
	}
	st := m.TotalStats()
	if st.ReqWriteBytes < n*(4+journalRecordBytes) {
		t.Fatalf("journal bytes missing: req writes = %d", st.ReqWriteBytes)
	}
}
