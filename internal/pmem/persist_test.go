package pmem

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/mem"
	"repro/internal/xpsim"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := xpsim.NewMachine(2, 16<<20, xpsim.DefaultLatency())
	h := NewHeap(m)
	r1, err := h.Map("alpha", 1<<20, Placement{Kind: Interleave})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Map("beta", 1<<20, Placement{Kind: Bind, Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	off1, err := r1.Alloc(ctx, 4096, 256)
	if err != nil {
		t.Fatal(err)
	}
	payload1 := bytes.Repeat([]byte{0xAB}, 4096)
	r1.Write(ctx, off1, payload1)
	mem.WriteU64(r2, ctx, r2.UserStart(), 0xDEADBEEF)

	var buf bytes.Buffer
	if err := save(&buf, h); err != nil {
		t.Fatal(err)
	}
	_, h2, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lr1, ok := h2.Get("alpha")
	if !ok {
		t.Fatal("region alpha missing after load")
	}
	got := make([]byte, 4096)
	lr1.Read(ctx, off1, got)
	if !bytes.Equal(got, payload1) {
		t.Fatal("alpha contents corrupted across save/load")
	}
	if lr1.AllocBytes() != r1.AllocBytes() {
		t.Fatalf("alloc pointer %d, want %d", lr1.AllocBytes(), r1.AllocBytes())
	}
	lr2, _ := h2.Get("beta")
	if v := mem.ReadU64(lr2, ctx, lr2.UserStart()); v != 0xDEADBEEF {
		t.Fatalf("beta scalar = %#x", v)
	}
	if lr2.NodeOf(0) != 1 {
		t.Fatal("beta lost its binding")
	}
	// The loaded heap can map new regions without colliding with old ones.
	r3, err := h2.Map("gamma", 1<<20, Placement{Kind: Bind, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	probe := []byte{1, 2, 3}
	r3.Write(ctx, r3.UserStart(), probe)
	back := make([]byte, 4096)
	lr1.Read(ctx, off1, back)
	if !bytes.Equal(back, payload1) {
		t.Fatal("new region overlapped restored data (device alloc pointer lost)")
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := xpsim.NewMachine(1, 4<<20, xpsim.DefaultLatency())
	h := NewHeap(m)
	r, err := h.Map("f", 1<<18, Placement{Kind: Bind, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	r.Write(ctx, r.UserStart(), []byte("durable"))

	path := filepath.Join(t.TempDir(), "heap.xpg")
	if err := SaveFile(path, h); err != nil {
		t.Fatal(err)
	}
	_, h2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lr, _ := h2.Get("f")
	got := make([]byte, 7)
	lr.Read(ctx, lr.UserStart(), got)
	if string(got) != "durable" {
		t.Fatalf("got %q", got)
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := load(bytes.NewReader([]byte("not a heap"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
}
