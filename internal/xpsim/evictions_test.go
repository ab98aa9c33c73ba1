package xpsim

import "testing"

// TestBufEvictionsCounted: streaming dirty writes over more lines than the
// XPBuffer holds must evict dirty lines, and every eviction is both
// counted in BufEvictions and materialized as a media write.
func TestBufEvictionsCounted(t *testing.T) {
	d := testDevice(1 << 22)
	ctx := NewCtx(0)
	line := make([]byte, XPLineSize)

	// The XPBuffer holds 64 lines; write 256 distinct dirty lines.
	for i := int64(0); i < 256; i++ {
		d.Write(ctx, i*XPLineSize, line)
	}
	st := d.Stats()
	if st.BufEvictions == 0 {
		t.Fatal("streaming past XPBuffer capacity produced no evictions")
	}
	// Dirty capacity evictions are a subset of media writes (flushes and
	// drains also write media), and here they are the only media writes.
	if st.MediaWriteLines != st.BufEvictions {
		t.Fatalf("MediaWriteLines = %d, BufEvictions = %d — a capacity eviction must write media exactly once",
			st.MediaWriteLines, st.BufEvictions)
	}
	// At most the resident 64 lines can still be dirty-unwritten.
	if st.BufEvictions < 256-64 {
		t.Fatalf("BufEvictions = %d, want >= %d", st.BufEvictions, 256-64)
	}
}

// TestDrainIsNotAnEviction: drain writes back dirty lines but must not
// count them as capacity evictions.
func TestDrainIsNotAnEviction(t *testing.T) {
	d := testDevice(1 << 20)
	ctx := NewCtx(0)
	line := make([]byte, XPLineSize)
	for i := int64(0); i < 8; i++ { // fits in the buffer: no evictions
		d.Write(ctx, i*XPLineSize, line)
	}
	if ev := d.Stats().BufEvictions; ev != 0 {
		t.Fatalf("writes within capacity evicted %d lines", ev)
	}
	st := d.drain()
	if st.BufEvictions != 0 {
		t.Fatalf("Drain counted %d evictions, want 0", st.BufEvictions)
	}
	if st.MediaWriteLines != 8 {
		t.Fatalf("Drain wrote %d lines, want 8", st.MediaWriteLines)
	}
}
