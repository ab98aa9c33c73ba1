package mem

import (
	"fmt"

	"repro/internal/xpsim"
)

// Tiered glues a fast space and a slow space into one address range:
// offsets below the fast space's size go to the fast tier, offsets at or
// above the (alignment-padded) split go to the slow tier. Allocations
// fill the fast tier first and overflow to the slow one — the mechanism
// behind the SSD-supported XPGraph extension (graphs whose adjacency
// exceeds PMEM capacity, §V-F future work).
//
// The split is rounded up to an XPLine so slow-tier offsets keep every
// alignment the fast tier guaranteed; the padding bytes form a dead gap
// no allocation ever returns.
type Tiered struct {
	fast  Mem
	slow  Mem
	split int64
}

var _ Mem = (*Tiered)(nil)

// NewTiered builds the two-tier space.
func NewTiered(fast, slow Mem) *Tiered {
	split := (fast.Size() + xpsim.XPLineSize - 1) / xpsim.XPLineSize * xpsim.XPLineSize
	return &Tiered{fast: fast, slow: slow, split: split}
}

// route splits [off, off+n) at the tier boundary.
func (t *Tiered) route(off, n int64, fast, slow func(off, n int64)) {
	fs := t.fast.Size()
	if off < fs {
		c := n
		if off+c > fs {
			c = fs - off
		}
		fast(off, c)
		off += c
		n -= c
	}
	if n > 0 {
		if off < t.split {
			panic(fmt.Sprintf("mem: tiered access [%d,%d) crosses the dead gap [%d,%d)",
				off, off+n, fs, t.split))
		}
		slow(off-t.split, n)
	}
}

// Read implements Mem.
func (t *Tiered) Read(ctx *xpsim.Ctx, off int64, p []byte) {
	t.route(off, int64(len(p)), func(o, n int64) {
		t.fast.Read(ctx, o, p[:n])
		p = p[n:]
	}, func(o, n int64) {
		t.slow.Read(ctx, o, p[:n])
	})
}

// Write implements Mem.
func (t *Tiered) Write(ctx *xpsim.Ctx, off int64, p []byte) {
	t.route(off, int64(len(p)), func(o, n int64) {
		t.fast.Write(ctx, o, p[:n])
		p = p[n:]
	}, func(o, n int64) {
		t.slow.Write(ctx, o, p[:n])
	})
}

// Flush implements Mem.
func (t *Tiered) Flush(ctx *xpsim.Ctx, off, n int64) {
	t.route(off, n, func(o, c int64) {
		t.fast.Flush(ctx, o, c)
	}, func(o, c int64) {
		t.slow.Flush(ctx, o, c)
	})
}

// Alloc implements Mem: fast tier first, slow tier on overflow. A
// too-large remnant of the fast tier is abandoned (bump allocators do not
// split); slow-tier offsets are rebased past the aligned split.
func (t *Tiered) Alloc(ctx *xpsim.Ctx, n, align int64) (int64, error) {
	if off, err := t.fast.Alloc(ctx, n, align); err == nil {
		return off, nil
	}
	off, err := t.slow.Alloc(ctx, n, align)
	if err != nil {
		return 0, fmt.Errorf("mem: tiered allocation failed: %w", err)
	}
	return t.split + off, nil
}

// AllocBytes implements Mem.
func (t *Tiered) AllocBytes() int64 { return t.fast.AllocBytes() + t.slow.AllocBytes() }

// AllocatedEnd reports where the allocated range that holds off ends: the
// bump cursor of a flat space, that of off's tier in a Tiered one (whose
// AllocBytes is a sum, not an offset). A read of [off, AllocatedEnd(m, off))
// stays inside what m handed out.
func AllocatedEnd(m Mem, off int64) int64 {
	t, ok := m.(*Tiered)
	switch {
	case !ok:
		return m.AllocBytes()
	case off < t.split:
		return AllocatedEnd(t.fast, off)
	}
	return t.split + AllocatedEnd(t.slow, off-t.split)
}

// SlowBytes reports bytes allocated on the slow tier.
func (t *Tiered) SlowBytes() int64 { return t.slow.AllocBytes() }

// Size implements Mem.
func (t *Tiered) Size() int64 { return t.split + t.slow.Size() }

// NodeOf implements Mem.
func (t *Tiered) NodeOf(off int64) int {
	if off < t.fast.Size() {
		return t.fast.NodeOf(off)
	}
	return t.slow.NodeOf(off - t.split)
}

// Persistent implements Mem.
func (t *Tiered) Persistent() bool { return t.fast.Persistent() && t.slow.Persistent() }
