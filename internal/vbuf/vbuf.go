// Package vbuf implements XPGraph's DRAM vertex buffers (§III-B, §III-C),
// which coalesce edge updates into one-XPLine flushes. Buffers are
// hierarchical: a vertex starts with a 16-byte L0 buffer (3 neighbors) and
// is promoted to the double-sized next layer whenever it fills, up to a
// configured maximum (256 bytes / 63 neighbors by default), matching the
// adaptive scheme of Fig. 8.
//
// Each buffer is `{mcnt uint16, cnt uint16, nbrs [cap]uint32}` — the
// 4-byte header of the paper. Buffers live in a mempool.Pool; this package
// charges the DRAM costs of manipulating them.
package vbuf

import (
	"encoding/binary"

	"repro/internal/mempool"
	"repro/internal/xpsim"
)

// headerSize is the {mcnt,cnt} prefix of every buffer.
const headerSize = 4

// Cap reports how many neighbors a buffer of class c holds:
// (size-4)/4, e.g. 3 for the 16-byte L0 and 63 for the 256-byte L4.
func Cap(c int) int { return int((mempool.ClassSize(c) - headerSize) / 4) }

// ClassForCount returns the smallest class whose buffer holds n neighbors.
func ClassForCount(n int) int {
	return mempool.ClassFor(headerSize + 4*int64(n))
}

// Buffers manages vertex buffers of one store over a shared pool.
type Buffers struct {
	pool *mempool.Pool
	lat  *xpsim.LatencyModel
}

// New builds a Buffers manager.
func New(pool *mempool.Pool, lat *xpsim.LatencyModel) *Buffers {
	return &Buffers{pool: pool, lat: lat}
}

// NewBuf allocates an empty buffer of class c for worker `thread`.
func (b *Buffers) NewBuf(ctx *xpsim.Ctx, thread, c int) (mempool.Handle, error) {
	h, err := b.pool.Alloc(thread, c)
	if err != nil {
		return mempool.None, err
	}
	p := b.pool.Bytes(h, c)
	binary.LittleEndian.PutUint16(p[0:2], uint16(Cap(c)))
	binary.LittleEndian.PutUint16(p[2:4], 0)
	b.lat.DRAM(ctx, headerSize, true, false)
	return h, nil
}

// Free releases the buffer.
func (b *Buffers) Free(thread int, h mempool.Handle, c int) {
	b.pool.Free(thread, h, c)
}

// Count reports the neighbors currently staged in the buffer.
func (b *Buffers) Count(h mempool.Handle, c int) int {
	p := b.pool.Bytes(h, c)
	return int(binary.LittleEndian.Uint16(p[2:4]))
}

// Full reports whether the buffer has no room left.
func (b *Buffers) Full(h mempool.Handle, c int) bool {
	return b.Count(h, c) >= Cap(c)
}

// Append stages one neighbor; the buffer must not be full.
func (b *Buffers) Append(ctx *xpsim.Ctx, h mempool.Handle, c int, nbr uint32) {
	p := b.pool.Bytes(h, c)
	cnt := int(binary.LittleEndian.Uint16(p[2:4]))
	if cnt >= Cap(c) {
		panic("vbuf: append to full buffer")
	}
	binary.LittleEndian.PutUint32(p[headerSize+4*cnt:], nbr)
	binary.LittleEndian.PutUint16(p[2:4], uint16(cnt+1))
	// The neighbor store and the header update usually land in a line
	// the batch touched recently (hot buffers stay in the CPU cache).
	ctx.Cost.Add(b.lat.DRAMCached)
}

// Promote moves the buffer's contents into a newly allocated buffer of
// class newC (> c) and frees the old one, returning the new handle. This
// is the layer promotion of Fig. 8; the copy is charged as a sequential
// DRAM move.
func (b *Buffers) Promote(ctx *xpsim.Ctx, thread int, h mempool.Handle, c, newC int) (mempool.Handle, error) {
	nh, err := b.pool.Alloc(thread, newC)
	if err != nil {
		return mempool.None, err
	}
	src := b.pool.Bytes(h, c)
	dst := b.pool.Bytes(nh, newC)
	cnt := binary.LittleEndian.Uint16(src[2:4])
	copy(dst[headerSize:], src[headerSize:headerSize+4*int(cnt)])
	binary.LittleEndian.PutUint16(dst[0:2], uint16(Cap(newC)))
	binary.LittleEndian.PutUint16(dst[2:4], cnt)
	b.lat.DRAM(ctx, int64(headerSize+4*int(cnt)), false, true)
	b.lat.DRAM(ctx, int64(headerSize+4*int(cnt)), true, true)
	b.pool.Free(thread, h, c)
	return nh, nil
}

// Drain appends the staged neighbors to dst and resets the buffer to
// empty (the flush path: contents move to PMEM, buffer is cleared for
// subsequent updates).
func (b *Buffers) Drain(ctx *xpsim.Ctx, h mempool.Handle, c int, dst []uint32) []uint32 {
	p := b.pool.Bytes(h, c)
	cnt := int(binary.LittleEndian.Uint16(p[2:4]))
	for i := 0; i < cnt; i++ {
		dst = append(dst, binary.LittleEndian.Uint32(p[headerSize+4*i:]))
	}
	binary.LittleEndian.PutUint16(p[2:4], 0)
	b.lat.DRAM(ctx, int64(4*cnt), false, true)
	return dst
}

// Neighbors appends the staged neighbors to dst without clearing (the
// query path: buffers double as a DRAM cache, §III-B).
func (b *Buffers) Neighbors(ctx *xpsim.Ctx, h mempool.Handle, c int, dst []uint32) []uint32 {
	p := b.pool.Bytes(h, c)
	cnt := int(binary.LittleEndian.Uint16(p[2:4]))
	for i := 0; i < cnt; i++ {
		dst = append(dst, binary.LittleEndian.Uint32(p[headerSize+4*i:]))
	}
	b.lat.DRAM(ctx, int64(4*cnt), false, true)
	return dst
}
