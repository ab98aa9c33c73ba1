package vbuf

import (
	"encoding/binary"

	"repro/internal/mempool"
	"repro/internal/xpsim"
)

// Pool exposes the underlying pool (for usage accounting).
func (b *Buffers) Pool() *mempool.Pool { return b.pool }

// Visit streams the staged neighbors to fn without clearing or
// allocating.
func (b *Buffers) Visit(ctx *xpsim.Ctx, h mempool.Handle, c int, fn func(nbr uint32)) {
	p := b.pool.Bytes(h, c)
	cnt := int(binary.LittleEndian.Uint16(p[2:4]))
	for i := 0; i < cnt; i++ {
		fn(binary.LittleEndian.Uint32(p[headerSize+4*i:]))
	}
	b.lat.DRAM(ctx, int64(4*cnt), false, true)
}
