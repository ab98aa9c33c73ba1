package xpsim

import "math/bits"

// ChunkStore is a sparse byte array: backing chunks are allocated on first
// touch. This keeps host memory proportional to data actually written, the
// way Linux only materializes touched pages of a large mapping (the paper
// relies on this in Fig. 19: oversized pools cost nothing until used).
type ChunkStore struct {
	size      int64
	chunkBits uint
	chunks    [][]byte
}

const defaultChunkBits = 20 // 1 MiB chunks

// NewChunkStore returns an untouched store of size bytes. A store smaller
// than a chunk is one chunk of its own size (rounded up to a power of two),
// so that small simulated devices stay cheap to clone.
func NewChunkStore(size int64) *ChunkStore {
	cs := &ChunkStore{size: size, chunkBits: uint(min(defaultChunkBits, max(12, bits.Len64(uint64(size-1)))))}
	n := (size + (1 << cs.chunkBits) - 1) >> cs.chunkBits
	cs.chunks = make([][]byte, n)
	return cs
}

func (cs *ChunkStore) chunkFor(off int64) ([]byte, int) {
	ci := off >> cs.chunkBits
	c := cs.chunks[ci]
	if c == nil {
		c = make([]byte, 1<<cs.chunkBits)
		cs.chunks[ci] = c
	}
	return c, int(off & ((1 << cs.chunkBits) - 1))
}

// ReadAt copies len(p) bytes at off into p. The range must lie in bounds.
func (cs *ChunkStore) ReadAt(p []byte, off int64) {
	for len(p) > 0 {
		c, i := cs.chunkFor(off)
		n := copy(p, c[i:])
		p = p[n:]
		off += int64(n)
	}
}

// WriteAt copies p into the store at off. The range must lie in bounds.
func (cs *ChunkStore) WriteAt(p []byte, off int64) {
	for len(p) > 0 {
		c, i := cs.chunkFor(off)
		n := copy(c[i:], p)
		p = p[n:]
		off += int64(n)
	}
}

// touchedBytes reports how much backing memory has been materialized.
func (cs *ChunkStore) touchedBytes() int64 {
	var n int64
	for _, c := range cs.chunks {
		if c != nil {
			n += int64(len(c))
		}
	}
	return n
}

// export returns the materialized chunks (index -> contents) and the
// store size, for state serialization.
func (cs *ChunkStore) export() (map[int][]byte, int64) {
	chunks := make(map[int][]byte)
	for i, c := range cs.chunks {
		if c != nil {
			chunks[i] = c
		}
	}
	return chunks, cs.size
}

// clone returns a deep copy of the store.
func (cs *ChunkStore) clone() *ChunkStore {
	n := NewChunkStore(cs.size)
	for i, c := range cs.chunks {
		if c != nil {
			nc := make([]byte, len(c))
			copy(nc, c)
			n.chunks[i] = nc
		}
	}
	return n
}

// restore overwrites the store's chunks from an export snapshot.
func (cs *ChunkStore) restore(chunks map[int][]byte) {
	for i, c := range chunks {
		cs.chunks[i] = c
	}
}
