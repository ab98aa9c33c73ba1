package adj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/xpsim"
)

// The read side: one chain walker and one block decoder behind every read
// of a chain — Neighbors, Visit, Contains, Read, VerifyChain, Layout, the
// release loops of compaction and repair, and recovery's cursor rebuild and
// checksum audit. What differs between them is data (walkOpts), not code.

// ReadOpts selects the variant of Read.
type ReadOpts struct {
	// OldestFirst streams the chain in insertion order (oldest block first)
	// instead of newest block first — the order snapshot-bounded reads need.
	OldestFirst bool
	// Checked reads through the media-error-checked path: instead of
	// silently returning whatever the media holds, the read reports a
	// *xpsim.MediaError or *CorruptError when v's chain touches damaged
	// lines, corrupt links or (with Options.Checksums) checksum-mismatched
	// payloads.
	Checked bool
}

// walkOpts says how a chain is walked.
type walkOpts struct {
	oldestFirst bool
	// checked reads every byte through mem.ReadChecked and validates the
	// whole chain's links before the first block is visited.
	checked bool
	// mirror takes the chain layout, capacities and checksums from the DRAM
	// mirror (Checksums stores) instead of the prev links and headers on
	// the media, so a scrambled header cannot derail the walk into
	// unrelated memory; payloads are verified against the mirrored CRC.
	mirror bool
	// blind (with mirror) does not read the media headers at all: the
	// visitor sees the mirror's view of each block.
	blind bool
	// verify (with mirror) fails the walk when a media header does not name
	// v and the mirrored capacity.
	verify bool
}

// trusting walks serve whatever decodes and stop quietly at what does not.
func (o walkOpts) trusting() bool { return !o.checked && !o.mirror }

// fixedChunkBytes is the media-read granularity of the fixed-width decoder:
// every block the sizing policies hand out is one read; larger (compacted)
// payloads are cut at XPLine boundaries, so no line is touched twice.
const fixedChunkBytes = 4096

// reader is the scratch of one chain walk: the header and payload buffers
// the memory reads into and the varint decoder's state. Buffers handed to a
// mem.Mem escape, so walks take their reader from a pool instead of the
// stack and a read allocates nothing.
type reader struct {
	s       *Store
	ctx     *xpsim.Ctx
	checked bool
	fetch   func(off int64, p []byte) error // r.read, bound once
	hdr     [headerBytes]byte
	buf     [fixedChunkBytes]byte
	vr      varintReader
	chain   []int64
}

var readerPool = sync.Pool{New: func() any {
	r := new(reader)
	r.fetch = r.read
	return r
}}

func (s *Store) reader(ctx *xpsim.Ctx, checked bool) *reader {
	r := readerPool.Get().(*reader)
	r.s, r.ctx, r.checked = s, ctx, checked
	return r
}

func (r *reader) release() {
	r.s, r.ctx = nil, nil
	readerPool.Put(r)
}

func (r *reader) read(off int64, p []byte) error {
	if r.checked {
		return mem.ReadChecked(r.s.m, r.ctx, off, p)
	}
	r.s.m.Read(r.ctx, off, p)
	return nil
}

func (r *reader) header(off int64) (header, error) {
	err := r.read(off, r.hdr[:])
	return parseHeader(r.hdr[:]), err
}

// extent is what decoding a block's records consumed: the payload bytes
// they occupy, their CRC32-C (when asked for) and the last record — the
// delta predecessor of a varint block's next append.
type extent struct {
	bytes int64
	crc   uint32
	last  uint32
}

// decode streams the first cnt records of the block at off — of the given
// format and capacity — to fn (nil: decode only). Fixed-width payloads are
// read in chunks cut at XPLine boundaries; varint payloads stream through
// the chunked varint decoder. With withCRC the extent carries the CRC32-C of
// exactly the bytes the records occupy. On an error the extent describes
// what did decode.
func (r *reader) decode(off int64, format, capacity, cnt uint32, withCRC bool, fn func(nbr uint32)) (extent, error) {
	var e extent
	if format == fmtVarint {
		r.vr = newVarintReader(r.fetch, off+headerBytes, 4*int64(capacity), withCRC)
		var err error
		for i := uint32(0); i < cnt && err == nil; i++ {
			var nb uint32
			if nb, err = r.vr.next(); err == nil && fn != nil {
				fn(nb)
			}
		}
		return extent{bytes: r.vr.bytesConsumed(), crc: r.vr.sum(), last: r.vr.last()}, err
	}
	pos, end := off+headerBytes, off+headerBytes+4*int64(cnt)
	for pos < end {
		n := min(end-pos, int64(len(r.buf)))
		if pos+n < end {
			n -= (pos + n) % xpsim.XPLineSize
		}
		chunk := r.buf[:n]
		if err := r.read(pos, chunk); err != nil {
			return e, err
		}
		if withCRC {
			e.crc = crc32.Update(e.crc, castagnoli, chunk)
		}
		if fn != nil {
			for i := 0; i < len(chunk); i += 4 {
				fn(binary.LittleEndian.Uint32(chunk[i:]))
			}
		}
		pos += n
		e.bytes += n
	}
	return e, nil
}

// walk visits the blocks of v's chain, newest first or oldest first. A
// trusting newest-first walk follows the prev links as it goes: a block's
// header is read, the block visited, its link followed. Every other walk
// over the links collects and validates the chain first — the links only
// run tail to head — and then reads each header again as it visits. A
// mirror walk takes the chain from DRAM. visit may rewrite the block it is
// handed; it gets the walk's reader to decode payloads with.
func (s *Store) walk(ctx *xpsim.Ctx, v graph.VID, o walkOpts, visit func(r *reader, off int64, h header) error) error {
	if int(v) >= len(s.vx) || s.vx[v].tail == 0 {
		return nil
	}
	r := s.reader(ctx, o.checked)
	defer r.release()
	// links follows the prev links from the tail, bounded and validated so
	// that corrupt links fail instead of running out of the arena.
	links := func(each func(off int64, h header) error) error {
		n := int64(0)
		for off := s.vx[v].tail; off != 0; n++ {
			// s.blocks undercounts once a recovered store reuses blocks that
			// were dead at the crash; the arena's fill is the hard bound.
			if n > s.blocks && n > s.m.AllocBytes()/headerBytes {
				return &CorruptError{V: v, Block: off, Reason: "prev links form a cycle"}
			}
			h, err := r.header(off)
			if err != nil {
				return err
			}
			if h.prev+headerBytes > s.m.Size() {
				return &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("prev link %d out of arena", h.prev)}
			}
			if err := each(off, h); err != nil {
				return err
			}
			off = h.prev
		}
		return nil
	}
	if !o.mirror && !o.oldestFirst && !o.checked {
		return links(func(off int64, h header) error { return visit(r, off, h) })
	}
	chain := s.chains[v]
	if !o.mirror {
		r.chain = r.chain[:0]
		if err := links(func(off int64, _ header) error {
			r.chain = append(r.chain, off)
			return nil
		}); err != nil {
			return err
		}
		chain = r.chain
	}
	for i, off := range chain {
		if o.oldestFirst {
			off = chain[len(chain)-1-i]
		}
		var h header
		if !o.blind {
			var err error
			if h, err = r.header(off); err != nil {
				return err
			}
		}
		if o.mirror {
			m := s.mirror[off]
			switch {
			case o.blind:
				h = header{vid: v, format: uint32(m.format)}
			case o.verify && h.vid != v:
				return &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("header vid %d", h.vid)}
			case o.verify && h.capacity != m.capacity:
				return &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("header cap %d, expected %d", h.capacity, m.capacity)}
			}
			h.capacity = m.capacity
		}
		if err := visit(r, off, h); err != nil {
			return err
		}
	}
	return nil
}

// read streams v's stored records to fn (nil: read and verify only), block
// by block in the walk's order, the records of a block always in insertion
// order. Deletion tombstones are streamed as-is; merging is the caller's
// concern. A mirror walk verifies each payload against its acknowledged
// CRC32-C; decode failures (overlong varints, records claimed past the
// payload, deltas walking outside uint32) and checksum mismatches surface
// as *CorruptError, uncorrectable lines as *xpsim.MediaError — except on a
// trusting walk, which skips what it cannot decode.
func (s *Store) read(ctx *xpsim.Ctx, v graph.VID, o walkOpts, fn func(nbr uint32)) error {
	return s.walk(ctx, v, o, func(r *reader, off int64, h header) error {
		cnt := s.blockCnt(v, off, h.capacity)
		if cnt == 0 {
			return nil
		}
		e, err := r.decode(off, h.format, h.capacity, cnt, o.mirror, fn)
		switch {
		case err == nil && o.mirror && e.crc != s.mirror[off].crc:
			// The format word is not verified; a corrupted one routes the
			// decode down the wrong path, which lands here (the consumed
			// extents differ).
			return &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("payload crc %08x, acknowledged %08x", e.crc, s.mirror[off].crc)}
		case err == nil || o.trusting():
			return nil
		case errors.Is(err, errVarintCorrupt):
			return &CorruptError{V: v, Block: off, Reason: err.Error()}
		}
		return err
	})
}

// Read appends vertex v's stored records to dst in the order and through
// the path o selects. On an error dst holds the records read before it.
func (s *Store) Read(ctx *xpsim.Ctx, v graph.VID, dst []uint32, o ReadOpts) ([]uint32, error) {
	err := s.read(ctx, v, walkOpts{oldestFirst: o.OldestFirst, checked: o.Checked, mirror: o.Checked && s.opts.Checksums},
		func(nb uint32) { dst = append(dst, nb) })
	return dst, err
}

// Neighbors appends vertex v's stored records to dst, newest block first.
func (s *Store) Neighbors(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32 {
	dst, _ = s.Read(ctx, v, dst, ReadOpts{})
	return dst
}

// Visit streams vertex v's stored records to fn, newest block first,
// without allocating.
func (s *Store) Visit(ctx *xpsim.Ctx, v graph.VID, fn func(nbr uint32)) {
	s.read(ctx, v, walkOpts{}, fn)
}

// VerifyChain reads every visible byte of v's chain through the
// media-error-checked path and, with Checksums on, verifies each block's
// header fields and payload CRC32-C against the DRAM mirrors. It returns
// nil when everything matched, a *xpsim.MediaError when a read hit an
// uncorrectable line or failed device, and a *CorruptError when bytes read
// back cleanly but are not the bytes that were acknowledged.
func (s *Store) VerifyChain(ctx *xpsim.Ctx, v graph.VID) error {
	return s.read(ctx, v, walkOpts{checked: true, mirror: s.opts.Checksums, verify: true}, nil)
}

// LayoutStats describes the live on-media adjacency layout: visible
// records, the payload bytes they occupy, and total block bytes
// (headers + payload capacity, the real XPLine footprint).
type LayoutStats struct {
	Records      int64
	PayloadBytes int64
	BlockBytes   int64
}

// Layout walks every live chain and measures the current on-media
// layout. Varint payload extents are discovered by decoding, so this is
// a full read of the arena — a bench/diagnostic API, not a hot path.
func (s *Store) Layout(ctx *xpsim.Ctx) LayoutStats {
	var ls LayoutStats
	for v := range s.vx {
		s.walk(ctx, graph.VID(v), walkOpts{}, func(r *reader, off int64, h header) error {
			cnt := s.blockCnt(graph.VID(v), off, h.capacity)
			ls.Records += int64(cnt)
			ls.BlockBytes += h.size()
			e := extent{bytes: 4 * int64(cnt)}
			if h.format == fmtVarint {
				e, _ = r.decode(off, h.format, h.capacity, cnt, false, nil)
			}
			ls.PayloadBytes += e.bytes
			return nil
		})
	}
	return ls
}
