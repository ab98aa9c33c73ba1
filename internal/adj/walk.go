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
// of a chain — Read, Neighbors, VerifyChain, Layout, the release loops of
// compaction and repair, and recovery's cursor rebuild and checksum audit.
// What differs between them is data (walkOpts), not code.

// walkOpts says how a chain is walked.
type walkOpts struct {
	// checked reads every byte through mem.ReadChecked; a corrupt link fails
	// typed instead of ending the walk quietly.
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

// fixedChunkBytes is the most the fixed-width decoder asks the memory for
// at once. Its chunks are cut at XPLine boundaries, and the records in the
// header's line come from the reader's window, so a block's decode fetches
// each of its lines once.
const fixedChunkBytes = 4096

// reader is the scratch of one chain walk: the window of the last header's
// line, the payload buffer and the varint decoder's state. Buffers handed
// to a mem.Mem escape, so walks take their reader from a pool instead of
// the stack and a read allocates nothing.
type reader struct {
	s       *Store
	ctx     *xpsim.Ctx
	checked bool
	// local fails a read that would reach the device with errPastWindow:
	// the recovery scan decodes what its header reads already fetched.
	local bool
	fetch func(off int64, p []byte) error // r.read, bound once
	// line holds [lineOff, lineOff+lineLen): a block header and the rest of
	// its XPLine, fetched with it in one device read. Reads that start
	// inside it are served from it. A header that crosses a line boundary
	// takes its second line whole, so the window is up to an XPLine and a
	// header long.
	line    [xpsim.XPLineSize + headerBytes]byte
	lineOff int64
	lineLen int
	buf     [fixedChunkBytes]byte
	vr      varintReader
}

// errPastWindow is a local read's failure: its bytes are not all in the
// window.
var errPastWindow = errors.New("adj: read past the header's window")

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
	r.drop()
	readerPool.Put(r)
}

// drop forgets the window: what is read next comes from the device.
func (r *reader) drop() { r.lineLen = 0 }

// device reads p at off from the memory.
func (r *reader) device(off int64, p []byte) error {
	if r.checked {
		return mem.ReadChecked(r.s.m, r.ctx, off, p)
	}
	r.s.m.Read(r.ctx, off, p)
	return nil
}

// read fills p with the bytes at off: from the window when off is inside
// it, and from the device for what lies past the window's end.
func (r *reader) read(off int64, p []byte) error {
	if i := off - r.lineOff; i >= 0 && i < int64(r.lineLen) {
		n := copy(p, r.line[i:r.lineLen])
		if n == len(p) {
			return nil
		}
		off, p = off+int64(n), p[n:]
	}
	if r.local {
		return errPastWindow
	}
	return r.device(off, p)
}

// header parses the block header at off. Unless the window already holds
// it, the window moves to [off, the line boundary past the header), clamped
// to the allocated end of the arena, and only the bytes past the old
// window's end are fetched. A UE poisons a whole XPLine, so the rest of the
// header's line raises no fault the header would not; a window whose fetch
// failed is dropped, so the next read of it reports the fault again.
func (r *reader) header(off int64) (header, error) {
	var err error
	if i := off - r.lineOff; i < 0 || i+headerBytes > int64(r.lineLen) {
		end := (off + headerBytes + xpsim.XPLineSize - 1) / xpsim.XPLineSize * xpsim.XPLineSize
		end = max(off+headerBytes, min(end, mem.AllocatedEnd(r.s.m, off)))
		kept := 0
		if i >= 0 && i < int64(r.lineLen) {
			kept = copy(r.line[:], r.line[i:r.lineLen])
		}
		r.lineOff, r.lineLen = off, int(end-off)
		if err = r.device(off+int64(kept), r.line[kept:r.lineLen]); err != nil {
			r.drop()
		}
	}
	return parseHeader(r.line[off-r.lineOff:]), err
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
	// A fixed payload can be cut at any record, so the lines past the
	// header's window go to the walker's payload clock (xpsim.Sweep.Spread
	// deals a hub's over its node's workers).
	walker := r.ctx
	if walker.Payload != nil {
		r.ctx = walker.Payload
	}
	err := r.fixed(off+headerBytes, off+headerBytes+4*int64(cnt), withCRC, fn, &e)
	r.ctx = walker
	return e, err
}

// fixed is decode's fixed-width path over the payload [pos, end).
func (r *reader) fixed(pos, end int64, withCRC bool, fn func(nbr uint32), e *extent) error {
	for pos < end {
		n := min(end-pos, int64(len(r.buf)))
		if pos+n < end {
			n -= (pos + n) % xpsim.XPLineSize
		}
		chunk := r.buf[:n]
		if err := r.read(pos, chunk); err != nil {
			return err
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
	return nil
}

// walk visits the blocks of v's chain, newest first. A walk over the links
// — trusting or checked — follows the prev links as it goes: a block's
// header is read, the block visited, its link followed. A mirror walk takes
// the chain from DRAM. visit gets the walk's reader to decode payloads
// with; the records in the header's line come from the window the header
// read left. visit may rewrite the block it is handed, so the window is
// dropped before a visit's header is read and once the visit returns. A
// chain whose blocks hold more records than v's DRAM count — a corrupt
// link that loops or wanders into other blocks — fails with *CorruptError
// before the block that would overrun it is visited.
func (s *Store) walk(ctx *xpsim.Ctx, v graph.VID, o walkOpts, visit func(r *reader, off int64, h header) error) error {
	if int(v) >= len(s.vx) || s.vx[v].tail == 0 {
		return nil
	}
	r := s.reader(ctx, o.checked)
	defer r.release()
	var handed uint64 // the records of the blocks visited so far
	visitOnce := func(off int64, h header) error {
		if handed += uint64(s.blockCnt(v, off, h.capacity)); handed > uint64(s.vx[v].records) {
			return &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("chain holds more than the vertex's %d records", s.vx[v].records)}
		}
		err := visit(r, off, h)
		r.drop()
		return err
	}
	if !o.mirror {
		for off, n := s.vx[v].tail, int64(0); off != 0; n++ {
			// s.blocks undercounts once a recovered store reuses blocks that
			// were dead at the crash; the arena's fill is the hard bound on a
			// loop of empty blocks.
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
			if err := visitOnce(off, h); err != nil {
				return err
			}
			off = h.prev
		}
		return nil
	}
	for _, off := range s.chains[v] {
		var h header
		if !o.blind {
			var err error
			if h, err = r.header(off); err != nil {
				return err
			}
		}
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
		if err := visitOnce(off, h); err != nil {
			return err
		}
	}
	return nil
}

// read streams v's stored records to fn (nil: read and verify only), block
// by block newest first, the records of a block in insertion order, and
// calls cut (nil: none) after each block. Deletion tombstones are streamed
// as-is. A mirror walk verifies each payload against its acknowledged
// CRC32-C; decode failures (overlong varints, records claimed past the
// payload, deltas walking outside uint32) and checksum mismatches surface
// as *CorruptError, uncorrectable lines as *xpsim.MediaError — except on a
// trusting walk, which skips what it cannot decode.
func (s *Store) read(ctx *xpsim.Ctx, v graph.VID, o walkOpts, fn func(nbr uint32), cut func()) error {
	return s.walk(ctx, v, o, func(r *reader, off int64, h header) error {
		cnt := s.blockCnt(v, off, h.capacity)
		if cnt == 0 {
			return nil
		}
		e, err := r.decode(off, h.format, h.capacity, cnt, o.mirror, fn)
		if cut != nil {
			cut()
		}
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

// Read appends vertex v's stored records to dst, newest block first and
// each block in insertion order, and hands each block's records to run as
// soon as they are appended — the runs a Resolver takes; run may rewrite
// them in place. A checked read goes through the media-error-checked path:
// instead of silently returning whatever the media holds, it reports a
// *xpsim.MediaError or *CorruptError when v's chain touches damaged lines,
// corrupt links or (with Options.Checksums) checksum-mismatched payloads.
// On an error dst holds the records read before it.
func (s *Store) Read(ctx *xpsim.Ctx, v graph.VID, dst []uint32, run func(recs []uint32), checked bool) ([]uint32, error) {
	start := len(dst)
	err := s.read(ctx, v, walkOpts{checked: checked, mirror: checked && s.opts.Checksums},
		func(nb uint32) { dst = append(dst, nb) },
		func() {
			run(dst[start:])
			start = len(dst)
		})
	return dst, err
}

// Neighbors appends vertex v's live neighbors to dst: its stored records,
// newest block first, deletions resolved in history order (Resolver).
func (s *Store) Neighbors(ctx *xpsim.Ctx, v graph.VID, dst []uint32) []uint32 {
	var res Resolver
	recs, _ := s.Read(ctx, v, dst, res.Run, false)
	return res.Live(recs, len(dst))
}

// VerifyChain reads every visible byte of v's chain through the
// media-error-checked path and, with Checksums on, verifies each block's
// header fields and payload CRC32-C against the DRAM mirrors. It returns
// nil when everything matched, a *xpsim.MediaError when a read hit an
// uncorrectable line or failed device, and a *CorruptError when bytes read
// back cleanly but are not the bytes that were acknowledged.
func (s *Store) VerifyChain(ctx *xpsim.Ctx, v graph.VID) error {
	return s.read(ctx, v, walkOpts{checked: true, mirror: s.opts.Checksums, verify: true}, nil, nil)
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
