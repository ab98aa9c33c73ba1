package adj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/xpsim"
)

// This file implements checksummed self-describing blocks and the scrub
// repair primitive.
//
// With Options.Checksums the two spare header words become per-slot
// CRC32-C checksums of the visible payload: the word at offCnt0 holds
// {cnt0 u32, crc0 u32} and the word at offCnt1 holds {cnt1, crc1}. Count
// and checksum share one 8-byte word, so powerfail atomicity guarantees a
// count can never become durable without the checksum covering exactly the
// records it makes visible. The running CRC is maintained in DRAM as
// records append (computed from the bytes software wrote, never from the
// media, so later media corruption cannot launder itself into the mirror)
// and persisted by the same Ack that persists the count.
//
// The store additionally mirrors each vertex's chain layout (block offsets
// and capacities) in DRAM. Verification and repair walk that mirror, so a
// scrambled on-media header — garbage vid, cap, prev — can be detected and
// routed around instead of derailing the walk into unrelated memory.

// castagnoli is the CRC32-C polynomial table (the checksum Optane DIMMs
// and most storage formats use; hardware-accelerated on x86).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a block whose media bytes read back fine (no UE)
// but disagree with the acknowledged checksum or the DRAM layout mirror —
// a torn write or silent corruption that checked reads refuse to serve.
type CorruptError struct {
	V      graph.VID
	Block  int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("adj: vertex %d block @%d corrupt: %s", e.V, e.Block, e.Reason)
}

// noteBlock registers off as the newest block of v's chain in the DRAM
// checksum mirrors.
func (s *Store) noteBlock(v graph.VID, off int64, capacity, crc uint32) {
	if s.crc == nil {
		s.crc = make(map[int64]uint32)
		s.caps = make(map[int64]uint32)
		s.chains = make(map[graph.VID][]int64)
	}
	s.crc[off] = crc
	s.caps[off] = capacity
	s.chains[v] = append([]int64{off}, s.chains[v]...)
}

// chainOf returns v's block chain newest-first. With Checksums it comes
// straight from the DRAM mirror; otherwise it is walked through the
// checked read path following on-media prev links, bounded and validated
// so corrupt links fail instead of panicking out of bounds.
func (s *Store) chainOf(ctx *xpsim.Ctx, v graph.VID) ([]int64, error) {
	if s.opts.Checksums {
		return s.chains[v], nil
	}
	var chain []int64
	off := s.tail[v]
	for off != 0 {
		if int64(len(chain)) > s.blocks {
			return nil, &CorruptError{V: v, Block: off, Reason: "prev links form a cycle"}
		}
		chain = append(chain, off)
		var hdr [headerBytes]byte
		if err := mem.ReadChecked(s.m, ctx, off, hdr[:]); err != nil {
			return nil, err
		}
		prev := int64(binary.LittleEndian.Uint32(hdr[offPrev:])) * headerAlign
		if prev < 0 || prev+headerBytes > s.m.Size() {
			return nil, &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("prev link %d out of arena", prev)}
		}
		off = prev
	}
	return chain, nil
}

// visibleCnt resolves how many records of block off are visible, from DRAM
// state only (valid for Checksums stores, which are always CrashSafe).
func (s *Store) visibleCnt(v graph.VID, off int64) uint32 {
	return s.blockCnt(v, off, 0, s.caps[off])
}

// VerifyChain reads every visible byte of v's chain through the
// media-error-checked path and, with Checksums on, verifies each block's
// header fields and payload CRC32-C against the DRAM mirrors. It returns
// nil when everything matched, a *xpsim.MediaError when a read hit an
// uncorrectable line or failed device, and a *CorruptError when bytes read
// back cleanly but are not the bytes that were acknowledged.
func (s *Store) VerifyChain(ctx *xpsim.Ctx, v graph.VID) error {
	if int(v) >= len(s.tail) || s.tail[v] == 0 {
		return nil
	}
	chain, err := s.chainOf(ctx, v)
	if err != nil {
		return err
	}
	for _, off := range chain {
		var hdr [headerBytes]byte
		if err := mem.ReadChecked(s.m, ctx, off, hdr[:]); err != nil {
			return err
		}
		if !s.opts.Checksums {
			continue
		}
		if vid := binary.LittleEndian.Uint32(hdr[offVID:]); vid != uint32(v) {
			return &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("header vid %d", vid)}
		}
		if c := binary.LittleEndian.Uint32(hdr[offCap:]); c != s.caps[off] {
			return &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("header cap %d, expected %d", c, s.caps[off])}
		}
		cnt := s.visibleCnt(v, off)
		if cnt == 0 {
			continue
		}
		format := uint8(binary.LittleEndian.Uint32(hdr[offFmt:]))
		if format == fmtVarint {
			// The format word is not mirrored; a corrupted word routes the
			// decode down the wrong path, which the payload CRC then
			// catches (the consumed extents differ).
			if err := s.readBlockChecked(ctx, v, off, s.caps[off], cnt, true, nil); err != nil {
				return err
			}
			continue
		}
		if _, err := s.readFixedChecked(ctx, v, off, cnt); err != nil {
			return err
		}
	}
	return nil
}

// readFixedChecked reads the cnt visible records of the fixed-width block
// at off through the media-error-checked path and, with Checksums on,
// verifies them against the acknowledged CRC32-C.
func (s *Store) readFixedChecked(ctx *xpsim.Ctx, v graph.VID, off int64, cnt uint32) ([]byte, error) {
	buf := make([]byte, 4*cnt)
	if err := mem.ReadChecked(s.m, ctx, off+headerBytes, buf); err != nil {
		return nil, err
	}
	if s.opts.Checksums {
		if got := crc32.Checksum(buf, castagnoli); got != s.crc[off] {
			return nil, &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("payload crc %08x, acknowledged %08x", got, s.crc[off])}
		}
	}
	return buf, nil
}

// readBlockChecked decodes cnt varint records of the block at off through
// the media-error-checked path, appending to *dst when dst is non-nil.
// With checkCRC it verifies the CRC32-C of the consumed byte extent
// against the acknowledged mirror. Decode failures (overlong varints,
// records claimed past the payload, deltas walking outside uint32) are
// reported as *CorruptError; uncorrectable lines as *xpsim.MediaError.
func (s *Store) readBlockChecked(ctx *xpsim.Ctx, v graph.VID, off int64, capacity, cnt uint32, checkCRC bool, dst *[]uint32) error {
	vr := newVarintReader(func(o int64, p []byte) error {
		return mem.ReadChecked(s.m, ctx, o, p)
	}, off+headerBytes, int64(capacity)*4, checkCRC)
	for i := uint32(0); i < cnt; i++ {
		nb, err := vr.next()
		if err != nil {
			if errors.Is(err, errVarintCorrupt) {
				return &CorruptError{V: v, Block: off, Reason: err.Error()}
			}
			return err
		}
		if dst != nil {
			*dst = append(*dst, nb)
		}
	}
	if checkCRC {
		if got := vr.sum(); got != s.crc[off] {
			return &CorruptError{V: v, Block: off, Reason: fmt.Sprintf("payload crc %08x, acknowledged %08x", got, s.crc[off])}
		}
	}
	return nil
}

// neighborsChecked is the shared body of the checked neighbor walks.
func (s *Store) neighborsChecked(ctx *xpsim.Ctx, v graph.VID, dst []uint32, oldestFirst bool) ([]uint32, error) {
	if int(v) >= len(s.tail) {
		return dst, nil
	}
	chain, err := s.chainOf(ctx, v)
	if err != nil {
		return dst, err
	}
	read := func(off int64) error {
		var hdr [headerBytes]byte
		if err := mem.ReadChecked(s.m, ctx, off, hdr[:]); err != nil {
			return err
		}
		var cnt uint32
		if s.opts.Checksums {
			cnt = s.visibleCnt(v, off)
		} else {
			cnt = s.blockCnt(v, off, binary.LittleEndian.Uint32(hdr[offCnt0:]), binary.LittleEndian.Uint32(hdr[offCap:]))
		}
		if cnt == 0 {
			return nil
		}
		if uint8(binary.LittleEndian.Uint32(hdr[offFmt:])) == fmtVarint {
			capacity := binary.LittleEndian.Uint32(hdr[offCap:])
			if s.opts.Checksums {
				capacity = s.caps[off]
			}
			return s.readBlockChecked(ctx, v, off, capacity, cnt, s.opts.Checksums, &dst)
		}
		buf, err := s.readFixedChecked(ctx, v, off, cnt)
		if err != nil {
			return err
		}
		for i := uint32(0); i < cnt; i++ {
			dst = append(dst, binary.LittleEndian.Uint32(buf[i*4:]))
		}
		return nil
	}
	for i, off := range chain { // newest first
		if oldestFirst {
			off = chain[len(chain)-1-i]
		}
		if err := read(off); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// NeighborsChecked is Neighbors (newest block first) through the checked
// read path: instead of silently returning whatever the media holds, it
// reports a *xpsim.MediaError or *CorruptError when v's chain touches
// damaged or checksum-mismatched lines.
func (s *Store) NeighborsChecked(ctx *xpsim.Ctx, v graph.VID, dst []uint32) ([]uint32, error) {
	return s.neighborsChecked(ctx, v, dst, false)
}

// NeighborsOldestFirstChecked is NeighborsOldestFirst through the checked
// read path.
func (s *Store) NeighborsOldestFirstChecked(ctx *xpsim.Ctx, v graph.VID, dst []uint32) ([]uint32, error) {
	return s.neighborsChecked(ctx, v, dst, true)
}

// ChainSpans returns the {offset, size} of every block in v's chain from
// the DRAM layout mirror — the spans a scrubber quarantines when the
// vertex cannot be repaired. Checksums stores only.
func (s *Store) ChainSpans(v graph.VID) [][2]int64 {
	if !s.opts.Checksums {
		panic("adj: ChainSpans requires Checksums")
	}
	if int(v) >= len(s.tail) {
		return nil
	}
	spans := make([][2]int64, 0, len(s.chains[v]))
	for _, off := range s.chains[v] {
		spans = append(spans, [2]int64{off, headerBytes + 4*int64(s.caps[off])})
	}
	return spans
}

// Suspects returns the vertices whose media payload disagreed with the
// acknowledged checksum when the store was recovered — damage the scrubber
// should verify and repair first.
func (s *Store) Suspects() []graph.VID {
	out := make([]graph.VID, len(s.suspects))
	copy(out, s.suspects)
	return out
}

// ReplaceChain journals in a single exactly-sized block holding recs as
// vertex v's entire chain — the scrub repair primitive. It differs from
// Compact in two ways: recs is stored as given (the caller re-derived the
// raw record stream from the edge log or SSD archive; tombstones stay),
// and the old blocks are NOT recycled — they sit on quarantined media.
// Each old block gets a fresh dead header written over whatever the media
// holds (the cells still accept programming), so a later recovery scan
// parses the arena cleanly; the returned {offset, size} spans are what the
// caller must persist so recovery never hands the bad lines out again.
//
// The swap itself runs through the same redo journal as compactCrashSafe
// and has the same precondition: all of v's records flush-acknowledged at
// both slot parities.
func (s *Store) ReplaceChain(ctx *xpsim.Ctx, v graph.VID, recs []uint32) ([][2]int64, error) {
	if !s.opts.Checksums {
		panic("adj: ReplaceChain requires Checksums")
	}
	s.EnsureVertices(v + 1)
	if err := s.ensureJournal(ctx); err != nil {
		return nil, err
	}
	oldTail := s.tail[v]
	oldChain := s.chains[v]
	spans := make([][2]int64, 0, len(oldChain))
	for _, off := range oldChain {
		spans = append(spans, [2]int64{off, headerBytes + 4*int64(s.caps[off])})
	}

	// 1. Stage the replacement block under a dead vid (see compactCrashSafe
	// for the step-by-step crash argument; the journal protocol is shared).
	// recs is stored AS GIVEN in either format: a snapshot's record-count
	// bound may fall anywhere inside the rebuilt stream, so the repair
	// must not reorder it (unlike compaction, which may sort).
	var newOff int64
	var capacity int
	format := uint8(fmtFixed)
	var payload []byte
	var stagedCRC uint32
	if len(recs) > 0 {
		if s.opts.VarintBlocks {
			format = fmtVarint
			payload = encodeVarintRun(nil, 0, recs)
			capacity = varintCapacity(len(payload))
		} else {
			payload = encodeU32s(recs)
			capacity = len(recs)
		}
		var err error
		newOff, err = s.allocBlock(ctx, v, capacity)
		if err != nil {
			return nil, err
		}
		size := int64(headerBytes + 4*capacity)
		buf := make([]byte, size)
		binary.LittleEndian.PutUint32(buf[offVID:], deadVID)
		binary.LittleEndian.PutUint32(buf[offCap:], uint32(capacity))
		binary.LittleEndian.PutUint32(buf[offFmt:], uint32(format))
		binary.LittleEndian.PutUint32(buf[offCnt0:], uint32(len(recs)))
		binary.LittleEndian.PutUint32(buf[offCnt1:], uint32(len(recs)))
		copy(buf[headerBytes:], payload)
		stagedCRC = crc32.Checksum(payload, castagnoli)
		binary.LittleEndian.PutUint32(buf[offCRC0:], stagedCRC)
		binary.LittleEndian.PutUint32(buf[offCRC1:], stagedCRC)
		s.m.Write(ctx, newOff, buf)
		s.m.Flush(ctx, newOff, size)
		s.m.Flush(ctx, 0, 8)
		s.encBytes[format] += int64(len(payload))
		s.encRecs[format] += int64(len(recs))
	}

	// 2. Arm the journal.
	wA := s.journal + headerBytes
	mem.WriteU64(s.m, ctx, wA, uint64(v)|uint64(newOff/headerAlign)<<32)
	s.m.Flush(ctx, wA, 8)
	mem.WriteU64(s.m, ctx, wA+8, uint64(oldTail/headerAlign)|uint64(journalMagic)<<32)
	s.m.Flush(ctx, wA+8, 8)

	// 3. Commit the staged block.
	if newOff != 0 {
		mem.WriteU32(s.m, ctx, newOff+offVID, v)
		s.m.Flush(ctx, newOff, headerBytes)
	}

	// 4. Write dead headers over the old chain — from the DRAM layout, not
	// from media prev links a scrambled header could have corrupted. No
	// recycle: the blocks are quarantined.
	for _, off := range oldChain {
		var hdr [headerBytes]byte
		binary.LittleEndian.PutUint32(hdr[offVID:], deadVID)
		binary.LittleEndian.PutUint32(hdr[offCap:], s.caps[off])
		s.m.Write(ctx, off, hdr[:])
		s.m.Flush(ctx, off, headerBytes)
		delete(s.partialCnt, off)
		s.pendDrop(off)
		delete(s.crc, off)
	}

	// 5. Disarm.
	mem.WriteU64(s.m, ctx, wA+8, 0)
	s.m.Flush(ctx, wA+8, 8)

	s.records[v] = uint32(len(recs))
	s.tail[v] = newOff
	s.tailCnt[v] = uint32(len(recs))
	s.tailCap[v] = uint32(capacity)
	s.tailFmt[v] = format
	s.tailBytes[v] = uint32(len(payload))
	s.lastVal[v] = 0
	if format == fmtVarint && len(recs) > 0 {
		s.lastVal[v] = recs[len(recs)-1]
	}
	delete(s.chains, v)
	if newOff != 0 {
		s.noteBlock(v, newOff, uint32(capacity), stagedCRC)
	}
	return spans, nil
}

// encodeU32s packs records little-endian, the block payload encoding.
func encodeU32s(recs []uint32) []byte {
	buf := make([]byte, 4*len(recs))
	for i, r := range recs {
		binary.LittleEndian.PutUint32(buf[i*4:], r)
	}
	return buf
}
