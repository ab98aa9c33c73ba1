package adj

import (
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/xpsim"
)

// Replacing a vertex's whole chain by one exactly-sized block: compaction
// (compact_adjs of Table I) and the scrub repair primitive. On recoverable
// stores (CountsAcked) both are one journaled swap; see swapChain.

// Compact merges all of v's blocks (resolving deletion tombstones) into a
// single exactly-sized block. The old blocks are marked dead on media (so
// scan recovery skips them) and recycled through per-capacity free lists.
//
// On CountsAcked stores the caller must have flush-acknowledged all of v's
// records first (core.FlushAllVbufs): the compacted counts are written to
// both slots, which is only safe when the records they cover are below the
// log's flushed cursor at both parities.
func (s *Store) Compact(ctx *xpsim.Ctx, v graph.VID) error {
	if int(v) >= len(s.vx) || s.vx[v].tail == 0 {
		return nil
	}
	live := ResolveTombstones(s.Neighbors(ctx, v, nil), 0)
	if s.opts.VarintBlocks {
		// Sorting is safe here — compaction fences live snapshots and any
		// later snapshot's record-count bound covers the whole compacted
		// block — and it is where the delta encoding earns its density:
		// a sorted run's deltas are small and non-negative.
		slices.Sort(live)
	}
	if s.rule().recoverable {
		return s.swapChain(ctx, v, live, false)
	}
	// A store no scan recovers needs no journal: release the old chain
	// block by block (a 4-byte dead owner; the counts in the dead header go
	// stale but are only trusted behind a valid vid) and append the
	// survivors afresh.
	s.walk(ctx, v, walkOpts{}, func(_ *reader, off int64, h header) error {
		writeVID(s.m, ctx, off, deadVID)
		s.recycle(off, int(h.capacity))
		return nil
	})
	s.vx[v] = vertex{}
	if len(live) == 0 {
		return nil
	}
	old := s.opts.Sizing
	s.opts.Sizing = exactSizing
	err := s.Append(ctx, v, live)
	s.opts.Sizing = old
	return err
}

// ReplaceChain journals in a single exactly-sized block holding recs as
// vertex v's entire chain — the scrub repair primitive. It differs from
// Compact in two ways: recs is stored as given (the caller re-derived the
// raw record stream from the edge log or SSD archive; tombstones stay, and
// a snapshot's record-count bound may fall anywhere inside the rebuilt
// stream, so the repair must not reorder it), and the old blocks are NOT
// recycled — they sit on quarantined media. Each old block gets a fresh
// dead header written over whatever the media holds (the cells still accept
// programming), located through the DRAM layout mirror rather than media
// prev links a scrambled header could have corrupted, so a later recovery
// scan parses the arena cleanly; the returned {offset, size} spans are what
// the caller must persist so recovery never hands the bad lines out again.
//
// Same precondition as Compact: all of v's records flush-acknowledged at
// both slot parities.
func (s *Store) ReplaceChain(ctx *xpsim.Ctx, v graph.VID, recs []uint32) ([][2]int64, error) {
	if !s.opts.Checksums {
		panic("adj: ReplaceChain requires Checksums")
	}
	s.EnsureVertices(v + 1)
	spans := s.ChainSpans(v)
	return spans, s.swapChain(ctx, v, recs, true)
}

// swapChain swaps v's chain for one exactly-sized block holding recs via a
// redo journal, so a crash at any point either keeps the old chain or
// completes the swap on recovery — never both, never neither:
//
//  1. stage: write the new block fully (data + both count slots) with a
//     dead vid, flush it, and flush the allocation pointer covering it;
//  2. arm: journal wordA {v, newOff}, flush; wordB {oldTail, magic},
//     flush — the wordB flush is the commit point;
//  3. commit: rewrite the staged block's vid to v, flush;
//  4. kill: give every old-chain block a dead header (writeDead), flush;
//  5. disarm: zero wordB, flush.
//
// Recovery rolls an armed journal forward idempotently (journalRollForward);
// an unarmed journal means the old chain is still authoritative and the
// staged block, if any, is just a dead block awaiting recycling.
//
// quarantine is the repair's variant of step 4: the old blocks are found
// through the DRAM mirror without reading their headers, and stay off the
// free lists.
func (s *Store) swapChain(ctx *xpsim.Ctx, v graph.VID, recs []uint32, quarantine bool) error {
	if err := s.ensureJournal(ctx); err != nil {
		return err
	}
	oldTail := s.vx[v].tail

	// 1. Stage the replacement block under a dead vid. The payload format
	// follows the store option; cnt counts records while cap keeps its
	// 4-bytes-per-unit size semantics, so a varint block is sized by its
	// encoded length.
	n := uint32(len(recs))
	var newOff int64
	var payload []byte
	var staged blockMirror
	if len(recs) > 0 {
		staged = blockMirror{capacity: uint32(len(recs)), format: fmtFixed}
		if s.opts.VarintBlocks {
			staged.format = fmtVarint
		}
		buf, _, _ := encodeRun(make([]byte, headerBytes, headerBytes+4*len(recs)), staged.format, maxVarintRec*len(recs), 0, recs)
		payload = buf[headerBytes:]
		if staged.format == fmtVarint {
			staged.capacity = uint32(varintCapacity(len(payload)))
		}
		if s.opts.Checksums {
			// The CRC covers exactly the visible payload extent — all
			// 4*cap bytes for fixed blocks, the encoded bytes for varint
			// ones (what a decode of cnt records consumes).
			staged.crc = crc32.Checksum(payload, castagnoli)
		}
		h := header{vid: deadVID, capacity: staged.capacity, format: uint32(staged.format),
			cnt: [2]uint32{n, n}, crc: [2]uint32{staged.crc, staged.crc}}
		buf = append(buf, make([]byte, h.size()-int64(len(buf)))...)
		h.put(buf)
		var err error
		if newOff, err = s.allocBlock(ctx, v, int(staged.capacity)); err != nil {
			return err
		}
		s.m.Write(ctx, newOff, buf)
		s.m.Flush(ctx, newOff, h.size())
		// The journal will point at this block: its allocation must be
		// durable before arming or recovery's scan would stop short of it.
		s.m.Flush(ctx, 0, 8)
		s.encBytes[staged.format] += int64(len(payload))
		s.encRecs[staged.format] += int64(len(recs))
	}

	// 2. Arm the journal. wordA must be durable before wordB's magic:
	// an armed journal with a torn target would roll garbage forward.
	wA := s.journal + headerBytes
	mem.WriteU64(s.m, ctx, wA, uint64(v)|uint64(newOff/headerAlign)<<32)
	s.m.Flush(ctx, wA, 8)
	mem.WriteU64(s.m, ctx, wA+8, uint64(oldTail/headerAlign)|uint64(journalMagic)<<32)
	s.m.Flush(ctx, wA+8, 8)

	// 3. Commit the staged block.
	if newOff != 0 {
		writeVID(s.m, ctx, newOff, v)
		s.m.Flush(ctx, newOff, headerBytes)
	}

	// 4. Kill the old chain.
	s.walk(ctx, v, walkOpts{mirror: quarantine, blind: quarantine}, func(_ *reader, off int64, h header) error {
		s.writeDead(ctx, off, h.capacity, uint8(h.format))
		if quarantine {
			s.forget(off)
		} else {
			s.recycle(off, int(h.capacity))
		}
		return nil
	})

	// 5. Disarm.
	mem.WriteU64(s.m, ctx, wA+8, 0)
	s.m.Flush(ctx, wA+8, 8)

	s.vx[v] = vertex{tail: newOff, cnt: n, capacity: staged.capacity, records: n,
		bytes: uint32(len(payload)), format: staged.format}
	if staged.format == fmtVarint {
		s.vx[v].last = recs[n-1]
	}
	if s.opts.Checksums {
		delete(s.chains, v)
		if newOff != 0 {
			s.noteBlock(v, newOff, staged)
		}
	}
	return nil
}

// ensureJournal allocates the swap journal pseudo-block (header + two
// 8-byte words) and makes it durably reachable.
func (s *Store) ensureJournal(ctx *xpsim.Ctx) error {
	if s.journal != 0 {
		return nil
	}
	off, err := s.m.Alloc(ctx, headerBytes+16, headerAlign)
	if err != nil {
		return fmt.Errorf("adj: journal: %w", err)
	}
	var buf [headerBytes + 16]byte
	h := header{vid: journalVID, capacity: 4} // 16 data bytes
	h.put(buf[:])
	s.m.Write(ctx, off, buf[:])
	s.m.Flush(ctx, off, int64(len(buf)))
	s.m.Flush(ctx, 0, 8) // allocation pointer
	s.journal = off
	return nil
}

// killBlock durably marks a block dead (writeDead) and recycles it.
func (s *Store) killBlock(ctx *xpsim.Ctx, off int64, capacity int, format uint8) {
	s.writeDead(ctx, off, uint32(capacity), format)
	s.recycle(off, capacity)
}

// recycle hands a dead block to the free lists.
func (s *Store) recycle(off int64, capacity int) {
	s.freeBlocks[capacity] = append(s.freeBlocks[capacity], off)
	s.forget(off)
}

// forget drops the DRAM state of a block that is no longer live.
func (s *Store) forget(off int64) {
	delete(s.partialCnt, off)
	s.pendDrop(off)
	delete(s.mirror, off)
}
