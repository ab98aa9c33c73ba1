package adj

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/xpsim"
)

// RecoverableMem is the extra surface recovery needs: where the arena
// starts, how far it had grown before the crash, and giving back a suffix
// that turned out to be garbage (pmem.Region implements it).
type RecoverableMem interface {
	mem.Mem
	PersistedAllocOffset(ctx *xpsim.Ctx) int64
	UserStart() int64
	RewindAlloc(ctx *xpsim.Ctx, off int64)
}

// scanned is one parsed arena entry during recovery.
type scanned struct {
	off int64
	header
	visible uint32 // the trusted slot's count
}

// RecoverWith rebuilds the DRAM index (tails, counts, degrees) by scanning
// the arena sequentially from its start to the persisted allocation
// pointer. Chains come back because each block persists its prev link;
// the tail of a chain is the one block no other block points to (offset
// order is not enough once compaction recycles blocks).
//
// Only CountsAcked stores are scan-recoverable (countRules); opts naming
// another policy is refused with an error. committed is the flush epoch the
// edge log last committed (elog.Log.Epoch): it decides which count slot of
// each block is current (header.trusted). The scan also completes an armed
// compaction journal (roll-forward), treats an unparsable header as the
// frontier of writes that never became durable (truncating and durably
// zeroing the garbage suffix so a later recovery cannot misparse it),
// remembers partially-visible retired blocks, and queues the blocks stamped
// with the epoch that never committed into the first Ack: the recovered
// store runs that epoch again, and its commit must not make their
// uncommitted counts current.
//
// quarantined names block offsets whose media was damaged and routed around
// by a scrub before the crash (nil: none). Quarantined blocks carry valid
// dead headers (ReplaceChain rewrote them), so the scan parses straight over
// them — but they must never re-enter the free lists, or the allocator would
// hand known-bad lines to fresh data.
//
// With opts.Checksums the scan additionally rebuilds the DRAM checksum
// mirrors from the acknowledged {cnt, crc} slot words and recomputes every
// live block's payload CRC from the media: vertices whose stored bytes
// disagree with what was acknowledged are reported via Store.Suspects —
// corruption that happened while the store was down, caught before any
// read can serve it.
func RecoverWith(ctx *xpsim.Ctx, m RecoverableMem, lat *xpsim.LatencyModel, opts Options, committed uint32, quarantined map[int64]bool) (*Store, error) {
	opts, err := opts.normalized()
	switch {
	case err != nil:
		return nil, err
	case !opts.Counts.Recoverable():
		return nil, fmt.Errorf("adj: %v counts are not scan-recoverable", opts.Counts)
	case committed > maxEpoch:
		return nil, fmt.Errorf("adj: committed epoch %d is beyond the stamps' %d", committed, maxEpoch)
	}
	s := New(m, lat, 0, opts)
	s.epoch = committed + 1
	end := m.PersistedAllocOffset(ctx)
	if end < m.UserStart() || end > m.Size() {
		return nil, fmt.Errorf("adj: corrupt allocation pointer %d (arena is [%d,%d])", end, m.UserStart(), m.Size())
	}

	// Pass 1: parse the arena. A Checksums store reads its headers through
	// the media-error-checked path: a header on an uncorrectable line is
	// scrambled bytes, and taking it for the frontier would silently drop
	// every acknowledged block behind it. The scan cannot step over a block
	// it cannot size, so it fails typed — unless a scrub already rewrote the
	// header and quarantined the block (the line keeps its poison mark).
	r := s.reader(ctx, opts.Checksums)
	defer r.release()
	var raw []scanned
	for off := align(m.UserStart(), headerAlign); off+headerBytes <= end; {
		h, err := r.header(off)
		if err != nil && !quarantined[off] {
			return nil, fmt.Errorf("adj: block header at %d is unreadable and the scan cannot step over it: %w", off, err)
		}
		if h.plausible(off, end, committed) {
			raw = append(raw, scanned{off: off, header: h, visible: h.cnt[h.trusted(committed)]})
			off = align(off+h.size(), headerAlign)
			continue
		}
		// The frontier: everything from here on was allocated after the
		// last writeback barrier and never became durably reachable, so it
		// holds no acknowledged records. Zero it (so a later recovery cannot
		// parse leftover bytes as a block) and hand it back to the allocator.
		m.Write(ctx, off, make([]byte, end-off))
		m.Flush(ctx, off, end-off)
		m.RewindAlloc(ctx, off)
		break
	}

	r.checked = false

	// Pass 2: complete an armed swap journal.
	if err := s.journalRollForward(ctx, raw); err != nil {
		return nil, err
	}

	// Pass 3: build the index. A live block's count is that of the slot
	// recovery trusts.
	live := make(map[graph.VID][]scanned)
	pointedTo := make(map[int64]int)
	for _, b := range raw {
		switch b.vid {
		case deadVID:
			switch {
			case quarantined[b.off]:
				// Quarantined media with a scrub-written dead header:
				// parseable, never reusable.
			case b.prev != 0 || b.sel != 0 || b.epoch != 0 || b.cnt != [2]uint32{}:
				// Mid-kill: the dead vid became durable but the rest of the
				// dead header — no prev, no stamp, zeroed slots — did not. Finish the kill before recycling —
				// newBlock relies on recycled blocks having durably zeroed
				// count slots under a stamp that selects slot 0, so a torn
				// reuse header can never resurrect stale counts.
				s.killBlock(ctx, b.off, int(b.capacity), uint8(b.format))
			default:
				// Recycled block awaiting reuse: skip, but remember it so
				// the recovered store keeps recycling.
				s.recycle(b.off, int(b.capacity))
			}
			continue
		case journalVID:
			continue // already recorded by journalRollForward
		}
		v := graph.VID(b.vid)
		s.EnsureVertices(v + 1)
		live[v] = append(live[v], b)
		if b.prev != 0 {
			pointedTo[b.prev]++
		}
	}
	// Deterministic vertex order: pruning below writes to the device, and
	// map iteration order must not leak into simulated cache state.
	for _, v := range slices.Sorted(maps.Keys(live)) {
		blks := live[v]
		countTails := func() (n int) {
			for _, b := range blks {
				if pointedTo[b.off] == 0 {
					n++
				}
			}
			return n
		}
		// Blocks that cannot hold committed records are droppable: kill them
		// durably and rescan, since a drop can expose another. Two kinds:
		//   - more than one chain end means some block's prev link never
		//     became durable — a tail allocated right before the crash, torn
		//     mid-header;
		//   - a prev link to no block of the vertex follows a predecessor
		//     whose own header never became durable — a recycled block whose
		//     first header tore back to its dead one — so the block was
		//     allocated after it, in the same uncommitted epoch.
		// Either way it is zero-visible: a count only becomes current
		// through an epoch commit, which orders after the barrier that made
		// the whole header (prev included) durable.
		owns := make(map[int64]bool, len(blks))
		for _, b := range blks {
			owns[b.off] = true
		}
		tails := countTails()
		for {
			kept := blks[:0]
			for _, b := range blks {
				dangling := tails > 1 && pointedTo[b.off] == 0
				broken := b.prev != 0 && !owns[b.prev]
				if b.visible != 0 || !dangling && !broken {
					kept = append(kept, b)
					continue
				}
				s.killBlock(ctx, b.off, int(b.capacity), uint8(b.format))
				delete(owns, b.off)
				if b.prev != 0 {
					pointedTo[b.prev]--
				}
			}
			if len(kept) == len(blks) {
				break
			}
			blks = kept
			tails = countTails()
		}
		if len(blks) == 0 {
			continue
		}
		for _, b := range blks {
			if b.prev != 0 && !owns[b.prev] {
				return nil, fmt.Errorf("adj: vertex %d block %d links to %d, no block of the vertex (corrupt prev link)", v, b.off, b.prev)
			}
			s.vx[v].records += b.visible
			s.blocks++
			s.bytes += b.size()
			if pointedTo[b.off] != 0 {
				continue
			}
			t := &s.vx[v]
			t.tail, t.cnt, t.capacity, t.format = b.off, b.visible, b.capacity, uint8(b.format)
			t.stamp = uint8(b.sel)
			if b.epoch == s.epoch {
				t.stamp, t.run = t.stamp|stampOnMedia, runTag(s.epoch)
			}
			if b.format == fmtVarint && t.cnt > 0 {
				// Rebuild the append cursor (byte extent + delta
				// predecessor) by decoding the acknowledged records. The
				// count slot only became authoritative after the barrier
				// that persisted those payload bytes, so a decode failure
				// here is real corruption: fatal without Checksums; with
				// Checksums keep a best-effort cursor and let the CRC
				// walk below flag the vertex as suspect.
				e, err := r.decode(b.off, b.format, b.capacity, t.cnt, false, nil)
				if err != nil && !opts.Checksums {
					return nil, fmt.Errorf("adj: vertex %d varint tail at %d undecodable: %v", v, b.off, err)
				}
				t.bytes, t.last = uint32(e.bytes), e.last
			}
		}
		if tails != 1 {
			return nil, fmt.Errorf("adj: vertex %d chain has %d tails (corrupt prev links)", v, tails)
		}
		for _, b := range blks {
			if b.off != s.vx[v].tail && b.visible != b.capacity {
				// Retired with a count differing from capacity — a fixed
				// block retired before filling up, or any varint block
				// (whose record count is unrelated to cap): pin the visible
				// count so reads stop at it.
				s.partialCnt[b.off] = b.visible
			}
			if b.epoch == s.epoch {
				// Stamped by the epoch that never committed: its stamped slot
				// holds an uncommitted count, which the recovered store's
				// first commit — of that same epoch — would make current.
				// The first Ack writes the trusted count there.
				s.pendAdd(b.off, b.visible, uint8(b.sel), uint8(b.format), false)
			}
		}
		if !opts.Checksums {
			continue
		}
		// Rebuild the DRAM mirrors from the acknowledged slot words — never
		// from recomputed media bytes, which would launder any corruption
		// into a self-consistent mirror. Then recompute each payload's CRC
		// from the media, newest block first up to the first disagreement,
		// and flag the vertex if there is one.
		byOff := make(map[int64]scanned, len(blks))
		for _, b := range blks {
			byOff[b.off] = b
		}
		for off := s.vx[v].tail; off != 0; {
			b, ok := byOff[off]
			if !ok {
				return nil, fmt.Errorf("adj: vertex %d chain prev link to unknown block %d", v, off)
			}
			s.chains[v] = append(s.chains[v], off)
			s.mirror[off] = blockMirror{capacity: b.capacity, crc: b.crc[b.trusted(committed)], format: uint8(b.format)}
			off = b.prev
		}
		if s.read(ctx, v, walkOpts{mirror: true, blind: true}, nil) != nil {
			s.suspects = append(s.suspects, v)
		}
	}
	return s, nil
}

// journalRollForward finds the swap journal among the scanned blocks and,
// if it is armed, idempotently finishes the interrupted swap: commit the
// staged block, kill every other block of the vertex, disarm. It mutates
// raw in place to match the media.
func (s *Store) journalRollForward(ctx *xpsim.Ctx, raw []scanned) error {
	isJournal := func(b scanned) bool { return b.vid == journalVID }
	ji := slices.IndexFunc(raw, isJournal)
	if ji < 0 {
		return nil
	}
	if k := slices.IndexFunc(raw[ji+1:], isJournal); k >= 0 {
		return fmt.Errorf("adj: two compaction journals (at %d and %d)", raw[ji].off, raw[ji+1+k].off)
	}
	s.journal = raw[ji].off
	wA := s.journal + headerBytes
	wordA := mem.ReadU64(s.m, ctx, wA)
	wordB := mem.ReadU64(s.m, ctx, wA+8)
	if wordB>>32 != journalMagic {
		return nil // not armed: the old chain is authoritative
	}
	v := uint32(wordA)
	newOff := int64(wordA>>32) * headerAlign
	committed := false
	for i := range raw {
		b := &raw[i]
		switch {
		case newOff != 0 && b.off == newOff:
			if b.vid != v && b.vid != deadVID {
				return fmt.Errorf("adj: journal for vertex %d points at block owned by %d", v, b.vid)
			}
			writeVID(s.m, ctx, b.off, v)
			s.m.Flush(ctx, b.off, headerBytes)
			b.vid = v
			committed = true
		case b.vid == v:
			// Old-chain survivor: finish the kill. Pass 3 sees a dead block
			// and recycles it — or keeps it quarantined.
			s.writeDead(ctx, b.off, b.capacity, uint8(b.format))
			b.header = header{vid: deadVID, capacity: b.capacity, format: b.format}
		}
	}
	if newOff != 0 && !committed {
		return fmt.Errorf("adj: journal for vertex %d points at missing block %d", v, newOff)
	}
	mem.WriteU64(s.m, ctx, wA+8, 0)
	s.m.Flush(ctx, wA+8, 8)
	return nil
}
