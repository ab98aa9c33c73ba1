package adj

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/xpsim"
)

// RecoverableMem is the extra surface recovery needs: where the arena
// starts and how far it had grown before the crash.
type RecoverableMem interface {
	mem.Mem
	PersistedAllocOffset(ctx *xpsim.Ctx) int64
	UserStart() int64
}

// rewindableMem lets recovery give back an arena suffix that turned out
// to be garbage (pmem.Region implements it).
type rewindableMem interface {
	RewindAlloc(ctx *xpsim.Ctx, off int64)
}

// rawBlock is one parsed arena entry during recovery.
type rawBlock struct {
	off        int64
	vid        uint32
	capacity   uint32
	prev       int64
	format     uint8
	cnt0, cnt1 uint32
	crc0, crc1 uint32
}

// cntPlausible checks a count slot against the block's structural bound:
// fixed blocks hold at most cap records, varint blocks at most 4*cap
// (a record is at least one byte of the 4*cap-byte payload).
func (b *rawBlock) cntPlausible(cnt uint32) bool {
	if b.format == fmtVarint {
		return uint64(cnt) <= 4*uint64(b.capacity)
	}
	return cnt <= b.capacity
}

// maxScanVID bounds plausible vertex IDs during the arena scan. A header
// whose media lines rotted to pseudo-random garbage can pass the count
// sanity checks with a huge vid; indexing it verbatim would allocate
// per-vertex slices for billions of vertices. Anything above this bound is
// treated as corruption, like a zero capacity.
const maxScanVID = 1 << 28

func (b *rawBlock) size() int64 { return headerBytes + 4*int64(b.capacity) }

// trusted is the record count recovery trusts, and its checksum: the
// selected slot's on CrashSafe stores, the one slot the others write.
func (b *rawBlock) trusted(opts Options, slot int) (cnt, crc uint32) {
	if opts.CrashSafe && slot == 1 {
		return b.cnt1, b.crc1
	}
	return b.cnt0, b.crc0
}

// Recover rebuilds the DRAM index (tails, counts, degrees) by scanning
// the arena sequentially from its start to the persisted allocation
// pointer. Chains come back because each block persists its prev link;
// the tail of a chain is the one block no other block points to (offset
// order is not enough once compaction recycles blocks).
//
// slot selects which persisted count slot is authoritative — the slot the
// edge log's flushed cursor carried at the crash (elog.AckSlot). For
// CrashSafe stores the scan additionally: completes an armed compaction
// journal (roll-forward), treats an unparsable header as the frontier of
// writes that never became durable (truncating and durably zeroing the
// garbage suffix so a later recovery cannot misparse it), remembers
// partially-visible retired blocks, and queues blocks with disagreeing
// slots for re-acknowledgment.
func Recover(ctx *xpsim.Ctx, m RecoverableMem, lat *xpsim.LatencyModel, opts Options, slot int) (*Store, error) {
	return RecoverWith(ctx, m, lat, opts, slot, nil)
}

// RecoverWith is Recover with a quarantine set: block offsets whose media
// was damaged and routed around by a scrub before the crash. Quarantined
// blocks carry valid dead headers (ReplaceChain rewrote them), so the scan
// parses straight over them — but they must never re-enter the free lists,
// or the allocator would hand known-bad lines to fresh data.
//
// With opts.Checksums the scan additionally rebuilds the DRAM checksum
// mirrors from the acknowledged {cnt, crc} slot words and recomputes every
// live block's payload CRC from the media: vertices whose stored bytes
// disagree with what was acknowledged are reported via Store.Suspects —
// corruption that happened while the store was down, caught before any
// read can serve it.
func RecoverWith(ctx *xpsim.Ctx, m RecoverableMem, lat *xpsim.LatencyModel, opts Options, slot int, quarantined map[int64]bool) (*Store, error) {
	if opts.VolatileCounts {
		return nil, fmt.Errorf("adj: stores with volatile counts are not scan-recoverable (GraphOne recovers by re-archiving)")
	}
	if opts.DeferCounts {
		return nil, fmt.Errorf("adj: stores with deferred counts are not scan-recoverable (battery-backed DRAM keeps them)")
	}
	if slot != 0 && slot != 1 {
		return nil, fmt.Errorf("adj: bad count slot %d", slot)
	}
	s := New(m, lat, 0, opts)
	s.nextSlot = 1 - slot
	end := m.PersistedAllocOffset(ctx)
	if end < m.UserStart() || end > m.Size() {
		return nil, fmt.Errorf("adj: corrupt allocation pointer %d (arena is [%d,%d])", end, m.UserStart(), m.Size())
	}

	// Pass 1: parse the arena.
	var raw []rawBlock
	off := align(m.UserStart(), headerAlign)
	stop := int64(-1)
	for off+headerBytes <= end {
		var hdr [headerBytes]byte
		m.Read(ctx, off, hdr[:])
		fmtWord := binary.LittleEndian.Uint32(hdr[offFmt:])
		b := rawBlock{
			off:      off,
			vid:      binary.LittleEndian.Uint32(hdr[offVID:]),
			capacity: binary.LittleEndian.Uint32(hdr[offCap:]),
			prev:     int64(binary.LittleEndian.Uint32(hdr[offPrev:])) * headerAlign,
			format:   uint8(fmtWord),
			cnt0:     binary.LittleEndian.Uint32(hdr[offCnt0:]),
			cnt1:     binary.LittleEndian.Uint32(hdr[offCnt1:]),
			crc0:     binary.LittleEndian.Uint32(hdr[offCRC0:]),
			crc1:     binary.LittleEndian.Uint32(hdr[offCRC1:]),
		}
		// A dead block's count slots are never authoritative, and they can
		// legitimately look implausible mid-kill: killBlock's fresh header
		// can straddle two XPLines, so a crash can leave vid=deadVID durable
		// while the previous owner's counts survive in the second line —
		// checked against whatever format word the tear left beside them.
		// Skip the count check for dead blocks instead of treating the
		// whole suffix as garbage; pass 3 finishes the kill. A live block
		// answers for the slot recovery trusts only: the other one is the
		// running cycle's scratch, where an append leaves its count beside
		// its records — on a recycled block, possibly torn against the
		// previous owner's format word.
		cnt, _ := b.trusted(opts, slot)
		cntOK := b.vid == deadVID || b.cntPlausible(cnt)
		if b.capacity == 0 || off+b.size() > end || fmtWord > fmtVarint || !cntOK ||
			(b.vid > maxScanVID && b.vid != deadVID && b.vid != journalVID) {
			if opts.CrashSafe {
				stop = off
				break
			}
			return nil, fmt.Errorf("adj: corrupt block header at %d (cap=%d)", off, b.capacity)
		}
		raw = append(raw, b)
		off = align(off+b.size(), headerAlign)
	}
	if stop >= 0 {
		// Everything past stop was allocated after the last writeback
		// barrier and never became durably reachable: it holds no
		// acknowledged records. Zero it (so a later recovery cannot parse
		// leftover bytes as a block) and hand it back to the allocator.
		zero := make([]byte, end-stop)
		m.Write(ctx, stop, zero)
		m.Flush(ctx, stop, end-stop)
		if rw, ok := m.(rewindableMem); ok {
			rw.RewindAlloc(ctx, stop)
		}
		end = stop
	}

	// Pass 2: complete an armed compaction journal.
	if err := s.journalRollForward(ctx, m, raw); err != nil {
		return nil, err
	}

	// Pass 3: build the index.
	type blk struct {
		off      int64
		prev     int64
		cnt, cap uint32
		crc      uint32
		format   uint8
		mismatch bool
	}
	live := make(map[graph.VID][]blk)
	pointedTo := make(map[int64]int)
	for i := range raw {
		b := &raw[i]
		switch b.vid {
		case deadVID:
			if quarantined[b.off] {
				// Quarantined media with a scrub-written dead header:
				// parseable, never reusable.
				continue
			}
			if opts.CrashSafe && (b.cnt0 != 0 || b.cnt1 != 0 || b.prev != 0) {
				// Mid-kill: the dead vid became durable but the slot zeroing
				// did not. Finish the kill before recycling — newBlock relies
				// on recycled blocks having durably zeroed count slots so a
				// torn reuse header can never resurrect stale counts.
				s.killBlock(ctx, b.off, int(b.capacity), b.format)
				continue
			}
			// Recycled block awaiting reuse: skip, but remember it so
			// the recovered store keeps recycling.
			s.recycle(b.off, int(b.capacity))
			continue
		case journalVID:
			continue // already recorded by journalRollForward
		}
		visible, crc := b.trusted(opts, slot)
		v := graph.VID(b.vid)
		s.EnsureVertices(v + 1)
		live[v] = append(live[v], blk{off: b.off, prev: b.prev, cnt: visible, cap: b.capacity, crc: crc, format: b.format, mismatch: b.cnt0 != b.cnt1})
		if b.prev != 0 {
			pointedTo[b.prev]++
		}
	}
	// Deterministic vertex order: pruning below writes to the device, and
	// map iteration order must not leak into simulated cache state.
	vids := make([]graph.VID, 0, len(live))
	for v := range live {
		vids = append(vids, v)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	for _, v := range vids {
		blks := live[v]
		tails := 0
		for _, b := range blks {
			if pointedTo[b.off] == 0 {
				tails++
			}
		}
		for opts.CrashSafe && tails > 1 {
			// More than one chain end means some block's prev link never
			// became durable — a tail allocated right before the crash,
			// torn mid-header. Such a block cannot hold acknowledged
			// records: a count slot only becomes authoritative through a
			// flush commit, which orders after the barrier that made the
			// whole header (prev included) durable. So every zero-visible
			// dangling block is droppable; kill it durably and rescan (the
			// drop can expose another dangler it pointed to).
			dropped := false
			kept := blks[:0]
			for _, b := range blks {
				if pointedTo[b.off] == 0 && b.cnt == 0 {
					s.killBlock(ctx, b.off, int(b.cap), b.format)
					if b.prev != 0 {
						pointedTo[b.prev]--
					}
					dropped = true
					tails--
					continue
				}
				kept = append(kept, b)
			}
			blks = kept
			if !dropped {
				break
			}
			tails = 0
			for _, b := range blks {
				if pointedTo[b.off] == 0 {
					tails++
				}
			}
		}
		live[v] = blks
		if len(blks) == 0 {
			continue
		}
		for _, b := range blks {
			s.records[v] += b.cnt
			s.blocks++
			s.bytes += headerBytes + 4*int64(b.cap)
			if pointedTo[b.off] == 0 {
				s.tail[v] = b.off
				s.tailCnt[v] = b.cnt
				s.tailCap[v] = b.cap
				s.tailFmt[v] = b.format
				if b.format == fmtVarint && b.cnt > 0 {
					// Rebuild the append cursor (byte extent + delta
					// predecessor) by decoding the acknowledged records. The
					// count slot only became authoritative after the barrier
					// that persisted those payload bytes, so a decode failure
					// here is real corruption: fatal without Checksums; with
					// Checksums keep a best-effort cursor and let the CRC
					// walk below flag the vertex as suspect.
					vr := newVarintReader(func(o int64, p []byte) error {
						m.Read(ctx, o, p)
						return nil
					}, b.off+headerBytes, 4*int64(b.cap), false)
					var decErr error
					for i := uint32(0); i < b.cnt; i++ {
						if _, decErr = vr.next(); decErr != nil {
							break
						}
					}
					if decErr != nil && !opts.Checksums {
						return nil, fmt.Errorf("adj: vertex %d varint tail at %d undecodable: %v", v, b.off, decErr)
					}
					s.tailBytes[v] = uint32(vr.bytesConsumed())
					s.lastVal[v] = vr.last()
				}
			}
		}
		if tails != 1 {
			return nil, fmt.Errorf("adj: vertex %d chain has %d tails (corrupt prev links)", v, tails)
		}
		if !opts.CrashSafe {
			continue
		}
		if opts.Checksums {
			// Rebuild the DRAM mirrors from the acknowledged slot words —
			// never from recomputed media bytes, which would launder any
			// corruption into a self-consistent mirror. Then recompute each
			// payload's CRC from the media and flag disagreements.
			if s.crc == nil {
				s.crc = make(map[int64]uint32)
				s.caps = make(map[int64]uint32)
				s.chains = make(map[graph.VID][]int64)
			}
			byOff := make(map[int64]blk, len(blks))
			for _, b := range blks {
				byOff[b.off] = b
			}
			var chain []int64
			suspect := false
			for off := s.tail[v]; off != 0; {
				b, ok := byOff[off]
				if !ok {
					return nil, fmt.Errorf("adj: vertex %d chain prev link to unknown block %d", v, off)
				}
				chain = append(chain, off)
				s.caps[off] = b.cap
				s.crc[off] = b.crc
				if b.cnt > 0 && !suspect {
					if b.format == fmtVarint {
						vr := newVarintReader(func(o int64, p []byte) error {
							m.Read(ctx, o, p)
							return nil
						}, off+headerBytes, 4*int64(b.cap), true)
						decoded := true
						for i := uint32(0); i < b.cnt; i++ {
							if _, err := vr.next(); err != nil {
								decoded = false
								break
							}
						}
						if !decoded || vr.sum() != b.crc {
							suspect = true
						}
					} else {
						buf := make([]byte, 4*b.cnt)
						m.Read(ctx, off+headerBytes, buf)
						if crc32.Checksum(buf, castagnoli) != b.crc {
							suspect = true
						}
					}
				}
				off = b.prev
			}
			s.chains[v] = chain
			if suspect {
				s.suspects = append(s.suspects, v)
			}
		}
		for _, b := range blks {
			if b.off != s.tail[v] && b.cnt != b.cap {
				// Retired with a count differing from capacity — a fixed
				// block retired before filling up, or any varint block
				// (whose record count is unrelated to cap): pin the visible
				// count so reads stop at it.
				if s.partialCnt == nil {
					s.partialCnt = make(map[int64]uint32)
				}
				s.partialCnt[b.off] = b.cnt
			}
			if b.mismatch {
				// One slot is stale; make sure the next ack cycle rewrites
				// it even if no new records arrive for this block.
				s.pendPrev = append(s.pendPrev, pendEntry{blk: uint32(b.off / headerAlign), cnt: b.cnt})
			}
		}
	}
	sortPend(s.pendPrev) // collected in vertex order; ack cycles merge by offset
	return s, nil
}

// journalRollForward finds the compaction journal among the scanned
// blocks and, if it is armed, idempotently finishes the interrupted
// compaction: commit the staged block, kill every other block of the
// vertex, disarm. It mutates raw in place to match the media.
func (s *Store) journalRollForward(ctx *xpsim.Ctx, m RecoverableMem, raw []rawBlock) error {
	ji := -1
	for i := range raw {
		if raw[i].vid == journalVID {
			if ji >= 0 {
				return fmt.Errorf("adj: two compaction journals (at %d and %d)", raw[ji].off, raw[i].off)
			}
			ji = i
		}
	}
	if ji < 0 {
		return nil
	}
	s.journal = raw[ji].off
	wA := s.journal + headerBytes
	wordA := mem.ReadU64(m, ctx, wA)
	wordB := mem.ReadU64(m, ctx, wA+8)
	if wordB>>32 != journalMagic {
		return nil // not armed: the old chain is authoritative
	}
	v := uint32(wordA)
	newOff := int64(wordA>>32) * headerAlign
	if !s.opts.CrashSafe {
		return fmt.Errorf("adj: armed compaction journal for vertex %d but store is not CrashSafe", v)
	}
	committed := false
	for i := range raw {
		b := &raw[i]
		switch {
		case newOff != 0 && b.off == newOff:
			if b.vid != v && b.vid != deadVID {
				return fmt.Errorf("adj: journal for vertex %d points at block owned by %d", v, b.vid)
			}
			mem.WriteU32(m, ctx, b.off+offVID, v)
			m.Flush(ctx, b.off, headerBytes)
			b.vid = v
			committed = true
		case b.vid == v:
			// Old-chain survivor: finish the kill.
			s.killBlock(ctx, b.off, int(b.capacity), b.format)
			// recycle() already queued it; pass 3 must see it dead but
			// must not queue it twice, so rewrite the raw entry and pull
			// it back out of the free list (pass 3 re-adds it).
			lst := s.freeBlocks[int(b.capacity)]
			s.freeBlocks[int(b.capacity)] = lst[:len(lst)-1]
			b.vid = deadVID
			b.prev = 0
			b.cnt0, b.cnt1 = 0, 0
		}
	}
	if newOff != 0 && !committed {
		return fmt.Errorf("adj: journal for vertex %d points at missing block %d", v, newOff)
	}
	mem.WriteU64(m, ctx, wA+8, 0)
	m.Flush(ctx, wA+8, 8)
	return nil
}
