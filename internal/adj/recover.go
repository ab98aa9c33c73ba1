package adj

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
	// ext is what the visible records of a varint block consume, when the
	// scan decoded them from its header's window (decoded).
	ext     extent
	decoded bool
}

// RecoverWith rebuilds the DRAM index (tails, counts, degrees) by scanning
// the arena from its start to the persisted allocation pointer. Chains come
// back because each block persists its prev link; the tail of a chain is
// the one block no other block points to (offset order is not enough once
// compaction recycles blocks).
//
// The header walk is split over walkers workers of sw (nil: a Sweep of its
// own), bound to ctx's node at ctx's contention, one segment of the arena
// each; a serial join on ctx makes their walks the one block list a serial
// walk finds (scan). ctx's clock waits for the slowest walker. The rest of
// the recovery is serial, on ctx. At one walker the scan is the serial walk.
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
func RecoverWith(ctx *xpsim.Ctx, sw *xpsim.Sweep, walkers int, m RecoverableMem, lat *xpsim.LatencyModel, opts Options, committed uint32, quarantined map[int64]bool) (*Store, error) {
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

	// Pass 1: parse the arena (scan). The frontier: everything from it on
	// was allocated after the last writeback barrier and never became
	// durably reachable, so it holds no acknowledged records. Zero it (so a
	// later recovery cannot parse leftover bytes as a block) and hand it
	// back to the allocator.
	raw, frontier, err := s.scan(ctx, sw, walkers, align(m.UserStart(), headerAlign), end, committed, quarantined)
	if err != nil {
		return nil, err
	}
	if frontier < end {
		m.Write(ctx, frontier, make([]byte, end-frontier))
		m.Flush(ctx, frontier, end-frontier)
		m.RewindAlloc(ctx, frontier)
	}
	// Pass 3 rebuilds varint append cursors from the media, after the
	// frontier write and the kills rewrote scanned lines.
	r := s.reader(ctx, false)
	defer r.release()

	// Pass 2: complete an armed swap journal.
	if err := s.journalRollForward(ctx, raw); err != nil {
		return nil, err
	}

	// Pass 3: build the index. A live block's count is that of the slot
	// recovery trusts. raw is in offset order, so at finds the block a prev
	// link names; pointed[i] counts the live blocks whose link names raw[i].
	// live lists the live blocks by (vertex, offset): each vertex's blocks
	// are one run of it.
	at := func(off int64) int {
		if i := sort.Search(len(raw), func(i int) bool { return raw[i].off >= off }); i < len(raw) && raw[i].off == off {
			return i
		}
		return -1
	}
	pointed := make([]int32, len(raw))
	var live []int32
	var top uint32
	for i := range raw {
		b := &raw[i]
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
		live = append(live, int32(i))
		top = max(top, b.vid+1)
		if j := at(b.prev); b.prev != 0 && j >= 0 {
			pointed[j]++
		}
	}
	s.EnsureVertices(graph.VID(top))
	// Deterministic vertex order: pruning below writes to the device, and
	// must not depend on where the blocks lie.
	slices.SortFunc(live, func(a, b int32) int { return cmp.Or(cmp.Compare(raw[a].vid, raw[b].vid), cmp.Compare(a, b)) })
	for lo := 0; lo < len(live); {
		v := graph.VID(raw[live[lo]].vid)
		hi := lo + 1
		for hi < len(live) && raw[live[hi]].vid == uint32(v) {
			hi++
		}
		blks := live[lo:hi]
		lo = hi
		// owns reports whether off is a block of v that is still live.
		owns := func(off int64) bool {
			j := at(off)
			return j >= 0 && raw[j].vid == uint32(v)
		}
		countTails := func() (n int) {
			for _, i := range blks {
				if pointed[i] == 0 {
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
		tails := countTails()
		for {
			kept := blks[:0]
			for _, i := range blks {
				b := &raw[i]
				dangling := tails > 1 && pointed[i] == 0
				broken := b.prev != 0 && !owns(b.prev)
				if b.visible != 0 || !dangling && !broken {
					kept = append(kept, i)
					continue
				}
				s.killBlock(ctx, b.off, int(b.capacity), uint8(b.format))
				b.vid = deadVID
				if j := at(b.prev); b.prev != 0 && j >= 0 {
					pointed[j]--
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
		for _, i := range blks {
			b := &raw[i]
			if b.prev != 0 && !owns(b.prev) {
				return nil, fmt.Errorf("adj: vertex %d block %d links to %d, no block of the vertex (corrupt prev link)", v, b.off, b.prev)
			}
			s.vx[v].records += b.visible
			s.blocks++
			s.bytes += b.size()
			if pointed[i] != 0 {
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
				// predecessor) from the acknowledged records: the scan's
				// decode, or one now of the records that reach past the
				// header's line. The count slot only became authoritative
				// after the barrier that persisted those payload bytes, so a
				// decode failure here is real corruption: fatal without
				// Checksums; with Checksums keep a best-effort cursor and
				// let the CRC walk below flag the vertex as suspect.
				e := b.ext
				if !b.decoded {
					if e, err = r.decode(b.off, b.format, b.capacity, t.cnt, false, nil); err != nil && !opts.Checksums {
						return nil, fmt.Errorf("adj: vertex %d varint tail at %d undecodable: %v", v, b.off, err)
					}
				}
				t.bytes, t.last = uint32(e.bytes), e.last
			}
		}
		if tails != 1 {
			return nil, fmt.Errorf("adj: vertex %d chain has %d tails (corrupt prev links)", v, tails)
		}
		for _, i := range blks {
			b := &raw[i]
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
		for off := s.vx[v].tail; off != 0; {
			if !owns(off) {
				return nil, fmt.Errorf("adj: vertex %d chain prev link to unknown block %d", v, off)
			}
			b := &raw[at(off)]
			s.chains[v] = append(s.chains[v], off)
			s.mirror[off] = blockMirror{capacity: b.capacity, crc: b.crc[b.trusted(committed)], format: uint8(b.format)}
			off = b.prev
		}
		if s.read(ctx, v, walkOpts{mirror: true, blind: true}, nil, nil) != nil {
			s.suspects = append(s.suspects, v)
		}
	}
	return s, nil
}

// scan is pass 1 of RecoverWith: it parses the arena's blocks from first,
// where the first block's header lies, up to end, and returns them in
// offset order with the frontier, the first offset whose header cannot head
// a block (end if the blocks fill the arena).
//
// A Checksums store reads its headers through the media-error-checked path:
// a header on an uncorrectable line is scrambled bytes, and taking it for
// the frontier would silently drop every acknowledged block behind it. The
// scan cannot step over a block it cannot size, so it fails typed — unless
// a scrub already rewrote the header and quarantined the block (the line
// keeps its poison mark). Consecutive headers in one line are parsed from
// the window the first of them fetched, so the scan reads each header line
// once. A varint block's visible records that lie in that window are
// decoded from it, with no device read: pass 3 takes a tail's append cursor
// from there.
//
// The walk runs on walkers workers of sw, bound to ctx's node at ctx's
// contention, one segment of whole XPLines each. Segment 0's worker starts
// on the first header. Every other worker cannot know where a block starts
// in its segment, so it probes each headerAlign offset from the segment's
// start until a header is plausible and starts accepts it, and walks on
// from there as the serial scan would; a header that ends its run
// (implausible, or unreadable and not quarantined) is noted, and probing
// resumes headerAlign bytes on. The walks only read. Then the join, on ctx,
// follows the true walk from first: at an offset some walker visited it
// takes that walker's verdict, and anywhere else it reads the header
// itself, until it lands on a visited offset again. So the join's block
// list is the serial walk's whatever the walkers guessed, and at one
// walker it is the serial walk.
func (s *Store) scan(ctx *xpsim.Ctx, sw *xpsim.Sweep, walkers int, first, end int64, committed uint32, quarantined map[int64]bool) ([]scanned, int64, error) {
	walkers = max(walkers, 1)
	// Segment i is [cuts[i], cuts[i+1]): the lines past first's, cut into
	// walkers stretches of whole lines (fewer if the arena is shorter).
	base := first / xpsim.XPLineSize * xpsim.XPLineSize
	lines := (end - base + xpsim.XPLineSize - 1) / xpsim.XPLineSize
	per := (lines + int64(walkers) - 1) / int64(walkers)
	cuts := []int64{first}
	for c := base + per*xpsim.XPLineSize; c < end && per > 0; c += per * xpsim.XPLineSize {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, max(end, first))
	// The walks run on the host in segment order, whichever worker pays
	// for them, so they append to one list in offset order: every visit of
	// segment i lies below cuts[i+1].
	var memo []visit
	if sw == nil {
		sw = new(xpsim.Sweep)
	}
	dur := sw.Run(s.lat, walkers, ctx.Workers, xpsim.PinnedTo(ctx.Node), len(cuts)-1,
		func(i int) int { return int((cuts[i+1] - cuts[i]) / headerAlign) },
		func(wctx *xpsim.Ctx, i int) {
			memo = s.walkSegment(memo, wctx, first, cuts[i], cuts[i+1], end, committed, quarantined)
		})
	ctx.Cost.Add(int64(dur))

	// The join, whose cursor climbs memo.
	var r *reader // the join's own reads
	defer func() {
		if r != nil {
			r.release()
		}
	}()
	raw := make([]scanned, 0, len(memo))
	next := 0
	for off := first; off+headerBytes <= end; {
		for next < len(memo) && memo[next].off < off {
			next++
		}
		var read visit
		v := &read
		if next < len(memo) && memo[next].off == off {
			v = &memo[next]
		} else {
			if r == nil {
				r = s.reader(ctx, s.opts.Checksums)
			}
			read = s.visitAt(r, off, end, committed, quarantined)
		}
		switch {
		case v.err != nil:
			return nil, 0, fmt.Errorf("adj: block header at %d is unreadable and the scan cannot step over it: %w", off, v.err)
		case v.stop:
			return raw, off, nil
		}
		raw = append(raw, v.scanned)
		off = align(off+v.size(), headerAlign)
	}
	return raw, end, nil
}

// visit is what the scan found at one offset: a block, or the header that
// ends a walk there — at the frontier, or, with err, unreadable.
type visit struct {
	scanned
	stop bool
	err  error
}

// visitAt parses the header at off the way the scan takes it.
func (s *Store) visitAt(r *reader, off, end int64, committed uint32, quarantined map[int64]bool) visit {
	h, err := r.header(off)
	if err != nil && !quarantined[off] {
		return visit{scanned: scanned{off: off}, stop: true, err: err}
	}
	if !h.plausible(off, end, committed) {
		return visit{scanned: scanned{off: off}, stop: true}
	}
	b := scanned{off: off, header: h, visible: h.cnt[h.trusted(committed)]}
	if err == nil && b.format == fmtVarint && b.visible > 0 {
		r.local = true
		b.ext, err = r.decode(off, b.format, b.capacity, b.visible, false, nil)
		r.local, b.decoded = false, err == nil
	}
	return visit{scanned: b}
}

// walkSegment is one scan walker: it walks the headers that start in
// [lo, hi) of an arena whose blocks lie in [first, end) and appends its
// visits to out in offset order. The first segment starts on the true
// walk; any other walker probes for a block's start (starts). A run's stop
// is kept, and ends the walk on the true walk; a failed probe is not kept.
func (s *Store) walkSegment(out []visit, ctx *xpsim.Ctx, first, lo, hi, end int64, committed uint32, quarantined map[int64]bool) []visit {
	r := s.reader(ctx, s.opts.Checksums)
	defer r.release()
	sure := lo == first
	onWalk := sure
	for off := lo; off < hi && off+headerBytes <= end; {
		v := s.visitAt(r, off, end, committed, quarantined)
		if !v.stop && (onWalk || s.starts(r, &v.header, first, end, committed)) {
			out = append(out, v)
			off, onWalk = align(off+v.size(), headerAlign), true
			continue
		}
		if v.stop && onWalk {
			out = append(out, v)
			if sure {
				break
			}
		}
		off, onWalk = off+headerAlign, false
	}
	return out
}

// starts reports whether a plausible header a probe found is likely a
// block's start rather than payload that passes for one: payload under a
// bogus size would lead the walk past the blocks it covers. A store
// without checksums leaves both CRC words zero; a block's prev link names a
// block of the same vertex, which costs the probe one more header read;
// and a live block with no link, no stamp and no count is what the last
// records of a payload before its zeroed tail look like. A start it turns
// down costs only the join's reads.
func (s *Store) starts(r *reader, h *header, first, end int64, committed uint32) bool {
	switch {
	case !s.opts.Checksums && h.crc != [2]uint32{}:
		return false
	case h.prev == 0:
		return h.vid == deadVID || h.epoch != 0 || h.cnt != [2]uint32{}
	case h.prev < first || h.prev+headerBytes > end:
		return false
	}
	p, err := r.header(h.prev)
	return err == nil && p.vid == h.vid && p.plausible(h.prev, end, committed)
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
