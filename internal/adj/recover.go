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
	if sw == nil {
		sw = new(xpsim.Sweep)
	}
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
	// Pass 2: complete an armed swap journal.
	if err := s.journalRollForward(ctx, raw); err != nil {
		return nil, err
	}

	// Pass 3: build the index. A live block's count is that of the slot
	// recovery trusts. raw is in offset order, so at finds the block a prev
	// link names; pointed[i] counts the live blocks whose link names raw[i].
	// live lists the live blocks by (vertex, offset): each vertex's blocks
	// are one run of it. The loop names, in vertex order, the vertices whose
	// chain needs the media read again (work): a varint tail whose append
	// cursor the scan could not decode, and, with Checksums, every chain's
	// payload CRCs; one sweep reads them after the loop. A corrupt link ends
	// the loop (broken), but its error comes after any decode error of the
	// tails named before it, as in vertex order.
	at := func(off int64) int {
		if i := sort.Search(len(raw), func(i int) bool { return raw[i].off >= off }); i < len(raw) && raw[i].off == off {
			return i
		}
		return -1
	}
	pointed := make([]int32, len(raw))
	var live []int32
	var top uint32
	var work []rework
	var broken error
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
vertices:
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
				broken = fmt.Errorf("adj: vertex %d block %d links to %d, no block of the vertex (corrupt prev link)", v, b.off, b.prev)
				break vertices
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
				// decode, or, after the loop, one of the records that reach
				// past the header's line.
				if b.decoded {
					t.bytes, t.last = uint32(b.ext.bytes), b.ext.last
				} else {
					work = append(work, rework{v: v, off: b.off, capacity: b.capacity, cnt: t.cnt, lines: lineSpan(b.off, b.size())})
				}
			}
		}
		if tails != 1 {
			broken = fmt.Errorf("adj: vertex %d chain has %d tails (corrupt prev links)", v, tails)
			break vertices
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
		// into a self-consistent mirror. The payload CRCs are recomputed
		// by the sweep, after the vertex's cursor is decoded.
		chain := 0
		for off := s.vx[v].tail; off != 0; {
			if !owns(off) {
				broken = fmt.Errorf("adj: vertex %d chain prev link to unknown block %d", v, off)
				break vertices
			}
			b := &raw[at(off)]
			s.chains[v] = append(s.chains[v], off)
			s.mirror[off] = blockMirror{capacity: b.capacity, crc: b.crc[b.trusted(committed)], format: uint8(b.format)}
			chain += lineSpan(off, b.size())
			off = b.prev
		}
		if k := len(work) - 1; k < 0 || work[k].v != v {
			work = append(work, rework{v: v})
		}
		work[len(work)-1].audit = true
		work[len(work)-1].lines += chain
	}

	// The count slot only became authoritative after the barrier that
	// persisted a tail's payload bytes, so a decode failure is real
	// corruption: fatal without Checksums; with Checksums keep a best-effort
	// cursor and let the CRC walk flag the vertex as suspect.
	s.rereadChains(ctx, sw, walkers, work)
	for _, w := range work {
		if w.err != nil && !opts.Checksums {
			return nil, fmt.Errorf("adj: vertex %d varint tail at %d undecodable: %v", w.v, w.off, w.err)
		}
	}
	if broken != nil {
		return nil, broken
	}
	for _, w := range work {
		if w.suspect {
			s.suspects = append(s.suspects, w.v)
		}
	}
	return s, nil
}

// lineSpan is how many XPLines the n bytes at off span.
func lineSpan(off, n int64) int {
	return int((off+n-1)/xpsim.XPLineSize - off/xpsim.XPLineSize + 1)
}

// rework is one vertex whose chain pass 3 reads again from the media: the
// cnt records of its varint tail at off, which reach past the header's line
// (off 0: none), and, with audit, its payload CRCs. lines weighs it.
type rework struct {
	v             graph.VID
	off           int64
	capacity, cnt uint32
	audit         bool
	lines         int
	err           error // the tail's decode failed
	suspect       bool  // a payload disagrees with its acknowledged CRC
}

// rereadChains runs work in one sweep over walkers workers of sw, bound to
// ctx's node at ctx's contention, each decoding through a reader of its
// own; ctx waits for the slowest. A tail's decode sets its vertex's append
// cursor (byte extent and delta predecessor); the CRC walk then recomputes
// each payload's CRC from the media, newest block first up to the first
// disagreement, reading as far as that cursor says.
func (s *Store) rereadChains(ctx *xpsim.Ctx, sw *xpsim.Sweep, walkers int, work []rework) {
	walkers = max(walkers, 1)
	readers := make([]*reader, walkers)
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.release()
			}
		}
	}()
	dur := sw.Run(s.lat, walkers, ctx.Workers, xpsim.PinnedTo(ctx.Node), len(work),
		func(i int) int { return work[i].lines },
		func(wctx *xpsim.Ctx, i int) {
			w := &work[i]
			if w.off != 0 {
				r := readers[wctx.Worker]
				if r == nil {
					r = s.reader(wctx, false)
					readers[wctx.Worker] = r
				}
				var e extent
				e, w.err = r.decode(w.off, fmtVarint, w.capacity, w.cnt, false, nil)
				s.vx[w.v].bytes, s.vx[w.v].last = uint32(e.bytes), e.last
			}
			if w.audit {
				w.suspect = s.read(wctx, w.v, walkOpts{mirror: true, blind: true}, nil, nil) != nil
			}
		})
	ctx.Cost.Add(int64(dur))
}

// segmentsPerWalker is how many segments the scan cuts an arena into per
// walker when it has more than one: equal stretches of lines are not equal
// work (the first flush's small blocks crowd the arena's start with
// headers), and a Sweep deals the segments to whichever walker is idlest.
// Four a walker took every benchmark workload's recovery down at seed 7,
// where two raised one.
const segmentsPerWalker = 4

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
// contention, over segmentsPerWalker segments of whole XPLines a worker
// (one at one walker), each dealt to the idlest. Segment 0's walk starts
// on the first header. Any other cannot know where a block starts in its
// segment, so its worker probes each headerAlign offset from the segment's
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
	// segmentsPerWalker stretches of whole lines a walker, one for a lone
	// walker (fewer if the arena is shorter).
	segments := int64(walkers)
	if walkers > 1 {
		segments *= segmentsPerWalker
	}
	base := first / xpsim.XPLineSize * xpsim.XPLineSize
	lines := (end - base + xpsim.XPLineSize - 1) / xpsim.XPLineSize
	per := (lines + segments - 1) / segments
	cuts := []int64{first}
	for c := base + per*xpsim.XPLineSize; c < end && per > 0; c += per * xpsim.XPLineSize {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, max(end, first))
	// The walks run on the host in segment order, whichever worker pays
	// for them, so they append to one list in offset order: every visit of
	// segment i lies below cuts[i+1]. The block list is sized once, for as
	// many of the smallest blocks as the arena's lines hold.
	w := walks{blocks: make([]scanned, 0, (end-first)/align(headerBytes+4, headerAlign)+1)}
	if sw == nil {
		sw = new(xpsim.Sweep)
	}
	dur := sw.Run(s.lat, walkers, ctx.Workers, xpsim.PinnedTo(ctx.Node), len(cuts)-1,
		func(i int) int { return int((cuts[i+1] - cuts[i]) / headerAlign) },
		func(wctx *xpsim.Ctx, i int) {
			s.walkSegment(&w, wctx, first, cuts[i], cuts[i+1], end, committed, quarantined)
		})
	ctx.Cost.Add(int64(dur))

	// The join builds its list in place: raw[:n] is the true walk so far,
	// and raw[next:] the visits its cursor has not reached. A block the
	// join reads itself takes the slot of a visit it passed, or is inserted
	// where there is none.
	var r *reader // the join's own reads
	defer func() {
		if r != nil {
			r.release()
		}
	}()
	unreadable := func(off int64, err error) error {
		return fmt.Errorf("adj: block header at %d is unreadable and the scan cannot step over it: %w", off, err)
	}
	raw, stops := w.blocks, w.stops
	n, next := 0, 0
	for off := first; off+headerBytes <= end; {
		for next < len(raw) && raw[next].off < off {
			next++
		}
		for len(stops) > 0 && stops[0].off < off {
			stops = stops[1:]
		}
		switch {
		case next < len(raw) && raw[next].off == off:
			if n < next {
				raw[n] = raw[next]
			}
			next++
		case len(stops) > 0 && stops[0].off == off:
			if stops[0].err != nil {
				return nil, 0, unreadable(off, stops[0].err)
			}
			return raw[:n], off, nil
		default:
			if r == nil {
				r = s.reader(ctx, s.opts.Checksums)
			}
			v := s.visitAt(r, off, end, committed, quarantined)
			switch {
			case v.err != nil:
				return nil, 0, unreadable(off, v.err)
			case v.stop:
				return raw[:n], off, nil
			case n == next:
				raw = slices.Insert(raw, n, v.scanned)
				next++
			default:
				raw[n] = v.scanned
			}
		}
		off = align(off+raw[n].size(), headerAlign)
		n++
	}
	return raw[:n], end, nil
}

// walks is what the scan's walkers found, in offset order: the blocks, and
// the headers that end a run.
type walks struct {
	blocks []scanned
	stops  []stop
}

// stop is a header that ends a walk at off — at the frontier, or, with
// err, unreadable.
type stop struct {
	off int64
	err error
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
// [lo, hi) of an arena whose blocks lie in [first, end) and appends what it
// finds to w in offset order. The first segment starts on the true walk;
// any other walker probes for a block's start (starts). A run's stop is
// kept, and ends the walk on the true walk; a failed probe is not kept.
func (s *Store) walkSegment(w *walks, ctx *xpsim.Ctx, first, lo, hi, end int64, committed uint32, quarantined map[int64]bool) {
	r := s.reader(ctx, s.opts.Checksums)
	defer r.release()
	sure := lo == first
	onWalk := sure
	for off := lo; off < hi && off+headerBytes <= end; {
		v := s.visitAt(r, off, end, committed, quarantined)
		if !v.stop && (onWalk || s.starts(r, &v.header, first, end, committed)) {
			w.blocks = append(w.blocks, v.scanned)
			off, onWalk = align(off+v.size(), headerAlign), true
			continue
		}
		if v.stop && onWalk {
			w.stops = append(w.stops, stop{off, v.err})
			if sure {
				break
			}
		}
		off, onWalk = off+headerAlign, false
	}
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
