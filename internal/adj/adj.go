// Package adj implements persistent adjacency lists: per-vertex chains of
// neighbor blocks in PMEM (in DRAM for the volatile variants). Blocks carry
// a persisted, self-describing header (header.go: the one file that knows
// its layout) so a recovering process can rebuild every chain with one
// sequential scan of the arena — the recovery scheme of §V-D. Every read of
// a chain goes through one walker and one block decoder (walk.go), which
// fetch each XPLine of a block once: the header read brings the rest of its
// line, and the records there come from that copy. Compaction and scrub
// repair share one journaled chain swap (swap.go).
//
// XPGraph appends whole drained vertex buffers (up to 63 neighbors) as one
// contiguous write — the single-XPLine flush of §III-B — while GraphOne's
// edge-centric archiving appends one 4-byte neighbor at a time; both paths
// go through Append, so the amplification difference between the two
// systems emerges purely from access patterns, as in the paper.
//
// # Crash safety
//
// The header carries TWO count slots and a stamp naming one of them and the
// flush epoch that chose it (header.go). The edge log commits epochs with a
// single 8-byte store (elog.Log.Commit); once epoch E has committed, a
// block's current slot is the one its stamp names — unless the stamp names
// E+1, the running epoch, whose change may never commit: then it is the
// other one. A block's first count change in an epoch goes into its other
// slot and stamps the header with that slot and the epoch; later changes in
// the same epoch rewrite the same slot, and a block left alone afterwards
// needs no further write. An append whose records start in the XPLine of
// that slot writes the count (and the stamp) itself — a new block's header,
// stamp, count and first records are one contiguous write — so the count
// rides to the media with the records. A flush drain's FillTail writes the
// count just before the records wherever they start. A flushing phase's
// workers call Ack to write what is left: the counts of blocks an Append
// left after its tail had moved on to another line. The caller makes
// everything durable with a machine-wide writeback barrier and then
// commits the epoch. A crash anywhere before the
// commit leaves every committed count current and every uncommitted record
// invisible; replaying the log window [flushed, head) then restores the
// uncommitted records exactly once, with no content-based dedup.
package adj

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/xpsim"
)

// Sizing decides the capacity (in neighbors) of a new block for a vertex
// that already stores `degree` records and is receiving `incoming` more.
type Sizing func(degree, incoming int) int

// xpGraphSizing grows blocks with the vertex: small vertices get small
// blocks, hot vertices get room to absorb future flushes (amortizing
// block-chain overhead), capped at 1024 neighbors per block.
func xpGraphSizing(degree, incoming int) int {
	return max(min(max(degree/2, 12), 1024), incoming)
}

// exactSizing allocates exactly the incoming count (no growth headroom).
func exactSizing(_, incoming int) int { return incoming }

// GraphOneSizing models GraphOne's adjacency chunks, which grow
// geometrically with the vertex degree (its store chains chunks of
// increasing sizes): a degree-d vertex's next chunk holds ~d more
// neighbors, so chains stay logarithmic in degree and queries touch a
// handful of chunks — Fig. 14's one-hop numbers are comparable between
// the systems for exactly this reason. What stays pathological on PMEM is
// the write pattern: archiving still fills these chunks one 4-byte
// neighbor at a time.
func GraphOneSizing(degree, incoming int) int {
	c := 4
	for c < degree {
		c *= 2
	}
	return max(min(c, 1024), incoming)
}

// Options configure a Store.
type Options struct {
	Sizing         Sizing
	ProactiveFlush bool // clwb adjacency data >= one XPLine (§IV-A)
	// Counts is who writes the count slots (header.go's countRules).
	Counts CountPolicy
	// CrashSafe is the older spelling of Counts: CountsAcked. New folds it
	// into Counts and panics when Counts names another policy beside it.
	CrashSafe bool
	// Checksums turns the two spare header words into per-slot CRC32-C
	// checksums of the visible payload (see check.go): Ack persists
	// {cnt, crc} as one 8-byte powerfail-atomic word, checked walks verify
	// payloads against DRAM mirrors, and recovery flags blocks whose media
	// bytes disagree with the acknowledged checksum. Requires CountsAcked
	// (the checksum lifecycle rides the Ack slots).
	Checksums bool
	// VarintBlocks makes NEW blocks use the delta-varint payload encoding
	// (varint.go) instead of fixed 4-byte neighbor slots. The format is
	// negotiated per block through the header's format word, so chains may
	// mix formats freely: a store recovered from fixed-width media keeps
	// reading its old blocks while appending compressed ones.
	VarintBlocks bool
}

// normalized folds CrashSafe into Counts and rejects what the count rules
// leave invalid.
func (o Options) normalized() (Options, error) {
	if o.CrashSafe && o.Counts == CountsAtAppend {
		o.Counts = CountsAcked
	}
	switch {
	case o.CrashSafe && o.Counts != CountsAcked:
		return o, fmt.Errorf("adj: CrashSafe spells the acked count policy, Counts says %v", o.Counts)
	case o.Checksums && !o.Counts.Acked():
		return o, fmt.Errorf("adj: Checksums require the acked count policy (the CRC lifecycle rides the Ack slots), not %v", o.Counts)
	}
	if o.Sizing == nil {
		o.Sizing = xpGraphSizing
	}
	return o, nil
}

// vertex is one vertex's entry in the DRAM index: where its chain ends and
// the append cursor inside that tail block. All rebuilt by recovery.
type vertex struct {
	tail     int64  // offset of the newest block; 0 = none
	cnt      uint32 // DRAM mirror of the tail block's cnt
	capacity uint32 // DRAM mirror of the tail block's cap
	records  uint32 // total records (incl. tombstones)
	// Delta-varint tail state (varint.go): the byte cursor inside the tail
	// block's payload and the delta predecessor for the next record.
	bytes  uint32
	last   uint32
	format uint8 // the tail block's payload format
	// stamp is the tail block's stamp as the store knows it (header.go):
	// stampSel, and stampOnMedia once the running epoch's stamp is on the
	// media too (until then Ack owes it). run is the runTag of the epoch
	// that stamped the block, 0 for none: the stamp is the running epoch's
	// when run is its tag. Both fit the index's padding.
	stamp uint8
	run   uint16
}

const (
	stampSel = 1 << iota
	stampOnMedia
)

// runTag names flush epoch e in a vertex's run field: 1..0xFFFF, cycling.
// The Ack that opens an epoch tagged 1 zeroes every run field, so a tag
// never names an epoch 0xFFFF back.
func runTag(e uint32) uint16 { return uint16(e%0xFFFF) + 1 }

// Store is one adjacency arena: one direction (out or in) of one
// partition of the graph.
type Store struct {
	m    mem.Mem
	lat  *xpsim.LatencyModel
	opts Options

	vx     []vertex // the per-vertex index
	blocks int64    // blocks allocated
	bytes  int64    // bytes allocated
	// encBytes/encRecs count payload bytes and records written through
	// the append and compaction paths, per format — the obs feed for
	// edges-per-XPLine accounting.
	encBytes [2]int64
	encRecs  [2]int64
	// Write-path scratch: the payload encode buffer, a block header and a
	// stamp and count. Stack buffers would escape through the mem.Mem
	// interface and cost one allocation per store; writers are exclusive,
	// so one set per Store serves every append and ack (readers never touch
	// it).
	encScratch  []byte
	hdrScratch  [headerBytes]byte
	wordScratch [stampCountBytes]byte
	// partialCnt records counts of retired-but-not-full blocks; retired
	// blocks are otherwise exactly full. Reads take every count from DRAM:
	// a persisted slot lags it under every policy but CountsAtAppend.
	partialCnt map[int64]uint32
	// freeBlocks recycles compacted-away blocks by capacity, so repeated
	// compaction does not leak the bump-allocated arena.
	freeBlocks map[int][]int64

	// pendCur tracks blocks whose DRAM count is ahead of their slot on the
	// media: an append log of the running epoch, one entry per append run
	// (duplicates allowed). Ack sorts it once by offset into ackList — the
	// write order — keeping each block's highest count, less those whose count
	// the appends already wrote (pendCounted). ackLeft counts the workers of
	// the running cycle still to call Ack. epoch is the running flush epoch:
	// the one after the edge log's committed epoch.
	pendCur []pendEntry
	ackList []pendEntry
	ackLeft int
	epoch   uint32
	journal int64 // offset of the swap journal block; 0 = none

	// Checksum state (check.go; populated only with opts.Checksums):
	// mirror remembers every live block's capacity, format and the running
	// CRC32-C of its appended payload, chains the newest-first block layout
	// per vertex — so verification and repair never have to trust a
	// possibly-corrupt on-media header. suspects collects vertices whose
	// media payload disagreed with the acknowledged checksum at Recover.
	mirror   map[int64]blockMirror
	chains   map[graph.VID][]int64
	suspects []graph.VID
}

// New builds a store over m for vertices [0, maxV]. It panics on options
// that Options.normalized rejects.
func New(m mem.Mem, lat *xpsim.LatencyModel, maxV graph.VID, opts Options) *Store {
	opts, err := opts.normalized()
	if err != nil {
		panic(err)
	}
	// A fresh edge log has committed epoch 0.
	s := &Store{m: m, lat: lat, opts: opts, epoch: 1,
		partialCnt: make(map[int64]uint32), freeBlocks: make(map[int][]int64)}
	if opts.Checksums {
		s.mirror, s.chains = make(map[int64]blockMirror), make(map[graph.VID][]int64)
	}
	s.EnsureVertices(maxV + 1)
	return s
}

// Mem exposes the backing memory.
func (s *Store) Mem() mem.Mem { return s.m }

// EnsureVertices grows the index to hold at least n vertices.
func (s *Store) EnsureVertices(n graph.VID) {
	if int(n) > len(s.vx) {
		s.vx = append(s.vx, make([]vertex, int(n)-len(s.vx))...)
	}
}

// NumVertices reports the index size.
func (s *Store) NumVertices() graph.VID { return graph.VID(len(s.vx)) }

// Records reports how many neighbor records (including deletion
// tombstones) vertex v stores.
func (s *Store) Records(v graph.VID) int {
	if int(v) >= len(s.vx) {
		return 0
	}
	return int(s.vx[v].records)
}

// Has reports whether vertex v owns a block in this arena, visible records
// or not.
func (s *Store) Has(v graph.VID) bool { return int(v) < len(s.vx) && s.vx[v].tail != 0 }

// Blocks reports total allocated blocks.
func (s *Store) Blocks() int64 { return s.blocks }

// Bytes reports total allocated block bytes (the paper's "Pblk" usage).
func (s *Store) Bytes() int64 { return s.bytes }

// EncodingStats reports cumulative payload bytes and records written
// through the append and compaction paths, per block format — the feed
// behind the xpgraph_adj_encoded_* metrics and the edges-per-XPLine
// accounting (records / (bytes/256)).
type EncodingStats struct {
	FixedBytes, FixedRecords   int64
	VarintBytes, VarintRecords int64
}

// Encoding reports the store's cumulative encoding statistics.
func (s *Store) Encoding() EncodingStats {
	return EncodingStats{
		FixedBytes:    s.encBytes[fmtFixed],
		FixedRecords:  s.encRecs[fmtFixed],
		VarintBytes:   s.encBytes[fmtVarint],
		VarintRecords: s.encRecs[fmtVarint],
	}
}

// rule is the store's row of the count rules.
func (s *Store) rule() countRule { return countRules[s.opts.Counts] }

// pendEntry is one block whose count slot on the media lags its DRAM count.
// The block is named the way prev links name it, in headerAlign units, and
// its count shares a word with flags, which keeps an entry to 8 bytes: the
// list holds every block a flush cycle touched.
type pendEntry struct {
	blk  uint32
	word uint32 // the record count, pendCounted, and the stamp's sel and format
}

// A block holds fewer than maxBlockRecords records (allocBlock bounds its
// capacity), so the top three bits of a pending count are flags: whether
// the append wrote the count itself, and the stamp's slot and format.
const (
	pendCounted     = uint32(1) << 31
	pendSelBit      = 30
	pendFmtBit      = 29
	maxBlockRecords = uint32(1) << pendFmtBit
)

func (e pendEntry) off() int64  { return int64(e.blk) * headerAlign }
func (e pendEntry) cnt() uint32 { return e.word % maxBlockRecords }

// pendAdd notes that block off's count slot sel on the media no longer
// holds its DRAM count cnt; counted says the append wrote it there itself.
func (s *Store) pendAdd(off int64, cnt uint32, sel, format uint8, counted bool) {
	blk := uint32(off / headerAlign)
	cnt |= uint32(sel)<<pendSelBit | uint32(format)<<pendFmtBit
	if counted {
		cnt |= pendCounted
	}
	if n := len(s.pendCur); n > 0 && s.pendCur[n-1].blk == blk {
		s.pendCur[n-1].word = cnt
		return
	}
	if len(s.pendCur) == cap(s.pendCur) {
		// Double: append's 1.25x steps for large slices would allocate
		// five times the final size on the way there.
		s.pendCur = slices.Grow(s.pendCur, max(len(s.pendCur), 64))
	}
	s.pendCur = append(s.pendCur, pendEntry{blk: blk, word: cnt})
}

// pendDrop forgets a block that is being killed: its offset may be handed
// to a new owner, whose slots a stale count must never reach.
func (s *Store) pendDrop(off int64) {
	blk := uint32(off / headerAlign)
	if len(s.pendCur) > 0 {
		// Rare: kills follow a flushing phase, which leaves pendCur empty.
		s.pendCur = slices.DeleteFunc(s.pendCur, func(e pendEntry) bool { return e.blk == blk })
	}
}

// Append stores nbrs for vertex v. Contiguous neighbors are written with
// a single memory operation, so a 63-neighbor vertex-buffer flush costs
// one XPLine-sized write while single-neighbor appends behave like
// GraphOne's scattered 4-byte stores. The tail block's format decides
// the payload encoding; insertion order is preserved in both formats
// (snapshot-bounded reads take record-count prefixes of it).
func (s *Store) Append(ctx *xpsim.Ctx, v graph.VID, nbrs []uint32) error {
	if s.epoch > maxEpoch && s.rule().ack {
		return errEpochBound
	}
	s.EnsureVertices(v + 1)
	for len(nbrs) > 0 {
		n := 0
		if s.vx[v].tail != 0 {
			n = s.appendTail(ctx, v, nbrs, false)
		}
		if n == 0 {
			// No tail block, or a full one (fixed: no free slot; varint: the
			// next record's encoding does not fit the byte budget).
			var err error
			if n, err = s.newBlock(ctx, v, len(nbrs), nbrs); err != nil {
				return err
			}
		}
		nbrs = nbrs[n:]
	}
	return nil
}

// encodeRun appends to buf the payload encoding of the longest prefix of
// nbrs that fits the free bytes of a block of the given format. prev is the
// block's last record so far, the predecessor of a varint block's delta
// chain. It returns the extended buffer, the length of the prefix and the
// new last record.
func encodeRun(buf []byte, format uint8, free int, prev uint32, nbrs []uint32) ([]byte, int, uint32) {
	if format != fmtVarint {
		n := min(len(nbrs), max(free, 0)/4)
		for _, nb := range nbrs[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, nb)
		}
		return buf, n, prev
	}
	n := 0
	for _, val := range nbrs {
		var k int
		if buf, k = putVarintRec(buf, prev, val); k > free {
			buf = buf[:len(buf)-k]
			break
		}
		free -= k
		prev = val
		n++
	}
	return buf, n, prev
}

// TailFit reports the offset of v's tail block and whether it has room
// for another record: a fixed block a free slot, a varint block a free
// byte (FillTail may still find the next record's encoding too long). A
// flush drain fills such tails first, in the order of their offsets.
func (s *Store) TailFit(v graph.VID) (off int64, room bool) {
	if int(v) >= len(s.vx) || s.vx[v].tail == 0 {
		return 0, false
	}
	t := &s.vx[v]
	if t.format == fmtVarint {
		return t.tail, t.bytes < 4*t.capacity
	}
	return t.tail, t.cnt < t.capacity
}

// FillTail writes as many of nbrs as fit v's tail block and returns how
// many it stored; the rest need new blocks, which Append opens. Unlike an
// Append, it writes the block's count (and the stamp the media lacks)
// whichever XPLine the records start in, before them: a drain that fills
// tails in offset order then writes each block's lines in one ascending
// sweep, and Ack owes the block nothing.
func (s *Store) FillTail(ctx *xpsim.Ctx, v graph.VID, nbrs []uint32) (int, error) {
	if s.epoch > maxEpoch && s.rule().ack {
		return 0, errEpochBound
	}
	if int(v) >= len(s.vx) || s.vx[v].tail == 0 {
		return 0, nil
	}
	return s.appendTail(ctx, v, nbrs, true), nil
}

// appendTail writes as many of nbrs as fit v's tail block with a single
// memory operation — fixed slots, or one delta chain continued from the
// block's last record — and returns how many it stored. Under the acked
// policy the count follows the records when it shares their first XPLine;
// force writes it, wherever it lies, before them.
func (s *Store) appendTail(ctx *xpsim.Ctx, v graph.VID, nbrs []uint32, force bool) int {
	t := &s.vx[v]
	blk, format := t.tail, t.format
	used := 4 * t.cnt
	if format == fmtVarint {
		used = t.bytes
	}
	enc, n, last := encodeRun(s.encScratch[:0], format, int(4*t.capacity)-int(used), t.last, nbrs)
	s.encScratch = enc[:0]
	if n == 0 {
		return 0
	}
	off := blk + headerBytes + int64(used)
	if !force {
		s.m.Write(ctx, off, enc)
	}
	if s.opts.Checksums {
		m := s.mirror[blk]
		m.crc = crc32.Update(m.crc, castagnoli, enc)
		s.mirror[blk] = m
	}
	t.bytes = used + uint32(len(enc))
	t.last = last
	t.cnt += uint32(n)
	switch s.rule().atAppend {
	case slotEpoch:
		// The count becomes durable through a flush epoch; recovery replays
		// anything not yet committed. A block's first change in the epoch
		// turns to its other slot — the current one must survive a crash
		// before the commit — and later ones rewrite it. When that slot
		// shares the records' XPLine, or force says so, the count (and the
		// stamp, if the media lacks it) goes to the media here and now, and
		// Ack has nothing left to write for this block.
		if tag := runTag(s.epoch); t.run != tag {
			t.stamp, t.run = t.stamp&stampSel^stampSel, tag
		}
		sel := t.stamp & stampSel
		counted := force || (blk+slotOff(int(sel)))/xpsim.XPLineSize == off/xpsim.XPLineSize
		if counted {
			s.putCount(ctx, blk, t.format, sel, t.stamp&stampOnMedia == 0, t.cnt)
			t.stamp |= stampOnMedia
		}
		s.pendAdd(blk, t.cnt, sel, t.format, counted)
	case slot0:
		s.putCount(ctx, blk, t.format, 0, false, t.cnt)
	}
	if force {
		s.m.Write(ctx, off, enc)
	}
	s.commitAppend(ctx, v, off, enc, n)
	return n
}

// commitAppend is the shared tail of an append run — n records, encoded as
// enc, written at off: proactive flushing and record accounting.
func (s *Store) commitAppend(ctx *xpsim.Ctx, v graph.VID, off int64, enc []byte, n int) {
	if s.opts.ProactiveFlush && len(enc) >= xpsim.XPLineSize {
		s.m.Flush(ctx, off, int64(len(enc)))
	}
	s.vx[v].records += uint32(n)
	s.encBytes[s.vx[v].format] += int64(len(enc))
	s.encRecs[s.vx[v].format] += int64(n)
}

// Reserve ensures v's tail block has room for at least n more neighbors,
// allocating a fresh block sized by the sizing policy otherwise. GraphOne's
// archiving uses it to allocate each vertex's per-batch chunk up front
// (degree counting pass, §II-B) before appending neighbors one by one.
// The capacity check is exact for fixed-width blocks and conservative
// (worst-case record size) for varint tails; GraphOne stores never
// enable VarintBlocks, and Append handles overflow either way.
func (s *Store) Reserve(ctx *xpsim.Ctx, v graph.VID, n int) error {
	s.EnsureVertices(v + 1)
	if t := &s.vx[v]; t.tail != 0 {
		if t.format == fmtVarint {
			if (int(4*t.capacity)-int(t.bytes))/maxVarintRec >= n {
				return nil
			}
		} else if int(t.capacity-t.cnt) >= n {
			return nil
		}
	}
	_, err := s.newBlock(ctx, v, n, nil)
	return err
}

// blockCnt resolves a block's record count from the DRAM index.
func (s *Store) blockCnt(v graph.VID, off int64, capacity uint32) uint32 {
	if off == s.vx[v].tail {
		return s.vx[v].cnt
	}
	if c, ok := s.partialCnt[off]; ok {
		return c
	}
	return capacity // retired blocks are full unless recorded otherwise
}

// allocBlock grabs a block of the given capacity from the free list or
// the arena, without writing its header.
func (s *Store) allocBlock(ctx *xpsim.Ctx, v graph.VID, capacity int) (int64, error) {
	if 4*int64(capacity) >= int64(maxBlockRecords) {
		// A varint block holds up to 4*cap records.
		return 0, fmt.Errorf("adj: block for vertex %d: capacity %d is beyond the format's %d records", v, capacity, maxBlockRecords)
	}
	size := int64(headerBytes + 4*capacity)
	var off int64
	if lst := s.freeBlocks[capacity]; len(lst) > 0 {
		off = lst[len(lst)-1]
		s.freeBlocks[capacity] = lst[:len(lst)-1]
		s.bytes -= size // re-added below; recycled blocks are not new bytes
		s.blocks--
	} else {
		var err error
		off, err = s.m.Alloc(ctx, size, headerAlign)
		if err != nil {
			return 0, fmt.Errorf("adj: block for vertex %d: %w", v, err)
		}
	}
	s.blocks++
	s.bytes += size
	return off, nil
}

// newBlock makes a fresh block v's tail, sized for incoming more records,
// and stores as many of first as fit it, returning how many. Header, count
// and records leave as one contiguous write: a block's first append costs
// the device one access, not three.
func (s *Store) newBlock(ctx *xpsim.Ctx, v graph.VID, incoming int, first []uint32) (int, error) {
	// Retire the old tail. A fixed block whose count equals its capacity
	// needs no DRAM record — blockCnt's fallback is exact — but a varint
	// block's record count is unrelated to cap (cnt can exceed it), so
	// retired varint tails always keep their count in partialCnt.
	t := &s.vx[v]
	if t.tail != 0 && (t.cnt != t.capacity || t.format == fmtVarint) {
		s.partialCnt[t.tail] = t.cnt
	}
	format := uint8(fmtFixed)
	if s.opts.VarintBlocks {
		format = fmtVarint
	}
	capacity := s.opts.Sizing(int(t.records), incoming)
	if format == fmtVarint && capacity < 2 {
		// A varint block's byte budget (4*cap) must hold at least one
		// worst-case record (maxVarintRec bytes) or Append cannot make
		// progress.
		capacity = 2
	}
	off, err := s.allocBlock(ctx, v, capacity)
	if err != nil {
		return 0, err
	}
	h := header{vid: v, capacity: uint32(capacity), prev: t.tail, format: uint32(format)}
	buf := append(s.encScratch[:0], make([]byte, headerBytes)...)
	var n int
	var last uint32
	rule := s.rule()
	if rule.chargeHdr {
		// Records ride the header write only when the device sees it.
		buf, n, last = encodeRun(buf, format, 4*capacity, 0, first)
	}
	enc := buf[headerBytes:]
	*t = vertex{tail: off, cnt: uint32(n), capacity: h.capacity, records: t.records,
		bytes: uint32(len(enc)), last: last, format: format}
	var crc uint32
	if s.opts.Checksums {
		crc = crc32.Checksum(enc, castagnoli)
		s.noteBlock(v, off, blockMirror{capacity: h.capacity, crc: crc, format: format})
	}
	switch {
	case n == 0: // reserved, not appended to: both slots stay zero
	case rule.atAppend == slotEpoch:
		// The count goes into slot 1, stamped with the running epoch; slot 0
		// — the one recovery trusts until the epoch commits — stays zero. A
		// recycled block's dead header selects slot 0 and zeroed both, so
		// however this write is torn, recovery sees zero visible records,
		// never a stale count from the block's previous owner.
		h.sel, h.epoch, h.cnt[1], h.crc[1] = 1, s.epoch, uint32(n), crc
		t.stamp, t.run = stampSel|stampOnMedia, runTag(s.epoch)
		s.pendAdd(off, uint32(n), 1, format, true)
	case rule.atAppend == slot0:
		h.cnt[0] = uint32(n)
	}
	h.put(buf)
	wctx := ctx
	if !rule.chargeHdr {
		// The header lives in DRAM metadata (the vertex index): charge a
		// DRAM update and write the bytes cost-free so the shared on-media
		// block format stays walkable in the simulation.
		s.lat.DRAM(ctx, headerBytes, true, false)
		wctx = &xpsim.Ctx{Cost: &xpsim.Cost{}, Node: ctx.Node, Worker: ctx.Worker, Workers: ctx.Workers}
	}
	s.m.Write(wctx, off, buf)
	s.encScratch = buf[:0]
	if n > 0 {
		s.commitAppend(ctx, v, off+headerBytes, enc, n)
	}
	return n, nil
}

// Ack is worker w's share (of n) of the first half of a crash-safe flushing
// phase: writing the DRAM counts of the blocks changed in the running epoch
// that do not hold them on the media yet — a block whose last append left
// its count beside the records has nothing left to write — each with its
// stamp. The cycle's first call sorts the pending blocks by offset; worker w
// then writes the w-th of n contiguous runs of that list, so n workers
// called in order w = 0..n-1 issue exactly the write sequence one worker
// would: the split never leaks into the simulated device's cache state.
// Every worker of the cycle must call Ack exactly once, all with the same n
// and with the epoch the store's appends have been stamping: the one after
// the edge log's committed epoch.
//
// After the cycle the caller must (1) issue a machine-wide writeback barrier
// so the counts and the data they cover are on media, and (2) commit the
// epoch (elog.Log.Commit).
func (s *Store) Ack(ctx *xpsim.Ctx, epoch uint32, w, n int) {
	if !s.rule().ack {
		panic(fmt.Sprintf("adj: Ack on a store with the %v count policy", s.opts.Counts))
	}
	if epoch != s.epoch {
		panic(fmt.Sprintf("adj: ack of epoch %d, the appends stamped epoch %d", epoch, s.epoch))
	}
	if w < 0 || w >= n {
		panic(fmt.Sprintf("adj: ack worker %d of %d", w, n))
	}
	if s.ackLeft == 0 {
		s.ackBegin()
		s.ackLeft = n
	}
	for _, e := range s.ackList[len(s.ackList)*w/n : len(s.ackList)*(w+1)/n] {
		s.putCount(ctx, e.off(), uint8(e.word>>pendFmtBit&1), uint8(e.word>>pendSelBit&1), true, e.cnt())
	}
	if s.ackLeft--; s.ackLeft == 0 {
		// The next epoch has stamped nothing yet: no run field holds its
		// tag, unless the tags wrap. Then one pass over the index, once in
		// 0xFFFF epochs, zeroes them all.
		if s.epoch++; runTag(s.epoch) == 1 {
			for i := range s.vx {
				s.vx[i].run = 0
			}
			s.lat.DRAM(ctx, int64(len(s.vx))*int64(unsafe.Sizeof(vertex{})), true, true)
		}
	}
}

// ackBegin opens an ack cycle: it builds ackList — the offset-sorted blocks
// changed in the running epoch, each with its highest count — counts only
// grow within an epoch — less those whose count the appends already wrote —
// and empties pendCur.
func (s *Store) ackBegin() {
	slices.SortFunc(s.pendCur, func(a, b pendEntry) int {
		return cmp.Or(cmp.Compare(a.blk, b.blk), cmp.Compare(a.cnt(), b.cnt()))
	})
	list := slices.Grow(s.ackList[:0], len(s.pendCur))
	for i, e := range s.pendCur {
		if (i+1 == len(s.pendCur) || s.pendCur[i+1].blk != e.blk) && e.word&pendCounted == 0 {
			list = append(list, e)
		}
	}
	s.ackList, s.pendCur = list, s.pendCur[:0]
}

// Resolver resolves deletions in history order over one vertex's record
// stream, handed to Run one run at a time, newest run first: the records
// newer than the vertex's chain (core's DRAM vertex buffer), then the
// chain's blocks as Read hands them out. Walking each run newest record
// first, it makes each tombstone a pending cancel of the next older
// matching insert. So a delete cancels an earlier matching insert, and one
// still pending at the end cancels nothing.
type Resolver struct {
	// dels counts, per neighbor n, the deletes of n still pending and,
	// under n|graph.DelFlag, the inserts of n they cancelled; it is made at
	// the first tombstone.
	dels map[uint32]int
}

// Run resolves recs, one run in insertion order, older than every run Run
// was handed before. It leaves recs as they are.
func (r *Resolver) Run(recs []uint32) {
	for i := len(recs) - 1; i >= 0; i-- {
		switch x := recs[i]; {
		case x&graph.DelFlag != 0:
			if r.dels == nil {
				r.dels = make(map[uint32]int)
			}
			r.dels[x&^graph.DelFlag]++
		case r.dels != nil && r.dels[x] > 0:
			r.dels[x]--
			r.dels[x|graph.DelFlag]++
		}
	}
}

// Live returns dst with dst[start:] resolved: tombstones are dropped, and
// so are as many inserts of each neighbor as its deletes cancelled — the
// first ones in dst, so a stream whose every delete matches reads in the
// order it always did. The rest keep their order; dst[:start] is left
// alone. Live consumes the Resolver.
func (r *Resolver) Live(dst []uint32, start int) []uint32 {
	if r.dels == nil {
		return dst
	}
	out := dst[:start]
	for _, x := range dst[start:] {
		switch {
		case x&graph.DelFlag != 0:
		case r.dels[x|graph.DelFlag] > 0:
			r.dels[x|graph.DelFlag]--
		default:
			out = append(out, x)
		}
	}
	return out
}

// ResolveTombstones resolves dst[start:], one run in insertion order, and
// returns dst shortened to its survivors. dst[:start] is left alone.
func ResolveTombstones(dst []uint32, start int) []uint32 {
	var r Resolver
	r.Run(dst[start:])
	return r.Live(dst, start)
}

func align(x, a int64) int64 { return (x + a - 1) / a * a }
