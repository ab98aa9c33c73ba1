package adj

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/xpsim"
)

// The on-media block format. This file is the only place that names a
// header offset (scripts/check.sh enforces it); everything else in the
// package reads and writes headers as header values. DESIGN.md "Block
// format — who may touch it" has the ordering rules.
//
// A block is a 32-byte header followed by 4*cap payload bytes, at a
// headerAlign-aligned offset:
//
//	word 0  {vid u32, cap u32}    owner; payload capacity in 4-byte units
//	word 1  {prev u32, fmt u32}   previous block / headerAlign (0 = none); payload format
//	word 2  {cnt0 u32, crc0 u32}  count slot 0 and, with Options.Checksums, its payload CRC32-C
//	word 3  {cnt1 u32, crc1 u32}  count slot 1
//
// Powerfail atomicity is per 8-byte word, so a torn header line can never
// mix halves of two counts, and a count never becomes durable without the
// checksum of exactly the records it makes visible.
const (
	headerBytes = 32
	headerAlign = 16

	offVID  = 0
	offCap  = 4
	offPrev = 8
	offFmt  = 12
	offCnt0 = 16
	offCRC0 = 20
	offCnt1 = 24
	offCRC1 = 28
)

// Payload formats (the fmt word). Chains may mix them freely.
const (
	fmtFixed  = 0 // 4-byte little-endian neighbor slots
	fmtVarint = 1 // zigzag delta-varint records (varint.go)
)

// CountPolicy says who writes a block's count slots and whether a crash can
// be recovered from them. A policy's rules are its row of countRules;
// DESIGN.md §7 "Who writes the count slots" has the same table with the
// stores that choose each.
type CountPolicy uint8

const (
	// CountsAtAppend writes the tail block's count into slot 0 with every
	// append: DRAM and Memory Mode media, SSD-tiered and relaxed stores.
	CountsAtAppend CountPolicy = iota
	// CountsVolatile keeps counts in DRAM and charges a new block's header
	// as a DRAM metadata update: GraphOne keeps chunk metadata in its DRAM
	// vertex index (§V-A) and recovers by re-archiving.
	CountsVolatile
	// CountsDeferred keeps counts in DRAM mirrors and never writes a slot:
	// XPGraph-B, whose battery-backed DRAM is inside the persistence domain
	// (§IV-C), so a PMEM count write would be pure overhead.
	CountsDeferred
	// CountsAcked counts into the slot the running flush cycle will select
	// and leaves the rest to Ack (see the package comment): the crash-safe
	// PMEM store, the only policy a recovery scan accepts.
	CountsAcked
	countPolicies
)

// countSlot is where an append's count goes.
type countSlot uint8

const (
	slotNone countSlot = iota // DRAM mirrors only
	slot0                     // slot 0, every append
	// the running cycle's slot, when it shares the XPLine the append's
	// records start in (and always in a new block's header write)
	slotNext
)

// countRule is one policy's rules.
type countRule struct {
	name        string
	atAppend    countSlot
	ack         bool // Store.Ack writes the counts appends left behind
	chargeHdr   bool // a new block's header write is charged to the device
	recoverable bool // RecoverWith rebuilds the store; compaction is a journaled swap
}

var countRules = [countPolicies]countRule{
	CountsAtAppend: {name: "at-append", atAppend: slot0, chargeHdr: true},
	CountsVolatile: {name: "volatile", atAppend: slotNone},
	CountsDeferred: {name: "deferred", atAppend: slotNone, chargeHdr: true},
	CountsAcked:    {name: "acked", atAppend: slotNext, ack: true, chargeHdr: true, recoverable: true},
}

func (p CountPolicy) String() string { return countRules[p].name }

// Acked reports whether p's counts become durable through Ack cycles, which
// the caller commits (Store.Ack).
func (p CountPolicy) Acked() bool { return countRules[p].ack }

// Recoverable reports whether RecoverWith accepts stores under p.
func (p CountPolicy) Recoverable() bool { return countRules[p].recoverable }

// Reserved owners: no vertex may use them (both carry graph.DelFlag, which
// real vertex IDs cannot).
const (
	// deadVID marks a killed or staged block; the recovery scan skips it.
	deadVID = ^uint32(0)
	// journalVID marks the chain-swap journal pseudo-block: a header with
	// cap 4 followed by two 8-byte words.
	journalVID = ^uint32(0) - 1
	// journalMagic is the high half of the journal's second word while a
	// swap is in flight; recovery rolls the swap forward iff it sees it.
	journalMagic = 0x4A524E4C // "JRNL"
)

// maxScanVID bounds plausible vertex IDs during the arena scan. A header
// whose media lines rotted to pseudo-random garbage can pass the count
// sanity checks with a huge vid; indexing it verbatim would allocate
// per-vertex slices for billions of vertices. Anything above this bound is
// treated as corruption, like a zero capacity.
const maxScanVID = 1 << 28

// header is one parsed block header.
type header struct {
	vid      uint32
	capacity uint32
	prev     int64  // byte offset of the previous block; 0 = none
	format   uint32 // fmtFixed or fmtVarint; anything else is corruption
	cnt, crc [2]uint32
}

// parseHeader decodes the headerBytes at b.
func parseHeader(b []byte) header {
	le := binary.LittleEndian
	return header{
		vid:      le.Uint32(b[offVID:]),
		capacity: le.Uint32(b[offCap:]),
		prev:     int64(le.Uint32(b[offPrev:])) * headerAlign,
		format:   le.Uint32(b[offFmt:]),
		cnt:      [2]uint32{le.Uint32(b[offCnt0:]), le.Uint32(b[offCnt1:])},
		crc:      [2]uint32{le.Uint32(b[offCRC0:]), le.Uint32(b[offCRC1:])},
	}
}

// put renders h into the headerBytes at b.
func (h *header) put(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[offVID:], h.vid)
	le.PutUint32(b[offCap:], h.capacity)
	le.PutUint32(b[offPrev:], uint32(h.prev/headerAlign))
	le.PutUint32(b[offFmt:], h.format)
	le.PutUint32(b[offCnt0:], h.cnt[0])
	le.PutUint32(b[offCRC0:], h.crc[0])
	le.PutUint32(b[offCnt1:], h.cnt[1])
	le.PutUint32(b[offCRC1:], h.crc[1])
}

// size is the block's footprint: header plus payload capacity. The cap
// word keeps its 4-bytes-per-unit meaning in both formats, so sizing, the
// per-capacity free lists and ChainSpans are format-independent.
func (h *header) size() int64 { return headerBytes + 4*int64(h.capacity) }

// plausible reports whether h can head a block at off in an arena that ends
// at end, given the count the scan trusts.
//
// A dead block's count slots are never authoritative, and they can
// legitimately look implausible mid-kill: a dead header can straddle two
// XPLines, so a crash can leave vid=deadVID durable while the previous
// owner's counts survive in the second line — checked against whatever
// format word the tear left beside them. So a dead block's counts are not
// checked; the scan finishes the kill. A live block answers for the slot
// recovery trusts only: the other one is the running cycle's scratch,
// where an append leaves its count beside its records — on a recycled
// block, possibly torn against the previous owner's format word.
func (h *header) plausible(off, end int64, cnt uint32) bool {
	// Fixed blocks hold at most cap records, varint blocks at most 4*cap (a
	// record is at least one byte of the 4*cap-byte payload).
	most := uint64(h.capacity)
	if h.format == fmtVarint {
		most *= 4
	}
	return h.capacity != 0 && off+h.size() <= end && h.format <= fmtVarint &&
		(h.vid == deadVID || uint64(cnt) <= most) &&
		(h.vid <= maxScanVID || h.vid == deadVID || h.vid == journalVID)
}

// slotOff is the offset of count slot `slot` inside a header.
func slotOff(slot int) int64 { return offCnt0 + int64(slot)*(offCnt1-offCnt0) }

// putSlot renders a count slot's word into the 8 bytes at b.
func putSlot(b []byte, cnt, crc uint32) {
	binary.LittleEndian.PutUint32(b, cnt)
	binary.LittleEndian.PutUint32(b[offCRC0-offCnt0:], crc)
}

// writeVID overwrites the owner of the block at off with a 4-byte store —
// the commit of a chain swap, and the relaxed store's kill.
func writeVID(m mem.Mem, ctx *xpsim.Ctx, off int64, vid uint32) {
	mem.WriteU32(m, ctx, off+offVID, vid)
}

// writeDead durably overwrites the block at off with a dead header: dead
// owner, no prev, zeroed count slots. Zeroing matters: a recycled block
// whose new header has not reached the media yet must read as zero visible
// records, not as its previous owner's counts.
//
// The dead header keeps the block's format word. Powerfail atomicity is
// per 8-byte word, so a torn kill can leave the {prev, fmt} word durable
// while the {vid, cap} word and the count slots are still the old owner's:
// with a zeroed format that is a live FIXED block carrying a varint count
// above its capacity, which recovery's scan takes for the never-durable
// frontier — and zeroes the acknowledged blocks behind it.
func (s *Store) writeDead(ctx *xpsim.Ctx, off int64, capacity uint32, format uint8) {
	h := header{vid: deadVID, capacity: capacity, format: uint32(format)}
	h.put(s.hdrScratch[:])
	s.m.Write(ctx, off, s.hdrScratch[:])
	s.m.Flush(ctx, off, headerBytes)
}
