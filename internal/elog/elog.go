// Package elog implements XPGraph's consistency-guaranteed circular edge
// log (§III-B). New edges append at the head; a buffering cursor tracks
// edges staged into DRAM vertex buffers; a flushing cursor tracks edges
// durably in PMEM adjacency lists. The log refuses to overwrite edges that
// are not yet flushed, so after a crash the edges in [flushed, head) can be
// replayed to rebuild the lost DRAM vertex buffers.
//
// The battery-backed variant (XPGraph-B, §IV-C) treats DRAM vertex buffers
// as part of the persistence domain, so the head may overwrite any edge
// that has been buffered, whether or not it was flushed.
package elog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/xpsim"
)

// ErrFull is returned by Append when advancing the head would overwrite
// edges the consistency rule still protects; the caller must run a
// buffering and/or flushing phase and retry.
var ErrFull = errors.New("elog: log full: flush required before overwriting")

// HeaderBytes is the size of the persisted cursor block; recovery uses it
// to locate the ring after the header.
const HeaderBytes = hdrBytes

const (
	hdrBytes = 64 // persisted cursor block: head, buffered, flushed, cap, epoch
	offHead  = 0
	offBuf   = 8
	offFlush = 16
	offCap   = 24
	offEpoch = 32 // {epoch u32, low 32 bits of the flushed cursor it committed}
)

// maxEpoch is the last flush epoch Commit accepts: the adjacency stamps
// that name epochs hold 30 bits (adj.maxEpoch).
const maxEpoch = 1<<30 - 1

// errEpochBound is Commit's typed refusal once the epochs are exhausted.
var errEpochBound = errors.New("elog: flush epochs exhausted")

// Config selects optional log features.
type Config struct {
	// Battery treats DRAM vertex buffers as persistent (XPGraph-B §IV-C):
	// the head may overwrite buffered-but-unflushed edges, and header
	// flush ordering is skipped.
	Battery bool
	// Checksums appends a CRC32-C strip after the ring: one u32 per slot,
	// covering the record bytes seeded with the record's monotonic
	// counter (so a stale previous-cycle record can never verify). A
	// slot's checksum is written and flushed before the head cursor that
	// publishes the record, and VerifyWindow audits the resident window
	// against the strip — the media-error detection scrubbing relies on.
	// The checksum is per record, not per XPLine: ring wrap makes
	// line-granular checksums unsound (a line holds records from two
	// cycles mid-wrap).
	Checksums bool
}

// castagnoli is the CRC32-C table (hardware-accelerated polynomial).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recCRC is the strip checksum of one record: CRC32-C over the monotonic
// counter followed by the record bytes.
func recCRC(counter int64, rec []byte) uint32 {
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(counter))
	return crc32.Update(crc32.Checksum(seed[:], castagnoli), castagnoli, rec)
}

// Log is the circular edge log.
type Log struct {
	m       mem.Mem
	hdr     int64 // header offset within m
	base    int64 // data area offset
	cap     int64 // capacity in edges
	battery bool
	strip   int64 // CRC strip offset; 0 = checksums disabled

	// DRAM mirrors of the persisted cursors. All are monotonic edge
	// counters; ring positions are counter % cap.
	head     int64
	buffered int64
	flushed  int64
	epoch    uint32 // the last flush epoch committed (Commit)

	// Append's encode buffers, log-owned so that a steady-state append
	// allocates nothing (the logging thread is the only writer). They hold
	// one Append call's records — core hands over 4096 edges a call, 48 KiB
	// with checksums — and exist because mem.Write takes bytes: a real log
	// streams the caller's edges straight into the ring, so they count as no
	// DRAM of the modelled store (core.MemUsage).
	recScratch []byte
	crcScratch []byte
}

// Create allocates and initializes a log of capEntries edges inside m.
func Create(ctx *xpsim.Ctx, m mem.Mem, capEntries int64, battery bool) (*Log, error) {
	return CreateWith(ctx, m, capEntries, Config{Battery: battery})
}

// CreateWith is Create with the full feature configuration.
func CreateWith(ctx *xpsim.Ctx, m mem.Mem, capEntries int64, cfg Config) (*Log, error) {
	if capEntries <= 0 {
		return nil, fmt.Errorf("elog: capacity must be positive")
	}
	hdr, err := m.Alloc(ctx, hdrBytes, xpsim.XPLineSize)
	if err != nil {
		return nil, fmt.Errorf("elog: %w", err)
	}
	base, err := m.Alloc(ctx, capEntries*graph.EdgeBytes, xpsim.XPLineSize)
	if err != nil {
		return nil, fmt.Errorf("elog: %w", err)
	}
	var strip int64
	if cfg.Checksums {
		if strip, err = m.Alloc(ctx, capEntries*4, xpsim.XPLineSize); err != nil {
			return nil, fmt.Errorf("elog: checksum strip: %w", err)
		}
	}
	l := &Log{m: m, hdr: hdr, base: base, cap: capEntries, battery: cfg.Battery, strip: strip}
	mem.WriteU64(m, ctx, hdr+offHead, 0)
	mem.WriteU64(m, ctx, hdr+offBuf, 0)
	mem.WriteU64(m, ctx, hdr+offFlush, 0)
	mem.WriteU64(m, ctx, hdr+offCap, uint64(capEntries))
	// Make the freshly initialized header durable, so a crash before the
	// first append recovers an empty log instead of a corrupt one.
	m.Flush(ctx, hdr, hdrBytes)
	return l, nil
}

// AttachWith is Attach with the full feature configuration, which must
// match what the log was created with (the strip's location is re-derived
// from the allocation layout: it directly follows the ring, XPLine-
// aligned).
func AttachWith(ctx *xpsim.Ctx, m mem.Mem, hdr, base int64, cfg Config) (*Log, error) {
	l := &Log{m: m, hdr: hdr, base: base, battery: cfg.Battery}
	l.head = int64(mem.ReadU64(m, ctx, hdr+offHead))
	l.buffered = int64(mem.ReadU64(m, ctx, hdr+offBuf))
	l.flushed = int64(mem.ReadU64(m, ctx, hdr+offFlush))
	l.cap = int64(mem.ReadU64(m, ctx, hdr+offCap))
	l.epoch = committedEpoch(mem.ReadU64(m, ctx, hdr+offEpoch), l.flushed)
	switch {
	case l.cap <= 0 || l.cap > (m.Size()-base)/graph.EdgeBytes:
		return nil, fmt.Errorf("elog: corrupt header: cap=%d does not fit memory (%d bytes past base)",
			l.cap, m.Size()-base)
	case l.head < 0 || l.buffered < 0 || l.flushed < 0 || l.flushed > l.buffered || l.buffered > l.head:
		return nil, fmt.Errorf("elog: corrupt header: head=%d buffered=%d flushed=%d cap=%d",
			l.head, l.buffered, l.flushed, l.cap)
	case l.head-l.flushed > l.cap && !cfg.Battery:
		return nil, fmt.Errorf("elog: corrupt header: unflushed window %d exceeds cap %d (replay would read overwritten edges)",
			l.head-l.flushed, l.cap)
	case l.head-l.buffered > l.cap:
		return nil, fmt.Errorf("elog: corrupt header: unbuffered window %d exceeds cap %d",
			l.head-l.buffered, l.cap)
	}
	if cfg.Checksums {
		l.strip = (base + l.cap*graph.EdgeBytes + xpsim.XPLineSize - 1) / xpsim.XPLineSize * xpsim.XPLineSize
		if l.strip+l.cap*4 > m.Size() {
			return nil, fmt.Errorf("elog: checksum strip [%d,%d) does not fit memory", l.strip, l.strip+l.cap*4)
		}
	}
	return l, nil
}

// HeaderOffset and BaseOffset locate the log inside its memory for later
// Attach calls.
func (l *Log) HeaderOffset() int64 { return l.hdr }

// BaseOffset reports the data area offset.
func (l *Log) BaseOffset() int64 { return l.base }

// Cap reports the log capacity in edges.
func (l *Log) Cap() int64 { return l.cap }

// Head reports the total number of edges ever appended.
func (l *Log) Head() int64 { return l.head }

// Buffered reports how many edges have been staged to vertex buffers.
func (l *Log) Buffered() int64 { return l.buffered }

// Flushed reports how many edges are durable in PMEM adjacency lists.
func (l *Log) Flushed() int64 { return l.flushed }

// PendingBuffer reports edges logged but not yet buffered.
func (l *Log) PendingBuffer() int64 { return l.head - l.buffered }

// PendingFlush reports edges buffered but not yet flush-acknowledged.
func (l *Log) PendingFlush() int64 { return l.buffered - l.flushed }

// freeSpace is how many edges may be appended without violating the
// overwrite rule.
func (l *Log) freeSpace() int64 {
	guard := l.flushed
	if l.battery {
		guard = l.buffered
	}
	return l.cap - (l.head - guard)
}

// Append logs as many of the edges as currently fit and returns how many
// were accepted, with ErrFull if fewer than all (the logging thread then
// triggers buffering/flushing and retries, §IV-A). The head cursor is
// persisted after the batch, making the accepted edges durable.
func (l *Log) Append(ctx *xpsim.Ctx, edges []graph.Edge) (int, error) {
	n := int64(len(edges))
	if free := l.freeSpace(); n > free {
		n = free
	}
	if n == 0 && len(edges) > 0 {
		return 0, ErrFull
	}
	// The accepted chunk leaves as one write per contiguous ring span — two
	// when it wraps — and its checksums likewise: XPLine-sized sequential
	// stores (§III-B), where a store per record would hand the device 8 and
	// 4 bytes at a time.
	//
	// Crash-consistency ordering: the edge records must be durable before
	// the head cursor that publishes them, or recovery would replay
	// whatever stale ring bytes sit beyond the durable data — and so must
	// their strip entries, or a recovered log would flag a perfectly good
	// record as corrupt. Flush the written ring spans, then the strip's,
	// then advance the head, then flush the header line. Battery-backed
	// stores skip the ordering: their whole memory hierarchy is in the
	// persistence domain, so buffered lines survive power loss anyway
	// (§IV-C).
	startPos := l.head % l.cap
	first := min(n, l.cap-startPos) // records before the ring wraps
	recs := slices.Grow(l.recScratch[:0], int(n)*graph.EdgeBytes)[:n*graph.EdgeBytes]
	for i := range edges[:n] {
		edges[i].Encode(recs[i*graph.EdgeBytes:])
	}
	l.recScratch = recs
	l.writeSpans(ctx, l.base, graph.EdgeBytes, startPos, first, recs)
	if l.strip != 0 {
		crcs := slices.Grow(l.crcScratch[:0], int(n)*4)[:n*4]
		for i := int64(0); i < n; i++ {
			binary.LittleEndian.PutUint32(crcs[i*4:], recCRC(l.head+i, recs[i*graph.EdgeBytes:][:graph.EdgeBytes]))
		}
		l.crcScratch = crcs
		l.writeSpans(ctx, l.strip, 4, startPos, first, crcs)
	}
	if !l.battery {
		l.flushSpans(ctx, l.base, graph.EdgeBytes, startPos, first, n)
		if l.strip != 0 {
			l.flushSpans(ctx, l.strip, 4, startPos, first, n)
		}
	}
	l.head += n
	mem.WriteU64(l.m, ctx, l.hdr+offHead, uint64(l.head))
	if !l.battery {
		l.m.Flush(ctx, l.hdr, hdrBytes)
	}
	if n < int64(len(edges)) {
		return int(n), ErrFull
	}
	return int(n), nil
}

// writeSpans stores p — entries of size bytes each, the first of them at ring
// position pos of the array at base, `first` of them before the ring wraps.
func (l *Log) writeSpans(ctx *xpsim.Ctx, base, size, pos, first int64, p []byte) {
	l.m.Write(ctx, base+pos*size, p[:first*size])
	if rest := p[first*size:]; len(rest) > 0 {
		l.m.Write(ctx, base, rest)
	}
}

// flushSpans flushes what writeSpans wrote for n entries.
func (l *Log) flushSpans(ctx *xpsim.Ctx, base, size, pos, first, n int64) {
	l.m.Flush(ctx, base+pos*size, first*size)
	if n > first {
		l.m.Flush(ctx, base, (n-first)*size)
	}
}

// Read copies the edges with counters [from, to) into dst (wrapping
// around the ring as needed) and returns dst. The range must still be
// resident: from >= head-cap.
//
// The records leave the memory as one read per contiguous ring span of at
// most one interleave stripe — cut where Stripe cuts — so the device sees
// each XPLine once, as the sequential line-sized access the log was written
// with (§III-B), not once per 8-byte record. The span buffer comes from a
// pool: a buffer handed to a mem.Mem escapes, and Read has concurrent
// callers (the window queries, scrub), so it can be neither on the stack
// nor log-owned.
func (l *Log) Read(ctx *xpsim.Ctx, from, to int64, dst []graph.Edge) []graph.Edge {
	if from < l.head-l.cap || to > l.head || from > to {
		panic(fmt.Sprintf("elog: read [%d,%d) outside resident window [%d,%d]", from, to, l.head-l.cap, l.head))
	}
	buf := spanPool.Get().(*[stripeBytes]byte)
	for at := from; at < to; {
		end := l.cut(at, to, stripeBytes)
		span := buf[:(end-at)*graph.EdgeBytes]
		l.m.Read(ctx, l.base+at%l.cap*graph.EdgeBytes, span)
		for i := 0; i < len(span); i += graph.EdgeBytes {
			dst = append(dst, graph.DecodeEdge(span[i:]))
		}
		at = end
	}
	spanPool.Put(buf)
	return dst
}

var spanPool = sync.Pool{New: func() any { return new([stripeBytes]byte) }}

// stripeBytes is the interleave granularity of app-direct PMEM regions
// (pmem.DefaultStripe): 4 KiB, 512 records.
const stripeBytes = 4096

// cut reports where the run of records starting at counter from ends when
// it is cut at the next unit-aligned boundary of the ring's memory, at the
// ring wrap and at to.
func (l *Log) cut(from, to, unit int64) int64 {
	pos := from % l.cap
	off := l.base + pos*graph.EdgeBytes
	n := (unit - off%unit + graph.EdgeBytes - 1) / graph.EdgeBytes
	return from + min(n, l.cap-pos, to-from)
}

// Stripe reports where the run of records starting at counter from ends
// when it is cut at the next interleave-stripe boundary of the ring's
// memory, at the ring wrap and at to, and which NUMA node that stripe
// lives on (-1 for uniform memory). Archiving cuts a batch there, so that
// every piece can be read by a thread on the node that holds it.
func (l *Log) Stripe(from, to int64) (end int64, node int) {
	return l.cut(from, to, stripeBytes), l.m.NodeOf(l.base + from%l.cap*graph.EdgeBytes)
}

// Line is Stripe at XPLine granularity: where the run of records starting
// at counter from ends when it is cut at the next XPLine boundary, at the
// ring wrap and at to. Archiving cuts a stripe there when a node has more
// archive threads than stripes to read.
func (l *Log) Line(from, to int64) int64 {
	return l.cut(from, to, xpsim.XPLineSize)
}

// RewindBuffered moves the DRAM mirror of the buffered cursor back to the
// flushed cursor: the first step of recovery, whose replay of [flushed,
// head) then is the ordinary buffering of an unbuffered window. The
// persisted cursor stays where it is until the replay's first MarkBuffered
// overwrites it; either value is a valid one to crash with.
func (l *Log) RewindBuffered() { l.buffered = l.flushed }

// MarkBuffered advances the buffered cursor to upTo and persists it.
func (l *Log) MarkBuffered(ctx *xpsim.Ctx, upTo int64) {
	if upTo < l.buffered || upTo > l.head {
		panic(fmt.Sprintf("elog: MarkBuffered(%d) outside [%d,%d]", upTo, l.buffered, l.head))
	}
	l.buffered = upTo
	mem.WriteU64(l.m, ctx, l.hdr+offBuf, uint64(upTo))
	if !l.battery {
		l.m.Flush(ctx, l.hdr, hdrBytes)
	}
}

// MarkFlushed advances the flushing cursor to upTo and persists it, outside
// any flush epoch: the commit of stores that recover from no epoch. Only
// buffered edges can be flush-acknowledged.
func (l *Log) MarkFlushed(ctx *xpsim.Ctx, upTo int64) {
	l.advanceFlushed(upTo)
	mem.WriteU64(l.m, ctx, l.hdr+offFlush, uint64(upTo))
	if !l.battery {
		l.m.Flush(ctx, l.hdr, hdrBytes)
	}
}

// Epoch reports the last flush epoch committed: 0 for a fresh log. It means
// nothing on a log whose cursor advances through MarkFlushed.
func (l *Log) Epoch() uint32 { return l.epoch }

// Commit advances the flushing cursor to upTo and commits the next flush
// epoch — the commit point of a crash-safe flushing phase (see adj.Ack). The
// caller must have made the epoch's count writes durable (persist barrier)
// before calling: once the commit lands, recovery trusts them and stops
// replaying the edges they cover.
//
// The commit is two 8-byte stores in the header line: the flushed cursor,
// and {epoch, low 32 bits of that cursor}. Whichever of them a crash leaves
// durable decides (committedEpoch), so the epoch commits with a single
// atomic store — the cursor's when it moves, the epoch word's when it does
// not — and one flush.
func (l *Log) Commit(ctx *xpsim.Ctx, upTo int64) error {
	if l.epoch == maxEpoch {
		return errEpochBound
	}
	l.advanceFlushed(upTo)
	l.epoch++
	mem.WriteU64(l.m, ctx, l.hdr+offFlush, uint64(upTo))
	mem.WriteU64(l.m, ctx, l.hdr+offEpoch, uint64(l.epoch)|uint64(uint32(upTo))<<32)
	if !l.battery {
		l.m.Flush(ctx, l.hdr, hdrBytes)
	}
	return nil
}

func (l *Log) advanceFlushed(upTo int64) {
	if upTo < l.flushed || upTo > l.buffered {
		panic(fmt.Sprintf("elog: MarkFlushed(%d) outside [%d,%d]", upTo, l.flushed, l.buffered))
	}
	l.flushed = upTo
}

// committedEpoch decodes the epoch word beside the flushed cursor. A
// commit advances the cursor by less than the ring's capacity, so the low
// cursor bits the word carries say which of the two stores a crash kept:
// both, or neither (they agree); the cursor alone (the word lags it: the
// commit landed); or the word alone (it leads: the commit did not).
func committedEpoch(word uint64, flushed int64) uint32 {
	epoch := uint32(word)
	switch lead := int32(uint32(word>>32) - uint32(flushed)); {
	case lead < 0:
		return epoch + 1
	case lead > 0 && epoch > 0:
		return epoch - 1
	}
	return epoch
}

// Bytes reports the PMEM footprint of the log (header + ring + strip).
func (l *Log) Bytes() int64 {
	b := int64(hdrBytes) + l.cap*graph.EdgeBytes
	if l.strip != 0 {
		b += l.cap * 4
	}
	return b
}

// VerifyWindow audits the resident ring window [max(0, head-cap), head):
// VerifyRange over all of it. An empty result means every resident record
// (including the [flushed, head) replay window a recovery would consume) is
// intact.
func (l *Log) VerifyWindow(ctx *xpsim.Ctx) []int64 {
	return l.VerifyRange(ctx, max(0, l.head-l.cap), l.head)
}

// VerifyRange audits the records [from, to) through the media-error-checked
// read path, verifying each against the checksum strip when one exists. It
// returns the monotonic counters of records that could not be read back as
// published — uncorrectable lines, or bytes that disagree with the checksum.
// The range must be resident, as for Read.
func (l *Log) VerifyRange(ctx *xpsim.Ctx, from, to int64) []int64 {
	if from < l.head-l.cap || to > l.head || from > to {
		panic(fmt.Sprintf("elog: verify [%d,%d) outside resident window [%d,%d]", from, to, l.head-l.cap, l.head))
	}
	var bad []int64
	var rec [graph.EdgeBytes]byte
	var cb [4]byte
	for i := from; i < to; i++ {
		pos := i % l.cap
		if err := mem.ReadChecked(l.m, ctx, l.base+pos*graph.EdgeBytes, rec[:]); err != nil {
			bad = append(bad, i)
			continue
		}
		if l.strip == 0 {
			continue
		}
		if err := mem.ReadChecked(l.m, ctx, l.strip+pos*4, cb[:]); err != nil {
			bad = append(bad, i)
			continue
		}
		if binary.LittleEndian.Uint32(cb[:]) != recCRC(i, rec[:]) {
			bad = append(bad, i)
		}
	}
	return bad
}
