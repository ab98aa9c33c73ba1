package adj

// Delta-varint block payloads — the compressed adjacency encoding of the
// binary-ingest fast path (DESIGN.md §10.2).
//
// A block's format is negotiated per block through the header's format
// word (header.go): fmtFixed keeps the classic fixed-width 4-byte
// little-endian neighbor slots, fmtVarint switches the payload to a byte
// stream of delta-varint records. Record i encodes
//
//	binary.PutUvarint(zigzag(int64(v_i) - int64(v_{i-1})))
//
// with v_{-1} = 0 at the start of the block, so decoding is a single
// forward walk carrying one predecessor value. Zigzag keeps appends
// order-preserving: snapshot-bounded reads take record-count prefixes of
// the insertion order, so the append path must not sort. Compaction MAY
// sort (it fences live snapshots and later snapshots always cover the
// whole compacted block), and does: a compacted block stores one sorted
// run whose deltas are small and non-negative — where the density win
// comes from.
//
// The cap header field keeps its size semantics — the payload occupies
// 4*cap bytes on media — so block sizing, the per-capacity free lists,
// ChainSpans, and recovery's size() arithmetic are format-independent.
// The count slots keep counting records; a varint record is at least one
// byte, so recovery's structural sanity bound becomes cnt <= 4*cap.
// CRCs (Checksums mode) cover exactly the encoded bytes of the visible
// records, i.e. the byte extent a decode of cnt records consumes.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"

	"repro/internal/xpsim"
)

const (
	// maxVarintRec bounds one encoded record: |delta| < 1<<32, so
	// zigzag(delta) < 1<<33, which uvarint encodes in at most 5 bytes.
	// Decoders reject longer runs as corruption; the encoder can never
	// produce them.
	maxVarintRec = 5

	// varintChunkBytes is the media-read granularity of the streaming
	// decoder: an XPLine. Chunks end at line boundaries and never cross the
	// payload end, so a decode fetches each of the block's lines once and
	// touches no other, but it may read up to the end of the last
	// acknowledged record's line (slack inside the block).
	varintChunkBytes = xpsim.XPLineSize
)

var errVarintCorrupt = errors.New("adj: corrupt delta-varint payload")

func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// putVarintRec appends one record's encoding to buf and returns the new
// buf and the encoded length.
func putVarintRec(buf []byte, prev, v uint32) ([]byte, int) {
	var tmp [maxVarintRec]byte
	n := binary.PutUvarint(tmp[:], zigzag(int64(v)-int64(prev)))
	return append(buf, tmp[:n]...), n
}

// varintCapacity is the cap header value (payload bytes / 4, rounded up)
// for an exactly-sized block holding the given encoded payload.
func varintCapacity(encodedBytes int) int {
	c := (encodedBytes + 3) / 4
	if c < 1 {
		c = 1
	}
	return c
}

// varintReader streams records out of a block payload through a chunked
// read callback — the varint half of the one block decoder (reader.decode). When withCRC is set it accumulates the CRC32-C of
// exactly the consumed bytes (call sum after the last record).
type varintReader struct {
	read     func(off int64, p []byte) error
	off      int64 // next media offset to fetch
	end      int64 // payload end on media (never read past)
	buf      [varintChunkBytes]byte
	lo, hi   int
	prev     int64
	consumed int64
	crc      uint32
	withCRC  bool
}

func newVarintReader(read func(off int64, p []byte) error, payOff, payBytes int64, withCRC bool) varintReader {
	return varintReader{read: read, off: payOff, end: payOff + payBytes, withCRC: withCRC}
}

func (r *varintReader) fill() error {
	if r.withCRC && r.hi > 0 {
		// Refill only happens once the whole window is consumed, so the
		// running CRC covers exactly the consumed prefix.
		r.crc = crc32.Update(r.crc, castagnoli, r.buf[:r.hi])
	}
	n := r.end - r.off
	if n <= 0 {
		return errVarintCorrupt // records claimed beyond the payload
	}
	n = min(n, varintChunkBytes-r.off%varintChunkBytes)
	if err := r.read(r.off, r.buf[:n]); err != nil {
		return err
	}
	r.off += n
	r.lo, r.hi = 0, int(n)
	return nil
}

func (r *varintReader) readByte() (byte, error) {
	if r.lo == r.hi {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	b := r.buf[r.lo]
	r.lo++
	r.consumed++
	return b, nil
}

// next decodes one record.
func (r *varintReader) next() (uint32, error) {
	var x uint64
	var shift uint
	for i := 0; ; i++ {
		if i == maxVarintRec {
			return 0, errVarintCorrupt // overlong varint
		}
		b, err := r.readByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			x |= uint64(b) << shift
			break
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	v := r.prev + unzigzag(x)
	if v < 0 || v > math.MaxUint32 {
		return 0, errVarintCorrupt // delta walks outside uint32
	}
	r.prev = v
	return uint32(v), nil
}

// bytesConsumed reports the payload byte extent of the records decoded
// so far.
func (r *varintReader) bytesConsumed() int64 { return r.consumed }

// last reports the most recently decoded record value.
func (r *varintReader) last() uint32 { return uint32(r.prev) }

// sum finishes the CRC over the consumed bytes. Call at most once, after
// the final record.
func (r *varintReader) sum() uint32 {
	if r.withCRC && r.lo > 0 {
		r.crc = crc32.Update(r.crc, castagnoli, r.buf[:r.lo])
		r.hi = 0 // guard against double-counting if misused
		r.lo = 0
	}
	return r.crc
}
