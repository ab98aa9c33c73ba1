// Package prop is the property-graph layer: typed edges and vertex
// properties in CRC-guarded PMEM column blocks with a DRAM index. Each edge
// carries a small label id, vertex properties are last-write-wins, and the
// DRAM index gives constant-time lookups on the read path.
//
// # Block format (DESIGN.md §13)
//
// The column log is a sequence of 256 B blocks — one XPLine each, so a
// block write is a single failure-atomic media line:
//
//	[0:4)   crc32c over [4:256)
//	[4:6)   count  (uint16, 1..15 records)
//	[6:8)   patch  (uint16, 0 = normal; n>0: replaces block n-1)
//	[8:248) count × 16-byte records
//	[248:252) open  (uint32, 0 = closes its flush; n>0: an earlier block
//	          of the flush that starts at block n-1)
//	[252:256) zero
//
// Blocks are appended and never rewritten in place. One flush is one run
// of blocks: every block but the last is open and names the run's first
// block; the closing block is written only once the open ones are on the
// media, so a durable closing block commits its whole run. A crash inside
// a flush can leave its open blocks torn or missing in any order; recovery
// truncates the unclosed run and every earlier record stays durable (the
// prefix-durability contract the edge log gives). A patch block
// re-publishes the records of an earlier block whose media went bad — the
// scrub rebuild path — and logically replaces it without touching the
// damaged line; it closes its own one-block run.
//
// # Record format
//
// Every record is 16 bytes:
//
//	[0]     kind   (1 = edge label, 2 = vertex property, 3 = label def)
//	[1]     zero
//	[2:4)   lbl    (edge label id / property key / label id)
//	[4:8)   src    (edge source / property vertex / name[0:4])
//	[8:12)  dst    (edge destination / value low half / name[4:8])
//	[12:16) ext    (value high half / name[8:12])
//
// Label-def names are at most 12 bytes, NUL-padded into src/dst/ext.
package prop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// BlockBytes is one column block — exactly one 256 B XPLine.
	BlockBytes = 256
	// recordBytes is the size of one encoded record.
	recordBytes = 16
	// RecordsPerBlock is how many records one block holds.
	RecordsPerBlock = 15

	blockHdrBytes = 8
	blockOpenOff  = blockHdrBytes + RecordsPerBlock*recordBytes
)

// Record kinds.
const (
	kindEdgeLabel = 1
	kindVProp     = 2
	kindLabelDef  = 3
)

// maxLabelName bounds a label-def name (it is packed into one record).
const maxLabelName = 12

// errBadBlock reports a column block that fails its checksum or carries
// a structurally impossible header.
var errBadBlock = errors.New("prop: corrupt column block")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one decoded column-log record.
type record struct {
	Kind uint8
	Lbl  uint16
	Src  uint32
	Dst  uint32
	Ext  uint32
}

// edgeLabelRecord builds the record that sets the label of (src, dst).
func edgeLabelRecord(src, dst uint32, lbl uint16) record {
	return record{Kind: kindEdgeLabel, Lbl: lbl, Src: src, Dst: dst}
}

// vPropRecord builds the record that sets property key of vertex v.
func vPropRecord(v uint32, key uint16, val int64) record {
	return record{Kind: kindVProp, Lbl: key, Src: v,
		Dst: uint32(uint64(val)), Ext: uint32(uint64(val) >> 32)}
}

// value unpacks a kindVProp record's 64-bit value.
func (r record) value() int64 {
	return int64(uint64(r.Dst) | uint64(r.Ext)<<32)
}

// labelDefRecord builds the record that registers name under label id.
// The name must fit maxLabelName bytes.
func labelDefRecord(id uint16, name string) record {
	var b [12]byte
	copy(b[:], name)
	return record{Kind: kindLabelDef, Lbl: id,
		Src: binary.LittleEndian.Uint32(b[0:4]),
		Dst: binary.LittleEndian.Uint32(b[4:8]),
		Ext: binary.LittleEndian.Uint32(b[8:12])}
}

// labelName unpacks a kindLabelDef record's name.
func (r record) labelName() string {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[0:4], r.Src)
	binary.LittleEndian.PutUint32(b[4:8], r.Dst)
	binary.LittleEndian.PutUint32(b[8:12], r.Ext)
	n := 0
	for n < len(b) && b[n] != 0 {
		n++
	}
	return string(b[:n])
}

func (r record) encode(p []byte) {
	p[0] = r.Kind
	p[1] = 0
	binary.LittleEndian.PutUint16(p[2:4], r.Lbl)
	binary.LittleEndian.PutUint32(p[4:8], r.Src)
	binary.LittleEndian.PutUint32(p[8:12], r.Dst)
	binary.LittleEndian.PutUint32(p[12:16], r.Ext)
}

func decodeRecord(p []byte) record {
	return record{
		Kind: p[0],
		Lbl:  binary.LittleEndian.Uint16(p[2:4]),
		Src:  binary.LittleEndian.Uint32(p[4:8]),
		Dst:  binary.LittleEndian.Uint32(p[8:12]),
		Ext:  binary.LittleEndian.Uint32(p[12:16]),
	}
}

// block is one column block's content.
type block struct {
	Recs []record
	// Patch is 0 for a normal block, or target+1 when this block logically
	// replaces an earlier one.
	Patch uint16
	// Open is 0 for a block that closes its flush, or start+1 for an
	// earlier block of the flush whose first block is start.
	Open uint32
}

// encodeBlock renders b into dst (BlockBytes long, zeroed by the caller or
// reused — it is fully overwritten). b holds 1..RecordsPerBlock records.
func encodeBlock(dst []byte, b block) {
	if len(dst) < BlockBytes {
		panic("prop: EncodeBlock buffer too small")
	}
	if len(b.Recs) == 0 || len(b.Recs) > RecordsPerBlock {
		panic(fmt.Sprintf("prop: EncodeBlock record count %d", len(b.Recs)))
	}
	for i := range dst[:BlockBytes] {
		dst[i] = 0
	}
	binary.LittleEndian.PutUint16(dst[4:6], uint16(len(b.Recs)))
	binary.LittleEndian.PutUint16(dst[6:8], b.Patch)
	for i, r := range b.Recs {
		r.encode(dst[blockHdrBytes+i*recordBytes:])
	}
	binary.LittleEndian.PutUint32(dst[blockOpenOff:], b.Open)
	binary.LittleEndian.PutUint32(dst[0:4], crc32.Checksum(dst[4:BlockBytes], castagnoli))
}

// decodeBlock parses one column block, or returns errBadBlock when the
// checksum or header is invalid. A block that is entirely zero (never
// written) decodes to a block with nil Recs and no error.
func decodeBlock(p []byte) (block, error) {
	if len(p) < BlockBytes {
		return block{}, fmt.Errorf("%w: short block (%d bytes)", errBadBlock, len(p))
	}
	p = p[:BlockBytes]
	if isZero(p) {
		return block{}, nil
	}
	if got, want := crc32.Checksum(p[4:], castagnoli), binary.LittleEndian.Uint32(p[0:4]); got != want {
		return block{}, fmt.Errorf("%w: crc mismatch (stored %08x, computed %08x)", errBadBlock, want, got)
	}
	count := int(binary.LittleEndian.Uint16(p[4:6]))
	b := block{Patch: binary.LittleEndian.Uint16(p[6:8]), Open: binary.LittleEndian.Uint32(p[blockOpenOff:])}
	if count == 0 || count > RecordsPerBlock {
		return block{}, fmt.Errorf("%w: record count %d", errBadBlock, count)
	}
	if !isZero(p[blockHdrBytes+count*recordBytes:blockOpenOff]) || !isZero(p[blockOpenOff+4:]) {
		return block{}, fmt.Errorf("%w: nonzero padding", errBadBlock)
	}
	if b.Patch != 0 && b.Open != 0 {
		return block{}, fmt.Errorf("%w: an open patch block", errBadBlock)
	}
	b.Recs = make([]record, count)
	for i := range b.Recs {
		rp := p[blockHdrBytes+i*recordBytes:]
		if rp[1] != 0 {
			return block{}, fmt.Errorf("%w: nonzero record pad", errBadBlock)
		}
		b.Recs[i] = decodeRecord(rp)
	}
	for _, r := range b.Recs {
		switch r.Kind {
		case kindEdgeLabel, kindVProp, kindLabelDef:
		default:
			return block{}, fmt.Errorf("%w: unknown record kind %d", errBadBlock, r.Kind)
		}
	}
	return b, nil
}

func isZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}
