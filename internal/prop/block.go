// Package prop is the property-graph layer of the store: typed edges
// (a small label id per edge) and last-write-wins vertex properties,
// persisted in PMEM-resident, CRC-guarded column blocks and mirrored in
// a DRAM index for constant-time lookups on the read path.
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
	// RecordBytes is the size of one encoded record.
	RecordBytes = 16
	// RecordsPerBlock is how many records one block holds.
	RecordsPerBlock = 15

	blockHdrBytes = 8
	blockOpenOff  = blockHdrBytes + RecordsPerBlock*RecordBytes
)

// Record kinds.
const (
	KindEdgeLabel = 1
	KindVProp     = 2
	KindLabelDef  = 3
)

// MaxLabelName bounds a label-def name (it is packed into one record).
const MaxLabelName = 12

// ErrBadBlock reports a column block that fails its checksum or carries
// a structurally impossible header.
var ErrBadBlock = errors.New("prop: corrupt column block")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded column-log record.
type Record struct {
	Kind uint8
	Lbl  uint16
	Src  uint32
	Dst  uint32
	Ext  uint32
}

// EdgeLabelRecord builds the record that sets the label of (src, dst).
func EdgeLabelRecord(src, dst uint32, lbl uint16) Record {
	return Record{Kind: KindEdgeLabel, Lbl: lbl, Src: src, Dst: dst}
}

// VPropRecord builds the record that sets property key of vertex v.
func VPropRecord(v uint32, key uint16, val int64) Record {
	return Record{Kind: KindVProp, Lbl: key, Src: v,
		Dst: uint32(uint64(val)), Ext: uint32(uint64(val) >> 32)}
}

// Value unpacks a KindVProp record's 64-bit value.
func (r Record) Value() int64 {
	return int64(uint64(r.Dst) | uint64(r.Ext)<<32)
}

// LabelDefRecord builds the record that registers name under label id.
// The name must fit MaxLabelName bytes.
func LabelDefRecord(id uint16, name string) Record {
	var b [12]byte
	copy(b[:], name)
	return Record{Kind: KindLabelDef, Lbl: id,
		Src: binary.LittleEndian.Uint32(b[0:4]),
		Dst: binary.LittleEndian.Uint32(b[4:8]),
		Ext: binary.LittleEndian.Uint32(b[8:12])}
}

// LabelName unpacks a KindLabelDef record's name.
func (r Record) LabelName() string {
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

func (r Record) encode(p []byte) {
	p[0] = r.Kind
	p[1] = 0
	binary.LittleEndian.PutUint16(p[2:4], r.Lbl)
	binary.LittleEndian.PutUint32(p[4:8], r.Src)
	binary.LittleEndian.PutUint32(p[8:12], r.Dst)
	binary.LittleEndian.PutUint32(p[12:16], r.Ext)
}

func decodeRecord(p []byte) Record {
	return Record{
		Kind: p[0],
		Lbl:  binary.LittleEndian.Uint16(p[2:4]),
		Src:  binary.LittleEndian.Uint32(p[4:8]),
		Dst:  binary.LittleEndian.Uint32(p[8:12]),
		Ext:  binary.LittleEndian.Uint32(p[12:16]),
	}
}

// Block is one column block's content.
type Block struct {
	Recs []Record
	// Patch is 0 for a normal block, or target+1 when this block logically
	// replaces an earlier one.
	Patch uint16
	// Open is 0 for a block that closes its flush, or start+1 for an
	// earlier block of the flush whose first block is start.
	Open uint32
}

// EncodeBlock renders b into dst (BlockBytes long, zeroed by the caller or
// reused — it is fully overwritten). b holds 1..RecordsPerBlock records.
func EncodeBlock(dst []byte, b Block) {
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
		r.encode(dst[blockHdrBytes+i*RecordBytes:])
	}
	binary.LittleEndian.PutUint32(dst[blockOpenOff:], b.Open)
	binary.LittleEndian.PutUint32(dst[0:4], crc32.Checksum(dst[4:BlockBytes], castagnoli))
}

// DecodeBlock parses one column block, or returns ErrBadBlock when the
// checksum or header is invalid. A block that is entirely zero (never
// written) decodes to a Block with nil Recs and no error.
func DecodeBlock(p []byte) (Block, error) {
	if len(p) < BlockBytes {
		return Block{}, fmt.Errorf("%w: short block (%d bytes)", ErrBadBlock, len(p))
	}
	p = p[:BlockBytes]
	if isZero(p) {
		return Block{}, nil
	}
	if got, want := crc32.Checksum(p[4:], castagnoli), binary.LittleEndian.Uint32(p[0:4]); got != want {
		return Block{}, fmt.Errorf("%w: crc mismatch (stored %08x, computed %08x)", ErrBadBlock, want, got)
	}
	count := int(binary.LittleEndian.Uint16(p[4:6]))
	b := Block{Patch: binary.LittleEndian.Uint16(p[6:8]), Open: binary.LittleEndian.Uint32(p[blockOpenOff:])}
	if count == 0 || count > RecordsPerBlock {
		return Block{}, fmt.Errorf("%w: record count %d", ErrBadBlock, count)
	}
	if !isZero(p[blockHdrBytes+count*RecordBytes:blockOpenOff]) || !isZero(p[blockOpenOff+4:]) {
		return Block{}, fmt.Errorf("%w: nonzero padding", ErrBadBlock)
	}
	if b.Patch != 0 && b.Open != 0 {
		return Block{}, fmt.Errorf("%w: an open patch block", ErrBadBlock)
	}
	b.Recs = make([]Record, count)
	for i := range b.Recs {
		rp := p[blockHdrBytes+i*RecordBytes:]
		if rp[1] != 0 {
			return Block{}, fmt.Errorf("%w: nonzero record pad", ErrBadBlock)
		}
		b.Recs[i] = decodeRecord(rp)
	}
	for _, r := range b.Recs {
		switch r.Kind {
		case KindEdgeLabel, KindVProp, KindLabelDef:
		default:
			return Block{}, fmt.Errorf("%w: unknown record kind %d", ErrBadBlock, r.Kind)
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
