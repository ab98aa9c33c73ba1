package ingest

// The binary batch wire format (DESIGN.md §10.1) — the allocation-free
// fast path behind POST /v1/ingest/bin:
//
//	batch = magic frame*              magic = "XPB1"
//	frame = op u8 · count u32le · payload
//
//	op 0x01 add, fixed:     payload = count × (src u32le · dst u32le)
//	op 0x02 delete, fixed:  payload = count × (src u32le · dst u32le)
//	op 0x03 compact varint: payload = count ×
//	          (uvarint zigzag(int64(src) - int64(prevSrc)) ·
//	           uvarint (dst<<1 | del))
//	op 0x04 typed add:      payload = count × (src u32le · dst u32le · lbl u16le)
//	op 0x05 property set:   payload = count × (vid u32le · key u16le · val i64le)
//
// count is 1..maxFrameEdges. Fixed payloads require the destination's
// top bit (graph.DelFlag) clear — the op carries deletion, so a set flag
// bit is a malformed frame, not a covert delete. The compact op resets
// prevSrc to 0 at each frame start and carries the delete bit in the
// destination word's low bit, so a source-sorted batch (the natural
// output of an edge-list loader) costs ~3 bytes/edge instead of 8.
//
// Ops 0x04/0x05 are the property-graph extension (DESIGN.md §13): a
// typed add carries the edge's label id and a property frame carries
// last-write-wins vertex-property records. They decode only through
// DecodeBatchTyped — the plain DecodeBatch rejects them like any unknown
// op, so a store without the property layer refuses typed batches with
// bad_frame instead of silently dropping the labels.
//
// Versioning: the magic's trailing byte is the format version ("XPB1");
// a future layout bumps it and servers reject unknown magics as
// ErrBadFrame before reading any frame. Unknown ops likewise. Errors
// travel back in the server's standard JSON error envelope with code
// "bad_frame".

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/graph"
)

// ContentTypeBatch is the media type of the binary batch format.
const ContentTypeBatch = "application/x-xpgraph-batch"

// BatchMagic opens every binary batch stream.
const BatchMagic = "XPB1"

const (
	opAddFixed = 0x01
	opDelFixed = 0x02
	opCompact  = 0x03
	opTypedAdd = 0x04
	opPropSet  = 0x05

	typedRecBytes = 10 // src u32le · dst u32le · lbl u16le
	propRecBytes  = 14 // vid u32le · key u16le · val i64le

	// maxFrameEdges bounds one frame's count word, so a corrupt count
	// cannot make the decoder attempt a multi-gigabyte allocation.
	maxFrameEdges = 1 << 20

	// maxWireVarint bounds one uvarint field: zigzag of a source delta is
	// < 1<<33 and a destination word is < 1<<32, both <= 5 bytes.
	maxWireVarint = 5
)

var (
	// ErrBadFrame reports a malformed binary batch: wrong magic, unknown
	// op, zero or oversized count, truncated payload, overlong varint, or
	// a fixed destination carrying the deletion bit.
	ErrBadFrame = errors.New("ingest: malformed batch frame")
	// ErrBatchTooLarge reports a batch whose decoded edge count exceeds
	// the caller's limit.
	ErrBatchTooLarge = errors.New("ingest: batch exceeds edge limit")
)

// readerPool recycles the decoder's buffered readers so each request
// costs no allocation beyond the edge slice growth.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64<<10) },
}

// TypedBatch is a decoded binary batch together with its property-graph
// payload. Labels is nil until a typed frame appears; once non-nil it is
// index-aligned with Edges (edges from untyped frames carry the default
// label).
type TypedBatch struct {
	Edges  []graph.Edge
	Labels []uint16
	Props  []graph.PropSet
}

// DecodeBatch decodes a binary batch stream, appending to dst. It stops
// at clean EOF (the stream may hold any number of frames) and returns
// ErrBadFrame for structural corruption and ErrBatchTooLarge once more
// than maxEdges records accumulate (maxEdges <= 0 means unlimited).
// Typed frames (ops 0x04/0x05) are rejected; see DecodeBatchTyped.
func DecodeBatch(r io.Reader, dst []graph.Edge, maxEdges int) ([]graph.Edge, error) {
	b := TypedBatch{Edges: dst}
	err := decodeFrames(r, &b, maxEdges, false)
	return b.Edges, err
}

// DecodeBatchTyped decodes a binary batch stream including the typed ops,
// appending to b (b.Edges may carry a pooled buffer). maxEdges bounds
// edges and property records together — both are attacker-controlled
// allocation.
func DecodeBatchTyped(r io.Reader, b *TypedBatch, maxEdges int) error {
	return decodeFrames(r, b, maxEdges, true)
}

func decodeFrames(r io.Reader, b *TypedBatch, maxEdges int, typed bool) error {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()

	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("%w: missing magic: %v", ErrBadFrame, err)
	}
	if string(magic[:]) != BatchMagic {
		return fmt.Errorf("%w: magic %q", ErrBadFrame, magic[:])
	}

	var scratch [4096]byte
	for {
		op, err := br.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return fmt.Errorf("%w: truncated frame header: %v", ErrBadFrame, err)
		}
		count := int(binary.LittleEndian.Uint32(scratch[:4]))
		if count == 0 || count > maxFrameEdges {
			return fmt.Errorf("%w: frame count %d", ErrBadFrame, count)
		}
		if maxEdges > 0 && len(b.Edges)+len(b.Props)+count > maxEdges {
			return ErrBatchTooLarge
		}
		switch op {
		case opAddFixed, opDelFixed:
			b.Edges, err = decodeFixedFrame(br, b.Edges, count, op == opDelFixed, scratch[:])
		case opCompact:
			b.Edges, err = decodeCompactFrame(br, b.Edges, count)
		case opTypedAdd:
			if !typed {
				return fmt.Errorf("%w: typed op 0x%02x outside a typed decode", ErrBadFrame, op)
			}
			err = decodeTypedFrame(br, b, count, scratch[:])
		case opPropSet:
			if !typed {
				return fmt.Errorf("%w: typed op 0x%02x outside a typed decode", ErrBadFrame, op)
			}
			err = decodePropFrame(br, b, count, scratch[:])
		default:
			return fmt.Errorf("%w: unknown op 0x%02x", ErrBadFrame, op)
		}
		if err != nil {
			return err
		}
		// Keep Labels index-aligned with Edges once any typed frame
		// materialized it: untyped frames' edges carry the default label.
		if b.Labels != nil && len(b.Labels) < len(b.Edges) {
			b.Labels = append(b.Labels, make([]uint16, len(b.Edges)-len(b.Labels))...)
		}
	}
}

// decodeTypedFrame reads count 10-byte typed-add records.
func decodeTypedFrame(br *bufio.Reader, b *TypedBatch, count int, scratch []byte) error {
	if b.Labels == nil {
		b.Labels = make([]uint16, len(b.Edges))
	}
	for count > 0 {
		n := count
		if n > len(scratch)/typedRecBytes {
			n = len(scratch) / typedRecBytes
		}
		chunk := scratch[:n*typedRecBytes]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return fmt.Errorf("%w: truncated typed payload: %v", ErrBadFrame, err)
		}
		for i := 0; i < n; i++ {
			rec := chunk[i*typedRecBytes:]
			e := graph.Edge{
				Src: binary.LittleEndian.Uint32(rec[0:4]),
				Dst: binary.LittleEndian.Uint32(rec[4:8]),
			}
			if e.Dst&graph.DelFlag != 0 {
				return fmt.Errorf("%w: typed destination %d carries the delete bit", ErrBadFrame, e.Dst)
			}
			b.Edges = append(b.Edges, e)
			b.Labels = append(b.Labels, binary.LittleEndian.Uint16(rec[8:10]))
		}
		count -= n
	}
	return nil
}

// decodePropFrame reads count 14-byte property-set records.
func decodePropFrame(br *bufio.Reader, b *TypedBatch, count int, scratch []byte) error {
	for count > 0 {
		n := count
		if n > len(scratch)/propRecBytes {
			n = len(scratch) / propRecBytes
		}
		chunk := scratch[:n*propRecBytes]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return fmt.Errorf("%w: truncated property payload: %v", ErrBadFrame, err)
		}
		for i := 0; i < n; i++ {
			rec := chunk[i*propRecBytes:]
			b.Props = append(b.Props, graph.PropSet{
				V:   binary.LittleEndian.Uint32(rec[0:4]),
				Key: binary.LittleEndian.Uint16(rec[4:6]),
				Val: int64(binary.LittleEndian.Uint64(rec[6:14])),
			})
		}
		count -= n
	}
	return nil
}

// decodeFixedFrame reads count 8-byte records through a reused scratch
// buffer — no per-edge allocation, no reflection.
func decodeFixedFrame(br *bufio.Reader, dst []graph.Edge, count int, del bool, scratch []byte) ([]graph.Edge, error) {
	for count > 0 {
		n := count
		if n > len(scratch)/graph.EdgeBytes {
			n = len(scratch) / graph.EdgeBytes
		}
		chunk := scratch[:n*graph.EdgeBytes]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return dst, fmt.Errorf("%w: truncated fixed payload: %v", ErrBadFrame, err)
		}
		for i := 0; i < n; i++ {
			e := graph.DecodeEdge(chunk[i*graph.EdgeBytes:])
			if e.Dst&graph.DelFlag != 0 {
				return dst, fmt.Errorf("%w: fixed destination %d carries the delete bit", ErrBadFrame, e.Dst)
			}
			if del {
				e.Dst |= graph.DelFlag
			}
			dst = append(dst, e)
		}
		count -= n
	}
	return dst, nil
}

// decodeCompactFrame reads count delta-varint records. prevSrc resets
// per frame, matching the encoder.
func decodeCompactFrame(br *bufio.Reader, dst []graph.Edge, count int) ([]graph.Edge, error) {
	var prevSrc int64
	for i := 0; i < count; i++ {
		d, err := readWireUvarint(br)
		if err != nil {
			return dst, err
		}
		src := prevSrc + unzigzag(d)
		if src < 0 || src > int64(^uint32(0)) {
			return dst, fmt.Errorf("%w: source delta walks outside uint32", ErrBadFrame)
		}
		prevSrc = src
		w, err := readWireUvarint(br)
		if err != nil {
			return dst, err
		}
		if w >= 1<<32 {
			return dst, fmt.Errorf("%w: destination word overflows", ErrBadFrame)
		}
		e := graph.Edge{Src: uint32(src), Dst: uint32(w >> 1)}
		if w&1 != 0 {
			e.Dst |= graph.DelFlag
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// readWireUvarint reads one bounded uvarint field.
func readWireUvarint(br *bufio.Reader) (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; i < maxWireVarint; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("%w: truncated varint: %v", ErrBadFrame, err)
		}
		if b < 0x80 {
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, fmt.Errorf("%w: overlong varint", ErrBadFrame)
}

// unzigzag undoes zigzag coding (shared with internal/adj's block
// encoding; duplicated two-liner to keep the packages independent).
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// EncodeBatch builds a binary batch stream. With compact=false adds and
// deletes go out as fixed frames (op runs preserved in order); with
// compact=true everything goes through op 0x03. The encoding is what
// clients send; see the README example.
func EncodeBatch(edges []graph.Edge, compact bool) []byte {
	buf := append(make([]byte, 0, 5+len(edges)*graph.EdgeBytes), BatchMagic...)
	if compact {
		for off := 0; off < len(edges); off += maxFrameEdges {
			end := off + maxFrameEdges
			if end > len(edges) {
				end = len(edges)
			}
			buf = appendCompactFrame(buf, edges[off:end])
		}
		return buf
	}
	for off := 0; off < len(edges); {
		del := edges[off].IsDelete()
		end := off
		for end < len(edges) && edges[end].IsDelete() == del && end-off < maxFrameEdges {
			end++
		}
		buf = appendFixedFrame(buf, edges[off:end], del)
		off = end
	}
	return buf
}

// EncodeTypedBatch builds a typed binary batch stream: adds go out as
// typed frames carrying labels[i] (default label when labels is short),
// deletes as plain delete frames (deletions never carry labels), and
// props as property frames after the edges. Decode with
// DecodeBatchTyped; a server without the property layer rejects the
// stream as bad_frame.
func EncodeTypedBatch(edges []graph.Edge, labels []uint16, props []graph.PropSet) []byte {
	buf := append(make([]byte, 0, 5+len(edges)*typedRecBytes+len(props)*propRecBytes), BatchMagic...)
	lbl := func(i int) uint16 {
		if i < len(labels) {
			return labels[i]
		}
		return uint16(graph.DefaultLabel)
	}
	for off := 0; off < len(edges); {
		del := edges[off].IsDelete()
		end := off
		for end < len(edges) && edges[end].IsDelete() == del && end-off < maxFrameEdges {
			end++
		}
		if del {
			buf = appendFixedFrame(buf, edges[off:end], true)
		} else {
			buf = append(buf, opTypedAdd)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(end-off))
			for i := off; i < end; i++ {
				buf = binary.LittleEndian.AppendUint32(buf, edges[i].Src)
				buf = binary.LittleEndian.AppendUint32(buf, edges[i].Dst&^graph.DelFlag)
				buf = binary.LittleEndian.AppendUint16(buf, lbl(i))
			}
		}
		off = end
	}
	for off := 0; off < len(props); off += maxFrameEdges {
		end := off + maxFrameEdges
		if end > len(props) {
			end = len(props)
		}
		buf = append(buf, opPropSet)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(end-off))
		for _, p := range props[off:end] {
			buf = binary.LittleEndian.AppendUint32(buf, p.V)
			buf = binary.LittleEndian.AppendUint16(buf, p.Key)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Val))
		}
	}
	return buf
}

func appendFixedFrame(buf []byte, edges []graph.Edge, del bool) []byte {
	op := byte(opAddFixed)
	if del {
		op = opDelFixed
	}
	buf = append(buf, op)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, e.Src)
		buf = binary.LittleEndian.AppendUint32(buf, e.Dst&^graph.DelFlag)
	}
	return buf
}

func appendCompactFrame(buf []byte, edges []graph.Edge) []byte {
	buf = append(buf, opCompact)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(edges)))
	var prevSrc int64
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, zigzag(int64(e.Src)-prevSrc))
		prevSrc = int64(e.Src)
		w := uint64(e.Dst&^graph.DelFlag) << 1
		if e.IsDelete() {
			w |= 1
		}
		buf = binary.AppendUvarint(buf, w)
	}
	return buf
}

// DecodeJSONEdges streams the {"edges":[{"src":..,"dst":..},...]} body
// into dst without buffering the request or materializing an
// intermediate struct slice. With del set every edge becomes a deletion
// record. Unknown top-level keys are skipped; more than maxEdges edges
// return ErrBatchTooLarge (maxEdges <= 0 means unlimited).
func DecodeJSONEdges(r io.Reader, dst []graph.Edge, del bool, maxEdges int) ([]graph.Edge, error) {
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return dst, err
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return dst, err
		}
		key, _ := tok.(string)
		if key != "edges" {
			if err := skipJSONValue(dec); err != nil {
				return dst, err
			}
			continue
		}
		if err := expectDelim(dec, '['); err != nil {
			return dst, err
		}
		var e struct {
			Src graph.VID `json:"src"`
			Dst graph.VID `json:"dst"`
		}
		for dec.More() {
			if maxEdges > 0 && len(dst) >= maxEdges {
				return dst, ErrBatchTooLarge
			}
			e.Src, e.Dst = 0, 0
			if err := dec.Decode(&e); err != nil {
				return dst, err
			}
			edge := graph.Edge{Src: e.Src, Dst: e.Dst}
			if del {
				edge.Dst |= graph.DelFlag
			}
			dst = append(dst, edge)
		}
		if err := expectDelim(dec, ']'); err != nil {
			return dst, err
		}
	}
	return dst, expectDelim(dec, '}')
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("ingest: expected %q in JSON body, got %v", want, tok)
	}
	return nil
}

// skipJSONValue consumes one JSON value (scalar, object, or array) from
// the token stream.
func skipJSONValue(dec *json.Decoder) error {
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
		}
		if depth == 0 {
			return nil
		}
	}
}
