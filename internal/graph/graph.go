// Package graph holds the graph types every store shares: 4-byte vertex IDs
// and 8-byte edge records. These are the formats the paper's systems use
// throughout (edge logs, adjacency lists, binary edge-list files).
package graph

import (
	"encoding/binary"
	"fmt"
)

// VID is a vertex identifier. The paper uses 4-byte vertex IDs; the
// read-modify-write amplification argument of §II-C depends on them.
type VID = uint32

// DelFlag marks a logged edge as a deletion (del_edge of Table I). It
// occupies the top bit of the destination ID.
const DelFlag uint32 = 1 << 31

// EdgeBytes is the size of one edge record.
const EdgeBytes = 8

// Edge is a directed edge record. Dst may carry DelFlag.
type Edge struct {
	Src VID
	Dst VID
}

// IsDelete reports whether the record is a deletion.
func (e Edge) IsDelete() bool { return e.Dst&DelFlag != 0 }

// Target returns the destination ID without the deletion flag.
func (e Edge) Target() VID { return e.Dst &^ DelFlag }

// Del returns the deletion record for (src, dst).
func Del(src, dst VID) Edge { return Edge{Src: src, Dst: dst | DelFlag} }

func (e Edge) String() string {
	if e.IsDelete() {
		return fmt.Sprintf("del(%d->%d)", e.Src, e.Target())
	}
	return fmt.Sprintf("%d->%d", e.Src, e.Dst)
}

// Encode writes the edge into an 8-byte buffer.
func (e Edge) Encode(p []byte) {
	binary.LittleEndian.PutUint32(p[0:4], e.Src)
	binary.LittleEndian.PutUint32(p[4:8], e.Dst)
}

// DecodeEdge reads an edge from an 8-byte buffer.
func DecodeEdge(p []byte) Edge {
	return Edge{
		Src: binary.LittleEndian.Uint32(p[0:4]),
		Dst: binary.LittleEndian.Uint32(p[4:8]),
	}
}

// EncodeEdges packs edges into the binary edge-list format (the "Bin
// Size" format of Table II).
func EncodeEdges(edges []Edge) []byte {
	buf := make([]byte, len(edges)*EdgeBytes)
	for i, e := range edges {
		e.Encode(buf[i*EdgeBytes:])
	}
	return buf
}

// DecodeEdges unpacks a binary edge list.
func DecodeEdges(buf []byte) ([]Edge, error) {
	if len(buf)%EdgeBytes != 0 {
		return nil, fmt.Errorf("graph: edge list length %d not a multiple of %d", len(buf), EdgeBytes)
	}
	edges := make([]Edge, len(buf)/EdgeBytes)
	for i := range edges {
		edges[i] = DecodeEdge(buf[i*EdgeBytes:])
	}
	return edges, nil
}

// MaxVID returns the largest vertex ID referenced by edges (ignoring the
// deletion flag), or 0 for an empty list.
func MaxVID(edges []Edge) VID {
	var m VID
	for _, e := range edges {
		if e.Src > m {
			m = e.Src
		}
		if t := e.Target(); t > m {
			m = t
		}
	}
	return m
}
