package adj

import (
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/graph"
)

// This file holds the DRAM mirrors behind checksummed self-describing
// blocks.
//
// With Options.Checksums the two spare header words become per-slot
// CRC32-C checksums of the visible payload (header.go). The running CRC is
// maintained in DRAM as records append (computed from the bytes software
// wrote, never from the media, so later media corruption cannot launder
// itself into the mirror) and persisted by the same write that persists
// the count.
//
// The store additionally mirrors each vertex's chain layout (block offsets,
// capacities and formats) in DRAM. Verification and repair walk that
// mirror, so a scrambled on-media header — garbage vid, cap, prev — can be
// detected and routed around instead of derailing the walk into unrelated
// memory.

// castagnoli is the CRC32-C polynomial table (the checksum Optane DIMMs
// and most storage formats use; hardware-accelerated on x86).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a block whose media bytes read back fine (no UE)
// but disagree with the acknowledged checksum or the DRAM layout mirror —
// a torn write or silent corruption that checked reads refuse to serve.
type CorruptError struct {
	V      graph.VID
	Block  int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("adj: vertex %d block @%d corrupt: %s", e.V, e.Block, e.Reason)
}

// blockMirror is what a Checksums store remembers of one live block.
type blockMirror struct {
	capacity uint32
	crc      uint32 // running CRC32-C of the appended payload
	format   uint8
}

// noteBlock registers off as the newest block of v's chain in the DRAM
// mirrors.
func (s *Store) noteBlock(v graph.VID, off int64, m blockMirror) {
	s.mirror[off] = m
	s.chains[v] = append([]int64{off}, s.chains[v]...)
}

// HeaderBytes is the size of the header that opens every span ChainSpans
// returns; the rest of the span is payload.
const HeaderBytes = headerBytes

// ChainSpans returns the {offset, size} of every block in v's chain from
// the DRAM layout mirror — the spans a scrubber quarantines when the
// vertex cannot be repaired. Checksums stores only.
func (s *Store) ChainSpans(v graph.VID) [][2]int64 {
	if !s.opts.Checksums {
		panic("adj: ChainSpans requires Checksums")
	}
	spans := make([][2]int64, 0, len(s.chains[v]))
	for _, off := range s.chains[v] {
		spans = append(spans, [2]int64{off, headerBytes + 4*int64(s.mirror[off].capacity)})
	}
	return spans
}

// Suspects returns the vertices whose media payload disagreed with the
// acknowledged checksum when the store was recovered — damage the scrubber
// should verify and repair first.
func (s *Store) Suspects() []graph.VID {
	return slices.Clone(s.suspects)
}
