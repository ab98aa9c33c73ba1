package adj

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/pmfs"
	"repro/internal/xpsim"
)

// accesses reports the XPLine lookups m's devices have served so far: one
// per line a read or write touches, hit or miss.
func accesses(m *xpsim.Machine) int64 {
	st := m.SnapshotStats()
	return st.BufHits + st.BufMisses
}

// linesOf counts the XPLines [off, end) touches.
func linesOf(off, end int64) int64 {
	return (end-1)/xpsim.XPLineSize - off/xpsim.XPLineSize + 1
}

// TestChainReadsFetchEachLineOnce puts one block at every 16-byte header
// offset of an XPLine, holding every record count from 0 to its capacity,
// in fixed and varint format, with and without checksums, and reads it
// through each walk. Every walk — trusting, checked over the links, or
// mirror — makes one device access per distinct XPLine of the block's
// header and records: the header read fetches the rest of its line and the
// decoder takes the records there from it. The recovery scan makes one
// access per distinct header line, plus the payload lines it checks and
// those of the varint records that reach past their header's line.
func TestChainReadsFetchEachLineOnce(t *testing.T) {
	const capacity = 80 // 352 block bytes: two or three lines
	for _, varint := range []bool{false, true} {
		for _, checksums := range []bool{false, true} {
			for at := int64(0); at < xpsim.XPLineSize; at += headerAlign {
				t.Run(fmt.Sprintf("varint=%v/checksums=%v/at=%d", varint, checksums, at), func(t *testing.T) {
					m := xpsim.NewMachine(1, 8<<20, xpsim.DefaultLatency())
					r, err := pmem.NewHeap(m).Map("lines", 4<<20, pmem.Placement{Kind: pmem.Bind, Node: 0})
					if err != nil {
						t.Fatal(err)
					}
					ctx := xpsim.NewCtx(0)
					s := New(r, &m.Lat, capacity, Options{Counts: CountsAcked, Checksums: checksums,
						VarintBlocks: varint, Sizing: func(int, int) int { return capacity }})
					filler := graph.VID(capacity + 1)
					for cnt := 0; cnt <= capacity; cnt++ {
						// A filler vertex's block moves the next allocation to
						// at within its line; the arena stays one parsable run
						// of blocks.
						if gap := (at - r.AllocBytes()%xpsim.XPLineSize + xpsim.XPLineSize) % xpsim.XPLineSize; gap != 0 {
							if gap < headerBytes+16 {
								gap += xpsim.XPLineSize
							}
							s.opts.Sizing = exactSizing
							if err := s.Append(ctx, filler, make([]uint32, (gap-headerBytes)/4)); err != nil {
								t.Fatal(err)
							}
							s.opts.Sizing = func(int, int) int { return capacity }
							filler++
						}
						v := graph.VID(cnt)
						if err := s.Reserve(ctx, v, 1); err != nil {
							t.Fatal(err)
						}
						recs := make([]uint32, cnt)
						for i := range recs {
							recs[i] = uint32(i*i*97) % 50000 // deltas of one to three varint bytes
						}
						if err := s.Append(ctx, v, recs); err != nil {
							t.Fatal(err)
						}
						if off := s.vx[v].tail; off%xpsim.XPLineSize != at {
							t.Fatalf("vertex %d's block at %d, not at %d in its line", v, off, at)
						}
					}
					s.Ack(ctx, s.epoch, 0, 1)
					for cnt := 0; cnt <= capacity; cnt++ {
						v := graph.VID(cnt)
						off := s.vx[v].tail
						for _, checked := range []bool{false, true} {
							before := accesses(m)
							got, err := raw(s, ctx, v, checked)
							if err != nil {
								t.Fatal(err)
							}
							if len(got) != cnt {
								t.Fatalf("vertex %d: %d records, want %d", v, len(got), cnt)
							}
							want := linesOf(off, off+headerBytes+int64(s.vx[v].bytes))
							if n := accesses(m) - before; n != want {
								t.Errorf("%d records at %d, checked=%v: %d device accesses, want %d", cnt, off, checked, n, want)
							}
						}
					}
					// Every vertex holds one block. Recovery reads the
					// allocation pointer and each header line; with Checksums
					// it reads every payload to check its CRC, and it decodes
					// the varint tails whose records reach past their header's
					// line to rebuild their cursors (the scan decoded the rest
					// from that line).
					headerLines := map[int64]bool{}
					want := int64(1)
					for v := range filler {
						off := s.vx[v].tail
						for l := off / xpsim.XPLineSize; l <= (off+headerBytes-1)/xpsim.XPLineSize; l++ {
							headerLines[l] = true
						}
						if s.vx[v].cnt == 0 {
							continue
						}
						payload := linesOf(off+headerBytes, off+headerBytes+int64(s.vx[v].bytes))
						if checksums {
							want += payload
						}
						lineEnd := (off + headerBytes + xpsim.XPLineSize - 1) / xpsim.XPLineSize * xpsim.XPLineSize
						if varint && off+headerBytes+int64(s.vx[v].bytes) > lineEnd {
							want += payload
						}
					}
					want += int64(len(headerLines))
					before := accesses(m)
					if _, err := RecoverWith(ctx, nil, 1, r, s.lat, s.opts, s.epoch, nil); err != nil {
						t.Fatal(err)
					}
					if n := accesses(m) - before; n != want {
						t.Errorf("recovery: %d device accesses, want %d (%d header lines)", n, want, len(headerLines))
					}
				})
			}
		}
	}
}

// TestWindowDroppedAcrossVisits: a visit may rewrite the blocks it walks
// (compaction and scrub release loops write dead headers), so nothing read
// after it may come from bytes fetched before it. Vertex 1's tail sits at
// the start of an XPLine and its older block further up the same line,
// inside the window the tail's header read fetched; the visit of the tail
// rewrites the older block's header, and the walk must read the new one.
func TestWindowDroppedAcrossVisits(t *testing.T) {
	s, r, _, ctx := testStore(t)
	s.opts.Sizing = func(int, int) int { return 4 }
	if _, err := r.Alloc(ctx, xpsim.XPLineSize-r.AllocBytes()%xpsim.XPLineSize, headerAlign); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ctx, 2, []uint32{20, 21, 22, 23}); err != nil { // at the line's start
		t.Fatal(err)
	}
	if err := s.Append(ctx, 1, []uint32{10, 11, 12, 13}); err != nil { // 48 bytes up
		t.Fatal(err)
	}
	first, older := s.vx[2].tail, s.vx[1].tail
	s.killBlock(ctx, first, 4, fmtFixed)
	s.vx[2] = vertex{}
	if err := s.Append(ctx, 1, []uint32{14, 15, 16, 17}); err != nil { // reuses the line's start
		t.Fatal(err)
	}
	if s.vx[1].tail != first || older/xpsim.XPLineSize != first/xpsim.XPLineSize {
		t.Fatalf("tail at %d, older block at %d: not one line", s.vx[1].tail, older)
	}
	var seen []uint32
	s.walk(ctx, 1, walkOpts{}, func(_ *reader, off int64, h header) error {
		seen = append(seen, h.vid)
		if off == first {
			s.writeDead(ctx, older, 4, fmtFixed)
		}
		return nil
	})
	if want := []uint32{1, deadVID}; !slices.Equal(seen, want) {
		t.Fatalf("the walk saw vids %x, want %x: the older block's header came from before the visit rewrote it", seen, want)
	}
}

// TestHeaderLineClampedToTheArena: a header's line may run past the end of
// what the memory handed out — a pmfs file ends at its last allocation, and
// reading past it is an error. A block ending there reads back whole.
func TestHeaderLineClampedToTheArena(t *testing.T) {
	m := xpsim.NewMachine(1, 64<<20, xpsim.DefaultLatency())
	r, err := pmem.NewHeap(m).Map("fs", 32<<20, pmem.Placement{Kind: pmem.Bind, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	fm, err := pmfs.NewFileMem(ctx, pmfs.NewFS(r, &m.Lat), "adj", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Alloc(ctx, 64, headerAlign); err != nil { // offset 0 means no block
		t.Fatal(err)
	}
	s := New(fm, &m.Lat, 4, Options{Sizing: exactSizing})
	if err := s.Append(ctx, 1, []uint32{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if end := fm.AllocBytes(); end%xpsim.XPLineSize == 0 {
		t.Fatalf("the block ends at %d, a line boundary: nothing to clamp", end)
	}
	if got := s.Neighbors(ctx, 1, nil); !slices.Equal(got, []uint32{7, 8, 9}) {
		t.Fatalf("neighbors %v, want [7 8 9]", got)
	}
}

// TestCyclicChainFailsTyped: a prev link that loops back into the chain
// fails every walk over the links with *CorruptError once the blocks would
// hand over more records than the vertex holds — the walk visits as it
// follows the links, so the bound, not a validation pass, is what stops it.
func TestCyclicChainFailsTyped(t *testing.T) {
	s, r, _, ctx := testStore(t)
	s.opts.Sizing = func(int, int) int { return 4 }
	for i := range uint32(3) {
		if err := s.Append(ctx, 1, []uint32{4 * i, 4*i + 1, 4*i + 2, 4*i + 3}); err != nil {
			t.Fatal(err)
		}
	}
	tail, oldest := s.vx[1].tail, int64(0)
	s.walk(ctx, 1, walkOpts{}, func(_ *reader, off int64, _ header) error {
		oldest = off
		return nil
	})
	var buf [headerBytes]byte
	r.Read(ctx, oldest, buf[:])
	h := parseHeader(buf[:])
	h.prev = tail
	h.put(buf[:])
	r.Write(ctx, oldest, buf[:])
	for _, checked := range []bool{false, true} {
		got, err := raw(s, ctx, 1, checked)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("checked=%v: a cyclic chain read %d records and returned %v, want a *CorruptError", checked, len(got), err)
		}
		if len(got) > s.Records(1) {
			t.Fatalf("checked=%v: a cyclic chain handed over %d records, the vertex holds %d", checked, len(got), s.Records(1))
		}
	}
}
