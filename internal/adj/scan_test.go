package adj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// scanCase is one arena for the split-scan tests. arena builds it on a
// fresh machine; building is deterministic, so two calls give two identical
// arenas.
type scanCase struct {
	name string
	opts Options
	// fakes writes payload that passes for block headers into the hub.
	fakes bool
	// frontier overwrites the header of the first block allocated after
	// the last commit with garbage: the scan's frontier, with the blocks
	// allocated after it behind it.
	frontier bool
	// quarantine poisons the header line of a block, which a scrub then
	// rewrites dead and quarantines (ReplaceChain).
	quarantine bool
}

var scanCases = []scanCase{
	{name: "fixed", opts: Options{Counts: CountsAcked}, fakes: true, frontier: true},
	{name: "fixed-no-frontier", opts: Options{Counts: CountsAcked}, fakes: true},
	{name: "varint", opts: Options{Counts: CountsAcked, VarintBlocks: true}, frontier: true},
	{name: "varint-checksums", opts: Options{Counts: CountsAcked, VarintBlocks: true, Checksums: true}},
	{name: "checksums", opts: Options{Counts: CountsAcked, Checksums: true}, quarantine: true},
}

// scanHub is the vertex whose one block spans several segments.
const scanHub = 0

// arena builds c's arena and returns it with the epoch its log committed
// and its quarantine. Vertices 1..299 get chains of small blocks, some
// compacted (dead blocks) and then refilled (recycled ones), around the
// hub's block; the last compaction's journal is left armed. On varint
// blocks every 13th light vertex then takes a long append, so tails whose
// visible records run past their header's line are many.
func (c scanCase) arena(t *testing.T) (*pmem.Region, *xpsim.Machine, uint32, map[int64]bool) {
	t.Helper()
	m := xpsim.NewMachine(2, 64<<20, xpsim.DefaultLatency())
	r, err := pmem.NewHeap(m).Map("arena", 8<<20, pmem.Placement{Kind: pmem.Bind, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	s := New(r, &m.Lat, 16, c.opts)
	rng := rand.New(rand.NewSource(41))
	light := func(n int) {
		for range n {
			v := graph.VID(1 + rng.Intn(299))
			recs := make([]uint32, 1+rng.Intn(40))
			for i := range recs {
				recs[i] = rng.Uint32() >> 1
			}
			if err := s.Append(ctx, v, recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	ack := func() {
		s.Ack(ctx, s.epoch, 0, 1)
	}
	light(1500)
	hub := make([]uint32, 40000)
	for i := range hub {
		hub[i] = rng.Uint32() >> 1
	}
	if err := s.Append(ctx, scanHub, hub); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ctx, scanHub, []uint32{1}); err != nil { // the hub's block retires
		t.Fatal(err)
	}
	light(1500)
	ack()
	ack() // compaction and repair rewrite records acknowledged at both parities
	for v := graph.VID(1); v < 300; v += 7 {
		if err := s.Compact(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	light(600)
	if c.opts.VarintBlocks {
		for v := graph.VID(2); v < 300; v += 13 {
			recs := make([]uint32, 100+rng.Intn(200))
			for i := range recs {
				recs[i] = rng.Uint32() >> 1
			}
			if err := s.Append(ctx, v, recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	ack()
	// Blocks allocated after the last commit hold no acknowledged record:
	// the frontier may fall on the first of them.
	tail := r.AllocBytes()
	light(1500)

	var quar map[int64]bool
	if c.quarantine {
		quar = quarantineOne(t, s, m, ctx)
	}
	blocks := scanLayout(t, s, r, quar)
	if s.journal == 0 {
		t.Fatal("setup: no compaction journal")
	}
	// Arm the journal over a light vertex's first block, as a swap that
	// crashed after arming would have left it over its new block.
	var armed scanned
	for _, b := range blocks {
		if b.vid != scanHub && b.vid < 300 && b.prev == 0 && b.visible > 0 {
			armed = b
			break
		}
	}
	if armed.off == 0 {
		t.Fatal("setup: no first block to arm the journal over")
	}
	var words [16]byte
	binary.LittleEndian.PutUint64(words[:], uint64(armed.vid)|uint64(armed.off/headerAlign)<<32)
	binary.LittleEndian.PutUint64(words[8:], uint64(journalMagic)<<32)
	r.Write(ctx, s.journal+headerBytes, words[:])

	if c.fakes {
		fakeHeaders(t, r, ctx, blocks, rng)
	}
	if c.frontier {
		i := slices.IndexFunc(blocks, func(b scanned) bool { return b.off >= tail })
		r.Write(ctx, blocks[i].off, make([]byte, headerBytes))
	}
	r.Flush(ctx, r.UserStart(), r.AllocBytes()-r.UserStart())
	return r, m, s.epoch - 1, quar
}

// scanLayout is the arena's blocks as the serial scan finds them.
func scanLayout(t *testing.T, s *Store, r *pmem.Region, quar map[int64]bool) []scanned {
	t.Helper()
	ctx := xpsim.NewCtx(0)
	blocks, _, err := s.scan(ctx, nil, 1, align(r.UserStart(), headerAlign), r.PersistedAllocOffset(ctx), s.epoch-1, quar)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// fakeHeaders writes a header that plausible and starts both accept every
// XPLine of the hub's payload, each sized to lead a walk that trusts it to
// another fake, into the hub's payload between them or a later block's, or
// onto a later block's header, skipping the blocks in between. Every fourth names a prev block
// of its vertex, which starts reads and accepts.
func fakeHeaders(t *testing.T, r *pmem.Region, ctx *xpsim.Ctx, blocks []scanned, rng *rand.Rand) {
	t.Helper()
	var hub scanned
	for _, b := range blocks {
		if b.vid == scanHub && b.capacity >= 40000 {
			hub = b
		}
	}
	if hub.off == 0 {
		t.Fatal("setup: no hub block")
	}
	var later []scanned
	for _, b := range blocks {
		if b.off > hub.off && b.vid != deadVID && b.vid != journalVID {
			later = append(later, b)
		}
	}
	payload, end := hub.off+headerBytes, hub.off+hub.size()
	for off := align(payload, xpsim.XPLineSize); off+xpsim.XPLineSize <= end; off += xpsim.XPLineSize {
		var target int64
		switch rng.Intn(4) {
		case 0:
			target = off + int64(1+rng.Intn(8))*xpsim.XPLineSize
		case 1:
			target = off + int64(1+rng.Intn(8))*xpsim.XPLineSize + xpsim.XPLineSize/2
		case 2:
			b := later[rng.Intn(len(later))]
			target = b.off + headerBytes + 16*int64(rng.Intn(int(4*b.capacity/16)+1))
		default:
			target = later[rng.Intn(len(later))].off
		}
		if target <= off+headerBytes {
			continue
		}
		h := header{vid: 7, capacity: uint32((target - off - headerBytes) / 4), epoch: 1, cnt: [2]uint32{1, 1}}
		if rng.Intn(4) == 0 {
			for _, b := range blocks {
				if b.vid == 7 && b.off < off {
					h.prev = b.off
				}
			}
		}
		var buf [headerBytes]byte
		h.put(buf[:])
		r.Write(ctx, off, buf[:])
	}
}

// quarantineOne poisons the first line of a light block that fills it,
// and repairs its vertex as a scrub does: ReplaceChain
// writes dead headers over the old chain, whose spans become the
// quarantine.
func quarantineOne(t *testing.T, s *Store, m *xpsim.Machine, ctx *xpsim.Ctx) map[int64]bool {
	t.Helper()
	r := s.m.(*pmem.Region)
	blocks := scanLayout(t, s, r, nil)
	for _, b := range blocks {
		_, line := r.LineAt(b.off)
		_, before := r.LineAt(b.off - 1)
		_, after := r.LineAt(b.off + b.size())
		if b.vid >= 300 || b.vid == scanHub || before == line || after == line {
			continue
		}
		v := graph.VID(b.vid)
		recs := s.Neighbors(ctx, v, nil)
		m.InjectUE(r.LineAt(b.off))
		spans, err := s.ReplaceChain(ctx, v, recs)
		if err != nil {
			t.Fatal(err)
		}
		quar := make(map[int64]bool)
		for _, sp := range spans {
			quar[sp[0]] = true
		}
		if !quar[b.off] {
			t.Fatalf("setup: repairing vertex %d quarantined %v, not its block at %d", v, spans, b.off)
		}
		return quar
	}
	t.Fatal("setup: no block alone in its header line")
	return nil
}

// TestSplitScanIsTheSerialScan: the header walk split over any number of
// walkers finds the serial walk's block list and frontier, and a store
// recovered at four walkers reads, holds and leaves on the media exactly
// what one recovered at one walker does. The arenas hold payload that
// passes for headers under every segment start inside a hub that spans
// several segments, dead, recycled and quarantined blocks, an armed
// journal, varint tails, and frontier garbage with real blocks behind it.
func TestSplitScanIsTheSerialScan(t *testing.T) {
	for _, c := range scanCases {
		t.Run(c.name, func(t *testing.T) {
			r, m, committed, quar := c.arena(t)
			ctx := xpsim.NewCtx(0)
			s := New(r, &m.Lat, 0, c.opts)
			first, end := align(r.UserStart(), headerAlign), r.PersistedAllocOffset(ctx)
			want, wantFrontier, err := s.scan(ctx, nil, 1, first, end, committed, quar)
			if err != nil {
				t.Fatal(err)
			}
			if c.frontier == (wantFrontier == end) {
				t.Fatalf("setup: frontier %d, arena end %d", wantFrontier, end)
			}
			var sw xpsim.Sweep
			for _, w := range []int{2, 3, 4, 5, 8, 13} {
				got, frontier, err := s.scan(xpsim.NewCtx(0), &sw, w, first, end, committed, quar)
				if err != nil {
					t.Fatalf("%d walkers: %v", w, err)
				}
				if frontier != wantFrontier || !reflect.DeepEqual(got, want) {
					t.Errorf("%d walkers: %d blocks to frontier %d, one walker %d to %d", w, len(got), frontier, len(want), wantFrontier)
				}
			}

			one, oneMem := recoverScanCase(t, c, 1)
			four, fourMem := recoverScanCase(t, c, 4)
			if rep, err := (difftest.Compare{}).Run(newXSource(ctx, one), newXSource(ctx, four)); err != nil {
				t.Errorf("four walkers read differently: %v (%d reads matched)", err, rep.Clean)
			}
			if !reflect.DeepEqual(scanState(one), scanState(four)) {
				t.Error("four walkers rebuilt a different index, free lists, pending counts or mirrors")
			}
			if !bytes.Equal(oneMem, fourMem) {
				t.Error("four walkers left different bytes on the media")
			}
			if c.opts.VarintBlocks {
				splitCursorsAreTheSerialOnes(t, c, want)
			}
		})
	}
}

// splitCursorsAreTheSerialOnes: on a varint arena whose blocks the serial
// scan found (blocks), many tails' visible records run past their header's
// line, so pass 3 decodes their append cursors from the media. With two of
// those tails corrupted past that line, recovery at one walker and at four
// fails with the same error, the first corrupt vertex's, or, with
// Checksums, recovers at both with the same suspects, both corrupt ones.
func splitCursorsAreTheSerialOnes(t *testing.T, c scanCase, blocks []scanned) {
	t.Helper()
	pointed := map[int64]bool{}
	for _, b := range blocks {
		pointed[b.prev] = true
	}
	var tails []scanned
	for _, b := range blocks {
		if b.vid < 300 && b.vid != scanHub && b.format == fmtVarint && b.visible > 0 && !b.decoded && !pointed[b.off] {
			tails = append(tails, b)
		}
	}
	if len(tails) < 10 {
		t.Fatalf("setup: %d varint tails reach past their header's line, want at least 10", len(tails))
	}
	slices.SortFunc(tails, func(a, b scanned) int { return int(a.vid) - int(b.vid) })
	// corrupt writes an overlong varint past the header's line of the first
	// two tails whose records reach that far.
	corrupt := func(r *pmem.Region, m *xpsim.Machine) (vs []graph.VID) {
		ctx := xpsim.NewCtx(0)
		s := New(r, &m.Lat, 0, c.opts)
		rd := s.reader(ctx, false)
		defer rd.release()
		for _, b := range tails {
			e, err := rd.decode(b.off, b.format, b.capacity, b.visible, false, nil)
			at := align(b.off+headerBytes+1, xpsim.XPLineSize)
			if err != nil || at+8 > b.off+headerBytes+e.bytes {
				continue
			}
			r.Write(ctx, at, bytes.Repeat([]byte{0xff}, 8))
			r.Flush(ctx, at, 8)
			if vs = append(vs, graph.VID(b.vid)); len(vs) == 2 {
				return vs
			}
		}
		t.Fatalf("setup: %d tails of records past their header's line to corrupt", len(vs))
		return nil
	}
	recoverCorrupt := func(walkers int) (*Store, []graph.VID, error) {
		r, m, committed, quar := c.arena(t)
		vs := corrupt(r, m)
		s, err := RecoverWith(xpsim.NewCtx(0), nil, walkers, r, &m.Lat, c.opts, committed, quar)
		return s, vs, err
	}
	one, vs, oneErr := recoverCorrupt(1)
	four, _, fourErr := recoverCorrupt(4)
	if !c.opts.Checksums {
		want := fmt.Sprintf("vertex %d varint tail", vs[0])
		if oneErr == nil || fourErr == nil || oneErr.Error() != fourErr.Error() || !strings.Contains(oneErr.Error(), want) {
			t.Errorf("corrupt tails of %v: one walker fails with %v, four with %v; want both %q", vs, oneErr, fourErr, want)
		}
		return
	}
	if oneErr != nil || fourErr != nil {
		t.Fatalf("corrupt tails of %v: one walker %v, four %v; want both recovered", vs, oneErr, fourErr)
	}
	if !slices.Equal(one.Suspects(), four.Suspects()) || !slices.Contains(one.Suspects(), vs[0]) || !slices.Contains(one.Suspects(), vs[1]) {
		t.Errorf("corrupt tails of %v: one walker suspects %v, four %v", vs, one.Suspects(), four.Suspects())
	}
}

// recoverScanCase recovers a fresh copy of c's arena at the given number of
// walkers and returns the store and the arena's bytes afterwards.
func recoverScanCase(t *testing.T, c scanCase, walkers int) (*Store, []byte) {
	t.Helper()
	r, m, committed, quar := c.arena(t)
	ctx := xpsim.NewCtx(0)
	s, err := RecoverWith(ctx, nil, walkers, r, &m.Lat, c.opts, committed, quar)
	if err != nil {
		t.Fatalf("%d walkers: %v", walkers, err)
	}
	img := make([]byte, r.Size())
	r.Read(ctx, 0, img)
	return s, img
}

// scanState is the DRAM state recovery rebuilds.
func scanState(s *Store) []any {
	return []any{s.vx, s.blocks, s.bytes, s.partialCnt, s.freeBlocks, s.pendCur, s.journal, s.mirror, s.chains, s.suspects}
}
