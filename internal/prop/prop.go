package prop

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

var (
	// errFull reports an exhausted column log: no further property
	// writes are accepted until the store is recreated larger.
	errFull = errors.New("prop: property column log full")
	// ErrDamaged reports an unrecoverable column block: a mid-log block
	// failed its checksum (or sits on uncorrectable media) with no patch
	// to supersede it, so some property records are lost. Typed reads
	// fail with this instead of silently answering default labels.
	ErrDamaged = errors.New("prop: property columns damaged (unrecoverable block)")
	// ErrBadLabel reports an invalid label registration.
	ErrBadLabel = errors.New("prop: invalid label name")
)

// blockMeta is the DRAM mirror of one physical column block.
type blockMeta struct {
	recs []record // current content (nil: unreadable, awaiting a patch)
	// patchOf is the physical block this one replaces (-1: normal).
	patchOf int
	// superseded marks a block whose content now lives in a later patch.
	superseded bool
}

// Store is the property column store of one graph shard. Mutations go
// through Apply*/RegisterLabel and become durable at the next Flush
// (which core ties to the same flush points as the vertex buffers); a
// crash rolls unflushed records back, so a recovered label is always
// either the last flushed value or the default — never garbage, because
// every block is CRC-guarded.
type Store struct {
	mu  sync.RWMutex
	m   mem.Mem
	lat *xpsim.LatencyModel

	base      int64
	capBlocks int64
	head      int64 // physical blocks written

	pending []record
	blocks  []blockMeta

	labels  map[uint64]uint16
	vprops  map[uint64]int64
	names   []string // label id -> name; 0 is the default label ""
	damaged bool

	quarantined int64 // physical blocks retired by scrub

	// bound: every block is written from the node that holds it (BindFlush).
	bound bool
}

// RecoverInfo reports what Attach found in the durable image.
type RecoverInfo struct {
	Blocks      int64 // readable blocks (incl. patches)
	Records     int64 // live records applied to the index
	TornTail    bool  // an unclosed flush's blocks were truncated
	BadBlocks   int64 // unreadable blocks (patched or unrecoverable)
	Unreadable  int64 // unreadable blocks with no patch (=> damaged)
	Quarantined int64 // blocks superseded by patches
}

// Create initializes an empty column store over m. base must be
// XPLine-aligned; the log spans [base, base+capBlocks*BlockBytes).
func Create(m mem.Mem, lat *xpsim.LatencyModel, base, capBlocks int64) (*Store, error) {
	if base%BlockBytes != 0 {
		return nil, fmt.Errorf("prop: base %d not block-aligned", base)
	}
	if base+capBlocks*BlockBytes > m.Size() {
		return nil, fmt.Errorf("prop: %d blocks at %d exceed region size %d", capBlocks, base, m.Size())
	}
	return &Store{
		m: m, lat: lat, base: base, capBlocks: capBlocks,
		labels: make(map[uint64]uint16),
		vprops: make(map[uint64]int64),
		names:  []string{""},
	}, nil
}

// Attach recovers a column store from the durable image: it scans blocks
// forward, truncates the run of an unfinished flush, resolves patch
// blocks onto their targets, and rebuilds the DRAM index by replaying the
// logical record sequence. An unreadable block that no patch supersedes
// marks the store damaged: checked reads fail with ErrDamaged instead of
// silently answering defaults.
//
// The scan's reads run on workers workers of sw (nil: a Sweep of its own)
// in rounds of whole interleave stripes, one stripe per worker, each worker
// pinned to the node that holds its stripe (m.NodeOf), at ctx's
// contention; ctx's clock waits for a round's slowest worker. A serial join
// then takes the round's blocks in block order as the serial scan takes
// them, up to the first all-zero block, and only then does the next round
// start. At one worker the scan reads block by block on ctx. The cut, the
// patch resolution and the index replay are serial and charge nothing.
func Attach(ctx *xpsim.Ctx, sw *xpsim.Sweep, workers int, m mem.Mem, lat *xpsim.LatencyModel, base, capBlocks int64) (*Store, RecoverInfo, error) {
	s, err := Create(m, lat, base, capBlocks)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	var info RecoverInfo
	// Scan every physical block up to the first all-zero one. No closing
	// block lies past a hole: a flush's open blocks are all on the media
	// before its closing block is written.
	var scan []scanned
	committed := 0 // blocks [0, committed) belong to closed flushes
	s.scanBlocks(ctx, sw, workers, func(b scanned) bool {
		if !b.bad && b.recs == nil { // all-zero: end of log
			return false
		}
		scan = append(scan, b)
		switch {
		case b.bad:
		case b.open == 0:
			committed = len(scan)
		default:
			// The blocks before this block's flush were committed when it
			// started, even if their closing block has since gone bad.
			committed = max(committed, int(b.open)-1)
		}
		return true
	})
	// Truncate the unclosed flush: its blocks may be torn or missing in
	// any order (a normal crash artifact, dropped without complaint). A bad
	// block before the cut is media damage.
	for _, b := range scan[committed:] {
		info.TornTail = true
		if b.bad {
			info.BadBlocks++
		}
	}
	scan = scan[:committed]
	s.head = int64(len(scan))
	s.blocks = make([]blockMeta, len(scan))
	lastPatch := make(map[int]int) // target -> newest patch block
	for i, b := range scan {
		s.blocks[i] = blockMeta{recs: b.recs, patchOf: -1}
		if b.bad {
			info.BadBlocks++
			continue
		}
		info.Blocks++
		if b.patch > 0 {
			t := int(b.patch) - 1
			s.blocks[i].patchOf = t
			if t < i {
				if p, ok := lastPatch[t]; ok {
					s.blocks[p].superseded = true
				} else {
					info.Quarantined++
				}
				lastPatch[t] = i
				s.blocks[t].recs = b.recs
				s.blocks[t].superseded = true
			}
		}
	}
	// Replay the logical sequence: every non-patch block's (possibly
	// patched) records, in physical order.
	for i := range s.blocks {
		b := &s.blocks[i]
		if b.patchOf >= 0 {
			continue
		}
		if b.recs == nil {
			s.damaged = true
			info.Unreadable++
			continue
		}
		for _, r := range b.recs {
			s.applyIndex(r)
			info.Records++
		}
	}
	s.quarantined = info.Quarantined
	return s, info, nil
}

// scanned is one column block as the attach scan reads it: bad
// (unreadable, corrupt, or naming a flush start past itself), all-zero (no
// records), or a block's records, patch target and open mark.
type scanned struct {
	recs  []record
	patch uint16
	open  uint32
	bad   bool
}

// readBlock reads physical block i on ctx into buf and parses it.
func (s *Store) readBlock(ctx *xpsim.Ctx, i int64, buf []byte) scanned {
	if err := mem.ReadChecked(s.m, ctx, s.base+i*BlockBytes, buf); err != nil {
		return scanned{bad: true}
	}
	b, err := decodeBlock(buf)
	if err != nil || int64(b.Open) > i+1 {
		return scanned{bad: true}
	}
	return scanned{recs: b.Recs, patch: b.Patch, open: b.Open}
}

// stripeBytes is the interleave granularity a scan round is cut at: a
// region's stripes alternate between the nodes' devices.
const stripeBytes = pmem.DefaultStripe

// scanBlocks hands Attach's loop body take the blocks from 0 on, in block
// order, until take returns false or the log's capacity ends. With more
// than one worker the reads run in rounds of up to workers whole stripes
// (Attach); the blocks of a round past the one take stopped at are read and
// dropped.
func (s *Store) scanBlocks(ctx *xpsim.Ctx, sw *xpsim.Sweep, workers int, take func(scanned) bool) {
	buf := make([]byte, BlockBytes)
	if workers <= 1 {
		for i := int64(0); i < s.capBlocks; i++ {
			if !take(s.readBlock(ctx, i, buf)) {
				return
			}
		}
		return
	}
	if sw == nil {
		sw = new(xpsim.Sweep)
	}
	// cuts[w] is the first block of the round's stripe w; cuts[n] ends it.
	cuts := make([]int64, 0, workers+1)
	round := make([]scanned, workers*stripeBytes/BlockBytes)
	for lo := int64(0); lo < s.capBlocks; {
		cuts = append(cuts[:0], lo)
		for len(cuts) <= workers && cuts[len(cuts)-1] < s.capBlocks {
			off := s.base + cuts[len(cuts)-1]*BlockBytes
			cuts = append(cuts, min(((off/stripeBytes+1)*stripeBytes-s.base)/BlockBytes, s.capBlocks))
		}
		n := len(cuts) - 1
		hi := cuts[n]
		dur := sw.Each(n, ctx.Workers, func(w int) int { return s.m.NodeOf(s.base + cuts[w]*BlockBytes) },
			func(w int, wctx *xpsim.Ctx) {
				for i := cuts[w]; i < cuts[w+1]; i++ {
					round[i-lo] = s.readBlock(wctx, i, buf)
				}
			})
		ctx.Cost.Add(int64(dur))
		for _, b := range round[:hi-lo] {
			if !take(b) {
				return
			}
		}
		lo = hi
	}
}

// applyIndex folds one record into the DRAM index (callers hold mu).
func (s *Store) applyIndex(r record) {
	switch r.Kind {
	case kindEdgeLabel:
		k := uint64(r.Src)<<32 | uint64(r.Dst)
		if r.Lbl == graph.DefaultLabel {
			delete(s.labels, k)
		} else {
			s.labels[k] = r.Lbl
		}
	case kindVProp:
		s.vprops[uint64(r.Src)<<32|uint64(r.Lbl)] = r.value()
	case kindLabelDef:
		for int(r.Lbl) >= len(s.names) {
			s.names = append(s.names, "")
		}
		s.names[r.Lbl] = r.labelName()
	}
}

// RegisterLabel assigns the next label id to name, appends its def
// record, and flushes it durable before returning the id — so a crash
// can never re-assign the id to a different name after a caller has
// started using it. Registering an existing name returns its id.
func (s *Store) RegisterLabel(ctx *xpsim.Ctx, name string) (uint16, error) {
	if name == "" || len(name) > maxLabelName {
		return 0, fmt.Errorf("%w: %q (1..%d bytes)", ErrBadLabel, name, maxLabelName)
	}
	s.mu.Lock()
	for id, n := range s.names {
		if n == name {
			s.mu.Unlock()
			return uint16(id), nil
		}
	}
	id := uint16(len(s.names))
	s.names = append(s.names, name)
	s.pending = append(s.pending, labelDefRecord(id, name))
	s.mu.Unlock()
	if err := s.Flush(ctx); err != nil {
		return 0, err
	}
	return id, nil
}

// SetLabelDef installs a (id, name) pair decided elsewhere — the path a
// cluster uses to broadcast one shard's registration to its peers and
// replicas with the identical id.
func (s *Store) SetLabelDef(ctx *xpsim.Ctx, id uint16, name string) error {
	if name == "" || len(name) > maxLabelName {
		return fmt.Errorf("%w: %q (1..%d bytes)", ErrBadLabel, name, maxLabelName)
	}
	s.mu.Lock()
	if int(id) < len(s.names) && s.names[id] == name {
		s.mu.Unlock()
		return nil
	}
	s.pending = append(s.pending, labelDefRecord(id, name))
	s.applyIndex(labelDefRecord(id, name))
	s.mu.Unlock()
	return s.Flush(ctx)
}

// Labels returns the label table: index = label id, names[0] = "" (the
// default label of untyped edges).
func (s *Store) Labels() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.names...)
}

// ApplyEdgeLabels records the labels of a typed edge batch: labels[i] is
// the type of edges[i]. Default-label edges append no record (they read
// back as default with zero column cost — the mixed typed/untyped
// upgrade rule), unless they overwrite an earlier non-default label.
// Deletion records never carry labels.
func (s *Store) ApplyEdgeLabels(edges []graph.Edge, labels []uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range edges {
		if e.IsDelete() {
			continue
		}
		lbl := uint16(graph.DefaultLabel)
		if i < len(labels) {
			lbl = labels[i]
		}
		k := uint64(e.Src)<<32 | uint64(e.Dst)
		if lbl == graph.DefaultLabel {
			if _, relabel := s.labels[k]; !relabel {
				continue
			}
		}
		r := edgeLabelRecord(e.Src, e.Dst, lbl)
		s.pending = append(s.pending, r)
		s.applyIndex(r)
	}
}

// ApplyProps records a batch of vertex-property writes.
func (s *Store) ApplyProps(sets []graph.PropSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range sets {
		r := vPropRecord(p.V, p.Key, p.Val)
		s.pending = append(s.pending, r)
		s.applyIndex(r)
	}
}

// BindFlush makes every later flush a relay of bound threads, for stores
// whose archive threads are pinned to NUMA nodes: the log is interleaved
// over the sockets, and each block is written and flushed by a thread on
// the node that holds it. The threads work one after the other — the next
// takes over where the log crosses into its stripe, for the price of one
// DRAM line passed between the sockets — so blocks still become durable in
// append order, which is what lets Attach read a hole as the end of the log.
func (s *Store) BindFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bound = true
}

// Flush writes every pending record out as full column blocks (the last
// one possibly partial — blocks are never rewritten, so the next flush
// starts a fresh block). The flush is durable as a whole once it returns:
// a crash inside it rolls back its records and keeps every earlier one.
func (s *Store) Flush(ctx *xpsim.Ctx) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked(ctx)
}

// flushLocked writes the pending records as one run of blocks: the open
// blocks, one flush of their lines — only the lines still in the XPBuffer
// cost a media write, the rest went out as the run pushed them — and the
// closing block, written and flushed last. Out of room, it writes the run
// that fits and returns errFull.
func (s *Store) flushLocked(ctx *xpsim.Ctx) error {
	n := int64((len(s.pending) + RecordsPerBlock - 1) / RecordsPerBlock)
	if n == 0 {
		return nil
	}
	var err error
	if n > s.capBlocks-s.head {
		n, err = s.capBlocks-s.head, errFull
		if n == 0 {
			return err
		}
	}
	var buf [BlockBytes]byte
	// Under BindFlush the writing thread is on the node of the stripe it
	// writes; its time is the caller's either way.
	defer func(node int) { ctx.Node = node }(ctx.Node)
	start := s.head
	for i := int64(0); i < n; i++ {
		k := min(len(s.pending), RecordsPerBlock)
		recs := append([]record(nil), s.pending[:k]...)
		b := block{Recs: recs}
		if i < n-1 {
			b.Open = uint32(start) + 1
		} else if i > 0 {
			s.m.Flush(ctx, s.base+start*BlockBytes, i*BlockBytes)
		}
		encodeBlock(buf[:], b)
		off := s.base + s.head*BlockBytes
		if node := s.m.NodeOf(off); s.bound && node != ctx.Node {
			s.lat.DRAM(ctx, 8, true, false)  // the handover: one thread's store,
			s.lat.DRAM(ctx, 8, false, false) // the next one's load
			ctx.Node = node
		}
		s.m.Write(ctx, off, buf[:])
		s.blocks = append(s.blocks, blockMeta{recs: recs, patchOf: -1})
		s.head++
		s.pending = s.pending[k:]
	}
	s.m.Flush(ctx, s.base+(s.head-1)*BlockBytes, BlockBytes)
	if len(s.pending) == 0 {
		s.pending = nil
	}
	return err
}

// Label answers the type of edge (src, dst): the last applied label, or
// the default label for edges never typed. Unchecked — callers that must
// not serve defaults off damaged columns use LabelChecked.
func (s *Store) Label(src, dst uint32) uint16 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.labels[uint64(src)<<32|uint64(dst)]
}

// VPropChecked is VProp with the damage guard.
func (s *Store) VPropChecked(v uint32, key uint16) (int64, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.damaged {
		return 0, false, ErrDamaged
	}
	val, ok := s.vprops[uint64(v)<<32|uint64(key)]
	return val, ok, nil
}

// VisitState enumerates the current property index — every live edge
// label and every live vertex property — under the shared lock. Either
// callback may be nil. Iteration order is unspecified; callers that
// need determinism sort. The cluster's snapshot resync uses this to
// transfer one follower's worth of typed state (DESIGN.md §14.3): the
// index is read-latest, so the transfer is idempotent under a later
// replay of the same records.
func (s *Store) VisitState(edge func(src, dst uint32, lbl uint16), vp func(v uint32, key uint16, val int64)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if edge != nil {
		for k, lbl := range s.labels {
			edge(uint32(k>>32), uint32(k), lbl)
		}
	}
	if vp != nil {
		for k, val := range s.vprops {
			vp(uint32(k>>32), uint16(k), val)
		}
	}
}

// Damaged reports whether an unrecoverable block poisons the columns.
func (s *Store) Damaged() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.damaged
}

// Blocks reports how many physical blocks the log holds.
func (s *Store) Blocks() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.head
}

// Bytes reports the PMEM footprint of the written column log.
func (s *Store) Bytes() int64 { return s.Blocks() * BlockBytes }

// BlockOffsets lists the region-relative byte offset of every written
// physical block, in physical order — the media surface a scrub covers.
func (s *Store) BlockOffsets() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, s.head)
	for i := range out {
		out[i] = s.base + int64(i)*BlockBytes
	}
	return out
}

// ScrubReport summarizes one column scrub pass.
type ScrubReport struct {
	BlocksScanned int64
	BadBlocks     int64 // failed checksum or media read
	Rebuilt       int64 // re-published as patch blocks from the DRAM mirror
	Unrecoverable int64 // bad with no DRAM mirror to rebuild from
}

// Scrub verifies every live column block against its checksum through
// the media-checked read path. A bad block is rebuilt by appending a
// patch block carrying the same records (from the DRAM mirror) and the
// damaged physical block is retired — reads never touch it again. A bad
// block with no mirror (damage that predates this process) is counted
// unrecoverable and keeps the store damaged.
func (s *Store) Scrub(ctx *xpsim.Ctx) (ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep ScrubReport
	buf := make([]byte, BlockBytes)
	head := s.head // patches appended during the pass are not re-scanned
	var blkbuf [BlockBytes]byte
	for i := int64(0); i < head; i++ {
		b := &s.blocks[i]
		if b.superseded {
			continue
		}
		rep.BlocksScanned++
		bad := false
		if err := mem.ReadChecked(s.m, ctx, s.base+i*BlockBytes, buf); err != nil {
			bad = true
		} else if _, err := decodeBlock(buf); err != nil {
			bad = true
		}
		if !bad {
			continue
		}
		rep.BadBlocks++
		// Rebuild from the DRAM mirror: append a patch block that
		// logically replaces the damaged one, then retire it.
		target := i
		if b.patchOf >= 0 {
			target = int64(b.patchOf)
		}
		recs := s.blocks[target].recs
		if recs == nil {
			rep.Unrecoverable++
			s.damaged = true
			continue
		}
		if s.head >= s.capBlocks {
			rep.Unrecoverable++
			s.damaged = true
			continue
		}
		encodeBlock(blkbuf[:], block{Recs: recs, Patch: uint16(target) + 1})
		off := s.base + s.head*BlockBytes
		s.m.Write(ctx, off, blkbuf[:])
		s.m.Flush(ctx, off, BlockBytes)
		s.blocks = append(s.blocks, blockMeta{recs: recs, patchOf: int(target)})
		s.blocks[i].superseded = true
		if target != i {
			s.blocks[target].superseded = true
		}
		s.head++
		s.quarantined++
		rep.Rebuilt++
	}
	return rep, nil
}
