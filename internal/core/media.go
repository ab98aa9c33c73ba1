package core

// Media-error tolerance (Options.MediaGuard): checksummed self-describing
// blocks, a scrubber, a persisted bad-block quarantine, and degraded-mode
// health reporting.
//
// Detection is layered. Every adjacency block payload and edge-log record
// carries a CRC32-C (stored per count-acknowledgment slot for adjacency
// blocks, in a per-record strip for the log), and every media read on the
// checked paths goes through xpsim's uncorrectable-error model, so a read
// of a bad line surfaces as a typed *xpsim.MediaError instead of silently
// wrong bytes. Repair is scrub-driven: Scrub verifies every chain on the
// simulated clock, rebuilds damaged vertices from the SSD edge archive
// (preferred: it holds the full accepted stream) or the resident edge-log
// window (exact only when every one of the vertex's records is still
// resident), rewrites them onto fresh blocks with adj.ReplaceChain, and
// quarantines the old spans so the arena never recycles them. The
// quarantine — spans plus the damaged/unrecoverable vertex sets — is
// persisted in its own PMEM region and reloaded by Recover, so a crash
// cannot resurrect a bad block into the free lists.
//
// Health is a three-state machine: ok → degraded (detected damage awaiting
// repair, or vertices no rebuild source could restore) → readonly (a whole
// NUMA node failed; ingestion would write into the void, so it is refused,
// while reads on healthy partitions keep answering).

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/adj"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/shard"
	"repro/internal/ssd"
	"repro/internal/xpsim"
)

var coreCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// UnrecoverableError reports a read of a vertex whose adjacency data was
// damaged by media errors and could not be rebuilt from any source. The
// serving layer maps it to a distinct 503 instead of returning wrong data.
type UnrecoverableError struct {
	Dir Direction
	V   graph.VID
}

func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("core: vertex %d (%s) is quarantined and unrecoverable", e.V, dirName(int(e.Dir)))
}

// ---- persisted quarantine ----

const (
	quarMagic       = uint64(0x5850_5155_4152_0001) // "XPQUAR" v1
	quarRegionBytes = int64(64 << 10)
)

// initMediaGuard maps the quarantine region (creating or re-attaching)
// and sets up the SSD edge archive. On the recovery path it runs before
// mapMemories so the loaded block spans can fence the arena scans.
func (s *Store) initMediaGuard(ctx *xpsim.Ctx, reattach bool) error {
	name := s.opts.Name + "-quar"
	if reattach {
		r, ok := s.heap.Get(name)
		if !ok {
			return fmt.Errorf("core: quarantine region %q not found: the crashed store was not MediaGuard-enabled", name)
		}
		s.quarMem = r
		s.loadQuarantine(ctx)
	} else {
		r, err := s.heap.Map(name, quarRegionBytes, pmem.Placement{Kind: pmem.Interleave})
		if err != nil {
			return err
		}
		s.quarMem = r
		if err := s.persistQuarantine(ctx); err != nil {
			return err
		}
	}

	sp := s.opts.Archive
	if sp == nil && s.opts.ArchiveSSDBytes > 0 {
		sp = ssd.New(s.lat, s.opts.ArchiveSSDBytes)
	}
	if sp != nil {
		a, err := openArchive(ctx, sp)
		if err != nil {
			return err
		}
		s.arch = a
		if reattach {
			return s.archiveCatchUp(ctx)
		}
	}
	return nil
}

// quarSlot is where generation seq of the quarantine record lives: the
// region holds two record slots and generations alternate between them, so
// a record is never overwritten by its successor.
func (s *Store) quarSlot(seq uint64) (off, size int64) {
	base := alignUp(s.quarMem.UserStart(), xpsim.XPLineSize)
	size = (s.quarMem.Size() - base) / 2 / xpsim.XPLineSize * xpsim.XPLineSize
	return base + int64((seq+1)%2)*size, size
}

// persistQuarantine writes the quarantine state — block spans plus the
// damaged/unrecoverable vertex sets — as one checksummed record:
// magic, {len,crc} word, payload (generation number first). The payload CRC
// makes a torn or media-damaged record read back as absent, never as
// garbage spans, and the record goes into the slot its predecessor does not
// occupy: a crash inside this write leaves the previous generation — every
// span persisted so far — in force.
func (s *Store) persistQuarantine(ctx *xpsim.Ctx) error {
	var buf []byte
	putU64 := func(x uint64) {
		buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
			byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
	}
	putU64(s.quarSeq + 1)
	var nSpans uint64
	for d := 0; d < 2; d++ {
		for _, m := range s.quarSpans[d] {
			nSpans += uint64(len(m))
		}
	}
	putU64(nSpans)
	for d := 0; d < 2; d++ {
		for p, m := range s.quarSpans[d] {
			for off, bytes := range m {
				putU64(uint64(d)<<56 | uint64(p)<<48 | uint64(off))
				putU64(uint64(bytes))
			}
		}
	}
	for _, set := range []*[2]map[graph.VID]struct{}{&s.damaged, &s.unrec} {
		var n uint64
		for d := 0; d < 2; d++ {
			n += uint64(len(set[d]))
		}
		putU64(n)
		for d := 0; d < 2; d++ {
			for v := range set[d] {
				putU64(uint64(d)<<32 | uint64(v))
			}
		}
	}

	base, size := s.quarSlot(s.quarSeq + 1)
	if 16+int64(len(buf)) > size {
		return fmt.Errorf("core: quarantine state (%d bytes) exceeds the quarantine region", len(buf))
	}
	s.quarSeq++
	s.quarMem.Write(ctx, base+16, buf)
	crc := crc32.Checksum(buf, coreCastagnoli)
	mem.WriteU64(s.quarMem, ctx, base+8, uint64(uint32(len(buf)))|uint64(crc)<<32)
	mem.WriteU64(s.quarMem, ctx, base, quarMagic)
	s.quarMem.Flush(ctx, base, 16+int64(len(buf)))
	return nil
}

// readQuarRecord reads the record slot of generation parity `slot` and
// returns its payload, nil when the slot holds no intact record.
func (s *Store) readQuarRecord(ctx *xpsim.Ctx, slot uint64) []byte {
	base, size := s.quarSlot(slot)
	var hdr [16]byte
	if mem.ReadChecked(s.quarMem, ctx, base, hdr[:]) != nil || leU64(hdr[:8]) != quarMagic {
		return nil
	}
	word := leU64(hdr[8:])
	ln := int64(uint32(word))
	if ln < 8 || 16+ln > size {
		return nil
	}
	buf := make([]byte, ln)
	if mem.ReadChecked(s.quarMem, ctx, base+16, buf) != nil || crc32.Checksum(buf, coreCastagnoli) != uint32(word>>32) {
		return nil
	}
	return buf
}

// loadQuarantine reads the persisted quarantine back: the newer of the two
// record slots that holds an intact record. Damage to both — bad magic,
// CRC mismatch, an uncorrectable line under them — degrades to an empty
// quarantine rather than an error: quarantined blocks were rewritten with
// valid dead headers before they were quarantined, so losing the span list
// can only re-expose bad lines to recycling, where the next checked read or
// scrub re-detects them.
func (s *Store) loadQuarantine(ctx *xpsim.Ctx) {
	var buf []byte
	for slot := uint64(0); slot < 2; slot++ {
		if b := s.readQuarRecord(ctx, slot); b != nil && leU64(b) > s.quarSeq {
			buf, s.quarSeq = b, leU64(b)
		}
	}
	if buf == nil {
		return
	}

	pos := 8
	next := func() (uint64, bool) {
		if pos+8 > len(buf) {
			return 0, false
		}
		x := leU64(buf[pos:])
		pos += 8
		return x, true
	}
	nSpans, ok := next()
	if !ok {
		return
	}
	for i := uint64(0); i < nSpans; i++ {
		key, ok1 := next()
		bytes, ok2 := next()
		if !ok1 || !ok2 {
			return
		}
		d := int(key >> 56)
		p := int(key >> 48 & 0xFF)
		off := int64(key & (1<<48 - 1))
		if d > 1 || p >= s.nparts {
			continue
		}
		s.noteQuarSpan(d, p, off, int64(bytes))
	}
	for _, set := range []*[2]map[graph.VID]struct{}{&s.damaged, &s.unrec} {
		n, ok := next()
		if !ok {
			return
		}
		for i := uint64(0); i < n; i++ {
			key, ok := next()
			if !ok {
				return
			}
			d := int(key >> 32)
			if d > 1 {
				continue
			}
			if set[d] == nil {
				set[d] = make(map[graph.VID]struct{})
			}
			set[d][graph.VID(uint32(key))] = struct{}{}
		}
	}
}

func leU64(p []byte) uint64 {
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

func (s *Store) noteQuarSpan(d, p int, off, bytes int64) {
	if s.quarSpans[d] == nil {
		s.quarSpans[d] = make([]map[int64]int64, s.nparts)
	}
	if s.quarSpans[d][p] == nil {
		s.quarSpans[d][p] = make(map[int64]int64)
	}
	s.quarSpans[d][p][off] = bytes
}

func (s *Store) markDamaged(d Direction, v graph.VID) {
	s.mediaMu.Lock()
	defer s.mediaMu.Unlock()
	if s.damaged[d] == nil {
		s.damaged[d] = make(map[graph.VID]struct{})
	}
	s.damaged[d][v] = struct{}{}
}

func (s *Store) markUnrec(d Direction, v graph.VID) {
	s.mediaMu.Lock()
	defer s.mediaMu.Unlock()
	if s.unrec[d] == nil {
		s.unrec[d] = make(map[graph.VID]struct{})
	}
	s.unrec[d][v] = struct{}{}
}

// clearDamage removes v from the damaged and unrecoverable sets (the
// scrubber verified or rebuilt its chain).
func (s *Store) clearDamage(d Direction, v graph.VID) {
	s.mediaMu.Lock()
	defer s.mediaMu.Unlock()
	delete(s.damaged[d], v)
	delete(s.unrec[d], v)
}

// isUnrec reports whether v is quarantined as unrecoverable in d.
func (s *Store) isUnrec(d Direction, v graph.VID) bool {
	s.mediaMu.RLock()
	defer s.mediaMu.RUnlock()
	_, bad := s.unrec[d][v]
	return bad
}

// noteReadDamage records a failed checked read as detected damage, so
// Health flips to degraded the moment wrong data is first refused — an
// operator watching /v1/healthz sees the problem without waiting for a
// scrub. Dead-device errors are not chain damage (the node, not the
// block, is the problem) and readonly state already reports them.
func (s *Store) noteReadDamage(d Direction, v graph.VID, err error) {
	var me *xpsim.MediaError
	if errors.As(err, &me) && me.Line < 0 {
		return
	}
	s.markDamaged(d, v)
}

// ---- SSD edge archive ----

// archive tees every accepted edge onto a simulated SSD namespace: a
// persisted count at a fixed offset, then the raw edge records. It is the
// scrubber's rebuild source of last resort — unlike the circular edge
// log, it never rotates records out.
type archive struct {
	sp   *ssd.Space
	hdr  int64 // persisted edge count (u64)
	base int64 // edge records
	cap  int64 // capacity in edges
	cnt  int64
	full bool
}

const (
	archHdrOff  = 64  // first 64-aligned offset past the namespace header
	archBaseOff = 128 // records start (64-aligned past the count)
)

// openArchive initializes or re-attaches the archive layout on sp. The
// layout is deterministic (count at 64, records at 128), so attach just
// reads the count back; a fresh namespace reads zero from its zeroed
// store, which is exactly right.
func openArchive(ctx *xpsim.Ctx, sp *ssd.Space) (*archive, error) {
	a := &archive{sp: sp, hdr: archHdrOff, base: archBaseOff}
	a.cap = (sp.Size() - archBaseOff) / graph.EdgeBytes
	if a.cap <= 0 {
		return nil, fmt.Errorf("core: archive SSD of %d bytes is too small", sp.Size())
	}
	a.cnt = int64(mem.ReadU64(sp, ctx, a.hdr))
	if a.cnt < 0 || a.cnt > a.cap {
		return nil, fmt.Errorf("core: archive count %d exceeds capacity %d (corrupt archive)", a.cnt, a.cap)
	}
	return a, nil
}

// tee appends edges to the archive. Once the namespace fills, the archive
// stops (full) and can no longer vouch for completeness, so the scrubber
// ignores it.
func (a *archive) tee(ctx *xpsim.Ctx, edges []graph.Edge) {
	if a.full || len(edges) == 0 {
		return
	}
	if a.cnt+int64(len(edges)) > a.cap {
		a.full = true
		return
	}
	a.sp.Write(ctx, a.base+a.cnt*graph.EdgeBytes, graph.EncodeEdges(edges))
	a.cnt += int64(len(edges))
	mem.WriteU64(a.sp, ctx, a.hdr, uint64(a.cnt))
}

// collect replays the whole archive and extracts vertex v's raw record
// stream in direction d.
func (a *archive) collect(ctx *xpsim.Ctx, d Direction, v graph.VID) []uint32 {
	const chunk = 8192 // edges per read
	var recs []uint32
	buf := make([]byte, chunk*graph.EdgeBytes)
	for at := int64(0); at < a.cnt; at += chunk {
		n := a.cnt - at
		if n > chunk {
			n = chunk
		}
		p := buf[:n*graph.EdgeBytes]
		a.sp.Read(ctx, a.base+at*graph.EdgeBytes, p)
		for i := int64(0); i < n; i++ {
			e := graph.DecodeEdge(p[i*graph.EdgeBytes:])
			if en := shard.Of(int(d), e); en.V == v {
				recs = append(recs, en.Nbr)
			}
		}
	}
	return recs
}

// archiveCatchUp re-tees edges that reached the log but not the archive
// before a crash (the tee follows the log append, so the archive count
// can trail the head by at most the in-flight chunk). The span is verified
// first: a record on an uncorrectable line would enter the scrub's rebuild
// source scrambled, under a valid count, so recovery refuses instead. Edges
// that have already rotated out of the ring cannot be recovered; the archive
// then stays permanently incomplete and is disabled.
func (s *Store) archiveCatchUp(ctx *xpsim.Ctx) error {
	a := s.arch
	head := s.log.Head()
	if a.cnt >= head {
		return nil
	}
	if head-a.cnt > s.log.Cap() || a.full {
		a.full = true
		return nil
	}
	if err := s.verifyLog(ctx, "span the archive catches up", a.cnt, head); err != nil {
		return err
	}
	a.tee(ctx, s.log.Read(ctx, a.cnt, head, nil))
	return nil
}

// verifyLog refuses, with a typed media error, the edge-log records [from,
// to) — the span named what — unless every one reads back as logged.
func (s *Store) verifyLog(ctx *xpsim.Ctx, what string, from, to int64) error {
	bad := s.log.VerifyRange(ctx, from, to)
	if len(bad) == 0 {
		return nil
	}
	// MediaGuard stores are PMEM stores: the log lives in a heap region.
	node, line := s.logMem.(*pmem.Region).LineAt(s.log.BaseOffset() + bad[0]%s.log.Cap()*graph.EdgeBytes)
	return fmt.Errorf("core: %d records of the edge-log %s [%d,%d) do not read back as logged, the first %d: %w",
		len(bad), what, from, to, bad[0], &xpsim.MediaError{Node: node, Line: line})
}

// Archive exposes the SSD edge archive namespace (nil when disabled), so
// recovery can re-attach it via Options.Archive — the simulated SSD
// survives a machine crash.
func (s *Store) Archive() *ssd.Space {
	if s.arch == nil {
		return nil
	}
	return s.arch.sp
}

// ---- health ----

// HealthState is the store's degraded-mode state machine.
type HealthState int

const (
	// HealthOK: no detected damage, all devices answering.
	HealthOK HealthState = iota
	// HealthDegraded: detected damage awaiting repair, or vertices no
	// rebuild source could restore. Reads of healthy data keep working;
	// reads touching unrecoverable data fail typed.
	HealthDegraded
	// HealthReadonly: a whole NUMA node failed. Ingestion is refused
	// (writes would land on a dead device); reads on healthy partitions
	// keep answering.
	HealthReadonly
)

func (h HealthState) String() string {
	switch h {
	case HealthDegraded:
		return "degraded"
	case HealthReadonly:
		return "readonly"
	default:
		return "ok"
	}
}

// Health is the store's media-health summary.
type Health struct {
	State                 HealthState
	DamagedVertices       int
	UnrecoverableVertices int
	QuarantinedSpans      int
	QuarantinedBytes      int64
	DeadNodes             []int
	UELines               int // uncorrectable lines currently marked in the fault model
}

// Health reports the current media-health state. Without MediaGuard the
// store still reports dead NUMA nodes (the fault is machine-level), but
// damage detection is off, so damaged counts stay zero.
func (s *Store) Health() Health {
	var h Health
	s.mediaMu.RLock()
	for d := 0; d < 2; d++ {
		h.DamagedVertices += len(s.damaged[d])
		h.UnrecoverableVertices += len(s.unrec[d])
	}
	s.mediaMu.RUnlock()
	for d := 0; d < 2; d++ {
		for _, m := range s.quarSpans[d] {
			h.QuarantinedSpans += len(m)
			for _, b := range m {
				h.QuarantinedBytes += b
			}
		}
	}
	if f := s.machine.Faults(); f != nil {
		h.DeadNodes = f.DeadNodes()
		h.UELines = f.UECount()
	}
	switch {
	case len(h.DeadNodes) > 0:
		h.State = HealthReadonly
	case h.DamagedVertices > 0 || h.UnrecoverableVertices > 0:
		h.State = HealthDegraded
	default:
		h.State = HealthOK
	}
	return h
}

// ---- fault targeting ----

// MediaLine locates one XPLine on the simulated machine.
type MediaLine struct {
	Node int
	Line int64
}

// VertexMediaLines reports the machine lines backing v's adjacency chain
// in direction d (MediaGuard PMEM stores; nil otherwise). Fault-injection
// harnesses use it to aim uncorrectable-error injection at lines that
// hold real graph data instead of guessing offsets.
func (s *Store) VertexMediaLines(d Direction, v graph.VID) []MediaLine {
	return s.vertexLines(d, v, false)
}

// VertexPayloadLines reports the lines of v's chain that lie wholly inside
// the payload of one block: a UE there damages v's records and nothing
// else — no block header, v's own included, so a recovery scan still
// parses the arena.
func (s *Store) VertexPayloadLines(d Direction, v graph.VID) []MediaLine {
	return s.vertexLines(d, v, true)
}

func (s *Store) vertexLines(d Direction, v graph.VID, payloadOnly bool) []MediaLine {
	if !s.opts.MediaGuard || v >= s.NumVertices() {
		return nil
	}
	g := s.groups[d][s.partOf(v)]
	r, ok := g.adj.Mem().(*pmem.Region)
	if !ok {
		return nil
	}
	var out []MediaLine
	for _, span := range g.adj.ChainSpans(v) {
		lo, hi := span[0], span[0]+span[1]
		if payloadOnly {
			lo, hi = alignUp(lo+adj.HeaderBytes, xpsim.XPLineSize), hi/xpsim.XPLineSize*xpsim.XPLineSize
		}
		for off := lo; off < hi; off += xpsim.XPLineSize {
			node, line := r.LineAt(off)
			out = append(out, MediaLine{Node: node, Line: line})
		}
	}
	return out
}

// PropMediaLines reports the machine lines backing the written property
// column blocks, one per block in physical order (MediaGuard stores with
// Options.Props; nil otherwise). Like VertexMediaLines, it exists so
// fault-injection harnesses can aim UEs at live column data.
func (s *Store) PropMediaLines() []MediaLine {
	if !s.opts.MediaGuard || s.props == nil {
		return nil
	}
	r, ok := s.heap.Get(s.opts.Name + "-prop")
	if !ok {
		return nil
	}
	var out []MediaLine
	for _, off := range s.props.BlockOffsets() {
		node, line := r.LineAt(off)
		out = append(out, MediaLine{Node: node, Line: line})
	}
	return out
}

// ---- scrubbing ----

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	VerticesScanned  int64
	Damaged          int64 // vertices found with corrupt or unreadable chains
	Repaired         int64
	Unrecoverable    int64 // no rebuild source covered the vertex
	SpansQuarantined int64
	BytesQuarantined int64
	LogBadRecords    int64 // edge-log window records failing CRC or unreadable
	// Property-column counters (Options.Props stores; see internal/prop).
	PropBlocksBad      int64 // column blocks failing checksum or unreadable
	PropBlocksRebuilt  int64 // rebuilt as patch blocks from the DRAM mirror
	PropUnrecoverable  int64 // no mirror or log full: typed reads fail closed
	PropBlocksScrubbed int64
	SimNs              int64
}

// scrubStats accumulates scrub activity across runs (for metrics).
type scrubStats struct {
	Runs             int64
	Damaged          int64
	Repaired         int64
	Unrecoverable    int64
	SpansQuarantined int64
	LogBadRecords    int64
}

// Scrub walks the heap on the simulated clock, verifies every adjacency
// chain against its checksums, rebuilds damaged vertices from the SSD
// edge archive or the resident edge-log window, and quarantines the
// replaced spans. It requires MediaGuard and must be externally ordered
// against ingestion and reads (the server runs it under the exclusive
// state lock).
//
// Partitions on dead NUMA nodes are skipped — there is no device to
// verify or rewrite; their damage is re-examined once the node revives.
func (s *Store) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	if !s.opts.MediaGuard {
		return rep, fmt.Errorf("core: scrubbing requires Options.MediaGuard")
	}
	// Stage and flush everything first: after a full flush the acked
	// chains are the complete authority for every accepted record, which
	// is what makes count comparisons against rebuild sources sound.
	if err := s.BufferAllEdges(); err != nil {
		return rep, err
	}
	if err := s.FlushAllVbufs(); err != nil {
		return rep, err
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)

	badLog := s.log.VerifyWindow(ctx)
	rep.LogBadRecords = int64(len(badLog))

	deadNodes := make(map[int]bool)
	if f := s.machine.Faults(); f != nil {
		for _, n := range f.DeadNodes() {
			deadNodes[n] = true
		}
	}

	for d := 0; d < 2; d++ {
		for p, g := range s.groups[d] {
			if deadNodes[g.node] {
				continue
			}
			for v := graph.VID(0); v < g.adj.NumVertices(); v++ {
				if s.partOf(v) != p {
					continue
				}
				rep.VerticesScanned++
				if g.adj.VerifyChain(ctx, v) == nil {
					s.clearDamage(Direction(d), v)
					continue
				}
				rep.Damaged++
				s.markDamaged(Direction(d), v)
				recs, ok := s.rebuildRecords(ctx, Direction(d), v, len(badLog) == 0)
				if !ok {
					s.markUnrec(Direction(d), v)
					rep.Unrecoverable++
					continue
				}
				// The rewrite destroys the damaged chain; fence live
				// snapshots first (their view of v is already damaged, so
				// the freeze records an error for checked readers).
				for _, sn := range s.liveSnapshots() {
					sn.freezeVertex(ctx, v)
				}
				// Blocks are 64-byte aligned but UEs poison whole 256-byte
				// XPLines, so a replacement can land on the same bad line
				// as the chain it replaces (or decay can strike it). Retry
				// a few times — each failed attempt quarantines its spans
				// and the allocator moves past them; a vertex still bad
				// after the attempts stays damaged for the next pass.
				repaired := false
				for attempt := 0; attempt < 4; attempt++ {
					spans, err := g.adj.ReplaceChain(ctx, v, recs)
					if err != nil {
						s.markUnrec(Direction(d), v)
						rep.Unrecoverable++
						break
					}
					for _, span := range spans {
						s.noteQuarSpan(d, p, span[0], span[1])
						rep.SpansQuarantined++
						rep.BytesQuarantined += span[1]
					}
					s.records[d][v] = uint32(g.adj.Records(v))
					s.noteRewrite(d, v)
					s.staleBase()
					if g.adj.VerifyChain(ctx, v) == nil {
						repaired = true
						break
					}
				}
				if !repaired {
					continue
				}
				s.clearDamage(Direction(d), v)
				rep.Repaired++
			}
		}
	}

	if s.props != nil {
		// The property columns scrub on the same pass: bad blocks are
		// re-published as patch blocks from the DRAM mirror and the
		// damaged lines retired; a block with no mirror leaves the layer
		// damaged, and checked property reads fail instead of serving
		// silently-default values.
		pr, err := s.props.Scrub(ctx)
		if err != nil {
			return rep, err
		}
		rep.PropBlocksScrubbed = pr.BlocksScanned
		rep.PropBlocksBad = pr.BadBlocks
		rep.PropBlocksRebuilt = pr.Rebuilt
		rep.PropUnrecoverable = pr.Unrecoverable
	}

	s.persistBarrier(ctx)
	if err := s.persistQuarantine(ctx); err != nil {
		return rep, err
	}
	s.persistBarrier(ctx)

	rep.SimNs = ctx.Cost.Ns()
	s.scrubStats.Runs++
	s.scrubStats.Damaged += rep.Damaged
	s.scrubStats.Repaired += rep.Repaired
	s.scrubStats.Unrecoverable += rep.Unrecoverable
	s.scrubStats.SpansQuarantined += rep.SpansQuarantined
	s.scrubStats.LogBadRecords += rep.LogBadRecords
	s.emitSpan("scrub", obs.LaneRecovery, rep.SimNs)
	return rep, nil
}

// noteRewrite marks v's chain in direction d rewritten at the log head
// (MediaGuard stores: rebuildRecords reads the mark).
func (s *Store) noteRewrite(d int, v graph.VID) {
	if !s.opts.MediaGuard {
		return
	}
	if s.rewrites[d] == nil {
		s.rewrites[d] = make(map[graph.VID]int64)
	}
	s.rewrites[d][v] = s.log.Head()
}

// rebuildRecords reconstructs vertex v's record stream in direction d,
// preferring the SSD archive (complete whenever its count matches the log
// head: every accepted edge was teed) and falling back to the resident
// edge-log window when it verified clean. The window vouches for v's raw
// records when it holds as many of them as v's chain counts and either
// reaches log position 0 (a rewrite dropped nothing, then) or starts
// after v's chain was last rewritten. Otherwise a window that reaches
// position 0 holds v's whole history, whose resolved stream is a rebuild
// as the archive's is. Returns ok=false when no source can vouch
// for completeness — a partial rebuild would be silently wrong data, the
// one thing this subsystem exists to prevent.
func (s *Store) rebuildRecords(ctx *xpsim.Ctx, d Direction, v graph.VID, logOK bool) ([]uint32, bool) {
	if s.arch != nil && !s.arch.full && s.arch.cnt == s.log.Head() {
		// The archive holds the raw stream; resolve tombstones the same
		// way compaction does (the rebuilt chain is a resolved rewrite).
		recs := s.arch.collect(ctx, d, v)
		return adj.ResolveTombstones(recs, 0), true
	}
	if !logOK {
		return nil, false
	}
	lo := max(s.log.Head()-s.log.Cap(), 0)
	recs := s.logged(ctx, d, v, lo, nil)
	switch {
	case len(recs) == int(s.records[d][v]) && (lo == 0 || max(s.rewrites[d][v], s.rewriteFloor) <= lo):
		return recs, true
	case lo == 0:
		return adj.ResolveTombstones(recs, 0), true
	}
	return nil, false
}
