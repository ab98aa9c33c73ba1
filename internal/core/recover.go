package core

import (
	"fmt"

	"repro/internal/elog"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// RecoveryReport summarizes a crash recovery.
//
// SimNs is the serial attach of the log (and the quarantine), then ScanNs,
// then ReplayNs, then PropsNs.
type RecoveryReport struct {
	SimNs         int64 // simulated recovery time
	ScanNs        int64 // the arena scans' step: the slowest archive thread's scans
	ReplayNs      int64 // the replay's buffering phases
	PropsNs       int64 // the property columns' attach (0 without Options.Props)
	BlocksScanned int64 // adjacency blocks reloaded from PMEM
	Replayed      int64 // log edges replayed into fresh vertex buffers
}

// Recover re-attaches to the PMEM of a crashed store and rebuilds all
// DRAM state: the edge log is attached first (its header carries the last
// committed flush epoch, which decides each block's current count slot),
// the adjacency arenas are scanned to reload the vertex index, completing
// any interrupted compaction via its journal, and the log window
// [flushed, head) is replayed into fresh vertex buffers (the recovery
// scheme of §III-B / §V-D) by the buffering phase itself, and the property
// columns, where the store keeps them, are attached last. All of it but
// the log's attach scales with the archive threads like ingestion does:
// the arenas are scanned in parallel, and each arena's header walk is
// split into segments over its group's workers, bound to the arena's node,
// whose walks a serial join makes the serial walk's block list; the varint
// tails the walk could not decode, and with checksums the payload CRC
// walks, are one more sweep of those workers (adj.RecoverWith). The replay
// is sharded and drained by the same threads, and the column log is read
// by all of them in rounds of one interleave stripe each, every worker on
// the node that holds its stripe, joined in block order (prop.Attach).
//
// The replay is a straight re-insertion with no content dedup: the counts
// committed by the last epoch cover exactly the edges below the flushed
// cursor, so nothing in the window is visible in the recovered
// adjacency lists and nothing below it is missing. (The seed's
// content-based dedup was both lossy — a legitimately duplicated edge in
// the window was skipped against a single stored copy — and unsound
// across compaction, which rewrites the stored records the dedup matched
// against.)
//
// opts must describe the same geometry the crashed store was created
// with (name, log capacity, NUMA mode, region sizes); mismatches are
// reported as errors rather than producing a silently wrong store.
func Recover(machine *xpsim.Machine, heap *pmem.Heap, budget *mem.Budget, opts Options) (*Store, RecoveryReport, error) {
	opts = opts.withDefaults()
	if p, why := opts.counts(); !p.Recoverable() {
		return nil, RecoveryReport{}, fmt.Errorf("core: the store is not recoverable: %s", why)
	}
	s := newShell(machine, heap, budget, opts)

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)

	// Re-attach the edge log first: its header and ring sit at
	// deterministic offsets inside the dedicated log region, and its
	// committed epoch tells the arena scans which count slots to trust.
	logRegion, ok := heap.Get(opts.Name + "-elog")
	if !ok {
		return nil, RecoveryReport{}, fmt.Errorf("core: log region for %q not found", opts.Name)
	}
	hdr := alignUp(logRegion.UserStart(), xpsim.XPLineSize)
	base := alignUp(hdr+elog.HeaderBytes, xpsim.XPLineSize)
	var err error
	s.log, err = elog.AttachWith(ctx, logRegion, hdr, base,
		elog.Config{Battery: opts.Battery, Checksums: opts.MediaGuard})
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	if s.log.Cap() != opts.LogCapacity {
		return nil, RecoveryReport{}, fmt.Errorf("core: log capacity is %d edges, options say %d (wrong geometry)", s.log.Cap(), opts.LogCapacity)
	}
	s.logMem = logRegion

	if opts.MediaGuard {
		s.rewriteFloor = s.log.Flushed()
		// Load the persisted quarantine before the arenas are scanned:
		// mapMemories must know which block spans to keep off the free
		// lists, and the damaged/unrecoverable vertex sets survive the
		// crash with it.
		if err := s.initMediaGuard(ctx, true); err != nil {
			return nil, RecoveryReport{}, err
		}
	}

	// Everything so far was serial; the arena scans are a step of the
	// archive threads, whose bookkeeping initPool sets up.
	s.initPool()
	scanNs, err := s.attachMemories(ctx.Cost.Ns(), s.log.Epoch())
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	rep := RecoveryReport{ScanNs: scanNs}

	// Rebuild vertex-level DRAM state from the recovered arenas.
	maxV := opts.NumVertices
	for d := 0; d < 2; d++ {
		for _, g := range s.groups[d] {
			if n := g.adj.NumVertices(); n > maxV {
				maxV = n
			}
			rep.BlocksScanned += g.adj.Blocks()
		}
	}
	s.ensureVertices(maxV)
	for d := 0; d < 2; d++ {
		for p, g := range s.groups[d] {
			for v := graph.VID(0); v < g.adj.NumVertices(); v++ {
				if !g.adj.Has(v) {
					continue
				}
				if home := s.partOf(v); home != p {
					// Reads, flushes and the replay would all look for v in
					// its home arena and never see these records: a heap
					// written under another partition function must not
					// recover as a partial graph.
					return nil, RecoveryReport{}, fmt.Errorf("core: adjacency region %q holds a block of vertex %d, which these options place in partition %d: the crashed store partitioned its vertices differently (wrong geometry)", s.adjRegionName(d, p), v, home)
				}
				s.records[d][v] += uint32(g.adj.Records(v))
			}
		}
	}
	s.staleBase()
	if opts.MediaGuard {
		// Vertices whose media payload failed checksum verification while
		// the arena scan rebuilt the CRC mirrors join the damaged set; the
		// next scrub repairs or quarantines them.
		for d := 0; d < 2; d++ {
			for _, g := range s.groups[d] {
				for _, v := range g.adj.Suspects() {
					s.markDamaged(Direction(d), v)
				}
			}
		}
		// The replay below would take a record on an uncorrectable line for
		// whatever the line now holds: a silently wrong edge, which the
		// buffering phase's own writes then give a fresh, valid checksum —
		// or a scrambled vertex ID the vertex index grows toward. Verify
		// exactly the window it consumes against the checksum strip first.
		if err := s.verifyLog(ctx, "replay window", s.log.Flushed(), s.log.Head()); err != nil {
			return nil, RecoveryReport{}, err
		}
	}

	// Replay the window that may have lived in lost DRAM vertex buffers.
	// Every record in it is invisible in the recovered adjacency lists
	// (its count never committed), so it is
	// an unbuffered window like any other: rewind the buffered cursor to
	// the flushed one and run the ordinary buffering phase over it, on the
	// archive threads. The phases sit on the recovery lane, after the
	// scans and inside the recover span.
	rep.Replayed = s.log.Head() - s.log.Flushed()
	s.log.RewindBuffered()
	s.laneEnd[obs.LaneRecovery] = ctx.Cost.Ns() + scanNs
	for s.log.PendingBuffer() > 0 {
		if err := s.bufferPhase(obs.LaneRecovery); err != nil {
			return nil, RecoveryReport{}, err
		}
	}
	rep.ReplayNs = s.report.BufferNs
	s.report = IngestReport{} // the replay is recovery's work, not ingestion

	if opts.Props {
		// Re-attach the property columns last: their CRC-guarded blocks
		// replay into the DRAM index, truncating a torn tail (unflushed
		// records roll back to defaults) and flagging unrecoverable
		// mid-log damage so typed reads fail closed instead of serving
		// silently-default labels.
		if rep.PropsNs, err = s.recoverProps(); err != nil {
			return nil, RecoveryReport{}, err
		}
	}
	rep.SimNs = ctx.Cost.Ns() + rep.ScanNs + rep.ReplayNs + rep.PropsNs
	s.laneEnd[obs.LaneRecovery] = 0 // the recover span holds attach, scan, replay and props
	s.emitSpan("recover", obs.LaneRecovery, rep.SimNs)
	return s, rep, nil
}

// recoverProps re-attaches the property columns on the recovery workers,
// each pinned to the node of the stripes it reads, so each node's device
// serves its share of them at once, and returns the attach's simulated
// time.
func (s *Store) recoverProps() (int64, error) {
	ctx := &xpsim.Ctx{Cost: new(xpsim.Cost), Node: xpsim.NodeUnbound,
		Workers: (s.recoveryWorkers() + s.machine.Sockets - 1) / s.machine.Sockets}
	err := s.attachProps(ctx, true)
	return ctx.Cost.Ns(), err
}

func alignUp(x, a int64) int64 { return (x + a - 1) / a * a }
