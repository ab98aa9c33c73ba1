package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/elog"
	"repro/internal/graph"
	"repro/internal/mempool"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/vbuf"
	"repro/internal/xpsim"
)

// IngestReport summarizes one ingestion run in simulated time. Logging
// runs on a dedicated thread in parallel with archiving (§IV-A), so the
// total is the maximum of the two pipelines.
type IngestReport struct {
	Edges         int64
	LogNs         int64 // logging-thread simulated time
	BufferNs      int64 // buffering phases (max-worker per phase, summed)
	FlushNs       int64 // flushing phases
	Batches       int64 // buffering phases executed
	FlushAlls     int64 // full flush phases executed
	PoolFallbacks int64 // buffer allocations that fell back to direct writes
}

// archiveNs is the archiving pipeline total (buffering + flushing).
func (r IngestReport) archiveNs() int64 { return r.BufferNs + r.FlushNs }

// TotalNs is the simulated wall time of the overlapped pipelines.
func (r IngestReport) TotalNs() int64 {
	if r.LogNs > r.archiveNs() {
		return r.LogNs
	}
	return r.archiveNs()
}

// Add accumulates another report (for multi-call ingestion).
func (r *IngestReport) Add(o IngestReport) {
	r.Edges += o.Edges
	r.LogNs += o.LogNs
	r.BufferNs += o.BufferNs
	r.FlushNs += o.FlushNs
	r.Batches += o.Batches
	r.FlushAlls += o.FlushAlls
	r.PoolFallbacks += o.PoolFallbacks
}

// Report returns the accumulated ingestion report.
func (s *Store) Report() IngestReport { return s.report }

// logChunk is how many edges the logging thread appends per call — the
// granularity at which it checks archive triggers, as GraphOne's logging
// loop does.
const logChunk = 4096

// flushFraction triggers a full flushing phase once buffered-but-unflushed
// edges reach this fraction of the log. Only an archive step checks it, and
// Ingest takes one only once a call has logged ArchiveThreshold edges past
// the buffered cursor: BufferAllEdges, which buffers every smaller call's
// tail, never does. So a store fed small batches, as the serving path's
// write windows are, lets the head catch the flushing cursor, and its
// flush-all comes from elog.ErrFull instead (DESIGN.md §4 "The log-space
// trigger").
const flushFraction = 0.5

// Ingest streams the edges through the full logging → buffering →
// flushing pipeline and leaves the store queryable (hot vertex buffers
// included). It is the batch path the paper's ingestion experiments use.
func (s *Store) Ingest(edges []graph.Edge) (IngestReport, error) {
	// Whole-device failure makes every media write into that node's
	// adjacency and log stripes a black hole: refuse ingestion up front
	// with the typed error (the store serves reads in readonly mode).
	if f := s.machine.Faults(); f != nil {
		if dead := f.DeadNodes(); len(dead) > 0 {
			return IngestReport{}, fmt.Errorf("core: store is read-only: %w",
				&xpsim.MediaError{Node: dead[0], Line: -1})
		}
	}
	before := s.report
	s.ensureVertices(graph.MaxVID(edges) + 1)
	logCtx := s.logCtx.reset()
	i := 0
	for i < len(edges) {
		end := i + logChunk
		if end > len(edges) {
			end = len(edges)
		}
		n, err := s.log.Append(logCtx, edges[i:end])
		if n > 0 && s.arch != nil {
			// Tee every accepted edge onto the SSD archive — the
			// scrubber's rebuild source once records rotate out of the
			// circular log.
			s.arch.tee(logCtx, edges[i:i+n])
		}
		i += n
		s.report.Edges += int64(n)
		if err != nil && err != elog.ErrFull {
			return IngestReport{}, err
		}
		if err == elog.ErrFull {
			// The head caught the flushing cursor: archive synchronously.
			if aerr := s.archiveStep(true); aerr != nil {
				return IngestReport{}, aerr
			}
			continue
		}
		if s.log.PendingBuffer() >= s.opts.ArchiveThreshold {
			if aerr := s.archiveStep(false); aerr != nil {
				return IngestReport{}, aerr
			}
		}
	}
	// Buffer the tail so every logged edge is queryable through the
	// adjacency view. Vertex buffers intentionally stay resident: they
	// double as a query cache (§III-B).
	if err := s.BufferAllEdges(); err != nil {
		return IngestReport{}, err
	}
	s.report.LogNs += logCtx.Cost.Ns()
	s.emitSpan("log", obs.LaneLogging, logCtx.Cost.Ns())
	r := s.report
	r.Edges -= before.Edges
	r.LogNs -= before.LogNs
	r.BufferNs -= before.BufferNs
	r.FlushNs -= before.FlushNs
	r.Batches -= before.Batches
	r.FlushAlls -= before.FlushAlls
	r.PoolFallbacks -= before.PoolFallbacks
	return r, nil
}

// archiveStep runs one buffering phase plus, when thresholds demand it, a
// full flushing phase. The log-space trigger does not apply to the
// battery-backed variant: its vertex buffers are in the power-fail
// protected domain, so the log head may overwrite buffered edges and
// flushing is only ever needed for pool pressure (§IV-C — this is where
// XPGraph-B's up-to-23% win comes from).
func (s *Store) archiveStep(force bool) error {
	if err := s.bufferPhase(obs.LaneBuffering); err != nil {
		return err
	}
	logPressure := false
	if !s.opts.Battery {
		flushLimit := int64(float64(s.log.Cap()) * flushFraction)
		logPressure = s.log.PendingFlush() >= flushLimit
	}
	if force || logPressure || s.pool.NeedsFlush() {
		return s.FlushAllVbufs()
	}
	return nil
}

// AddEdge logs one edge update — add_edge(src, dst) of Table I — running
// archive phases synchronously when thresholds trip.
func (s *Store) AddEdge(src, dst graph.VID) error {
	return s.AddEdges([]graph.Edge{{Src: src, Dst: dst}})
}

// DelEdge logs one edge deletion — del_edge(src, dst) of Table I.
func (s *Store) DelEdge(src, dst graph.VID) error {
	return s.AddEdges([]graph.Edge{graph.Del(src, dst)})
}

// AddEdges logs a batch of edge updates — add_edges(buf, size) of
// Table I.
func (s *Store) AddEdges(edges []graph.Edge) error {
	_, err := s.Ingest(edges)
	return err
}

// BufferEdges logs a batch and immediately stages it into vertex buffers
// — buffer_edges(buf, size) of Table I. It returns the number of edges
// accepted.
func (s *Store) BufferEdges(edges []graph.Edge) (int, error) {
	before := s.log.Head()
	if err := s.AddEdges(edges); err != nil {
		return int(s.log.Head() - before), err
	}
	return int(s.log.Head() - before), s.BufferAllEdges()
}

// BufferAllEdges stages every logged-but-unbuffered edge into vertex
// buffers — buffer_all_edges of Table I.
func (s *Store) BufferAllEdges() error {
	for s.log.PendingBuffer() > 0 {
		if err := s.bufferPhase(obs.LaneBuffering); err != nil {
			return err
		}
	}
	return nil
}

// bufferPhase stages one batch of logged edges into DRAM vertex buffers.
// The archive threads first shard the batch into per-(direction,
// partition) ranged edge lists (the GraphOne edge-sharding approach,
// §IV-A; shard.Stage), each thread reading the log stripes of its own NUMA
// node; then the worker groups bound to the owning nodes drain their lists
// in parallel. The phase's span goes on lane: the buffering lane, or the
// recovery lane when the batch is a piece of the replay window.
func (s *Store) bufferPhase(lane int64) error {
	from, to := s.log.Buffered(), s.log.Head()
	if to == from {
		return nil
	}
	if max := from + 4*s.opts.ArchiveThreshold; to > max {
		to = max // bound batch size so flush thresholds stay responsive
	}
	s.epoch++
	s.report.Batches++
	bufStart := s.laneEnd[lane]

	wpg := s.workersPerGroup()
	geo := shard.Hashed(s.nparts, shard.RangesPerWorker*wpg)
	contention := s.contentionFor()
	lists, maxV, shardNs := s.stage.Run(s.log, from, to, geo, shard.Sharders{
		N: s.opts.ArchiveThreads, NodeOf: s.threadNode, Contention: contention, Lat: s.lat})
	// Only a recovery replay meets vertices first seen in its batch: Ingest
	// grows the ID space before it logs.
	s.ensureVertices(maxV + 1)
	// The ranged edge lists are DRAM scratch.
	if extra := (to - from) * graph.EdgeBytes * 2; extra > s.metaPeakExtra {
		s.metaPeakExtra = extra
	}
	s.shardSpans(bufStart)

	// Drain the lists. The worker that owns a list first counts its
	// vertices' batch increments for skip-layer buffer allocation (§III-C)
	// — every entry of a vertex sits in that vertex's one list, so the
	// counts are complete before the worker's first insert and need no
	// atomics — then inserts in log order.
	drainNs, err := s.runGroups("buffer", bufStart+shardNs, func(d, p int, g *group) (time.Duration, error) {
		ranges := lists[(d*s.nparts+p)*geo.Ranges():][:geo.Ranges()]
		assign := s.stage.Balance(ranges, wpg)
		var insertErr error
		dur := s.sweep.Each(wpg, contention, xpsim.PinnedTo(g.node), func(w int, ctx *xpsim.Ctx) {
			thread := (d*s.nparts+p)*wpg + w
			for _, ri := range assign[w] {
				for _, se := range ranges[ri] {
					if s.batchEpoch[d][se.V] != s.epoch {
						s.batchEpoch[d][se.V] = s.epoch
						s.batchCnt[d][se.V] = 0
						s.noteDirty(d, se.V)
					}
					s.batchCnt[d][se.V]++
				}
				s.lat.CPU(ctx, int64(len(ranges[ri])))
			}
			for _, ri := range assign[w] {
				for _, se := range ranges[ri] {
					if err := s.bufferInsert(ctx, thread, Direction(d), p, se.V, se.Nbr); err != nil {
						insertErr = err
						return
					}
				}
			}
		})
		return dur, insertErr
	})
	if err != nil {
		return err
	}
	s.machine.CrashPoint("buffer:staged")
	markCtx := s.markCtx.reset()
	s.log.MarkBuffered(markCtx, to)
	s.machine.CrashPoint("buffer:marked")
	phaseNs := shardNs + drainNs + markCtx.Cost.Ns()
	s.report.BufferNs += phaseNs
	s.emitSpan("buffer", lane, phaseNs)
	return nil
}

// threadNode reports the node archive thread t is bound to: thread t
// serves group t mod 2P in (direction, partition) order, so every node
// holds an equal share of the threads.
func (s *Store) threadNode(t int) int {
	g := t % (2 * s.nparts)
	return s.groups[g/s.nparts][g%s.nparts].node
}

// runGroups runs one parallel step of the archiving pipeline — fn once
// per (direction, partition) group, in that order — and returns how long
// the step lasts. With a thread per group all groups run concurrently and
// the step is as long as its slowest group; fewer archive threads than
// groups share them round-robin, and the step is as long as its busiest
// thread. Each group's worker span is placed where its thread reaches it.
func (s *Store) runGroups(phase string, startNs int64, fn func(d, p int, g *group) (time.Duration, error)) (int64, error) {
	busy := s.threadBusy[:min(s.opts.ArchiveThreads, 2*s.nparts)]
	clear(busy)
	for d := 0; d < 2; d++ {
		for p, g := range s.groups[d] {
			dur, err := fn(d, p, g)
			t := (d*s.nparts + p) % len(busy)
			s.workerSpan(phase, d, p, startNs+busy[t], int64(dur))
			busy[t] += int64(dur)
			if err != nil {
				return 0, err
			}
		}
	}
	return slices.Max(busy), nil
}

// bufferInsert stages one neighbor into v's vertex buffer, promoting or
// flushing the buffer as required (§III-B, §III-C).
func (s *Store) bufferInsert(ctx *xpsim.Ctx, thread int, d Direction, p int, v graph.VID, nbr uint32) error {
	g := s.groups[d][p]
	s.records[d][v]++
	s.lat.CPU(ctx, 12) // vertex-index lookup and bookkeeping

	if s.opts.Buffer == BufferNone {
		return g.adj.Append(ctx, v, []uint32{nbr})
	}

	h, c := s.vbH[d][v], int(s.vbC[d][v])
	if h == mempool.None {
		cls := s.initialClass(d, v)
		nh, err := s.bufs.NewBuf(ctx, thread, cls)
		if err != nil {
			// Pool exhausted mid-phase: degrade to a direct write; the
			// phase driver will flush-all at the next boundary.
			s.report.PoolFallbacks++
			return g.adj.Append(ctx, v, []uint32{nbr})
		}
		h, c = nh, cls
		s.vbH[d][v], s.vbC[d][v] = h, uint8(c)
	}
	if s.bufs.Full(h, c) {
		if s.opts.Buffer == BufferHierarchical && c < s.opts.maxClass() {
			nh, err := s.bufs.Promote(ctx, thread, h, c, c+1)
			if err == nil {
				h, c = nh, c+1
				s.vbH[d][v], s.vbC[d][v] = h, uint8(c)
			} else {
				// No room to grow: flush in place instead.
				s.drained = s.bufs.Drain(ctx, h, c, s.drained[:0])
				if aerr := g.adj.Append(ctx, v, s.drained); aerr != nil {
					return aerr
				}
			}
		} else {
			// Max layer full: flush the whole buffer to the PMEM
			// adjacency list with one contiguous write (§III-B).
			s.drained = s.bufs.Drain(ctx, h, c, s.drained[:0])
			if aerr := g.adj.Append(ctx, v, s.drained); aerr != nil {
				return aerr
			}
		}
	}
	s.bufs.Append(ctx, h, c, nbr)
	return nil
}

// initialClass picks the first buffer layer for a vertex, skipping lower
// layers when the current batch already brings more neighbors (§III-C).
func (s *Store) initialClass(d Direction, v graph.VID) int {
	if s.opts.Buffer == BufferFixed {
		return s.opts.maxClass()
	}
	cls := s.opts.minClass()
	if s.batchEpoch[d][v] == s.epoch {
		want := vbuf.ClassForCount(int(s.batchCnt[d][v]))
		if want > cls {
			cls = want
		}
	}
	if max := s.opts.maxClass(); cls > max {
		cls = max
	}
	return cls
}

// FlushAllVbufs drains every vertex buffer to the PMEM adjacency lists,
// advances the flushing cursor, and recycles the whole pool —
// flush_all_vbufs of Table I and the flushing phase of §IV-A.
//
// On crash-safe stores the cursor advance is a three-step commit:
// acknowledge the drained counts into each changed block's stamped slot
// (adj.Ack), write everything back to media (persistBarrier), then commit
// the flush epoch while advancing the cursor (elog.Log.Commit). A crash
// before the commit leaves the previous epoch current and the whole phase
// invisible; after it, fully visible.
//
// Everything before the barrier is parallel work on bound threads (§III-D):
// each group drains and then acknowledges with its own workers, and the
// property-column flush runs as one more worker beside them, so the phase
// costs max(drain + ack, props) plus the serial barrier and cursor flip.
func (s *Store) FlushAllVbufs() error {
	flushStart := s.laneEnd[obs.LaneFlushing]
	var drainNs int64
	if s.opts.Buffer != BufferNone {
		s.report.FlushAlls++
		var err error
		if drainNs, err = s.runGroups("flush", flushStart, s.drainGroup); err != nil {
			return err
		}
	}
	propsNs, err := s.flushProps(flushStart)
	if err != nil {
		return err
	}
	ctx := s.flushCtx.reset()
	ackNs, err := s.commitFlush(ctx, flushStart+drainNs)
	if err != nil {
		return err
	}
	parNs := max(drainNs+ackNs, propsNs)
	if s.opts.Buffer != BufferNone {
		s.pool.Reset()
	}
	s.report.FlushNs += parNs + ctx.Cost.Ns()
	s.emitSpan("flush", obs.LaneFlushing, parNs+ctx.Cost.Ns())
	return nil
}

// drainGroup is group (d, p)'s share of the drain sub-phase of a flush-all:
// the group's workers, bound to its node, append their vertices' buffered
// neighbors to the adjacency list and free the buffers.
//
// The drain is two xpsim.Sweeps, so a flush writes each XPLine of the arena
// in one visit, whichever worker drains which vertex. The first fills the
// tail blocks that have room in the order of their offsets, each block's
// count just before its records (adj.Store.FillTail). The second takes what
// is still buffered in ascending ID order and opens new blocks for it, so a
// flush lays its new blocks out in ID order — the order compaction writes
// and analytics reads them in. Each item weighs its buffered count. The
// item lists are sized to their first use plus a quarter, not doubled,
// because a store's first flushes are on the write path's allocation
// budget; like the ID scan, the offset sort reads the DRAM index and is not
// charged.
func (s *Store) drainGroup(d, p int, g *group) (time.Duration, error) {
	numV := s.NumVertices()
	buffered := func(v graph.VID) bool { return s.vbH[d][v] != mempool.None && s.partOf(v) == p }
	k, kt := 0, 0
	for v := graph.VID(0); v < numV; v++ {
		if buffered(v) {
			k++
			if _, room := g.adj.TailFit(v); room {
				kt++
			}
		}
	}
	if cap(s.sweepVs) < k {
		s.sweepVs = make([]graph.VID, 0, k+k/4)
	}
	if cap(s.sweepTails) < kt {
		s.sweepTails = make([]graph.VID, 0, kt+kt/4)
	}
	vs, tails := s.sweepVs[:0], s.sweepTails[:0]
	for v := graph.VID(0); v < numV; v++ {
		if buffered(v) {
			vs = append(vs, v)
			if _, room := g.adj.TailFit(v); room {
				tails = append(tails, v)
			}
		}
	}
	slices.SortFunc(tails, func(a, b graph.VID) int {
		offA, _ := g.adj.TailFit(a)
		offB, _ := g.adj.TailFit(b)
		return cmp.Compare(offA, offB)
	})
	s.sweepTails = tails
	records := func(v graph.VID) int { return s.bufs.Count(s.vbH[d][v], int(s.vbC[d][v])) }
	var err error
	fill := s.sweep.Run(s.lat, s.workersPerGroup(), s.contentionFor(), xpsim.PinnedTo(g.node), len(tails), func(i int) int {
		return records(tails[i])
	}, func(ctx *xpsim.Ctx, i int) {
		if err == nil {
			err = s.fillTail(ctx, d, p, tails[i])
		}
	})
	if err != nil {
		return fill, err
	}
	rest := vs[:0]
	for _, v := range vs {
		if s.vbH[d][v] != mempool.None {
			rest = append(rest, v)
		}
	}
	s.sweepVs = rest
	open := s.sweep.Run(s.lat, s.workersPerGroup(), s.contentionFor(), xpsim.PinnedTo(g.node), len(rest), func(i int) int {
		return records(rest[i])
	}, func(ctx *xpsim.Ctx, i int) {
		if err == nil {
			err = s.drainVertex(ctx, d, p, rest[i])
		}
	})
	return fill + open, err
}

// fillTail writes as many of v's buffered neighbors in direction d as fit
// its tail block and frees the buffer once it is empty, on the drain worker
// ctx names; what does not fit stays buffered for the second pass.
func (s *Store) fillTail(ctx *xpsim.Ctx, d, p int, v graph.VID) error {
	h, c := s.vbH[d][v], int(s.vbC[d][v])
	s.lat.CPU(ctx, 2)
	s.drained = s.bufs.Neighbors(ctx, h, c, s.drained[:0])
	n, err := s.groups[d][p].adj.FillTail(ctx, v, s.drained)
	if err != nil {
		return err
	}
	if n < len(s.drained) {
		s.bufs.Drop(ctx, h, c, n)
		return nil
	}
	s.freeBuf(ctx, d, p, v)
	return nil
}

// drainVertex appends v's buffered neighbors in direction d to its
// adjacency list and frees the buffer, on the drain worker ctx names.
func (s *Store) drainVertex(ctx *xpsim.Ctx, d, p int, v graph.VID) error {
	h, c := s.vbH[d][v], int(s.vbC[d][v])
	s.lat.CPU(ctx, 2)
	if s.bufs.Count(h, c) > 0 {
		s.drained = s.bufs.Drain(ctx, h, c, s.drained[:0])
		if err := s.groups[d][p].adj.Append(ctx, v, s.drained); err != nil {
			return err
		}
	}
	s.freeBuf(ctx, d, p, v)
	return nil
}

// freeBuf frees v's buffer in direction d to the drain worker ctx names.
func (s *Store) freeBuf(ctx *xpsim.Ctx, d, p int, v graph.VID) {
	s.bufs.Free((d*s.nparts+p)*s.workersPerGroup()+ctx.Worker, s.vbH[d][v], int(s.vbC[d][v]))
	s.vbH[d][v] = mempool.None
	s.vbC[d][v] = 0
}

// flushProps pushes pending property records into the column log so a
// flush point is a durability point for the property layer as well as
// the adjacency lists. It is one more worker of the flushing phase that
// starts at startNs, beside the adjacency groups; its simulated time is
// returned. No-op without Options.Props.
func (s *Store) flushProps(startNs int64) (int64, error) {
	if s.props == nil {
		return 0, nil
	}
	ctx := s.propsCtx.reset()
	err := s.props.Flush(ctx)
	s.subSpan("props", 2*s.nparts, startNs, ctx.Cost.Ns())
	return ctx.Cost.Ns(), err
}

// commitFlush advances the flushing cursor over everything buffered,
// running the crash-safe ack/barrier/commit sequence when the store
// requires it. The ack sub-phase starts at ackStart on the flushing lane
// and its duration — the slowest group — is returned; the serial tail
// (barrier and cursor store) is charged to ctx.
//
// Each group writes its own count slots with its own workers, bound to the
// group's node like every other PMEM write of the archiving pipeline.
// Groups are visited in (direction, partition) order and a group's workers
// split its offset-sorted pending blocks into contiguous runs, so the
// devices see one ascending sweep per arena however many workers share it.
func (s *Store) commitFlush(ctx *xpsim.Ctx, ackStart int64) (ackNs int64, err error) {
	if !s.adjOpts.Counts.Acked() {
		s.log.MarkFlushed(ctx, s.log.Buffered())
		return 0, nil
	}
	s.machine.CrashPoint("flush:drained")
	epoch := s.log.Epoch() + 1
	wpg := s.workersPerGroup()
	contention := s.contentionFor()
	ackNs, _ = s.runGroups("ack", ackStart, func(_, _ int, g *group) (time.Duration, error) {
		return s.sweep.Each(wpg, contention, xpsim.PinnedTo(g.node), func(w int, wctx *xpsim.Ctx) {
			g.adj.Ack(wctx, epoch, w, wpg)
		}), nil
	})
	s.machine.CrashPoint("flush:acked")
	s.persistBarrier(ctx)
	s.machine.CrashPoint("flush:barrier")
	if err := s.log.Commit(ctx, s.log.Buffered()); err != nil {
		return ackNs, err
	}
	s.machine.CrashPoint("flush:committed")
	return ackNs, nil
}

// CompactAdjs merges all of one vertex's adjacency blocks (DRAM buffer
// included) into a single PMEM block — compact_adjs(vid) of Table I.
//
// On crash-safe stores compaction only rewrites committed records (the
// compacted block's counts are committed the moment its swap commits, which
// is only safe below the flushed cursor), so a full flushing phase runs
// first.
func (s *Store) CompactAdjs(ctx *xpsim.Ctx, v graph.VID) error {
	if v >= s.NumVertices() {
		return fmt.Errorf("core: vertex %d out of range", v)
	}
	if s.adjOpts.Counts.Acked() {
		if err := s.FlushAllVbufs(); err != nil {
			return err
		}
	}
	before := ctx.Cost.Ns()
	err := s.compactOne(ctx, v)
	s.emitSpan(fmt.Sprintf("compact v%d", v), obs.LaneCompaction, ctx.Cost.Ns()-before)
	return err
}

// compactOne compacts a single vertex; crash-safe callers must have
// flushed all vertex buffers first.
func (s *Store) compactOne(ctx *xpsim.Ctx, v graph.VID) error {
	// Compaction fencing: rewriting v's chains resolves tombstones and
	// destroys the append-only prefix snapshots rely on, so every live
	// snapshot freezes its view of v first (copy-on-invalidate).
	for _, sn := range s.liveSnapshots() {
		sn.freezeVertex(ctx, v)
	}
	for d := 0; d < 2; d++ {
		p := s.partOf(v)
		g := s.groups[d][p]
		h := s.vbH[d][v]
		if h != mempool.None {
			c := int(s.vbC[d][v])
			if s.bufs.Count(h, c) > 0 {
				drained := s.bufs.Drain(ctx, h, c, nil)
				if err := g.adj.Append(ctx, v, drained); err != nil {
					return err
				}
			}
		}
		if err := g.adj.Compact(ctx, v); err != nil {
			return err
		}
		s.noteRewrite(d, v)
		s.machine.CrashPoint("compact:done")
		s.staleBase()
		s.records[d][v] = uint32(g.adj.Records(v))
		if h != mempool.None {
			cnt := s.bufs.Count(h, int(s.vbC[d][v]))
			s.records[d][v] += uint32(cnt)
		}
	}
	return nil
}

// CompactAllAdjs compacts every vertex — compact_all_adjs of Table I.
func (s *Store) CompactAllAdjs(ctx *xpsim.Ctx) error {
	if s.adjOpts.Counts.Acked() {
		if err := s.FlushAllVbufs(); err != nil {
			return err
		}
	}
	before := ctx.Cost.Ns()
	for v := graph.VID(0); v < s.NumVertices(); v++ {
		if err := s.compactOne(ctx, v); err != nil {
			return err
		}
	}
	s.emitSpan("compact all", obs.LaneCompaction, ctx.Cost.Ns()-before)
	return nil
}
