package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adj"
	"repro/internal/elog"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/mempool"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/shard"
	"repro/internal/ssd"
	"repro/internal/vbuf"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Direction selects out-neighbors or in-neighbors.
type Direction = view.Dir

// Out and In are the two adjacency directions every edge updates.
const (
	Out = view.Out
	In  = view.In
)

// perVertexMetaBytes approximates the DRAM metadata per vertex per
// direction (vertex index entry, degree, batch counters) for the Table III
// accounting.
const perVertexMetaBytes = 24

// group is one adjacency arena: one direction of one partition, placed on
// (and, when binding is enabled, accessed from) one NUMA node.
type group struct {
	adj  *adj.Store
	node int // node to bind accessing threads to; xpsim.NodeUnbound = no binding
}

// Store is an XPGraph instance. Its read surface is view.Surface over
// the primitives in query.go.
type Store struct {
	view.Surface

	opts    Options
	adjOpts adj.Options // every arena's, derived once from opts
	machine *xpsim.Machine
	heap    *pmem.Heap
	budget  *mem.Budget
	lat     *xpsim.LatencyModel

	log    *elog.Log
	logMem mem.Mem

	nparts int
	groups [2][]*group

	pool *mempool.Pool
	bufs *vbuf.Buffers

	// Per-direction, per-vertex DRAM state (the "Meta" of Table III).
	vbH     [2][]mempool.Handle
	vbC     [2][]uint8
	records [2][]uint32 // total records ingested (adjacency + buffered)

	// Per-batch counters for skip-layer buffer allocation (§III-C).
	epoch      uint32
	batchEpoch [2][]uint32
	batchCnt   [2][]uint32

	metaBytes     int64
	metaPeakExtra int64 // shard scratch high-water mark
	report        IngestReport

	// Archiving scratch. A store runs one phase at a time and the
	// simulation runs a phase's workers one after the other, so one copy
	// serves them all; it grows to the largest batch seen and a
	// steady-state phase allocates nothing.
	stage      shard.Stage
	drained    []uint32    // a vertex buffer's neighbors on their way to the adjacency list
	threadBusy []int64     // runGroups: time each archive thread has spent in the current step
	sweep      xpsim.Sweep // the parallel phases' loops — buffer, drain, ack, scan — and their workers' clocks
	sweepVs    []graph.VID // the drain's items: a group's buffered vertices, ascending
	sweepTails []graph.VID // the drain's first pass: buffered vertices whose tail has room, by tail offset
	// The serial contexts, reused: xpsim.NewCtx's would escape through the
	// mem.Mem accesses they carry. logCtx is Ingest's logging thread,
	// markCtx a buffering phase's log mark, flushCtx and propsCtx the
	// flush's.
	logCtx, markCtx, flushCtx, propsCtx scratchCtx

	// Phase tracing (nil = disabled): spans are placed on per-lane
	// simulated-clock cursors so the exported timeline reconstructs the
	// pipeline schedule the cost model computed (see obs.go).
	tracer    *obs.Tracer
	laneEnd   [obs.LaneWorkerBase]int64
	spanNames map[string][]string // workerSpan: phase -> one name per group

	// snaps registers outstanding snapshots for compaction fencing:
	// before a vertex's chains are rewritten, each registered snapshot
	// freezes its view of that vertex (copy-on-invalidate). snapMu is a
	// leaf mutex — nothing is called while holding it — and also guards
	// the count bases' shares.
	snapMu sync.Mutex
	snaps  map[*Snapshot]struct{}
	// shortReads counts snapshot reads refused with a shortReadError.
	shortReads atomic.Int64

	// Publication state (snapshot.go): base is the count base the newest
	// snapshot reads; dirty logs, per direction, the vertices whose counts
	// changed since it was captured, unless baseStale says a capture must
	// copy every count.
	base      *countBase
	dirty     [2][]graph.VID
	baseStale bool

	// props is the property-graph layer (typed edges + vertex property
	// columns; nil unless Options.Props). Its column log lives in region
	// "{Name}-prop" and flushes at the same points as the vertex buffers.
	props *prop.Store

	// Media-error tolerance state (MediaGuard; see media.go). mediaMu
	// guards the damaged/unrec maps: checked reads record detections
	// concurrently (many readers run under the server's shared lock)
	// while Health and the scrubber read and clear them. It is a leaf
	// mutex — nothing is called while holding it.
	mediaMu    sync.RWMutex
	arch       *archive                  // SSD edge archive (nil: no archive)
	quarMem    *pmem.Region              // persisted quarantine region
	quarSeq    uint64                    // generation of the newest persisted quarantine record
	damaged    [2]map[graph.VID]struct{} // vertices with detected corruption, awaiting repair
	unrec      [2]map[graph.VID]struct{} // vertices the scrubber could not rebuild
	quarSpans  [2][]map[int64]int64      // per dir/part: quarantined block offset -> span bytes
	scrubStats scrubStats
	// rewrites holds the log head at each vertex chain's last rewrite (a
	// compaction or a scrub repair) and rewriteFloor the flushed cursor a
	// recovery found, before which any chain may have been rewritten: a
	// log-window rebuild trusts only windows that start after both.
	rewrites     [2]map[graph.VID]int64
	rewriteFloor int64
}

// New creates an XPGraph store on the machine. For PMEM media a heap is
// required; budget caps DRAM usage (nil: unlimited).
func New(machine *xpsim.Machine, heap *pmem.Heap, budget *mem.Budget, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if p, why := opts.counts(); opts.MediaGuard && !p.Acked() {
		return nil, fmt.Errorf("core: MediaGuard requires the crash-safe protocol: %s", why)
	}
	s := newShell(machine, heap, budget, opts)
	if (opts.ArchiveSSDBytes > 0 || opts.Archive != nil) && !opts.MediaGuard {
		return nil, fmt.Errorf("core: the SSD edge archive is part of MediaGuard; enable it")
	}

	ctx := xpsim.NewCtx(0)
	if err := s.mapMemories(); err != nil {
		return nil, err
	}
	var err error
	s.log, err = elog.CreateWith(ctx, s.logMem, opts.LogCapacity,
		elog.Config{Battery: opts.Battery, Checksums: opts.MediaGuard})
	if err != nil {
		return nil, err
	}
	if opts.MediaGuard {
		if err := s.initMediaGuard(ctx, false); err != nil {
			return nil, err
		}
	}
	if opts.Props {
		if err := s.attachProps(ctx, false); err != nil {
			return nil, err
		}
	}
	s.initPool()
	s.ensureVertices(opts.NumVertices)
	if s.adjOpts.Counts.Recoverable() {
		// Make the freshly initialized store durable, so a crash right
		// after creation recovers an empty store instead of torn metadata.
		s.persistBarrier(ctx)
		s.machine.CrashPoint("core.New:done")
	}
	return s, nil
}

// newShell is the DRAM shell of a store, which New and Recover fill in.
func newShell(machine *xpsim.Machine, heap *pmem.Heap, budget *mem.Budget, opts Options) *Store {
	s := &Store{
		opts:    opts,
		adjOpts: opts.adjOptions(),
		machine: machine,
		heap:    heap,
		budget:  budget,
		lat:     &machine.Lat,
		tracer:  opts.Tracer,
		nparts:  1,
	}
	s.Surface = view.Surface{Source: s}
	if opts.NUMA == NUMASubgraph {
		s.nparts = machine.Sockets
	}
	return s
}

// scratchCtx is a single unbound worker's context and clock that a store
// reuses.
type scratchCtx struct {
	ctx  xpsim.Ctx
	cost xpsim.Cost
}

// reset zeroes the clock and returns the context.
func (c *scratchCtx) reset() *xpsim.Ctx {
	c.cost = xpsim.Cost{}
	c.ctx = xpsim.Ctx{Cost: &c.cost, Node: xpsim.NodeUnbound, Workers: 1}
	return &c.ctx
}

// persistBarrier writes back every line buffered inside the machine's
// devices — the commit fence of a crash-safe flushing phase: after it,
// everything written so far is on media.
func (s *Store) persistBarrier(ctx *xpsim.Ctx) {
	for _, d := range s.machine.Devices() {
		d.WritebackAll(ctx)
	}
}

// mapMemories creates the log memory and the adjacency groups of a new
// store.
func (s *Store) mapMemories() error {
	opts := s.opts
	logBytes := opts.LogCapacity*graph.EdgeBytes + 4096
	if opts.MediaGuard {
		// Room for the per-record CRC strip after the ring (plus XPLine
		// alignment slack on both sides).
		logBytes += opts.LogCapacity*4 + 2*xpsim.XPLineSize
	}
	newSpace := func(size int64) mem.Mem {
		if opts.Medium == MediumMemoryMode {
			return mem.NewMemoryMode(s.lat, size)
		}
		return mem.NewDRAM(s.lat, size, s.budget)
	}

	if opts.Medium != MediumPMEM {
		s.logMem = newSpace(logBytes)
		for d := 0; d < 2; d++ {
			m := newSpace(opts.AdjBytes)
			s.groups[d] = []*group{{adj: adj.New(m, s.lat, opts.NumVertices, s.adjOpts), node: xpsim.NodeUnbound}}
		}
		return nil
	}

	if s.heap == nil {
		return fmt.Errorf("core: PMEM medium requires a heap")
	}
	logRegion, err := s.heap.Map(opts.Name+"-elog", logBytes, pmem.Placement{Kind: pmem.Interleave})
	if err != nil {
		return err
	}
	s.logMem = logRegion

	for d := 0; d < 2; d++ {
		for p := 0; p < s.nparts; p++ {
			node := s.groupNode(d, p)
			place := pmem.Placement{Kind: pmem.Interleave}
			if node != xpsim.NodeUnbound {
				place = pmem.Placement{Kind: pmem.Bind, Node: node}
			}
			r, err := s.heap.Map(s.adjRegionName(d, p), opts.AdjBytes, place)
			if err != nil {
				return err
			}
			var m mem.Mem = r
			if opts.SSDOverflow > 0 {
				// SSD-supported XPGraph: overflow adjacency blocks onto
				// a simulated NVMe namespace once the PMEM arena fills.
				m = mem.NewTiered(r, ssd.New(s.lat, opts.SSDOverflow/int64(2*s.nparts)))
			}
			s.groups[d] = append(s.groups[d], &group{adj: adj.New(m, s.lat, opts.NumVertices, s.adjOpts), node: node})
		}
	}
	return nil
}

func (s *Store) adjRegionName(d, p int) string {
	return fmt.Sprintf("%s-adj-%s-%d", s.opts.Name, dirName(d), p)
}

// MediaWriteLines calls fn with each of the store's pmem regions — named
// past the store's name: "elog", "adj-out-0", ..., "prop", "quar" — and the
// XPLines written back to the media inside it since the machine's counters
// were last reset, found by a range lookup of each written line in the
// devices' reservations. It does not drain the XPBuffers; xpsim.Machine's
// TotalStats does.
func (s *Store) MediaWriteLines(fn func(region string, lines int64)) {
	for _, name := range s.regionNames() {
		fn(strings.TrimPrefix(name, s.opts.Name+"-"), s.machine.RegionWriteLines(name))
	}
}

// regionNames lists the store's pmem regions: the edge log, the adjacency
// arenas in (direction, partition) order, and the property column and
// quarantine where the store keeps them. A store on another medium has
// none.
func (s *Store) regionNames() []string {
	if s.opts.Medium != MediumPMEM {
		return nil
	}
	names := []string{s.opts.Name + "-elog"}
	for d := 0; d < 2; d++ {
		for p := range s.groups[d] {
			names = append(names, s.adjRegionName(d, p))
		}
	}
	if s.props != nil {
		names = append(names, s.opts.Name+"-prop")
	}
	if s.quarMem != nil {
		names = append(names, s.opts.Name+"-quar")
	}
	return names
}

// groupNode is the node the arena of direction d, partition p lives on and
// its threads are bound to; xpsim.NodeUnbound for an interleaved arena and
// unbound threads.
func (s *Store) groupNode(d, p int) int {
	switch s.opts.NUMA {
	case NUMAOutIn:
		return d % s.machine.Sockets
	case NUMASubgraph:
		return p
	default:
		return xpsim.NodeUnbound
	}
}

// attachMemories re-attaches the adjacency arenas of a crashed store and
// rebuilds their DRAM indexes. The caller has already attached the edge log
// — whose committed flush epoch tells adjacency recovery which count slots
// to trust — and loaded the quarantine. Every region must already exist
// in the heap: a missing region means the options describe a different
// geometry (wrong NUMA mode, wrong name) than the store that crashed.
//
// The arena scans are one more parallel step of the archive threads
// (runGroups), starting at startNs on the recovery lane: each arena's header
// walk is split over its group's workers, bound to the arena's node, so no
// block is read across sockets, and the rest of its recovery runs on one of
// them; the step lasts as long as the thread with the most to scan. Its
// duration is returned.
func (s *Store) attachMemories(startNs int64, committed uint32) (int64, error) {
	regions := [2][]*pmem.Region{}
	for d := 0; d < 2; d++ {
		for p := 0; p < s.nparts; p++ {
			name := s.adjRegionName(d, p)
			r, ok := s.heap.Get(name)
			if !ok {
				return 0, fmt.Errorf("core: adjacency region %q not found: recovery options disagree with the crashed store's geometry (name or NUMA mode)", name)
			}
			if r.Size() != s.opts.AdjBytes {
				return 0, fmt.Errorf("core: adjacency region %q is %d bytes, options say %d", name, r.Size(), s.opts.AdjBytes)
			}
			regions[d] = append(regions[d], r)
			s.groups[d] = append(s.groups[d], &group{node: s.groupNode(d, p)})
		}
	}
	// A store with more partitions than these options describe would
	// have its extra partitions' regions silently ignored — a partial
	// graph recovered without error. One probe past the end catches
	// the partition-count mismatch (e.g. NUMASubgraph recovered as
	// NUMANone, whose region names are a strict subset).
	extra := s.adjRegionName(0, s.nparts)
	if _, ok := s.heap.Get(extra); ok {
		return 0, fmt.Errorf("core: found adjacency region %q beyond partition %d: the crashed store had more partitions (different NUMA mode)", extra, s.nparts-1)
	}

	// Each arena's walk runs on its group's workers: the threads that share
	// a device are the bound ones of its node, or all of them on interleaved
	// arenas.
	walkers := s.workersPerGroup()
	scanners := s.recoveryWorkers()
	contention := scanners
	if s.opts.NUMA != NUMANone {
		contention = (scanners + s.machine.Sockets - 1) / s.machine.Sockets
	}
	return s.runGroups("scan", startNs, func(d, p int, g *group) (time.Duration, error) {
		// Quarantined block spans must never be recycled by the arena scan.
		var quar map[int64]bool
		if s.quarSpans[d] != nil && s.quarSpans[d][p] != nil {
			quar = make(map[int64]bool, len(s.quarSpans[d][p]))
			for off := range s.quarSpans[d][p] {
				quar[off] = true
			}
		}
		ctx := &xpsim.Ctx{Cost: new(xpsim.Cost), Node: g.node, Workers: contention}
		var err error
		g.adj, err = adj.RecoverWith(ctx, &s.sweep, walkers, regions[d][p], s.lat, s.adjOpts, committed, quar)
		return ctx.Cost.Duration(), err
	})
}

// attachProps creates (or, for recovery, re-attaches) the property
// column log region. The recovery path replays the CRC-guarded blocks
// into the DRAM index and flags unrecoverable mid-log damage; its reads
// run on every archive worker (prop.Attach), at ctx's contention.
func (s *Store) attachProps(ctx *xpsim.Ctx, reattach bool) error {
	if s.opts.Medium != MediumPMEM || s.heap == nil {
		return fmt.Errorf("core: the property layer requires PMEM app-direct (it rides the persistent heap)")
	}
	capBlocks := s.opts.PropLogBytes / prop.BlockBytes
	if capBlocks < 1 {
		capBlocks = 1
	}
	name := s.opts.Name + "-prop"
	size := int64(prop.BlockBytes) + capBlocks*prop.BlockBytes
	var r *pmem.Region
	var err error
	if reattach {
		var ok bool
		if r, ok = s.heap.Get(name); !ok {
			return fmt.Errorf("core: property region %q not found: the crashed store ran without Options.Props", name)
		}
		if r.Size() != size {
			return fmt.Errorf("core: property region %q is %d bytes, options say %d", name, r.Size(), size)
		}
	} else if r, err = s.heap.Map(name, size, pmem.Placement{Kind: pmem.Interleave}); err != nil {
		return err
	}
	base := alignUp(r.UserStart(), prop.BlockBytes)
	if reattach {
		s.props, _, err = prop.Attach(ctx, &s.sweep, s.recoveryWorkers(), r, s.lat, base, capBlocks)
	} else {
		s.props, err = prop.Create(r, s.lat, base, capBlocks)
	}
	if err == nil && s.opts.NUMA != NUMANone {
		s.props.BindFlush() // the archive threads are bound: no column block is written across sockets
	}
	return err
}

// Props returns the property-graph layer (nil unless Options.Props).
func (s *Store) Props() *prop.Store { return s.props }

// SSDBytes reports adjacency bytes that overflowed onto the SSD tier
// (zero unless the SSDOverflow extension is enabled).
func (s *Store) SSDBytes() int64 {
	var n int64
	for d := 0; d < 2; d++ {
		for _, g := range s.groups[d] {
			if t, ok := g.adj.Mem().(*mem.Tiered); ok {
				n += t.SlowBytes() - 64 // namespace header
			}
		}
	}
	if n < 0 {
		n = 0
	}
	return n
}

// initPool sets up the vertex-buffer pool and the archive threads'
// bookkeeping.
func (s *Store) initPool() {
	threads := s.workersPerGroup() * 2 * s.nparts
	bulk := s.opts.PoolBulk
	// A capped pool must fit at least two bulks per thread, or the pool
	// reports pressure permanently and every batch degenerates into a
	// flush-all.
	if s.opts.PoolMax > 0 {
		if cap := s.opts.PoolMax / int64(2*threads); bulk > cap {
			bulk = cap
		}
		if bulk < 64<<10 {
			bulk = 64 << 10
		}
	}
	s.pool = mempool.New(mempool.Config{
		BulkSize: bulk,
		MaxBytes: s.opts.PoolMax,
		Threads:  threads,
		Budget:   s.budget,
	})
	s.bufs = vbuf.New(s.pool, s.lat)
	s.threadBusy = make([]int64, 2*s.nparts)
}

// workersPerGroup divides the archive threads over the 2*nparts
// direction/partition groups that buffer concurrently.
func (s *Store) workersPerGroup() int {
	w := s.opts.ArchiveThreads / (2 * s.nparts)
	if w < 1 {
		w = 1
	}
	return w
}

// recoveryWorkers is how many archive threads recovery's parallel steps
// run on: the groups' workers, as many as there are threads.
func (s *Store) recoveryWorkers() int {
	return min(s.opts.ArchiveThreads, 2*s.nparts*s.workersPerGroup())
}

// contentionFor reports how many workers concurrently hit the devices the
// given group lives on: with binding, the out- and in-groups of the same
// node; without, every archive thread everywhere.
func (s *Store) contentionFor() int {
	if s.opts.NUMA == NUMANone {
		return s.opts.ArchiveThreads
	}
	if s.opts.NUMA == NUMAOutIn {
		return s.workersPerGroup()
	}
	return s.workersPerGroup() * 2
}

// partOf maps a vertex to its partition.
func (s *Store) partOf(v graph.VID) int { return shard.PartOf(v, s.nparts) }

// Node reports the NUMA node that owns vertex v's adjacency data in the
// given direction (xpsim.NodeUnbound when interleaved). Query engines use
// it to classify work per node before binding (§III-D).
func (s *Store) Node(d Direction, v graph.VID) int {
	return s.groups[d][s.partOf(v)].node
}

// NumPartitions reports the sub-graph count.
func (s *Store) NumPartitions() int { return s.nparts }

// ensureVertices grows all per-vertex DRAM state to cover n vertices.
func (s *Store) ensureVertices(n graph.VID) {
	cur := graph.VID(len(s.vbH[0]))
	if n <= cur {
		return
	}
	grow := int(n - cur)
	for d := 0; d < 2; d++ {
		s.vbH[d] = append(s.vbH[d], make([]mempool.Handle, grow)...)
		s.vbC[d] = append(s.vbC[d], make([]uint8, grow)...)
		s.records[d] = append(s.records[d], make([]uint32, grow)...)
		s.batchEpoch[d] = append(s.batchEpoch[d], make([]uint32, grow)...)
		s.batchCnt[d] = append(s.batchCnt[d], make([]uint32, grow)...)
		s.groups[d][0].adj.EnsureVertices(n) // others grow lazily on access
	}
	s.staleBase()
	s.metaBytes += int64(grow) * perVertexMetaBytes * 2
	_ = s.budget.Charge(int64(grow) * perVertexMetaBytes * 2)
}

// NumVertices reports the current vertex-ID space.
func (s *Store) NumVertices() graph.VID { return graph.VID(len(s.vbH[0])) }

// Options returns the effective configuration.
func (s *Store) Options() Options { return s.opts }

// Machine returns the simulated machine the store runs on.
func (s *Store) Machine() *xpsim.Machine { return s.machine }

// Heap returns the PMEM heap (nil for volatile variants); recovery after
// a simulated crash re-attaches through it.
func (s *Store) Heap() *pmem.Heap { return s.heap }

// Pool exposes the vertex-buffer memory pool (for usage accounting).
func (s *Store) Pool() *mempool.Pool { return s.pool }

// Log exposes the circular edge log (read-only use).
func (s *Store) Log() *elog.Log { return s.log }

// MemUsage is the Table III breakdown.
type MemUsage struct {
	MetaDRAM int64 // vertex indexes, batch counters, shard scratch
	VbufDRAM int64 // vertex-buffer pool footprint
	ElogPMEM int64 // circular edge log
	PblkPMEM int64 // persistent adjacency blocks
}

// MemUsage reports the store's memory breakdown.
func (s *Store) MemUsage() MemUsage {
	var pblk int64
	for d := 0; d < 2; d++ {
		for _, g := range s.groups[d] {
			pblk += g.adj.Bytes()
		}
	}
	return MemUsage{
		MetaDRAM: s.metaBytes + s.metaPeakExtra,
		VbufDRAM: s.pool.Peak(),
		ElogPMEM: s.log.Bytes(),
		PblkPMEM: pblk - s.SSDBytes(), // SSD-tier blocks are not PMEM
	}
}

// AdjEncoding sums the cumulative adjacency encoding statistics of
// every arena (both directions, all partitions): payload bytes and
// records written per block format, the feed behind the
// xpgraph_adj_encoded_* metrics.
func (s *Store) AdjEncoding() adj.EncodingStats {
	var es adj.EncodingStats
	for d := 0; d < 2; d++ {
		for _, g := range s.groups[d] {
			ge := g.adj.Encoding()
			es.FixedBytes += ge.FixedBytes
			es.FixedRecords += ge.FixedRecords
			es.VarintBytes += ge.VarintBytes
			es.VarintRecords += ge.VarintRecords
		}
	}
	return es
}

// AdjLayout walks every live adjacency chain in every arena and sums
// the on-media layout. Varint extents are discovered by decoding, so
// this reads the whole heap — a bench/diagnostic API, not a hot path.
func (s *Store) AdjLayout(ctx *xpsim.Ctx) adj.LayoutStats {
	var ls adj.LayoutStats
	for d := 0; d < 2; d++ {
		for _, g := range s.groups[d] {
			gl := g.adj.Layout(ctx)
			ls.Records += gl.Records
			ls.PayloadBytes += gl.PayloadBytes
			ls.BlockBytes += gl.BlockBytes
		}
	}
	return ls
}
