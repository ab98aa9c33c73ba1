// Package graphone implements the comparison baseline, GraphOne (Kumar &
// Huang, FAST'19), in its -D, -P, -N and -MM variants. GraphOne is the
// state-of-the-art in-memory evolving-graph store the paper evaluates
// against (§II-B, §V-A). It keeps the hybrid format — a circular edge log
// for fresh updates plus per-vertex adjacency lists for archived ones — and
// archives with the global batched *edge-centric* strategy: count
// per-vertex degree increments, allocate each vertex's chunk for the batch,
// then append neighbors one at a time. Those per-edge 4-byte writes are
// exactly what read-modify-writes 256-byte XPLines when the adjacency lists
// live on PMEM (§II-C).
//
// Variants follow the paper: GraphOne-D (all DRAM), GraphOne-P (edge log
// and adjacency on interleaved PMEM via mmap), GraphOne-N (adjacency
// through a file system), and GraphOne-D on Optane Memory Mode.
package graphone

import (
	"fmt"

	"repro/internal/adj"
	"repro/internal/elog"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/pmfs"
	"repro/internal/shard"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Variant selects the storage substrate.
type Variant int

const (
	// VariantD is the original DRAM-resident GraphOne.
	VariantD Variant = iota
	// VariantP moves the edge log and adjacency lists to app-direct
	// PMEM (mmap-style, Ext4-DAX equivalent), metadata stays in DRAM.
	VariantP
	// VariantN stores adjacency lists through file I/O on a PMEM file
	// system (the NOVA configuration), everything else in DRAM.
	VariantN
	// VariantMM runs the DRAM design on Optane in Memory Mode.
	VariantMM
)

func (v Variant) String() string {
	switch v {
	case VariantD:
		return "GraphOne-D"
	case VariantP:
		return "GraphOne-P"
	case VariantN:
		return "GraphOne-N"
	case VariantMM:
		return "GraphOne-MM"
	}
	return fmt.Sprintf("GraphOne(%d)", int(v))
}

// Options configure a Store.
type Options struct {
	Name             string
	NumVertices      graph.VID
	LogCapacity      int64 // circular edge log entries (default 1M)
	ArchiveThreshold int64 // default 2^16, as in the paper
	ArchiveThreads   int   // default 16
	AdjBytes         int64 // adjacency arena size (per direction)
	Variant          Variant
	// BindSingleNode restricts both memory placement and archiving
	// threads to NUMA node 0 (the Fig. 4a "bind one node" run).
	BindSingleNode bool
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "graphone"
	}
	if o.NumVertices == 0 {
		o.NumVertices = 1024
	}
	if o.LogCapacity <= 0 {
		o.LogCapacity = 1 << 20
	}
	if o.ArchiveThreshold <= 0 {
		o.ArchiveThreshold = 1 << 16
	}
	if o.ArchiveThreads <= 0 {
		o.ArchiveThreads = 16
	}
	if o.AdjBytes <= 0 {
		o.AdjBytes = 64 << 20
	}
	return o
}

// IngestReport summarizes one ingestion in simulated time; logging and
// archiving run as parallel pipelines (§II-B), so the total is their max.
type IngestReport struct {
	Edges     int64
	LogNs     int64
	ArchiveNs int64
	Batches   int64
}

// TotalNs is the simulated wall time.
func (r IngestReport) TotalNs() int64 {
	if r.LogNs > r.ArchiveNs {
		return r.LogNs
	}
	return r.ArchiveNs
}

// Store is a GraphOne instance. Its read surface is view.Surface over
// Visit and the lookups beside it.
type Store struct {
	view.Surface

	opts    Options
	machine *xpsim.Machine
	heap    *pmem.Heap
	budget  *mem.Budget
	lat     *xpsim.LatencyModel

	log  *elog.Log
	adjs [2]*adj.Store // out, in

	records [2][]uint32
	epoch   uint32
	degEp   [2][]uint32
	degInc  [2][]uint32

	metaBytes int64
	report    IngestReport
	stage     shard.Stage // archiving scratch, reused by every phase

	// Phase tracing (nil = disabled); lane cursors as in core.Store.
	tracer  *obs.Tracer
	laneEnd [obs.LaneWorkerBase]int64
}

// SetTracer attaches (or detaches, with nil) a phase tracer; GraphOne
// emits logging spans and combined archive spans (its buffering and
// flushing are one edge-centric phase, §II-B).
func (s *Store) SetTracer(t *obs.Tracer) { s.tracer = t }

// emitSpan places a span at the end of lane and advances the cursor.
func (s *Store) emitSpan(name string, lane int64, durNs int64) {
	start := s.laneEnd[lane]
	s.laneEnd[lane] += durNs
	s.tracer.EmitPhase(name, lane, start, durNs)
}

// Store conforms to the canonical read surface, so analytics and the
// server run identically over the baseline.
var _ view.View = (*Store)(nil)

// New builds a GraphOne store. heap may be nil for VariantD/VariantMM.
func New(machine *xpsim.Machine, heap *pmem.Heap, budget *mem.Budget, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{opts: opts, machine: machine, heap: heap, budget: budget, lat: &machine.Lat}
	s.Surface = view.Surface{Source: s}

	logBytes := opts.LogCapacity*graph.EdgeBytes + 4096
	var logMem mem.Mem
	var adjMems [2]mem.Mem
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)

	placement := pmem.Placement{Kind: pmem.Interleave}
	if opts.BindSingleNode {
		placement = pmem.Placement{Kind: pmem.Bind, Node: 0}
	}

	switch opts.Variant {
	case VariantD:
		logMem = mem.NewDRAM(s.lat, logBytes, budget)
		adjMems[0] = mem.NewDRAM(s.lat, opts.AdjBytes, budget)
		adjMems[1] = mem.NewDRAM(s.lat, opts.AdjBytes, budget)
	case VariantMM:
		logMem = mem.NewMemoryMode(s.lat, logBytes)
		adjMems[0] = mem.NewMemoryMode(s.lat, opts.AdjBytes)
		adjMems[1] = mem.NewMemoryMode(s.lat, opts.AdjBytes)
	case VariantP:
		if heap == nil {
			return nil, fmt.Errorf("graphone: VariantP needs a PMEM heap")
		}
		lr, err := heap.Map(opts.Name+"-elog", logBytes, placement)
		if err != nil {
			return nil, err
		}
		logMem = lr
		for d := 0; d < 2; d++ {
			r, err := heap.Map(fmt.Sprintf("%s-adj-%d", opts.Name, d), opts.AdjBytes, placement)
			if err != nil {
				return nil, err
			}
			adjMems[d] = r
		}
	case VariantN:
		if heap == nil {
			return nil, fmt.Errorf("graphone: VariantN needs a PMEM heap")
		}
		// Log and metadata stay in DRAM; adjacency goes through the
		// file system.
		logMem = mem.NewDRAM(s.lat, logBytes, budget)
		fsRegion, err := heap.Map(opts.Name+"-fs", 2*opts.AdjBytes+(4<<20), placement)
		if err != nil {
			return nil, err
		}
		fs := pmfs.NewFS(fsRegion, s.lat)
		for d := 0; d < 2; d++ {
			fm, err := pmfs.NewFileMem(ctx, fs, fmt.Sprintf("adj-%d.dat", d), opts.AdjBytes)
			if err != nil {
				return nil, err
			}
			adjMems[d] = fm
		}
	default:
		return nil, fmt.Errorf("graphone: unknown variant %d", opts.Variant)
	}

	var err error
	s.log, err = elog.Create(ctx, logMem, opts.LogCapacity, false)
	if err != nil {
		return nil, err
	}
	for d := 0; d < 2; d++ {
		s.adjs[d] = adj.New(adjMems[d], s.lat, opts.NumVertices, adj.Options{Sizing: adj.GraphOneSizing, Counts: adj.CountsVolatile})
	}
	s.ensureVertices(opts.NumVertices)
	return s, nil
}

func (s *Store) ensureVertices(n graph.VID) {
	cur := graph.VID(len(s.records[0]))
	if n <= cur {
		return
	}
	grow := int(n - cur)
	for d := 0; d < 2; d++ {
		s.records[d] = append(s.records[d], make([]uint32, grow)...)
		s.degEp[d] = append(s.degEp[d], make([]uint32, grow)...)
		s.degInc[d] = append(s.degInc[d], make([]uint32, grow)...)
		s.adjs[d].EnsureVertices(n)
	}
	s.metaBytes += int64(grow) * 24
	_ = s.budget.Charge(int64(grow) * 24)
}

// NumVertices reports the vertex-ID space.
func (s *Store) NumVertices() graph.VID { return graph.VID(len(s.records[0])) }

// resetReport clears it.
func (s *Store) resetReport() { s.report = IngestReport{} }

const logChunk = 4096

// Ingest streams edges through the logging + archiving pipeline.
func (s *Store) Ingest(edges []graph.Edge) (IngestReport, error) {
	before := s.report
	s.ensureVertices(graph.MaxVID(edges) + 1)
	logCtx := xpsim.NewCtx(s.logNode())
	i := 0
	for i < len(edges) {
		end := i + logChunk
		if end > len(edges) {
			end = len(edges)
		}
		n, err := s.log.Append(logCtx, edges[i:end])
		i += n
		s.report.Edges += int64(n)
		if err != nil && err != elog.ErrFull {
			return IngestReport{}, err
		}
		if err == elog.ErrFull || s.log.PendingBuffer() >= s.opts.ArchiveThreshold {
			if aerr := s.archive(); aerr != nil {
				return IngestReport{}, aerr
			}
		}
	}
	if err := s.ArchiveAll(); err != nil {
		return IngestReport{}, err
	}
	s.report.LogNs += logCtx.Cost.Ns()
	s.emitSpan("log", obs.LaneLogging, logCtx.Cost.Ns())
	r := s.report
	r.Edges -= before.Edges
	r.LogNs -= before.LogNs
	r.ArchiveNs -= before.ArchiveNs
	r.Batches -= before.Batches
	return r, nil
}

func (s *Store) logNode() int {
	if s.opts.BindSingleNode {
		return 0
	}
	return xpsim.NodeUnbound
}

// ArchiveAll archives every logged edge.
func (s *Store) ArchiveAll() error {
	for s.log.PendingBuffer() > 0 {
		if err := s.archive(); err != nil {
			return err
		}
	}
	return nil
}

// archive runs one global batched edge-centric archiving phase (§II-B):
// the archive threads shard the batch into ranged edge lists (shard.Stage,
// the stage XPGraph inherited), then each counts the degree increments of
// its ranges, allocates the per-vertex chunks and appends the neighbors one
// at a time.
func (s *Store) archive() error {
	from, to := s.log.Buffered(), s.log.Head()
	if to == from {
		return nil
	}
	if max := from + 4*s.opts.ArchiveThreshold; to > max {
		to = max
	}
	s.epoch++
	s.report.Batches++
	threads := s.opts.ArchiveThreads
	nodeOf := xpsim.Unpinned
	if s.opts.BindSingleNode {
		nodeOf = xpsim.PinnedTo(0)
	}

	geo := shard.Contiguous(int64(s.NumVertices()), shard.RangesPerWorker*threads)
	lists, maxV, shardNs := s.stage.Run(s.log, from, to, geo, shard.Sharders{
		N: threads, NodeOf: nodeOf, Contention: threads, Lat: s.lat})
	s.ensureVertices(maxV + 1)

	// Parallel edge-centric archiving: each worker first counts the batch's
	// degree increments and allocates the exactly-sized per-vertex chunks
	// for its ranges (the vertices of a range belong to that worker alone),
	// then appends neighbors one at a time — each append one small write
	// into its vertex's chunk.
	var archiveErr error
	var phaseNs int64
	for d := 0; d < 2; d++ {
		ranges := lists[d*geo.Ranges():][:geo.Ranges()]
		assign := s.stage.Balance(ranges, threads)
		dur := xpsim.ParallelN(threads, threads, nodeOf, func(w int, ctx *xpsim.Ctx) {
			for _, ri := range assign[w] {
				for _, se := range ranges[ri] {
					if s.degEp[d][se.V] != s.epoch {
						s.degEp[d][se.V] = s.epoch
						s.degInc[d][se.V] = 0
					}
					s.degInc[d][se.V]++
				}
				s.lat.CPU(ctx, int64(len(ranges[ri])))
			}
			for _, ri := range assign[w] {
				for _, se := range ranges[ri] {
					v := se.V
					if s.degInc[d][v] > 0 {
						s.lat.CPU(ctx, 4)
						if err := s.adjs[d].Reserve(ctx, v, int(s.degInc[d][v])); err != nil {
							archiveErr = err
							return
						}
						s.degInc[d][v] = 0 // allocate once per batch
					}
				}
			}
			var one [1]uint32
			for _, ri := range assign[w] {
				for _, se := range ranges[ri] {
					s.lat.CPU(ctx, 6)
					s.records[d][se.V]++
					one[0] = se.Nbr
					if err := s.adjs[d].Append(ctx, se.V, one[:]); err != nil {
						archiveErr = err
						return
					}
				}
			}
		})
		if int64(dur) > phaseNs {
			phaseNs = int64(dur)
		}
		if archiveErr != nil {
			return archiveErr
		}
	}
	coord := xpsim.NewCtx(s.logNode())
	s.log.MarkBuffered(coord, to)
	s.log.MarkFlushed(coord, to)
	s.report.ArchiveNs += shardNs + phaseNs + coord.Cost.Ns()
	s.emitSpan("archive", obs.LaneArchive, shardNs+phaseNs+coord.Cost.Ns())
	return nil
}

// Visit hands v's archived neighbors in direction d, tombstones resolved,
// to fn as one run. GraphOne has no media-checked path and no property
// layer; every edge carries the default label.
func (s *Store) Visit(ctx *xpsim.Ctx, d view.Dir, v graph.VID, o view.Opts, fn func(nbrs []uint32, lbls []uint16)) error {
	if v >= s.NumVertices() {
		return nil
	}
	nbrs := adj.ResolveTombstones(s.adjs[d].Neighbors(ctx, v, nil), 0)
	var lbls []uint16
	if o.Labels {
		lbls = make([]uint16, len(nbrs))
	}
	fn(nbrs, lbls)
	return nil
}

// Degree reports archived records of v.
func (s *Store) Degree(d view.Dir, v graph.VID) (int, error) {
	if v >= s.NumVertices() {
		return 0, nil
	}
	return int(s.records[d][v]), nil
}

// Node reports where v's data lives; GraphOne interleaves, so queries
// cannot exploit locality.
func (s *Store) Node(view.Dir, graph.VID) int {
	if s.opts.BindSingleNode {
		return 0
	}
	return xpsim.NodeUnbound
}

// Labels reports the one default label; GraphOne has no property layer.
func (s *Store) Labels() []string { return []string{""} }

// VProp reports no property for any vertex.
func (s *Store) VProp(graph.VID, uint16) (int64, bool, error) { return 0, false, nil }
