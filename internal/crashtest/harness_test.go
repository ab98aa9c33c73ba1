// Package crashtest is the crash and media-error verifier: test code that
// kills or damages a store and holds what it reads to difftest's model. It
// runs a deterministic XPGraph workload against the fault-injecting device
// model (xpsim.Faults), crashes the simulated machine at an injected point,
// recovers a store from the durable image (pmem.Heap.CrashClone +
// core.Recover), and holds the recovered store to difftest's prefix mode.
//
// The check exploits the log's prefix-durability guarantee: media writes
// are totally ordered in the device model and every Append flushes its
// ring records before publishing the head, so whatever head value the
// durable image holds, exactly that prefix of the ingested edge stream is
// durable — no loss of flush-acknowledged edges, no duplicates from
// replay, for any crash point.
//
// The package is test code alone: its config and newStore are the one store
// configuration of the single-store harnesses, the crash sweeps here and
// the media-error scenarios of scrub_harness_test.go.
package crashtest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// config describes one deterministic workload and the store it runs on.
type config struct {
	Name     string  // store/region name prefix
	Scale    int     // vertex-ID space is 1<<Scale
	Edges    int64   // workload length
	DelRatio float64 // fraction of deletions (gen.Evolving); 0 = adds only
	Seed     uint64  // workload generator seed

	LogCapacity      int64
	ArchiveThreshold int64
	ArchiveThreads   int
	NUMA             core.NUMAMode
	MediaGuard       bool  // checksummed blocks and log, scrub, quarantine
	ArchiveSSDBytes  int64 // MediaGuard's SSD edge archive (0 = none)

	Chunk        int // edges per Ingest call (0 = all at once)
	CompactEvery int // run CompactAllAdjs after every Nth chunk (0 = never)

	// Varint runs the whole workload with delta-varint adjacency blocks
	// (core.Options.CompressedAdj).
	Varint bool
	// VarintFromRecovery keeps the initial store on fixed blocks but
	// enables the varint encoding on every recovered store, so
	// post-recovery writes grow varint tails on fixed chains — the
	// mixed-format negotiation path.
	VarintFromRecovery bool
}

// WithDefaults fills the zero fields: a 64-vertex, 1500-update workload
// on a 1024-record log, archived by two threads in one chunk.
func (c config) WithDefaults() config {
	if c.Name == "" {
		c.Name = "crash"
	}
	if c.Scale == 0 {
		c.Scale = 6
	}
	if c.Edges == 0 {
		c.Edges = 1500
	}
	if c.LogCapacity == 0 {
		c.LogCapacity = 1 << 10
	}
	if c.ArchiveThreshold == 0 {
		c.ArchiveThreshold = 1 << 6
	}
	if c.ArchiveThreads == 0 {
		c.ArchiveThreads = 2
	}
	if c.Chunk == 0 {
		c.Chunk = int(c.Edges)
	}
	return c
}

// Workload generates the deterministic edge stream for a config.
func (c config) Workload() []graph.Edge {
	if c.DelRatio > 0 {
		return gen.Evolving(c.Scale, c.Edges, c.DelRatio, c.Seed)
	}
	return gen.RMAT(c.Scale, c.Edges, c.Seed)
}

// Options is the store c describes.
func (c config) Options() core.Options {
	return core.Options{
		Name:             c.Name,
		NumVertices:      1 << c.Scale,
		LogCapacity:      c.LogCapacity,
		ArchiveThreshold: c.ArchiveThreshold,
		ArchiveThreads:   c.ArchiveThreads,
		NUMA:             c.NUMA,
		MediaGuard:       c.MediaGuard,
		ArchiveSSDBytes:  c.ArchiveSSDBytes,
		CompressedAdj:    c.Varint,
		// These workloads buffer a few KB. With the default 16 MB bulk
		// per archive thread a run is mostly the host zeroing pool memory
		// (16 threads: 50 ms of a 55 ms run); bulk size never reaches the
		// device, so the crash points are the same ones.
		PoolBulk: 256 << 10,
	}
}

// recoveredOptions is Options for stores built by recovery: with
// VarintFromRecovery the recovered store turns the varint encoding on
// over the fixed-format image it inherited.
func (c config) recoveredOptions() core.Options {
	opts := c.Options()
	opts.CompressedAdj = opts.CompressedAdj || c.VarintFromRecovery
	return opts
}

// Build constructs a fault-tracked two-socket machine, its heap, and a
// store with opts on it.
func newStore(opts core.Options) (*core.Store, *xpsim.Faults, error) {
	machine := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	faults := machine.TrackFaults()
	st, err := core.New(machine, pmem.NewHeap(machine), nil, opts)
	if err != nil {
		return nil, nil, err
	}
	return st, faults, nil
}

// Ingest drives c's chunked ingest/compaction schedule over edges. Once an
// armed plan has fired, the live run continues unharmed — only the durable
// image is frozen — so the workload always completes.
func ingest(st *core.Store, c config, edges []graph.Edge) error {
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for i, chunkN := 0, 1; i < len(edges); i, chunkN = i+c.Chunk, chunkN+1 {
		if _, err := st.Ingest(edges[i:min(i+c.Chunk, len(edges))]); err != nil {
			return err
		}
		if c.CompactEvery > 0 && chunkN%c.CompactEvery == 0 {
			if err := st.CompactAllAdjs(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// result reports what one harness run observed.
type result struct {
	MediaWrites  int64            // media-write events after arming (probe: total)
	Sites        map[string]int64 // crash-site hit counts after arming
	Crashed      bool             // did the armed plan fire
	CrashDesc    string           // where it fired
	DurableEdges int64            // recovered log head: the durable prefix length
	Recovery     core.RecoveryReport
}

func resultOf(f *xpsim.Faults) *result {
	return &result{MediaWrites: f.MediaWrites(), Sites: f.SiteHits(), Crashed: f.Crashed(), CrashDesc: f.CrashDescription()}
}

// Probe runs the workload with fault tracking armed but no kill
// scheduled, returning the total media-write count and crash-site hits —
// the sweep space for exhaustive runs.
func probeRun(cfg config) (*result, error) {
	return run(cfg, xpsim.FaultPlan{})
}

// Run executes the workload, crashing at the planned point, then
// recovers from the durable image and differentially verifies the
// recovered store. A zero plan runs to completion (and still verifies:
// the final state must match the full model).
func run(cfg config, plan xpsim.FaultPlan) (*result, error) {
	cfg = cfg.WithDefaults()
	return runStream(cfg, cfg.Workload(), plan)
}

// RunStream is Run with an explicit edge stream instead of a generated
// workload — regression tests use it to pin hand-built scenarios
// (duplicate edges straddling a compaction, dense self-loops, ...).
func runStream(cfg config, edges []graph.Edge, plan xpsim.FaultPlan) (*result, error) {
	cfg = cfg.WithDefaults()
	c, err := crashStream(cfg, edges, plan)
	if err != nil {
		return nil, err
	}
	res := &c.result
	rs, err := recoverClone(c.heap, cfg, res)
	if err == nil && !res.Crashed && res.DurableEdges != int64(len(edges)) {
		err = fmt.Errorf("no crash, but only %d/%d edges durable", res.DurableEdges, len(edges))
	}
	if err == nil {
		err = verify(rs, edges, res.DurableEdges)
	}
	if err != nil {
		return res, fmt.Errorf("%w (crash: %s)", err, res.CrashDesc)
	}
	return res, nil
}

// crashedRun is a workload stopped by its fault plan: the live run went
// on unharmed, but the machine's durable image is frozen at the crash
// point, so any number of recoveries can be tried on copies of it.
type crashedRun struct {
	result // of the workload run

	cfg   config
	edges []graph.Edge
	heap  *pmem.Heap
}

// Crash runs the workload under plan and keeps the crashed machine.
func crash(cfg config, plan xpsim.FaultPlan) (*crashedRun, error) {
	cfg = cfg.WithDefaults()
	return crashStream(cfg, cfg.Workload(), plan)
}

func crashStream(cfg config, edges []graph.Edge, plan xpsim.FaultPlan) (*crashedRun, error) {
	st, faults, err := newStore(cfg.Options())
	if err != nil {
		return nil, err
	}
	faults.Arm(plan)
	if err := ingest(st, cfg, edges); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return &crashedRun{result: *resultOf(faults), cfg: cfg, edges: edges, heap: st.Heap()}, nil
}

// RecoverCrashing crashes the recovery itself: it recovers a copy of the
// image with plan armed on the recovering machine, so the kill lands
// inside core.Recover — in the arena repairs, or in the replay of the log
// window, which is the buffering phase (its cursor stores, its
// buffer:staged / buffer:marked sites, any adjacency write a full vertex
// buffer forces). The twice-crashed image is then recovered and held to
// the prefix mode. The result counts the media writes and site hits of the
// interrupted recovery — with a zero plan, the sweep space of crashes
// inside it.
func (c *crashedRun) RecoverCrashing(plan xpsim.FaultPlan) (*result, error) {
	clone, err := c.heap.CrashClone()
	if err != nil {
		return nil, err
	}
	faults := clone.Machine().TrackFaults()
	faults.Arm(plan)
	rs, _, err := core.Recover(clone.Machine(), clone, nil, c.cfg.recoveredOptions())
	if err != nil {
		return nil, fmt.Errorf("first recover (crash: %s): %w", c.CrashDesc, err)
	}
	res := resultOf(faults)
	head := rs.Log().Head()
	rs2, err := recoverClone(clone, c.cfg, res)
	if err != nil {
		return res, err
	}
	if res.DurableEdges != head {
		return res, fmt.Errorf("a crash inside recovery moved the log head: %d, was %d", res.DurableEdges, head)
	}
	if err := verify(rs2, c.edges, head); err != nil {
		return res, fmt.Errorf("recovery of the twice-crashed image: %w", err)
	}
	return res, nil
}

// RunDouble crashes and recovers once, ingests a continuation workload
// on the recovered store with a second plan armed, and crashes/recovers
// again — the repeated-crash scenario that exercises recovery's own
// writes (journal completion, allocation rewinds, garbage zeroing) as a
// crashable workload.
func runDouble(cfg config, plan1, plan2 xpsim.FaultPlan, contEdges int64) (*result, error) {
	cfg = cfg.WithDefaults()
	c, err := crashStream(cfg, cfg.Workload(), plan1)
	if err != nil {
		return nil, err
	}
	res, edges := &c.result, c.edges

	// First crash + recovery, on a clone that is itself fault-tracked so
	// the continuation can crash too.
	clone1, err := c.heap.CrashClone()
	if err != nil {
		return res, err
	}
	faults2 := clone1.Machine().TrackFaults()
	rs, rep, err := core.Recover(clone1.Machine(), clone1, nil, cfg.recoveredOptions())
	if err != nil {
		return res, fmt.Errorf("first recover (crash: %s): %w", res.CrashDesc, err)
	}
	res.Recovery = rep
	h1 := rs.Log().Head()
	if err := verify(rs, edges, h1); err != nil {
		return res, fmt.Errorf("first recovery: %w", err)
	}

	// Continuation workload under the second plan.
	cont := gen.RMAT(cfg.Scale, contEdges, cfg.Seed^0xC047)
	faults2.Arm(plan2)
	if err := ingest(rs, cfg, cont); err != nil {
		return res, fmt.Errorf("continuation ingest: %w", err)
	}
	res.Crashed = faults2.Crashed()
	res.CrashDesc = faults2.CrashDescription()

	combined := append(append([]graph.Edge(nil), edges[:h1]...), cont...)
	rs2, err := recoverClone(rs.Heap(), cfg, res)
	if err != nil {
		return res, err
	}
	if res.DurableEdges < h1 {
		return res, fmt.Errorf("second crash lost committed edges: head %d < first recovery head %d", res.DurableEdges, h1)
	}
	if err := verify(rs2, combined, res.DurableEdges); err != nil {
		return res, fmt.Errorf("second recovery: %w", err)
	}
	return res, nil
}

// recoverClone snapshots the durable image and recovers a store from it,
// filling res.DurableEdges and res.Recovery.
func recoverClone(heap *pmem.Heap, cfg config, res *result) (*core.Store, error) {
	clone, err := heap.CrashClone()
	if err != nil {
		return nil, err
	}
	rs, rep, err := core.Recover(clone.Machine(), clone, nil, cfg.recoveredOptions())
	if err != nil {
		return nil, fmt.Errorf("recover (crash: %s): %w", res.CrashDesc, err)
	}
	res.Recovery = rep
	res.DurableEdges = rs.Log().Head()
	return rs, nil
}

// verify holds the recovered store to the prefix mode over edges — any
// lost flushed edge or duplicate introduced by replay surfaces there — then
// checks the log cursor invariants and the store's own structural
// self-check.
func verify(rs *core.Store, edges []graph.Edge, durable int64) error {
	if err := (difftest.Compare{}).Prefix(difftest.Of(edges), int(durable), rs); err != nil {
		return err
	}
	l := rs.Log()
	if l.Flushed() > l.Buffered() || l.Buffered() != l.Head() || l.Head()-l.Flushed() > l.Cap() {
		return fmt.Errorf("recovered cursors flushed=%d buffered=%d head=%d: want flushed ≤ buffered = head, a window within the capacity %d",
			l.Flushed(), l.Buffered(), l.Head(), l.Cap())
	}
	if _, err := rs.Verify(xpsim.NewCtx(xpsim.NodeUnbound)); err != nil {
		return fmt.Errorf("structural check: %w", err)
	}
	return nil
}
