// Package crashtest is the differential recovery verifier: it runs a
// deterministic XPGraph workload against the fault-injecting device model
// (xpsim.Faults), crashes the simulated machine at an injected point,
// recovers a store from the durable image (pmem.Heap.CrashClone +
// core.Recover), and checks the recovered store edge-for-edge against an
// in-memory oracle restricted to the durable prefix of the edge log.
//
// The check exploits the log's prefix-durability guarantee: media writes
// are totally ordered in the device model and every Append flushes its
// ring records before publishing the head, so whatever head value the
// durable image holds, exactly that prefix of the ingested edge stream is
// durable. The oracle is therefore just the reference adjacency built
// from edges[:recoveredHead] — no loss of flush-acknowledged edges, no
// duplicates from replay, for any crash point.
package crashtest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// Config describes one deterministic workload.
type Config struct {
	Name     string  // store/region name prefix
	Scale    int     // vertex-ID space is 1<<Scale
	Edges    int64   // workload length
	DelRatio float64 // fraction of deletions (gen.Evolving); 0 = adds only
	Seed     uint64  // workload generator seed

	LogCapacity      int64
	ArchiveThreshold int64
	ArchiveThreads   int
	NUMA             core.NUMAMode

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

func (c Config) withDefaults() Config {
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

// workload generates the deterministic edge stream for a config.
func (c Config) workload() []graph.Edge {
	if c.DelRatio > 0 {
		return gen.Evolving(c.Scale, c.Edges, c.DelRatio, c.Seed)
	}
	return gen.RMAT(c.Scale, c.Edges, c.Seed)
}

func (c Config) storeOptions() core.Options {
	return core.Options{
		Name:             c.Name,
		NumVertices:      1 << c.Scale,
		LogCapacity:      c.LogCapacity,
		ArchiveThreshold: c.ArchiveThreshold,
		ArchiveThreads:   c.ArchiveThreads,
		NUMA:             c.NUMA,
		CompressedAdj:    c.Varint,
		// These workloads buffer a few KB. With the default 16 MB bulk
		// per archive thread a run is mostly the host zeroing pool memory
		// (16 threads: 50 ms of a 55 ms run); bulk size never reaches the
		// device, so the crash points are the same ones.
		PoolBulk: 256 << 10,
	}
}

// recoveredOptions is storeOptions for stores built by recovery: with
// VarintFromRecovery the recovered store turns the varint encoding on
// over the fixed-format image it inherited.
func (c Config) recoveredOptions() core.Options {
	opts := c.storeOptions()
	if c.VarintFromRecovery {
		opts.CompressedAdj = true
	}
	return opts
}

// Result reports what one harness run observed.
type Result struct {
	MediaWrites  int64            // media-write events after arming (probe: total)
	Sites        map[string]int64 // crash-site hit counts after arming
	Crashed      bool             // did the armed plan fire
	CrashDesc    string           // where it fired
	DurableEdges int64            // recovered log head: the durable prefix length
	Recovery     core.RecoveryReport
}

// Probe runs the workload with fault tracking armed but no kill
// scheduled, returning the total media-write count and crash-site hits —
// the sweep space for exhaustive runs.
func Probe(cfg Config) (*Result, error) {
	return Run(cfg, xpsim.FaultPlan{})
}

// Run executes the workload, crashing at the planned point, then
// recovers from the durable image and differentially verifies the
// recovered store. A zero plan runs to completion (and still verifies:
// the final state must match the full oracle).
func Run(cfg Config, plan xpsim.FaultPlan) (*Result, error) {
	cfg = cfg.withDefaults()
	return RunStream(cfg, cfg.workload(), plan)
}

// RunStream is Run with an explicit edge stream instead of a generated
// workload — regression tests use it to pin hand-built scenarios
// (duplicate edges straddling a compaction, dense self-loops, ...).
func RunStream(cfg Config, edges []graph.Edge, plan xpsim.FaultPlan) (*Result, error) {
	cfg = cfg.withDefaults()
	c, err := crash(cfg, edges, plan)
	if err != nil {
		return nil, err
	}
	res := &c.Result
	rs, err := recoverClone(c.heap, cfg, res)
	if err != nil {
		return res, err
	}
	if !res.Crashed && res.DurableEdges != int64(len(edges)) {
		return res, fmt.Errorf("no crash, but only %d/%d edges durable", res.DurableEdges, len(edges))
	}
	if err := verify(rs, edges, res.DurableEdges); err != nil {
		return res, err
	}
	return res, nil
}

// CrashedRun is a workload stopped by its fault plan: the live run went
// on unharmed, but the machine's durable image is frozen at the crash
// point, so any number of recoveries can be tried on copies of it.
type CrashedRun struct {
	Result // of the workload run

	cfg   Config
	edges []graph.Edge
	heap  *pmem.Heap
}

// Crash runs the workload under plan and keeps the crashed machine.
func Crash(cfg Config, plan xpsim.FaultPlan) (*CrashedRun, error) {
	cfg = cfg.withDefaults()
	return crash(cfg, cfg.workload(), plan)
}

func crash(cfg Config, edges []graph.Edge, plan xpsim.FaultPlan) (*CrashedRun, error) {
	st, faults, err := build(cfg)
	if err != nil {
		return nil, err
	}
	faults.Arm(plan)
	if err := ingest(st, cfg, edges); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return &CrashedRun{
		Result: Result{
			MediaWrites: faults.MediaWrites(),
			Sites:       faults.SiteHits(),
			Crashed:     faults.Crashed(),
			CrashDesc:   faults.CrashDescription(),
		},
		cfg: cfg, edges: edges, heap: st.Heap(),
	}, nil
}

// RecoverCrashing crashes the recovery itself: it recovers a copy of the
// image with plan armed on the recovering machine, so the kill lands
// inside core.Recover — in the arena repairs, or in the replay of the log
// window, which is the buffering phase (its cursor stores, its
// buffer:staged / buffer:marked sites, any adjacency write a full vertex
// buffer forces). The twice-crashed image is then recovered and verified
// against the prefix oracle. The Result counts the media writes and site
// hits of the interrupted recovery — with a zero plan, the sweep space of
// crashes inside it.
func (c *CrashedRun) RecoverCrashing(plan xpsim.FaultPlan) (*Result, error) {
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
	res := &Result{
		MediaWrites: faults.MediaWrites(),
		Sites:       faults.SiteHits(),
		Crashed:     faults.Crashed(),
		CrashDesc:   faults.CrashDescription(),
	}
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
func RunDouble(cfg Config, plan1, plan2 xpsim.FaultPlan, contEdges int64) (*Result, error) {
	cfg = cfg.withDefaults()
	c, err := crash(cfg, cfg.workload(), plan1)
	if err != nil {
		return nil, err
	}
	res, edges := &c.Result, c.edges

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

// build constructs the fault-tracked machine, heap, and store.
func build(cfg Config) (*core.Store, *xpsim.Faults, error) {
	machine := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	faults := machine.TrackFaults()
	heap := pmem.NewHeap(machine)
	st, err := core.New(machine, heap, nil, cfg.storeOptions())
	if err != nil {
		return nil, nil, err
	}
	return st, faults, nil
}

// ingest drives the chunked ingest/compaction schedule. Once the armed
// plan has fired, the live run continues unharmed — only the durable
// image is frozen — so the workload always completes.
func ingest(st *core.Store, cfg Config, edges []graph.Edge) error {
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	chunkN := 0
	for i := 0; i < len(edges); i += cfg.Chunk {
		end := i + cfg.Chunk
		if end > len(edges) {
			end = len(edges)
		}
		if _, err := st.Ingest(edges[i:end]); err != nil {
			return err
		}
		chunkN++
		if cfg.CompactEvery > 0 && chunkN%cfg.CompactEvery == 0 {
			if err := st.CompactAllAdjs(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// recoverClone snapshots the durable image and recovers a store from it,
// filling res.DurableEdges and res.Recovery.
func recoverClone(heap *pmem.Heap, cfg Config, res *Result) (*core.Store, error) {
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
