package xpsim

import "time"

// NodeUnbound marks a context whose issuing thread has not been pinned to
// a NUMA node by the software. The simulation still places the thread on a
// physical core (workers are spread round-robin across sockets), so an
// unbound thread touching interleaved PMEM sees ~50% remote lines — which
// is exactly the behaviour of an unpinned archiving thread in GraphOne-P.
const NodeUnbound = -1

// Cost is a per-worker simulated clock. All simulated device and DRAM
// traffic adds nanoseconds here; a parallel phase's simulated duration is
// the maximum Cost over its workers.
type Cost struct {
	ns int64
}

// Add charges ns nanoseconds of simulated time.
func (c *Cost) Add(ns int64) { c.ns += ns }

// AddF charges a float amount of simulated nanoseconds, rounding up so
// that no access is ever free.
func (c *Cost) AddF(ns float64) {
	n := int64(ns)
	if float64(n) < ns {
		n++
	}
	c.ns += n
}

// Ns reports the accumulated simulated nanoseconds.
func (c *Cost) Ns() int64 { return c.ns }

// Duration reports the accumulated simulated time.
func (c *Cost) Duration() time.Duration { return time.Duration(c.ns) }

// Ctx is the access context threaded through every simulated memory
// operation. It identifies the issuing worker's simulated clock, the NUMA
// node its thread runs on, and how many workers share the current parallel
// phase (for the contention model).
type Ctx struct {
	Cost    *Cost
	Node    int // NUMA node the issuing thread runs on; NodeUnbound if unpinned
	Worker  int // worker index within the current phase (scheduler placement hint)
	Workers int // concurrently active workers in the current phase (>=1)
}

// NewCtx returns a context for a single bound worker on the given node.
func NewCtx(node int) *Ctx {
	return &Ctx{Cost: &Cost{}, Node: node, Workers: 1}
}

// effectiveNode reports the physical node the context's thread runs on,
// given the machine has `sockets` sockets and the worker index hint `w`.
// Bound threads run where they were bound; unbound threads are spread
// round-robin by the scheduler.
func effectiveNode(node, w, sockets int) int {
	if node != NodeUnbound {
		return node
	}
	if sockets <= 0 {
		return 0
	}
	return w % sockets
}

// CPU charges `units` units of CPU work (model constant CPUOp each).
func (l *LatencyModel) CPU(ctx *Ctx, units int64) {
	ctx.Cost.Add(units * l.CPUOp)
}

// DRAM charges a DRAM access of n bytes. Random accesses pay per touched
// cache line; sequential accesses pay the streaming rate.
func (l *LatencyModel) DRAM(ctx *Ctx, n int64, write, sequential bool) {
	if n <= 0 {
		return
	}
	lines := (n + CacheLineSize - 1) / CacheLineSize
	var per int64
	switch {
	case write && sequential:
		per = l.DRAMSeqWrite
	case write:
		per = l.DRAMWrite
	case sequential:
		per = l.DRAMSeqRead
	default:
		per = l.DRAMRead
	}
	ctx.Cost.Add(lines * per)
}

// ParallelN is Parallel with an explicit contention level: `contention` is
// the number of workers concurrently hammering the same device, which can
// exceed n when other worker groups (e.g. the in-graph group on the same
// socket) run at the same time, or fall below n when unbound workers
// spread across several sockets' devices. The ctx handed to fn is only valid
// until fn returns.
func ParallelN(n, contention int, nodeOf func(w int) int, fn func(w int, ctx *Ctx)) time.Duration {
	if n <= 0 {
		return 0
	}
	if contention < 1 {
		contention = 1
	}
	// The workers run one after the other, so they share one context and one
	// clock, reset in between: one allocation per phase instead of two per
	// worker. fn must not keep ctx past its return.
	var worker struct {
		ctx  Ctx
		cost Cost
	}
	var max int64
	for w := 0; w < n; w++ {
		worker.cost = Cost{}
		worker.ctx = Ctx{Cost: &worker.cost, Node: nodeOf(w), Worker: w, Workers: contention}
		fn(w, &worker.ctx)
		if worker.cost.Ns() > max {
			max = worker.cost.Ns()
		}
	}
	return time.Duration(max)
}

// Unpinned is a convenience nodeOf function for Parallel: no worker is
// pinned anywhere.
func Unpinned(int) int { return NodeUnbound }

// PinnedTo returns a nodeOf function pinning every worker to node.
func PinnedTo(node int) func(int) int { return func(int) int { return node } }
