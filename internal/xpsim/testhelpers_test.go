package xpsim

import "time"

// Reset zeroes the clock.
func (c *Cost) Reset() { c.ns = 0 }

// Parallel runs a simulated parallel phase with n workers and returns the
// maximum simulated cost across them (the phase's simulated duration).
//
// Workers execute sequentially on the host — the simulation is about
// simulated time, not host parallelism — which makes every experiment
// deterministic. nodeOf selects the NUMA node worker w is pinned to
// (return NodeUnbound for unpinned workers).
func Parallel(n int, nodeOf func(w int) int, fn func(w int, ctx *Ctx)) time.Duration {
	return ParallelN(n, n, nodeOf, fn)
}
