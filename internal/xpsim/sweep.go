package xpsim

import "time"

// A sweep's chunk closes at sweepChunkItems items, or before an item would
// lift its weight past 1/sweepShareDiv of one worker's fair share of the
// loop (its total weight ÷ workers): small enough that the hubs of a
// power-law ID space spread over the workers, large enough that a worker
// keeps a run of neighbouring IDs.
const (
	sweepChunkItems = 64
	sweepShareDiv   = 8
)

// Sweep is the one vertex-sweep loop of the simulation: items 0..k-1 run in
// index order, dealt in chunks of consecutive items to whichever worker's
// simulated clock is lowest (the lowest index on a tie), the way a
// dynamically scheduled parallel-for hands out iterations from one shared
// cursor. Because the host runs the items in index order whoever pays for
// them, the devices see one ascending sweep however many workers share it:
// a flush drain that walks vertex IDs upward lays its new blocks out in ID
// order, and an analytics kernel that walks them upward reads them back in
// that order.
//
// A Sweep is scratch that a caller owns and reuses: once it has grown to
// the widest loop it ran, Run allocates nothing. It is not safe for
// concurrent use.
type Sweep struct {
	costs []Cost
	ctxs  []Ctx
}

// Run runs fn on items 0..k-1 with n workers at the given contention level
// and returns the loop's simulated time, the slowest worker's clock.
// nodeOf places worker w as in ParallelN. records(i) is item i's record
// count — a vertex's buffered neighbors, or its degree in the direction a
// kernel visits — and 1 + records(i) its weight; the weights are read from
// DRAM state the caller keeps anyway and are not charged. Every chunk a
// worker grabs costs it one DRAMWrite, the atomic on the shared cursor; a
// one-worker loop grabs nothing and never asks for a weight. The ctx handed
// to fn is only valid until Run returns; its Worker field names the worker.
func (s *Sweep) Run(lat *LatencyModel, n, contention int, nodeOf func(w int) int,
	k int, records func(i int) int, fn func(ctx *Ctx, i int)) time.Duration {
	if n <= 0 || k <= 0 {
		return 0
	}
	s.reset(n, max(contention, 1), nodeOf)
	if n == 1 {
		for i := range k {
			fn(&s.ctxs[0], i)
		}
		return s.costs[0].Duration()
	}
	var total int64
	for i := range k {
		total += 1 + int64(records(i))
	}
	limit := total / int64(n*sweepShareDiv)
	next := 1 + int64(records(0)) // the weight of item i, the next chunk's first
	for i := 0; i < k; {
		end, weight := i+1, next
		for end < k {
			next = 1 + int64(records(end))
			if end-i == sweepChunkItems || weight+next > limit {
				break
			}
			weight += next
			end++
		}
		ctx := &s.ctxs[s.idlest()]
		ctx.Cost.Add(lat.DRAMWrite)
		for ; i < end; i++ {
			fn(ctx, i)
		}
	}
	var slowest int64
	for w := range s.costs {
		slowest = max(slowest, s.costs[w].Ns())
	}
	return time.Duration(slowest)
}

// Clock reports worker w's clock at the end of the last Run.
func (s *Sweep) Clock(w int) time.Duration { return s.costs[w].Duration() }

// reset gives the loop n workers with zeroed clocks.
func (s *Sweep) reset(n, contention int, nodeOf func(w int) int) {
	if cap(s.costs) < n {
		s.costs = make([]Cost, n)
		s.ctxs = make([]Ctx, n)
	}
	s.costs, s.ctxs = s.costs[:n], s.ctxs[:n]
	for w := range n {
		s.costs[w] = Cost{}
		s.ctxs[w] = Ctx{Cost: &s.costs[w], Node: nodeOf(w), Worker: w, Workers: contention}
	}
}

// idlest is the worker whose clock is lowest, the lowest index on a tie.
func (s *Sweep) idlest() int {
	g := 0
	for w := 1; w < len(s.costs); w++ {
		if s.costs[w].ns < s.costs[g].ns {
			g = w
		}
	}
	return g
}
