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

// An item heavier than the chunk cap on its own that holds at least
// spreadRecords records — two XPLines of 4-byte records — has its edge work
// dealt over several workers: one share per spreadRecords/2 records, at
// most one per worker and one per cap of its weight.
const spreadRecords = 2 * XPLineSize / 4

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
// the widest loop it ran, Run and Spread allocate nothing. It is not safe
// for concurrent use.
type Sweep struct {
	costs []Cost
	ctxs  []Ctx
	taken []bool // Spread's scratch: the workers a heavy item's shares went to
	// edge is the clock a heavy item's edge work runs on before it is dealt.
	edge     Ctx
	edgeCost Cost
}

// Run runs fn on items 0..k-1 with n workers at the given contention level
// — the workers concurrently on one device, which can exceed n when other
// worker groups on the same socket run at the same time — and returns the
// loop's simulated time, the slowest worker's clock. nodeOf(w) is the NUMA
// node worker w is bound to (NodeUnbound: none). records(i) is item i's record
// count — a vertex's buffered neighbors, or its degree in the direction a
// kernel visits — and 1 + records(i) its weight; the weights are read from
// DRAM state the caller keeps anyway and are not charged. Every chunk a
// worker grabs costs it one DRAMWrite, the atomic on the shared cursor; a
// one-worker loop grabs nothing and never asks for a weight. An item heavier
// than the chunk cap is a chunk alone, all of it on the worker that grabbed
// it. The ctx handed to fn is only valid until Run returns; its Worker field
// names the worker.
func (s *Sweep) Run(lat *LatencyModel, n, contention int, nodeOf func(w int) int,
	k int, records func(i int) int, fn func(ctx *Ctx, i int)) time.Duration {
	return s.run(lat, n, contention, nodeOf, k, records, false, func(ctx, _ *Ctx, i int) { fn(ctx, i) })
}

// Spread is Run for a loop whose items read records and then work on each:
// fn charges item i's reads to ctx and its per-record work to edge. For most
// items the two are the same context. An item heavier than the chunk cap
// that holds at least two XPLines of records is still read by the worker
// that grabbed it — every read, and its cost, on that worker in the host's
// order — but edge is a scratch clock, and what fn charged to it is dealt
// afterwards in k equal shares, k = min(n, ⌈weight/cap⌉, records/64), to
// the grabbing worker and the k−1 idlest others, each of which pays one
// DRAMWrite grab. Nothing fn computes changes order; only the clocks move.
func (s *Sweep) Spread(lat *LatencyModel, n, contention int, nodeOf func(w int) int,
	k int, records func(i int) int, fn func(ctx, edge *Ctx, i int)) time.Duration {
	return s.run(lat, n, contention, nodeOf, k, records, true, fn)
}

// run is the one loop behind Run and Spread.
func (s *Sweep) run(lat *LatencyModel, n, contention int, nodeOf func(w int) int,
	k int, records func(i int) int, spread bool, fn func(ctx, edge *Ctx, i int)) time.Duration {
	if n <= 0 || k <= 0 {
		return 0
	}
	s.reset(n, max(contention, 1), nodeOf)
	if n == 1 {
		for i := range k {
			fn(&s.ctxs[0], &s.ctxs[0], i)
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
		g := s.idlest()
		ctx := &s.ctxs[g]
		ctx.Cost.Add(lat.DRAMWrite)
		if parts := s.shares(n, weight, limit); spread && parts > 1 { // a chunk over the cap is one item
			s.edge, s.edgeCost = *ctx, Cost{}
			s.edge.Cost = &s.edgeCost
			fn(ctx, &s.edge, i)
			s.deal(lat, g, parts)
			i++
			continue
		}
		for ; i < end; i++ {
			fn(ctx, ctx, i)
		}
	}
	var slowest int64
	for w := range s.costs {
		slowest = max(slowest, s.costs[w].Ns())
	}
	return time.Duration(slowest)
}

// shares is how many workers a chunk's edge work is dealt over: 1 unless
// it is one item over the cap with at least spreadRecords records (its
// weight is 1 + its records).
func (s *Sweep) shares(n int, weight, limit int64) int {
	records := weight - 1
	if weight <= limit || records < spreadRecords {
		return 1
	}
	k := min(int64(n), records/(spreadRecords/2))
	if limit > 0 {
		k = min(k, (weight+limit-1)/limit)
	}
	return int(k)
}

// deal charges the edge work on s.edge in k equal shares: one to worker g,
// which read the item, and one to each of the k−1 idlest other workers, the
// lowest index on a tie, each with its grab. A share is rounded up, so no
// work is free.
func (s *Sweep) deal(lat *LatencyModel, g, k int) {
	share := (s.edgeCost.ns + int64(k) - 1) / int64(k)
	clear(s.taken)
	s.taken[g] = true
	s.costs[g].Add(share)
	for range k - 1 {
		w := -1
		for o := range s.costs {
			if !s.taken[o] && (w < 0 || s.costs[o].ns < s.costs[w].ns) {
				w = o
			}
		}
		s.taken[w] = true
		s.costs[w].Add(lat.DRAMWrite + share)
	}
}

// Each is a parallel phase that is not a vertex sweep: it runs fn once for
// each of n workers, worker 0 first, each on a clock of its own, and
// returns the phase's simulated time, the slowest worker's clock. contention
// and nodeOf are as for Run. The workers run one after the other on the
// host, on the Sweep's reused contexts, so a warmed Sweep allocates
// nothing. The ctx handed to fn is only valid until Each returns.
func (s *Sweep) Each(n, contention int, nodeOf func(w int) int, fn func(w int, ctx *Ctx)) time.Duration {
	if n <= 0 {
		return 0
	}
	s.reset(n, max(contention, 1), nodeOf)
	var slowest int64
	for w := range n {
		fn(w, &s.ctxs[w])
		slowest = max(slowest, s.costs[w].Ns())
	}
	return time.Duration(slowest)
}

// Clock reports worker w's clock at the end of the last Run or Each.
func (s *Sweep) Clock(w int) time.Duration { return s.costs[w].Duration() }

// reset gives the loop n workers with zeroed clocks.
func (s *Sweep) reset(n, contention int, nodeOf func(w int) int) {
	if cap(s.costs) < n {
		s.costs = make([]Cost, n)
		s.ctxs = make([]Ctx, n)
		s.taken = make([]bool, n)
	}
	s.costs, s.ctxs, s.taken = s.costs[:n], s.ctxs[:n], s.taken[:n]
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
