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
// spreadRecords records — two XPLines of 4-byte records — has its payload
// reads and edge work dealt over several workers: one share per
// spreadRecords/2 records, at most one per worker and one per cap of its
// weight.
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
	taken []bool // deal's scratch: the workers picked for a hub's shares,
	pick  []int  // in the order they were picked
	// edge and read are the clocks a heavy item's edge work and payload
	// reads run on before they are dealt.
	edge, read         Ctx
	edgeCost, readCost Cost
	shares             []share // the edge shares dealt in the last Spread
}

// Group is one node's bucket of a Spread level: Items items, run in index
// order by Workers workers pinned to Node (NodeUnbound: none), at the given
// contention as for Run.
type Group struct {
	Node, Workers, Contention, Items int
}

// share is one dealt share of a hub's edge work: ns of it on worker w.
// reader is the worker that grabbed the hub and read its headers, and
// transfer the sequential DRAM read of the share's part of the hub's records
// that a worker on another node pays to take it.
type share struct {
	w, reader    int
	ns, transfer int64
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
	if n <= 0 || k <= 0 {
		return 0
	}
	s.grow(n)
	for w := range n {
		s.place(w, nodeOf(w), w, contention)
	}
	s.loop(lat, 0, n, k, records, false, func(ctx, _ *Ctx, i int) { fn(ctx, i) })
	return time.Duration(s.end())
}

// Spread runs one level of a loop whose items read records and then work on
// each, over the buckets of every node at once, and returns the level's
// simulated time, the slowest worker's clock. Group g's items run as Run
// runs them, on Workers clocks of their own after those of the groups
// before it — Clock numbers the workers in group order — and fn(ctx, edge,
// g, i) charges item i's reads to ctx and its per-record work to edge. For
// most items the two are the same context.
//
// An item heavier than its group's chunk cap that holds at least two
// XPLines of records is a hub. The worker that grabbed it reads its headers
// — every device read in the host's order — but ctx.Payload points at a
// scratch clock that takes the payload lines past each header's line, and
// edge is another. What fn charged to both is dealt afterwards in k equal
// shares, k = min(Workers, ⌈weight/cap⌉, records/64), to the grabbing
// worker and the k−1 idlest others of its group, each of which pays one
// DRAMWrite grab; every PMEM read thus stays on the node that owns it.
//
// After the last group an end-of-level pass moves dealt edge shares, never
// read ns, off the slowest worker: each goes to the idlest worker of any
// group while that leaves both below the slowest clock, so the pass never
// makes a level slower. A share taken off its reader pays a grab, and one
// taken to another node a sequential DRAM read of its records — the charge
// of a frozen snapshot read. Nothing fn computes changes order; only the
// clocks move.
func (s *Sweep) Spread(lat *LatencyModel, groups []Group, records func(g, i int) int, fn func(ctx, edge *Ctx, g, i int)) time.Duration {
	s.level(lat, groups, records, fn)
	s.balance(lat)
	return time.Duration(s.end())
}

// level runs Spread's groups, each with its in-group deal, up to the
// end-of-level pass.
func (s *Sweep) level(lat *LatencyModel, groups []Group, records func(g, i int) int, fn func(ctx, edge *Ctx, g, i int)) {
	n := 0
	for _, gr := range groups {
		n += max(gr.Workers, 0)
	}
	s.grow(n)
	lo := 0
	for g, gr := range groups {
		if gr.Workers <= 0 {
			continue
		}
		for w := range gr.Workers {
			s.place(lo+w, gr.Node, w, gr.Contention)
		}
		s.loop(lat, lo, gr.Workers, gr.Items, func(i int) int { return records(g, i) }, true,
			func(ctx, edge *Ctx, i int) { fn(ctx, edge, g, i) })
		lo += gr.Workers
	}
}

// loop runs items 0..k-1 on workers lo..lo+n-1, spreading hubs if spread.
func (s *Sweep) loop(lat *LatencyModel, lo, n, k int, records func(i int) int, spread bool, fn func(ctx, edge *Ctx, i int)) {
	if k <= 0 {
		return
	}
	if n == 1 {
		for i := range k {
			fn(&s.ctxs[lo], &s.ctxs[lo], i)
		}
		return
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
		g := s.idlest(lo, lo+n)
		ctx := &s.ctxs[g]
		ctx.Cost.Add(lat.DRAMWrite)
		if parts := shares(n, weight, limit); spread && parts > 1 { // a chunk over the cap is one item
			s.edge, s.edgeCost = *ctx, Cost{}
			s.edge.Cost = &s.edgeCost
			s.read, s.readCost = s.edge, Cost{}
			s.read.Cost = &s.readCost
			ctx.Payload = &s.read
			fn(ctx, &s.edge, i)
			ctx.Payload = nil
			s.deal(lat, g, lo, lo+n, parts, weight-1)
			i++
			continue
		}
		for ; i < end; i++ {
			fn(ctx, ctx, i)
		}
	}
}

// shares is how many workers a chunk's reads and edge work are dealt over:
// 1 unless it is one item over the cap with at least spreadRecords records
// (its weight is 1 + its records).
func shares(n int, weight, limit int64) int {
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

// deal charges a hub's payload reads, on s.read, and its edge work, on
// s.edge, in at most k equal shares: one to worker g, which read its
// headers, and one to each of the idlest other workers of lo..hi-1, the
// lowest index on a tie, each with its grab — but only to a worker whose
// clock with its share stays below g's with the whole hub, so a deal never
// makes a worker later than the hub kept whole would have made g. A share
// is rounded up, so no work is free. Each edge share is kept, with its part
// of the hub's records, for the end-of-level pass.
func (s *Sweep) deal(lat *LatencyModel, g, lo, hi, k int, records int64) {
	whole := s.costs[g].ns + s.readCost.ns + s.edgeCost.ns
	clear(s.taken[lo:hi])
	s.taken[g] = true
	s.pick = append(s.pick[:0], g)
	for len(s.pick) < k {
		w := -1
		for o := lo; o < hi; o++ {
			if !s.taken[o] && (w < 0 || s.costs[o].ns < s.costs[w].ns) {
				w = o
			}
		}
		s.taken[w] = true
		s.pick = append(s.pick, w)
	}
	per := func(ns int64) int64 { return (ns + int64(k) - 1) / int64(k) }
	for k > 1 && s.costs[s.pick[k-1]].ns+lat.DRAMWrite+per(s.readCost.ns)+per(s.edgeCost.ns) >= whole {
		k--
	}
	read, edge := per(s.readCost.ns), per(s.edgeCost.ns)
	for j, w := range s.pick[:k] {
		if j > 0 {
			s.costs[w].Add(lat.DRAMWrite)
		}
		s.costs[w].Add(read + edge)
		part := records / int64(k)
		if int64(j) < records%int64(k) {
			part++
		}
		var c Cost
		lat.DRAM(&Ctx{Cost: &c}, 4*part, false, true)
		s.shares = append(s.shares, share{w: w, reader: g, ns: edge, transfer: c.ns})
	}
}

// balance is Spread's end-of-level pass. While a worker at the slowest
// clock holds an edge share whose move to the idlest worker leaves both
// below that clock, the share that leaves the lower of the two moves there.
// Each move takes one slowest clock below the level's end and none above
// it, so the pass ends, and the level never ends later for it.
func (s *Sweep) balance(lat *LatencyModel) {
	for {
		end, to := s.end(), s.idlest(0, len(s.costs))
		best, bestEnd := -1, end
		for j := range s.shares {
			sh := &s.shares[j]
			if s.costs[sh.w].ns != end {
				continue
			}
			if e := max(end-s.on(lat, sh, sh.w), s.costs[to].ns+s.on(lat, sh, to)); e < bestEnd {
				best, bestEnd = j, e
			}
		}
		if best < 0 {
			return
		}
		sh := &s.shares[best]
		s.costs[sh.w].Add(-s.on(lat, sh, sh.w))
		s.costs[to].Add(s.on(lat, sh, to))
		sh.w = to
	}
}

// on is what share sh costs worker w: its edge work, a grab unless w read
// the hub, and the transfer of its records unless w is on the reader's node.
func (s *Sweep) on(lat *LatencyModel, sh *share, w int) int64 {
	ns := sh.ns
	if w != sh.reader {
		ns += lat.DRAMWrite
	}
	if s.ctxs[w].Node != s.ctxs[sh.reader].Node {
		ns += sh.transfer
	}
	return ns
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
	s.grow(n)
	for w := range n {
		s.place(w, nodeOf(w), w, contention)
		fn(w, &s.ctxs[w])
	}
	return time.Duration(s.end())
}

// Clock reports worker w's clock at the end of the last Run, Spread or Each.
func (s *Sweep) Clock(w int) time.Duration { return s.costs[w].Duration() }

// grow gives the Sweep n workers and forgets the last level's shares.
func (s *Sweep) grow(n int) {
	if cap(s.costs) < n {
		s.costs = make([]Cost, n)
		s.ctxs = make([]Ctx, n)
		s.taken = make([]bool, n)
		s.pick = make([]int, 0, n)
	}
	s.costs, s.ctxs, s.taken = s.costs[:n], s.ctxs[:n], s.taken[:n]
	s.shares = s.shares[:0]
}

// place zeroes worker w's clock and binds it to node as index i of its
// group, at the given contention.
func (s *Sweep) place(w, node, i, contention int) {
	s.costs[w] = Cost{}
	s.ctxs[w] = Ctx{Cost: &s.costs[w], Node: node, Worker: i, Workers: max(contention, 1)}
}

// idlest is the worker of lo..hi-1 whose clock is lowest, the lowest index
// on a tie.
func (s *Sweep) idlest(lo, hi int) int {
	g := lo
	for w := lo + 1; w < hi; w++ {
		if s.costs[w].ns < s.costs[g].ns {
			g = w
		}
	}
	return g
}

// end is the slowest worker's clock.
func (s *Sweep) end() int64 {
	var end int64
	for w := range s.costs {
		end = max(end, s.costs[w].ns)
	}
	return end
}
