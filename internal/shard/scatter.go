package shard

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/xpsim"
)

// Log is where the shard stage reads a batch from: the circular edge log
// (elog.Log).
type Log interface {
	// Stripe reports where the run of records that starts at counter from
	// and shares one interleave stripe of the log's memory ends (at most
	// to), and the NUMA node that stripe lives on (negative: none).
	Stripe(from, to int64) (end int64, node int)
	// Line reports where the run of records that starts at counter from and
	// shares one XPLine of the log's memory ends (at most to).
	Line(from, to int64) (end int64)
	// Read appends the records [from, to) to dst.
	Read(ctx *xpsim.Ctx, from, to int64, dst []graph.Edge) []graph.Edge
}

// Geometry maps a vertex to its ranged list: list i of a direction belongs
// to partition i / Ranges(). It comes from Hashed or Contiguous.
type Geometry struct {
	parts, ranges int
	width         int64 // vertices per contiguous range; 0: hashed lists
}

// Hashed is XPGraph's geometry: parts partitions of ranges lists each, and
// vertex v on list ⌊h·parts·ranges / 2³²⌋, h the high half of hash64(v).
// By the nested-floor identity that list ÷ ranges is exactly PartOf(v,
// parts), so a partition's lists hold exactly its vertices, and inside the
// partition they split its vertices by hash, not by ID order: how the IDs
// were numbered does not decide which list a hub lands on.
func Hashed(parts, ranges int) Geometry {
	return Geometry{parts: parts, ranges: ranges}
}

// Contiguous is GraphOne's published geometry: one partition cut into
// ranges vertex-ID ranges of ⌈numV / ranges⌉ IDs each; a vertex beyond them
// falls into the last.
func Contiguous(numV int64, ranges int) Geometry {
	return Geometry{parts: 1, ranges: ranges, width: max(1, (numV+int64(ranges)-1)/int64(ranges))}
}

// Ranges is how many ranged lists one partition has.
func (g Geometry) Ranges() int { return g.ranges }

// lists is how many ranged lists one direction has.
func (g Geometry) lists() int { return g.parts * g.ranges }

func (g Geometry) listOf(v graph.VID) int {
	if g.width == 0 {
		return int((hash64(v) >> 32) * uint64(g.lists()) >> 32)
	}
	return min(int(int64(v)/g.width), g.ranges-1)
}

// Sharders are the threads that run the stage — the archive threads
// themselves.
type Sharders struct {
	N          int                 // thread count
	NodeOf     func(t int) int     // node thread t is bound to (xpsim.NodeUnbound: none)
	Contention int                 // threads concurrently on one device (xpsim.ParallelN)
	Lat        *xpsim.LatencyModel // the machine the threads run on
}

// Of is the update edge e contributes to direction d (0 = out, 1 = in):
// the vertex whose list grows and the neighbor record appended to it. A
// deletion keeps its flag on the neighbor in both directions.
func Of(d int, e graph.Edge) Entry {
	if d == 0 {
		return Entry{V: e.Src, Nbr: e.Dst}
	}
	return Entry{V: e.Target(), Nbr: e.Src | e.Dst&graph.DelFlag}
}

// chunk is one piece of a batch: records [from, to) of the log, all in one
// interleave stripe — the whole stripe or a run of its XPLines — read and
// scattered by one sharder.
type chunk struct {
	from, to int64
	node     int // home of the stripe, negative: none
	sharder  int
}

// Stage is the shard stage of an archiving phase (§IV-A): it turns a batch
// of logged edges into the per-(direction, partition, range) lists the
// archive workers drain. The batch is cut at the log's interleave stripes —
// and at its XPLines where a node has more sharders than stripes, so that
// every sharder works — and every piece is handled by a sharder on the
// stripe's node, in three steps with a barrier between them: read the
// piece and count its entries per list; prefix-sum the counts in log order
// into write cursors; scatter the entries to their cursors. The lists come
// out in log order — a tombstone still follows its add — with no list ever
// growing and no two sharders writing the same slot.
//
// A Stage owns all of its scratch and grows it to the largest batch seen,
// so a steady-state batch allocates nothing. The store that owns the Stage
// runs one phase at a time.
type Stage struct {
	chunks  []chunk
	spare   []chunk      // assign's output, swapped with chunks
	batch   []graph.Edge // the batch, in log order
	entries []Entry      // every list, back to back
	cursors []uint32     // [chunk][direction][list]: counts, then write cursors
	lists   [][]Entry    // [direction][list] headers into entries
	ctxs    []xpsim.Ctx  // one per sharder, kept across the three steps
	costs   []xpsim.Cost

	perNode []nodeShare // sharder and stripe census, indexed by node+1
	byNode  []int       // sharders grouped by node

	bal balancer
}

// nodeShare is the census of the sharders bound to one NUMA node and of
// the stripes they read. Index 0 is the pool of all sharders: its census
// counts the unbound ones, and it reads the stripes without a home and
// those of nodes no sharder is bound to.
type nodeShare struct {
	sharders int // sharders bound here
	first    int // offset of those sharders in Stage.byNode
	pool     int // sharders that read the stripes: the bound ones, or all
	chunks   int // stripes the pool reads
	lines    int // their XPLines, counted when chunks < pool
	dealt    int // stripes (lines when cut) already assigned
}

// sharder is the i-th sharder of the pool ns.
func (st *Stage) sharder(ns *nodeShare, i int) int {
	if ns == &st.perNode[0] {
		return i
	}
	return st.byNode[ns.first+i]
}

// Run shards the log records [from, to). It returns the 2*g.lists() lists
// (direction d's list i at index d*g.lists()+i; they alias the Stage and
// stay valid until the next Run), the largest vertex ID in the batch, and
// the simulated duration of the stage: that of its slowest sharder.
func (st *Stage) Run(log Log, from, to int64, g Geometry, sh Sharders) (lists [][]Entry, maxV graph.VID, ns int64) {
	st.cut(log, from, to)
	st.assign(log, sh)
	n := int(to - from)
	nl := 2 * g.lists()
	st.batch = grow(st.batch, n)
	st.entries = grow(st.entries, 2*n)
	st.cursors = grow(st.cursors, len(st.chunks)*nl)
	st.lists = grow(st.lists, nl)
	clear(st.cursors)

	// Step 1: every chunk is read from the log exactly once, by a sharder
	// on its home node, into the batch copy; its entries are counted per
	// list into the chunk's own row of the table.
	for ci, c := range st.chunks {
		ctx := &st.ctxs[c.sharder]
		off := int(c.from - from)
		edges := log.Read(ctx, c.from, c.to, st.batch[off:off])
		row := st.cursors[ci*nl : (ci+1)*nl]
		for _, e := range edges {
			for d := 0; d < 2; d++ {
				v := Of(d, e).V
				row[d*g.lists()+g.listOf(v)]++
				maxV = max(maxV, v)
			}
		}
		sh.Lat.DRAM(ctx, int64(len(edges))*graph.EdgeBytes, true, true)
		sh.Lat.CPU(ctx, int64(len(edges))*2)
	}

	// Step 2: prefix sums, list by list and inside a list chunk by chunk —
	// log order — turn each count into the slot its chunk writes first.
	// The columns are independent, so the sharders split them.
	at := 0
	for l := 0; l < nl; l++ {
		start := at
		for ci := range st.chunks {
			cnt := int(st.cursors[ci*nl+l])
			st.cursors[ci*nl+l] = uint32(at)
			at += cnt
		}
		st.lists[l] = st.entries[start:at]
	}
	cells := int64((nl + sh.N - 1) / sh.N * len(st.chunks))
	for t := range st.ctxs {
		sh.Lat.DRAM(&st.ctxs[t], cells*4, true, true)
		sh.Lat.CPU(&st.ctxs[t], cells)
	}

	// Step 3: every sharder re-reads its chunks from the batch copy and
	// writes each entry at its list's cursor.
	for ci, c := range st.chunks {
		ctx := &st.ctxs[c.sharder]
		row := st.cursors[ci*nl : (ci+1)*nl]
		edges := st.batch[c.from-from : c.to-from]
		for _, e := range edges {
			for d := 0; d < 2; d++ {
				en := Of(d, e)
				l := d*g.lists() + g.listOf(en.V)
				st.entries[row[l]] = en
				row[l]++
			}
		}
		sh.Lat.DRAM(ctx, int64(len(edges))*graph.EdgeBytes, false, true)
		sh.Lat.DRAM(ctx, int64(len(edges))*graph.EdgeBytes*2, true, true)
		sh.Lat.CPU(ctx, int64(len(edges))*2)
	}

	for t := range st.costs {
		ns = max(ns, st.costs[t].Ns())
	}
	return st.lists, maxV, ns
}

// SharderNs reports what sharder t spent in the last Run.
func (st *Stage) SharderNs(t int) int64 { return st.costs[t].Ns() }

// cut splits [from, to) at the log's interleave stripes.
func (st *Stage) cut(log Log, from, to int64) {
	st.chunks = st.chunks[:0]
	for at := from; at < to; {
		end, node := log.Stripe(at, to)
		st.chunks = append(st.chunks, chunk{from: at, to: end, node: node})
		at = end
	}
}

// assign binds every chunk to a sharder and resets the sharders' clocks.
// A stripe goes to a pool: the sharders bound to its node, or — for a
// stripe without a home, or whose node has no sharder (DRAM logs, unbound
// stores, fewer threads than sockets) — all sharders. Each pool takes its
// stripes in contiguous ascending runs: whole stripes dealt near-equally
// when it has at least as many stripes as sharders, else its stripes cut at
// the log's XPLines into one run per sharder, the runs' lengths at most a
// line apart (a line each when there are fewer lines than sharders). The
// chunks stay in log order.
func (st *Stage) assign(log Log, sh Sharders) {
	st.ctxs = grow(st.ctxs, sh.N)
	st.costs = grow(st.costs, sh.N)
	st.byNode = grow(st.byNode, sh.N)
	nodes := 1
	for t := 0; t < sh.N; t++ {
		st.costs[t] = xpsim.Cost{}
		st.ctxs[t] = xpsim.Ctx{Cost: &st.costs[t], Node: sh.NodeOf(t), Worker: t, Workers: max(sh.Contention, 1)}
		nodes = max(nodes, st.ctxs[t].Node+2)
	}
	for _, c := range st.chunks {
		nodes = max(nodes, c.node+2)
	}
	st.perNode = grow(st.perNode, nodes)
	clear(st.perNode)
	slot := func(node int) *nodeShare { return &st.perNode[max(node, -1)+1] }
	for t := range st.ctxs {
		slot(st.ctxs[t].Node).sharders++
	}
	// Counting sort of the sharders by node: first runs up to the end of
	// each node's group, then back down to its start as the group fills.
	at := 0
	for i := range st.perNode {
		at += st.perNode[i].sharders
		st.perNode[i].first = at
		st.perNode[i].pool = st.perNode[i].sharders
	}
	st.perNode[0].pool = sh.N
	for t := sh.N - 1; t >= 0; t-- {
		ns := slot(st.ctxs[t].Node)
		ns.first--
		st.byNode[ns.first] = t
	}
	poolOf := func(node int) *nodeShare {
		if ns := slot(node); ns.sharders > 0 {
			return ns
		}
		return &st.perNode[0]
	}
	for _, c := range st.chunks {
		poolOf(c.node).chunks++
	}
	for _, c := range st.chunks {
		if ns := poolOf(c.node); ns.chunks < ns.pool {
			for at := c.from; at < c.to; ns.lines++ {
				at = log.Line(at, c.to)
			}
		}
	}
	st.spare = st.spare[:0]
	for _, c := range st.chunks {
		ns := poolOf(c.node)
		if ns.chunks >= ns.pool {
			c.sharder = st.sharder(ns, ns.dealt*ns.pool/ns.chunks)
			ns.dealt++
			st.spare = append(st.spare, c)
			continue
		}
		// Run k holds the pool's lines [⌈k·lines/runs⌉, ⌈(k+1)·lines/runs⌉);
		// a run that outlasts its stripe goes on in the pool's next one.
		runs := min(ns.pool, ns.lines)
		for at := c.from; at < c.to; {
			run := ns.dealt * runs / ns.lines
			next := ((run+1)*ns.lines + runs - 1) / runs
			end := at
			for ; end < c.to && ns.dealt < next; ns.dealt++ {
				end = log.Line(end, c.to)
			}
			st.spare = append(st.spare, chunk{from: at, to: end, node: c.node, sharder: st.sharder(ns, run*ns.pool/runs)})
			at = end
		}
	}
	st.chunks, st.spare = st.spare, st.chunks
}

// grow returns s with length n, reallocating only when n exceeds every
// length s has had; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	return s[:n]
}

// Balance assigns the lists `ranges` to workers greedily by descending
// length, returning per-worker index lists. They alias the Stage and stay
// valid until the next Balance.
func (st *Stage) Balance(ranges [][]Entry, workers int) [][]int {
	return st.bal.run(ranges, workers)
}

// balancer is Balance's scratch. It implements sort.Interface over order
// so the sort allocates nothing.
type balancer struct {
	ranges [][]Entry
	order  []int
	load   []int
	assign [][]int
}

func (b *balancer) Len() int           { return len(b.order) }
func (b *balancer) Less(i, j int) bool { return len(b.ranges[b.order[i]]) > len(b.ranges[b.order[j]]) }
func (b *balancer) Swap(i, j int)      { b.order[i], b.order[j] = b.order[j], b.order[i] }

func (b *balancer) run(ranges [][]Entry, workers int) [][]int {
	b.ranges = ranges
	b.order = grow(b.order, len(ranges))
	for i := range b.order {
		b.order[i] = i
	}
	sort.Sort(b)
	b.load = grow(b.load, workers)
	clear(b.load)
	for len(b.assign) < workers {
		b.assign = append(b.assign, nil)
	}
	assign := b.assign[:workers]
	for w := range assign {
		assign[w] = assign[w][:0]
	}
	for _, ri := range b.order {
		if len(ranges[ri]) == 0 {
			continue
		}
		min := 0
		for w := 1; w < workers; w++ {
			if b.load[w] < b.load[min] {
				min = w
			}
		}
		assign[min] = append(assign[min], ri)
		b.load[min] += len(ranges[ri])
	}
	return assign
}
