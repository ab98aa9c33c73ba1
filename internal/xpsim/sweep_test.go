package xpsim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// sweepChunk is one grab as fn sees it: the worker, its first item and the
// items it covered.
type sweepChunk struct{ worker, first, items int }

// traceSweep runs a Sweep whose item i costs cost(i) and returns the loop's
// time, the items in the order they ran, the chunks and each worker's busy
// time. A chunk starts wherever an item does not follow its predecessor on
// the same worker's clock with nothing in between: the grab's DRAMWrite
// sits there.
func traceSweep(sw *Sweep, lat *LatencyModel, n, k int, records func(int) int, cost func(int) int64) (int64, []int, []sweepChunk, []int64) {
	var order []int
	var chunks []sweepChunk
	busy := make([]int64, n)
	var last *Ctx
	var lastEnd int64
	ns := sw.Run(lat, n, n, Unpinned, k, records, func(ctx *Ctx, i int) {
		if ctx != last || ctx.Cost.Ns() != lastEnd {
			chunks = append(chunks, sweepChunk{worker: ctx.Worker, first: i})
		}
		chunks[len(chunks)-1].items++
		order = append(order, i)
		before := ctx.Cost.Ns()
		ctx.Cost.Add(cost(i))
		busy[ctx.Worker] += ctx.Cost.Ns() - before
		last, lastEnd = ctx, ctx.Cost.Ns()
	})
	return int64(ns), order, chunks, busy
}

// skewed is a power-law-ish record count: item 0 is a hub, every eighth a
// smaller one, the rest light — the shape of an RMAT ID range.
func skewed(i int) int {
	switch {
	case i == 0:
		return 5000
	case i%8 == 0:
		return 400 + 7*i
	default:
		return i % 5
	}
}

// TestSweepRunsEveryItemOnceInOrder: whatever the width and the weights,
// every item runs exactly once and the host runs them in index order.
func TestSweepRunsEveryItemOnceInOrder(t *testing.T) {
	lat := DefaultLatency()
	var sw Sweep
	for _, n := range []int{1, 2, 3, 4, 16, 96} {
		for _, k := range []int{0, 1, 5, 63, 64, 65, 1000, 4099} {
			_, order, _, _ := traceSweep(&sw, &lat, n, k, skewed, func(i int) int64 { return int64(skewed(i)) })
			if len(order) != k {
				t.Fatalf("n=%d k=%d: %d items ran", n, k, len(order))
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("n=%d k=%d: position %d ran item %d", n, k, i, got)
				}
			}
		}
	}
}

// TestSweepChunkLimits: no chunk holds more than 64 items or weighs more
// than 1/8 of a worker's fair share, unless it is one item heavier than
// that cap on its own.
func TestSweepChunkLimits(t *testing.T) {
	lat := DefaultLatency()
	var sw Sweep
	for _, tc := range []struct {
		name    string
		n, k    int
		records func(int) int
	}{
		{"uniform", 4, 5000, func(int) int { return 0 }},
		{"skewed", 4, 5000, skewed},
		{"skewed-wide", 96, 5000, skewed},
		{"hubs-only", 8, 40, func(i int) int { return 1000 * (i + 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var total int64
			for i := range tc.k {
				total += 1 + int64(tc.records(i))
			}
			limit := total / int64(tc.n*sweepShareDiv)
			_, _, chunks, _ := traceSweep(&sw, &lat, tc.n, tc.k, tc.records, func(int) int64 { return 1 })
			full, capped := 0, 0
			for _, c := range chunks {
				var w int64
				for i := c.first; i < c.first+c.items; i++ {
					w += 1 + int64(tc.records(i))
				}
				if c.items > sweepChunkItems {
					t.Fatalf("chunk at %d holds %d items", c.first, c.items)
				}
				if w > limit && c.items > 1 {
					t.Fatalf("chunk at %d weighs %d over the cap %d with %d items", c.first, w, limit, c.items)
				}
				if c.items == sweepChunkItems {
					full++
				} else if c.first+c.items < tc.k {
					capped++
				}
			}
			t.Logf("%d chunks (%d at 64 items, %d closed by the weight cap %d)", len(chunks), full, capped, limit)
		})
	}
}

// TestSweepGrabsGoToTheIdlestWorker: a chunk goes to the worker whose clock
// is lowest, the lowest index on a tie — so with free items the grabs go
// round the workers in index order.
func TestSweepGrabsGoToTheIdlestWorker(t *testing.T) {
	lat := DefaultLatency()
	var sw Sweep
	_, _, chunks, _ := traceSweep(&sw, &lat, 4, 40, func(int) int { return 0 }, func(int) int64 { return 0 })
	for j, c := range chunks {
		if c.worker != j%4 {
			t.Fatalf("chunk %d went to worker %d, want %d (ties go to the lowest index)", j, c.worker, j%4)
		}
	}
	// A heavy first chunk keeps worker 0 out of the next grabs.
	_, _, chunks, _ = traceSweep(&sw, &lat, 3, 9, func(i int) int { return 0 }, func(i int) int64 {
		if i == 0 {
			return 1000
		}
		return 10
	})
	for j, c := range chunks[1:] {
		if c.worker == 0 {
			t.Fatalf("chunk %d went to worker 0, whose clock is highest", j+1)
		}
	}
}

// TestSweepTimeIsTheSlowestClock: the loop lasts as long as its busiest
// worker, grabs included; a one-worker loop grabs nothing.
func TestSweepTimeIsTheSlowestClock(t *testing.T) {
	lat := DefaultLatency()
	var sw Sweep
	for _, n := range []int{1, 2, 5} {
		ns, _, chunks, busy := traceSweep(&sw, &lat, n, 300, skewed, func(i int) int64 { return int64(3 * skewed(i)) })
		grabs := make([]int64, n)
		for _, c := range chunks {
			grabs[c.worker]++
		}
		var slowest int64
		for w := range n {
			if n == 1 {
				grabs[w] = 0
			}
			slowest = max(slowest, busy[w]+grabs[w]*lat.DRAMWrite)
		}
		if ns != slowest {
			t.Errorf("n=%d: loop time %d ns, slowest worker %d ns", n, ns, slowest)
		}
	}
	if ns, _, _, _ := traceSweep(&sw, &lat, 1, 100, skewed, func(int) int64 { return 0 }); ns != 0 {
		t.Errorf("a one-worker loop of free items took %d ns: it must grab nothing", ns)
	}
	if ns, _, chunks, _ := traceSweep(&sw, &lat, 2, 100, skewed, func(int) int64 { return 0 }); ns == 0 || len(chunks) < 2 {
		t.Errorf("a two-worker loop of free items took %d ns over %d chunks: every grab costs a DRAMWrite", ns, len(chunks))
	}
}

// TestSweepAllocatesNothing: a warmed Sweep runs without a heap allocation.
func TestSweepAllocatesNothing(t *testing.T) {
	lat := DefaultLatency()
	var sw Sweep
	var sum int64
	run := func() {
		sw.Run(&lat, 16, 16, PinnedTo(1), 5000, skewed, func(ctx *Ctx, i int) {
			ctx.Cost.Add(int64(i & 7))
			sum += int64(i)
		})
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a warmed sweep allocates %.1f times per run", allocs)
	}
}

// TestSweepEach: Each runs every worker once, in order, each on a clock of
// its own with its placement and the phase's contention, lasts as long as
// the slowest, and allocates nothing once warmed.
func TestSweepEach(t *testing.T) {
	var sw Sweep
	work := func(w int, ctx *Ctx) { ctx.Cost.Add(int64(100 * (w%3 + 1))) }
	var order []int
	got := sw.Each(5, 7, PinnedTo(1), func(w int, ctx *Ctx) {
		order = append(order, w)
		if ctx.Worker != w || ctx.Workers != 7 || ctx.Node != 1 || ctx.Cost.Ns() != 0 {
			t.Errorf("worker %d runs on %+v with %d ns on its clock", w, *ctx, ctx.Cost.Ns())
		}
		work(w, ctx)
	})
	if got != 300 || !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("Each took %v running workers %v, want 300ns and 0..4 in order", got, order)
	}
	if d := sw.Each(2, 0, Unpinned, func(_ int, ctx *Ctx) {
		if ctx.Workers != 1 {
			t.Errorf("contention 0 runs workers at %d, want 1", ctx.Workers)
		}
	}); d != 0 {
		t.Errorf("two idle workers took %v", d)
	}
	if allocs := testing.AllocsPerRun(20, func() { sw.Each(5, 7, PinnedTo(1), work) }); allocs != 0 {
		t.Fatalf("a warmed Each allocates %.1f times per run", allocs)
	}
}

// TestSweepSmallFrontierNoSlowerThanRoundRobin: a BFS-sized frontier of 20
// vertices with a hub in front finishes no later on 4 workers than the
// round-robin deal it replaced (worker w takes items w, w+4, …), grabs
// included.
func TestSweepSmallFrontierNoSlowerThanRoundRobin(t *testing.T) {
	lat := DefaultLatency()
	cost := func(i int) int64 { return lat.CPUOp * 2 * int64(1+skewed(i)) }
	var sw Sweep
	dyn, _, _, _ := traceSweep(&sw, &lat, 4, 20, skewed, cost)
	rr := int64(Parallel(4, Unpinned, func(w int, ctx *Ctx) {
		for i := range 20 {
			if i%4 == w {
				ctx.Cost.Add(cost(i))
			}
		}
	}))
	t.Logf("20 items on 4 workers: dynamic %d ns, round-robin %d ns", dyn, rr)
	if dyn > rr {
		t.Fatalf("the dynamic loop took %d ns, the round-robin deal %d ns", dyn, rr)
	}
}

// spreadItem is one item of a spread loop: its records, the read it
// charges to the ctx it is handed (a hub's headers), the payload read it
// charges to that ctx's payload clock, and the edge work to the edge ctx.
type spreadItem struct {
	records             int
	read, payload, edge int64
}

// runItem charges item it as a chain walk does: its headers on ctx, its
// payload lines on ctx.Payload (nil: ctx), its edge work on edge.
func runItem(ctx, edge *Ctx, it spreadItem) {
	ctx.Cost.Add(it.read)
	payload := ctx
	if ctx.Payload != nil {
		payload = ctx.Payload
	}
	payload.Cost.Add(it.payload)
	edge.Cost.Add(it.edge)
}

// runSpread runs items through Spread as one group of n workers on node 0
// and returns each worker's clock at the end, and for each item whether its
// edge ctx was a scratch clock (spread) and which worker read it.
func runSpread(t *testing.T, sw *Sweep, lat *LatencyModel, n int, items []spreadItem) (clocks []int64, spread []bool, reader []int) {
	spread, reader = make([]bool, len(items)), make([]int, len(items))
	sw.Spread(lat, []Group{{Node: 0, Workers: n, Contention: n, Items: len(items)}}, func(_, i int) int { return items[i].records }, func(ctx, edge *Ctx, _, i int) {
		spread[i], reader[i] = edge != ctx, ctx.Worker
		if (ctx.Payload != nil) != spread[i] {
			t.Errorf("item %d: spread %v with payload clock %v", i, spread[i], ctx.Payload)
		}
		for _, c := range []*Ctx{edge, ctx.Payload} {
			if c != nil && (c.Worker != ctx.Worker || c.Node != ctx.Node || c.Workers != ctx.Workers || c.Payload != nil) {
				t.Errorf("item %d: the scratch ctx %+v is not placed like the reading worker's %+v", i, *c, *ctx)
			}
		}
		runItem(ctx, edge, items[i])
	})
	for w := range n {
		clocks = append(clocks, sw.Clock(w).Nanoseconds())
	}
	return clocks, spread, reader
}

// TestSweepSpreadsHeavyItems: an item heavier than the chunk cap that holds
// at least two XPLines of records has its headers read on the worker that
// grabbed it, and its payload reads and edge work land in k equal shares on
// that worker and the k−1 idlest others, each of which pays one grab;
// nothing else spreads, Run never does, and the loop still allocates
// nothing.
func TestSweepSpreadsHeavyItems(t *testing.T) {
	lat := DefaultLatency()
	g := lat.DRAMWrite
	var sw Sweep

	// One hub alone: k = min(4 workers, ⌈5001/156⌉, 5000/64) = 4 shares.
	clocks, spread, reader := runSpread(t, &sw, &lat, 4, []spreadItem{{records: 5000, read: 900, payload: 2000, edge: 4000}})
	if want := []int64{g + 900 + 1500, g + 1500, g + 1500, g + 1500}; !slices.Equal(clocks, want) || !spread[0] || reader[0] != 0 {
		t.Errorf("a hub on 4 workers: clocks %v (spread %v, read by %d), want %v read by 0", clocks, spread[0], reader[0], want)
	}
	// Busy workers keep their clocks: the hub (128 records, k = 128/64 = 2)
	// goes to the idlest worker, 3, and its second share to the next
	// idlest, 1. The light items (100 records) are over the cap but too
	// small to spread.
	clocks, spread, reader = runSpread(t, &sw, &lat, 4, []spreadItem{
		{records: 100, read: 5000}, {records: 100, read: 300}, {records: 100, read: 2000},
		{records: 128, read: 50, edge: 1001},
	})
	if want := []int64{g + 5000, g + 300 + g + 501, g + 2000, g + 50 + 501}; !slices.Equal(clocks, want) {
		t.Errorf("a hub after three busy items: clocks %v, want %v (shares rounded up)", clocks, want)
	}
	if !slices.Equal(spread, []bool{false, false, false, true}) || reader[3] != 3 {
		t.Errorf("spread %v, the hub read by worker %d: only the hub spreads, read by the idlest", spread, reader[3])
	}

	// Nothing spreads under the cap, under 128 records, or on one worker.
	many := make([]spreadItem, 1000)
	for i := range many {
		many[i] = spreadItem{records: 200, read: 10, edge: 400}
	}
	for name, tc := range map[string]struct {
		n     int
		items []spreadItem
	}{
		"under the cap": {4, many},
		"127 records":   {4, []spreadItem{{records: 127, read: 10, edge: 254}}},
		"one worker":    {1, []spreadItem{{records: 5000, read: 10, edge: 10000}}},
	} {
		if _, spread, _ := runSpread(t, &sw, &lat, tc.n, tc.items); slices.Contains(spread, true) {
			t.Errorf("%s: an item spread", name)
		}
	}
	// A loop lighter than its workers has a zero cap; a hub still spreads.
	if clocks, spread, _ := runSpread(t, &sw, &lat, 96, []spreadItem{{records: 130, read: 10, edge: 260}}); !spread[0] || clocks[1] != g+130 {
		t.Errorf("a 130-record hub alone on 96 workers: spread %v, worker 1 at %d, want 2 shares", spread[0], clocks[1])
	}

	// The drain's loop, Run, keeps a hub whole on the worker that grabs it.
	ns := sw.Run(&lat, 4, 4, PinnedTo(0), 1, func(int) int { return 5000 }, func(ctx *Ctx, _ int) { ctx.Cost.Add(4900) })
	if ns != time.Duration(g+4900) || sw.Clock(1) != 0 {
		t.Errorf("Run took %v with worker 1 at %v: it must not spread", ns, sw.Clock(1))
	}

	hubs := []spreadItem{{records: 3000, read: 500, payload: 900, edge: 6000}, {records: 3, read: 5, edge: 6}, {records: 700, read: 90, payload: 200, edge: 1400}}
	runSpread(t, &sw, &lat, 8, hubs)
	if allocs := testing.AllocsPerRun(20, func() {
		sw.Spread(&lat, []Group{{Node: 1, Workers: 8, Contention: 8, Items: len(hubs)}}, func(_, i int) int { return hubs[i].records }, func(ctx, edge *Ctx, _, i int) {
			runItem(ctx, edge, hubs[i])
		})
	}); allocs != 0 {
		t.Fatalf("a warmed spread loop allocates %.1f times per run", allocs)
	}
}

// runLevel runs items[g] as group g of one Spread level and returns the
// level's time and every worker's clock, in group order.
func runLevel(sw *Sweep, lat *LatencyModel, groups []Group, items [][]spreadItem) (int64, []int64) {
	for g := range groups {
		groups[g].Items = len(items[g])
	}
	ns := sw.Spread(lat, groups, func(g, i int) int { return items[g][i].records }, func(ctx, edge *Ctx, g, i int) {
		runItem(ctx, edge, items[g][i])
	})
	var clocks []int64
	for w := range len(sw.costs) {
		clocks = append(clocks, sw.Clock(w).Nanoseconds())
	}
	return ns.Nanoseconds(), clocks
}

// twoNodes is a level with a hub on node 0's two workers and nothing for
// node 1's two. Its hub holds 256 records, so k = 2: the reader ends at a
// grab, the header read and half the payload and edge work, its helper at a
// grab and the same halves.
func twoNodes() []Group {
	return []Group{{Node: 0, Workers: 2, Contention: 2}, {Node: 1, Workers: 2, Contention: 2}}
}

// TestSweepPassMovesEdgeNotReads: the end-of-level pass moves a hub's edge
// shares to idle workers of the other node, each paying a grab and the
// sequential DRAM read of its records; the payload read shares stay on the
// hub's node, so a hub with no edge work leaves the other node idle.
func TestSweepPassMovesEdgeNotReads(t *testing.T) {
	lat := DefaultLatency()
	g := lat.DRAMWrite
	var sw Sweep
	var c Cost
	lat.DRAM(&Ctx{Cost: &c}, 4*128, false, true) // a share's 128 records
	transfer := c.Ns()

	hub := spreadItem{records: 256, read: 100, payload: 400, edge: 2000}
	ns, clocks := runLevel(&sw, &lat, twoNodes(), [][]spreadItem{{hub}, nil})
	// Before the pass: [g+100+200+1000, g+200+1000, 0, 0]. Both edge shares
	// leave node 0; the read shares stay.
	if want := []int64{g + 100 + 200, 200, 1000 + g + transfer, 1000 + g + transfer}; !slices.Equal(clocks, want) || ns != slices.Max(want) {
		t.Errorf("a hub on node 0 with node 1 idle: %d ns, clocks %v, want %v", ns, clocks, want)
	}

	hub.edge = 0
	if _, clocks := runLevel(&sw, &lat, twoNodes(), [][]spreadItem{{hub}, nil}); !slices.Equal(clocks, []int64{g + 100 + 200, g + 200, 0, 0}) {
		t.Errorf("a hub with no edge work: clocks %v, want node 1 idle: reads never move", clocks)
	}
}

// TestSweepPassChargesTransferAcrossSockets: a share the pass moves inside
// its node costs the receiver its edge work and a grab and nothing more;
// across sockets it also pays lat.DRAM of its records (above).
func TestSweepPassChargesTransferAcrossSockets(t *testing.T) {
	lat := DefaultLatency()
	g := lat.DRAMWrite
	var sw Sweep
	// Three workers on one node: the hub's three shares go to all of them;
	// the light item behind it (100 records, too few to spread) then lands
	// on worker 1, which the pass relieves of its share: worker 2, the
	// idlest, takes it for a grab and its edge work.
	ns, clocks := runLevel(&sw, &lat, []Group{{Node: 0, Workers: 3, Contention: 3}}, [][]spreadItem{{
		{records: 256, read: 100, edge: 3000},
		{records: 100, read: 5000},
	}})
	if want := []int64{g + 100 + 1000, g + 5000, g + 1000 + g + 1000}; !slices.Equal(clocks, want) || ns != g+5000 {
		t.Errorf("a share moved inside its node: %d ns, clocks %v, want %v", ns, clocks, want)
	}
}

// TestSweepPassNeverRaisesTheLevel: on random levels of one to three groups
// — pinned to either node or unbound — the pass never raises the slowest
// clock, and moves work only to workers that end below it.
func TestSweepPassNeverRaisesTheLevel(t *testing.T) {
	lat := DefaultLatency()
	var sw Sweep
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	moved := 0
	for range 300 {
		groups := make([]Group, 1+next(3))
		items := make([][]spreadItem, len(groups))
		for gi := range groups {
			w := 1 + next(6)
			groups[gi] = Group{Node: next(3) - 1, Workers: w, Contention: w}
			for range next(40) {
				it := spreadItem{records: next(8), read: int64(next(400))}
				if next(4) == 0 {
					it.records = 64 + next(3000)
					it.payload, it.edge = int64(3*it.records), int64(8*it.records)
				}
				it.edge += int64(2 * it.records)
				items[gi] = append(items[gi], it)
			}
		}
		for g := range groups {
			groups[g].Items = len(items[g])
		}
		sw.level(&lat, groups, func(g, i int) int { return items[g][i].records }, func(ctx, edge *Ctx, g, i int) {
			runItem(ctx, edge, items[g][i])
		})
		before := make([]int64, len(sw.costs))
		for w := range sw.costs {
			before[w] = sw.costs[w].Ns()
		}
		end := slices.Max(before)
		sw.balance(&lat)
		for w := range sw.costs {
			if now := sw.costs[w].Ns(); now > before[w] && now >= end {
				t.Fatalf("groups %+v: worker %d went %d → %d ns, the level ended at %d", groups, w, before[w], now, end)
			} else if now != before[w] {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("the pass moved nothing on 300 random levels")
	}
	t.Logf("%d worker clocks moved", moved)
}

// TestSweepPassAllocatesNothing: a warmed two-node level whose pass moves
// shares allocates nothing.
func TestSweepPassAllocatesNothing(t *testing.T) {
	lat := DefaultLatency()
	var sw Sweep
	groups := twoNodes()
	items := [][]spreadItem{{{records: 3000, read: 500, payload: 900, edge: 6000}, {records: 3, read: 5, edge: 6}, {records: 700, read: 90, payload: 200, edge: 1400}}, {{records: 2, read: 9, edge: 4}}}
	run := func() { runLevel(&sw, &lat, groups, items) }
	run()
	if len(sw.shares) == 0 || sw.Clock(2) == 0 {
		t.Fatalf("the level dealt %d shares and moved none to node 1", len(sw.shares))
	}
	if allocs := testing.AllocsPerRun(20, func() {
		sw.Spread(&lat, groups, func(g, i int) int { return items[g][i].records }, func(ctx, edge *Ctx, g, i int) {
			runItem(ctx, edge, items[g][i])
		})
	}); allocs != 0 {
		t.Fatalf("a warmed level allocates %.1f times per run", allocs)
	}
}

// TestSweepDealNoLaterThanWhole: a hub grabbed while another worker is busy
// with a long read must not deal a share to that worker. Its read share
// would stay there through the pass, and the loop would end later than with
// the hub kept whole (3204 ns against 3070): a worker takes a share only if
// its clock with it stays below the reader's with the whole hub.
func TestSweepDealNoLaterThanWhole(t *testing.T) {
	lat := DefaultLatency()
	var sw Sweep
	items := []spreadItem{{records: 0, read: 3000}, {records: 256, read: 100, payload: 400, edge: 2000}}
	records := func(i int) int { return items[i].records }
	whole := sw.Run(&lat, 3, 3, PinnedTo(0), len(items), records, func(ctx *Ctx, i int) { runItem(ctx, ctx, items[i]) })
	clocks, spread, _ := runSpread(t, &sw, &lat, 3, items)
	if end := slices.Max(clocks); !spread[1] || end > whole.Nanoseconds() {
		t.Fatalf("the spread loop ended at %d ns (clocks %v, hub spread %v), the whole one at %v", end, clocks, spread[1], whole)
	}
	if clocks[0] != lat.DRAMWrite+3000 {
		t.Fatalf("the busy worker ended at %d ns: it took a share of the hub", clocks[0])
	}
}

func ExampleSweep() {
	lat := DefaultLatency()
	var sw Sweep
	degree := []int{90, 1, 2, 0, 3, 1, 40, 2}
	var order []int
	ns := sw.Run(&lat, 1, 1, PinnedTo(0), len(degree), func(i int) int { return degree[i] }, func(ctx *Ctx, i int) {
		lat.CPU(ctx, int64(degree[i]))
		order = append(order, i)
	})
	fmt.Println(order, ns)
	// Output: [0 1 2 3 4 5 6 7] 556ns
}
