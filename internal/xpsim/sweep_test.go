package xpsim

import (
	"fmt"
	"testing"
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

// TestSweepSmallFrontierNoSlowerThanRoundRobin: a BFS-sized frontier of 20
// vertices with a hub in front finishes no later on 4 workers than the
// round-robin deal it replaced (worker w takes items w, w+4, …), grabs
// included.
func TestSweepSmallFrontierNoSlowerThanRoundRobin(t *testing.T) {
	lat := DefaultLatency()
	cost := func(i int) int64 { return lat.CPUOp * 2 * int64(1+skewed(i)) }
	var sw Sweep
	dyn, _, _, _ := traceSweep(&sw, &lat, 4, 20, skewed, cost)
	rr := int64(ParallelN(4, 4, Unpinned, func(w int, ctx *Ctx) {
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
