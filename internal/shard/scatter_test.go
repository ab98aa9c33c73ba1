package shard

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/xpsim"
)

// oracleShard is the serial shard loop the Stage replaced: one pass over
// the batch in log order, appending each edge's two entries to their lists.
func oracleShard(batch []graph.Edge, g Geometry) [][]Entry {
	lists := make([][]Entry, 2*g.Lists())
	for _, e := range batch {
		for d := 0; d < 2; d++ {
			var v graph.VID
			var nbr uint32
			if d == 0 {
				v, nbr = e.Src, e.Dst
			} else {
				v, nbr = e.Target(), e.Src|(e.Dst&graph.DelFlag)
			}
			p := PartOf(v, g.Parts)
			r := RangeOf(v, g.Width, g.Ranges)
			l := d*g.Lists() + p*g.Ranges + r
			lists[l] = append(lists[l], Entry{V: v, Nbr: nbr})
		}
	}
	return lists
}

// ringLog is a circular log over a plain slice whose "stripes" end at
// random ring positions and live on random nodes. It records who read what.
type ringLog struct {
	ring  []graph.Edge
	ends  []bool // ends[pos]: a stripe ends after ring position pos
	nodes []int  // home node of the stripe that holds ring position pos
	reads []int  // times each ring position was read

	hasSharder []bool // nodes some sharder is bound to
	remote     int    // records read from another node although theirs has a sharder
}

func newRingLog(rng *rand.Rand, capacity, nodes int) *ringLog {
	l := &ringLog{ring: make([]graph.Edge, capacity), ends: make([]bool, capacity),
		nodes: make([]int, capacity), reads: make([]int, capacity)}
	node := rng.Intn(nodes+1) - 1
	for pos := range l.ring {
		l.nodes[pos] = node
		if rng.Intn(1+rng.Intn(40)) == 0 {
			l.ends[pos] = true
			node = rng.Intn(nodes+1) - 1 // -1: a stripe without a home
		}
	}
	return l
}

func (l *ringLog) Stripe(from, to int64) (int64, int) {
	pos := from % int64(len(l.ring))
	node := l.nodes[pos]
	for at := from; ; at++ {
		p := at % int64(len(l.ring))
		if at+1 == to || l.ends[p] || p == int64(len(l.ring))-1 {
			return at + 1, node
		}
	}
}

func (l *ringLog) Read(ctx *xpsim.Ctx, from, to int64, dst []graph.Edge) []graph.Edge {
	for at := from; at < to; at++ {
		pos := at % int64(len(l.ring))
		l.reads[pos]++
		if n := l.nodes[pos]; n >= 0 && l.hasSharder[n] && ctx.Node != n {
			l.remote++
		}
		dst = append(dst, l.ring[pos])
	}
	ctx.Cost.Add(to - from)
	return dst
}

func sameLists(t *testing.T, got, want [][]Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d lists, oracle has %d", len(got), len(want))
	}
	for l := range want {
		if len(got[l]) != len(want[l]) {
			t.Fatalf("list %d holds %d entries, oracle %d", l, len(got[l]), len(want[l]))
		}
		for i := range want[l] {
			if got[l][i] != want[l][i] {
				t.Fatalf("list %d entry %d = %+v, oracle %+v", l, i, got[l][i], want[l][i])
			}
		}
	}
}

// TestStageMatchesSerialLoop: whatever the batch (deletions included), the
// stripe lengths, the homes of the stripes, the sharders and their nodes,
// and wherever the window sits on the ring, the lists equal the serial
// loop's list by list and entry by entry; every record is read once; a
// stripe whose node has a sharder is never read from another node; and the
// stage lasts as long as its slowest sharder.
func TestStageMatchesSerialLoop(t *testing.T) {
	var st Stage // one Stage throughout: scratch from a larger batch must not leak into a smaller one
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(4)
		capacity := 1 + rng.Intn(600)
		log := newRingLog(rng, capacity, nodes)
		g := Geometry{Parts: 1 + rng.Intn(3), Ranges: 1 + rng.Intn(12)}
		numV := 1 + rng.Intn(500)
		g.Width = Width(int64(numV), g.Ranges)

		from := int64(rng.Intn(3 * capacity))
		n := rng.Intn(capacity + 1)
		batch := make([]graph.Edge, n)
		var maxV graph.VID
		for i := range batch {
			// IDs run past numV (the clamp into the last range) and repeat,
			// so that adds and their tombstones share lists.
			e := graph.Edge{Src: graph.VID(rng.Intn(numV + 20)), Dst: graph.VID(rng.Intn(numV + 20))}
			maxV = max(maxV, e.Src, e.Dst)
			if rng.Intn(4) == 0 {
				e = graph.Del(e.Src, e.Dst)
			}
			batch[i] = e
			log.ring[(from+int64(i))%int64(capacity)] = e
		}

		sh := Sharders{N: 1 + rng.Intn(9), Contention: 1 + rng.Intn(8), Lat: &xpsim.LatencyModel{CPUOp: 1}}
		bound := make([]int, sh.N)
		log.hasSharder = make([]bool, nodes)
		for t := range bound {
			bound[t] = rng.Intn(nodes+1) - 1 // -1 = xpsim.NodeUnbound
			if bound[t] >= 0 {
				log.hasSharder[bound[t]] = true
			}
		}
		sh.NodeOf = func(t int) int { return bound[t] }

		lists, gotMax, ns := st.Run(log, from, from+int64(n), g, sh)
		sameLists(t, lists, oracleShard(batch, g))
		if gotMax != maxV {
			t.Fatalf("seed %d: max vertex %d, want %d", seed, gotMax, maxV)
		}
		for pos, r := range log.reads {
			in := (int64(pos)-from%int64(capacity)+int64(capacity))%int64(capacity) < int64(n)
			if in && r != 1 || !in && r != 0 {
				t.Fatalf("seed %d: ring position %d read %d times (in batch: %v)", seed, pos, r, in)
			}
		}
		if log.remote != 0 {
			t.Fatalf("seed %d: %d records read from another node than theirs, which has a sharder", seed, log.remote)
		}
		var slowest int64
		for t := 0; t < sh.N; t++ {
			slowest = max(slowest, st.SharderNs(t))
		}
		if ns != slowest || n > 0 && ns == 0 {
			t.Fatalf("seed %d: stage lasts %d ns, its slowest sharder %d", seed, ns, slowest)
		}
	}
}

// TestStageReadsOnTheHomeNode: with a sharder on every node no record is
// read across sockets, and the sharders of a node split its stripes evenly.
func TestStageReadsOnTheHomeNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const nodes = 2
	log := newRingLog(rng, 1<<12, nodes)
	log.hasSharder = []bool{true, true}
	for i := range log.ring {
		log.ring[i] = graph.Edge{Src: graph.VID(rng.Intn(1000)), Dst: graph.VID(rng.Intn(1000))}
	}
	g := Geometry{Parts: 2, Ranges: 8, Width: Width(1000, 8)}
	sh := Sharders{N: 6, NodeOf: func(t int) int { return t % nodes }, Contention: 3, Lat: &xpsim.LatencyModel{}}
	var st Stage
	st.Run(log, 1000, 1000+1<<12, g, sh)
	if log.remote != 0 {
		t.Fatalf("%d records read from a remote node with sharders on every node", log.remote)
	}
	// ringLog.Read charges one unit per record, the model nothing.
	perNode := make([][]int64, nodes)
	for s := 0; s < sh.N; s++ {
		perNode[s%nodes] = append(perNode[s%nodes], st.SharderNs(s))
	}
	for node, loads := range perNode {
		lo, hi := loads[0], loads[0]
		for _, l := range loads {
			lo, hi = min(lo, l), max(hi, l)
		}
		if lo == 0 || hi > 2*lo {
			t.Errorf("node %d: its sharders read %v records: not an even split of its stripes", node, loads)
		}
	}
}

// TestStageSteadyStateAllocatesNothing: scratch grows to the largest
// batch seen and is reused from then on.
func TestStageSteadyStateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	log := newRingLog(rng, 1<<12, 2)
	log.hasSharder = []bool{true, true}
	for i := range log.ring {
		log.ring[i] = graph.Edge{Src: graph.VID(rng.Intn(1000)), Dst: graph.VID(rng.Intn(1000))}
	}
	g := Geometry{Parts: 2, Ranges: 16, Width: Width(1000, 16)}
	sh := Sharders{N: 16, NodeOf: func(t int) int { return t % 2 }, Contention: 8, Lat: &xpsim.LatencyModel{}}
	var st Stage
	run := func() {
		lists, _, _ := st.Run(log, 100, 100+2048, g, sh)
		for p := 0; p < 2*g.Parts; p++ {
			st.Balance(lists[p*g.Ranges:][:g.Ranges], 4)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("a warmed Stage allocates %.0f times per batch", allocs)
	}
}
