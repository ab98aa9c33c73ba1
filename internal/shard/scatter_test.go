package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/xpsim"
)

// oracleShard is the serial shard loop the Stage replaced: one pass over
// the batch in log order, appending each edge's two entries to their lists.
func oracleShard(batch []graph.Edge, g Geometry) [][]Entry {
	lists := make([][]Entry, 2*g.lists())
	for _, e := range batch {
		for d := 0; d < 2; d++ {
			var v graph.VID
			var nbr uint32
			if d == 0 {
				v, nbr = e.Src, e.Dst
			} else {
				v, nbr = e.Target(), e.Src|(e.Dst&graph.DelFlag)
			}
			l := d*g.lists() + g.listOf(v)
			lists[l] = append(lists[l], Entry{V: v, Nbr: nbr})
		}
	}
	return lists
}

// geometries are the two constructors over one vertex-ID space: XPGraph's
// hashed lists on parts partitions and GraphOne's contiguous ranges.
func geometries(parts int, numV int64, ranges int) []Geometry {
	return []Geometry{Hashed(parts, ranges), Contiguous(numV, ranges)}
}

// ringLog is a circular log over a plain slice whose "stripes" end at
// random ring positions and live on random nodes, and whose "lines" are
// every line records from the ring's start. It records who read what.
type ringLog struct {
	ring  []graph.Edge
	ends  []bool // ends[pos]: a stripe ends after ring position pos
	nodes []int  // home node of the stripe that holds ring position pos
	line  int64  // records per line
	reads []int  // times each ring position was read

	hasSharder []bool // nodes some sharder is bound to
	remote     int    // records read from another node although theirs has a sharder
}

func newRingLog(rng *rand.Rand, capacity, nodes int) *ringLog {
	l := &ringLog{ring: make([]graph.Edge, capacity), ends: make([]bool, capacity),
		nodes: make([]int, capacity), line: 1 + rng.Int63n(8), reads: make([]int, capacity)}
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

// newStripedLog lays the ring out like elog over an interleaved region:
// the ring starts base records into the region, whose lines hold line
// records and whose stripes hold stripe records and alternate between the
// nodes.
func newStripedLog(capacity, base, line, stripe, nodes int) *ringLog {
	l := &ringLog{ring: make([]graph.Edge, capacity), ends: make([]bool, capacity),
		nodes: make([]int, capacity), line: int64(line), reads: make([]int, capacity)}
	for pos := range l.ring {
		l.nodes[pos] = (base + pos) / stripe % nodes
		l.ends[pos] = (base+pos+1)%stripe == 0
	}
	return l
}

// stop reports where a run from counter from that ends after any ring
// position for which cut holds, at the ring wrap or at to ends.
func (l *ringLog) stop(from, to int64, cut func(pos int64) bool) int64 {
	for at := from; ; at++ {
		p := at % int64(len(l.ring))
		if at+1 == to || cut(p) || p == int64(len(l.ring))-1 {
			return at + 1
		}
	}
}

func (l *ringLog) Stripe(from, to int64) (int64, int) {
	return l.stop(from, to, func(p int64) bool { return l.ends[p] }), l.nodes[from%int64(len(l.ring))]
}

func (l *ringLog) Line(from, to int64) int64 {
	return l.stop(from, to, func(p int64) bool { return l.ends[p] || (p+1)%l.line == 0 })
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
		numV := 1 + rng.Intn(500)
		g := geometries(1+rng.Intn(3), int64(numV), 1+rng.Intn(12))[seed%2]

		from := int64(rng.Intn(3 * capacity))
		n := rng.Intn(capacity + 1)
		batch := make([]graph.Edge, n)
		var maxV graph.VID
		for i := range batch {
			// IDs run past numV (contiguous ranges clamp them into the last
			// range) and repeat, so that adds and their tombstones share lists.
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
	g := Hashed(2, 8)
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
// batch seen and is reused from then on — at a batch cut at XPLines
// (2048 and 1561 edges: fewer stripes than sharders) and at one dealt in
// whole stripes (65 536).
func TestStageSteadyStateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	log := newStripedLog(1<<17, 64, 32, 512, 2)
	log.hasSharder = []bool{true, true}
	for i := range log.ring {
		log.ring[i] = graph.Edge{Src: graph.VID(rng.Intn(1000)), Dst: graph.VID(rng.Intn(1000))}
	}
	g := Hashed(2, 16)
	sh := Sharders{N: 16, NodeOf: func(t int) int { return t % 2 }, Contention: 8, Lat: &xpsim.LatencyModel{}}
	var st Stage
	for _, n := range []int64{2048, 1561, 65536} {
		run := func() {
			lists, _, _ := st.Run(log, 100, 100+n, g, sh)
			for p := 0; p < 2*g.parts; p++ {
				st.Balance(lists[p*g.Ranges():][:g.Ranges()], 4)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Fatalf("a warmed Stage allocates %.0f times per %d-edge batch", allocs, n)
		}
	}
}

// TestStageCutsFullWidth: over the log layouts elog produces — 32-record
// XPLines, 512-record stripes alternating between two nodes, the ring
// starting 64 records into its region and wrapping mid-line or mid-stripe —
// and the sharder sets the stores run (16 bound on two nodes as XPGraph
// binds them, 16 unbound as GraphOne-P runs, Fig. 20's 95 bound, one), every
// batch size from one record to a whole 65 536-edge batch comes out as the
// serial loop's lists, every record is read once and on its own node when
// that node has a sharder, and the cut is full-width: every cut sits on a
// line, a stripe, the ring wrap or the batch end; a node with at least as
// many stripes as sharders is cut in whole stripes, and one with fewer
// gives each of its sharders a run that differs from the others' by at
// most one line.
func TestStageCutsFullWidth(t *testing.T) {
	const base, line, stripe, nodes = 64, 32, 512, 2
	layouts := []struct {
		name     string
		capacity int
		from     func(n int64, capacity int64) int64
	}{
		{"ring-start", 1 << 17, func(n, c int64) int64 { return c }},
		{"mid-line", 1 << 17, func(n, c int64) int64 { return 5*c + 1000 + 5 }},
		{"wrap-mid-line", 1<<17 + 20, func(n, c int64) int64 { return 2*c - n/2 }},
		{"wrap-mid-stripe", 1<<17 + 96, func(n, c int64) int64 { return 3*c - n/3 - 1 }},
	}
	bound := func(t int) int { return t % nodes } // core.threadNode on two sub-graphs
	sets := []struct {
		name   string
		n      int
		nodeOf func(t int) int
		g      Geometry // the lists the store would cut with these threads
	}{
		{"xpgraph-16", 16, bound, Hashed(nodes, RangesPerWorker*4)},
		{"graphone-16-unbound", 16, xpsim.Unpinned, Contiguous(1000, RangesPerWorker*16)},
		{"fig20-95", 95, bound, Hashed(nodes, RangesPerWorker*23)},
		{"one", 1, bound, Contiguous(1000, RangesPerWorker)},
	}
	sizes := []int64{1, 31, 32, 33, 511, 512, 513, 1561, 2048, 4096, 65536}

	rng := rand.New(rand.NewSource(24))
	var st Stage
	maxChunks := map[string]int{} // most chunks beyond max(stripes, sharders), per sharder set
	defer func() { t.Logf("chunks beyond max(stripes, sharders): %v", maxChunks) }()
	for _, lay := range layouts {
		log := newStripedLog(lay.capacity, base, line, stripe, nodes)
		c := int64(lay.capacity)
		for i := range log.ring {
			e := graph.Edge{Src: graph.VID(rng.Intn(1000)), Dst: graph.VID(rng.Intn(1000))}
			if rng.Intn(8) == 0 {
				e = graph.Del(e.Src, e.Dst)
			}
			log.ring[i] = e
		}
		onCut := func(at int64) bool { // a line, a stripe or the ring wrap starts at counter at
			p := at % c
			return p == 0 || (base+p)%line == 0 || (base+p)%stripe == 0
		}
		for _, set := range sets {
			sh := Sharders{N: set.n, NodeOf: set.nodeOf, Contention: set.n, Lat: &xpsim.LatencyModel{}}
			log.hasSharder = make([]bool, nodes)
			for s := 0; s < sh.N; s++ {
				if node := sh.NodeOf(s); node >= 0 {
					log.hasSharder[node] = true
				}
			}
			for _, n := range sizes {
				name := fmt.Sprintf("%s/%s/%d", lay.name, set.name, n)
				from := lay.from(n, c)
				batch := make([]graph.Edge, n)
				for i := range batch {
					batch[i] = log.ring[(from+int64(i))%c]
				}
				clear(log.reads)
				log.remote = 0
				lists, _, _ := st.Run(log, from, from+n, set.g, sh)
				sameLists(t, lists, oracleShard(batch, set.g))
				for i := int64(0); i < n; i++ {
					if r := log.reads[(from+i)%c]; r != 1 {
						t.Fatalf("%s: record %d read %d times", name, from+i, r)
					}
				}
				if log.remote != 0 {
					t.Fatalf("%s: %d records read off their node, which has a sharder", name, log.remote)
				}

				// The pools and their stripes, as the stage should see them: a
				// node's own sharders, or all of them (key -1).
				type census struct{ stripes, pool, lines int }
				pools := map[int]*census{}
				poolOf := func(node int) int {
					if node < 0 || !log.hasSharder[node] {
						return -1
					}
					return node
				}
				stripes := 0
				for at := from; at < from+n; stripes++ {
					end, node := log.Stripe(at, from+n)
					p := poolOf(node)
					if pools[p] == nil {
						pools[p] = &census{pool: sh.N}
						if p >= 0 {
							pools[p].pool = 0
							for s := 0; s < sh.N; s++ {
								if sh.NodeOf(s) == p {
									pools[p].pool++
								}
							}
						}
					}
					pools[p].stripes++
					for l := at; l < end; pools[p].lines++ {
						l = log.Line(l, end)
					}
					at = end
				}

				at := from
				perSharder := map[int]map[int]int{} // pool -> sharder -> lines
				chunks := map[int]int{}             // pool -> chunks
				for _, ch := range st.chunks {
					if ch.from != at || ch.to <= ch.from {
						t.Fatalf("%s: chunk [%d,%d) after %d: the chunks do not tile the batch in log order", name, ch.from, ch.to, at)
					}
					if ch.to != from+n && !onCut(ch.to) {
						t.Fatalf("%s: chunk [%d,%d) ends on no line, stripe, wrap or batch end", name, ch.from, ch.to)
					}
					if own, _ := log.Stripe(ch.from, from+n); ch.to > own {
						t.Fatalf("%s: chunk [%d,%d) crosses its stripe's end %d", name, ch.from, ch.to, own)
					}
					p := poolOf(ch.node)
					if perSharder[p] == nil {
						perSharder[p] = map[int]int{}
					}
					for l := ch.from; l < ch.to; perSharder[p][ch.sharder]++ {
						l = log.Line(l, ch.to)
					}
					chunks[p]++
					at = ch.to
				}
				if at != from+n {
					t.Fatalf("%s: the chunks end at %d, the batch at %d", name, at, from+n)
				}
				// Whole stripes stay whole when a pool has enough of them; else
				// every cut inside a stripe starts a sharder's run, so the chunk
				// count grows by at most the runs after a pool's first.
				bound := stripes
				for p, c := range pools {
					got := perSharder[p]
					if c.stripes >= c.pool {
						if chunks[p] != c.stripes {
							t.Fatalf("%s: pool %d has %d stripes for %d sharders, cut into %d chunks: whole stripes must stay whole", name, p, c.stripes, c.pool, chunks[p])
						}
						continue
					}
					runs := min(c.pool, c.lines)
					lo, hi := c.lines, 0
					for _, lines := range got {
						lo, hi = min(lo, lines), max(hi, lines)
					}
					if len(got) != runs || hi-lo > 1 {
						t.Fatalf("%s: pool %d (%d stripes, %d lines, %d sharders): %d sharders read %d..%d lines each, want %d reading runs one line apart", name, p, c.stripes, c.lines, c.pool, len(got), lo, hi, runs)
					}
					bound += runs - 1
				}
				if len(st.chunks) > bound {
					t.Fatalf("%s: %d chunks from %d stripes, bound %d", name, len(st.chunks), stripes, bound)
				}
				maxChunks[set.name] = max(maxChunks[set.name], len(st.chunks)-max(stripes, sh.N))
			}
		}
	}
}
