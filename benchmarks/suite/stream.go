package suite

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/ingest"
)

// The benchmark owns its input generator: if it borrowed internal/gen, a
// change to that package would change the inputs and make a PR's numbers
// incomparable with its parent's. internal/gen is measured as a layer
// (gen.rmat_host_ns_per_edge) in the traced run instead.

// rng is splitmix64: tiny, seedable, and stable across Go releases.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rmat draws n edges over 2^scale vertices with the Graph500 parameters
// (0.57, 0.19, 0.19, 0.05), the generator behind every catalog stand-in.
func rmat(scale, n int, r *rng) []graph.Edge {
	const a, b, c = 0.57, 0.19, 0.19
	edges := make([]graph.Edge, n)
	for i := range edges {
		var src, dst uint32
		for bit := 0; bit < scale; bit++ {
			switch p := r.float(); {
			case p < a:
			case p < a+b:
				dst |= 1 << bit
			case p < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges[i] = graph.Edge{Src: src, Dst: dst}
	}
	return edges
}

// Read operation kinds. The HTTP workloads map them onto routes, the
// library workloads onto view and engine calls.
const (
	readOut = iota
	readIn
	readKHop
	readKHopFiltered
	numReadKinds
)

type readOp struct {
	kind uint8
	v    graph.VID
}

// Write kinds: how a batch travels. Library targets ignore the kind.
const (
	writeBin = iota
	writeJSON
	writeTyped
)

// batch is one write request and the reads that follow it.
type batch struct {
	kind   uint8
	edges  []graph.Edge
	labels []uint16        // typed batches: index-aligned with edges
	props  []graph.PropSet // typed batches
	body   []byte          // encoded request body (HTTP targets)
	reads  []readOp
}

// Labels and the vertex predicate the filtered reads use. Label 0 is the
// store's default label; the two named ones are registered at build.
var labelNames = []string{"", "cites", "blocks"}

const (
	propKey        = 1
	propValRange   = 100
	filterMinVal   = 25 // filtered k-hop keeps destinations with prop >= this
	khopDegreeCap  = 64 // k-hop roots: one hub expansion must not set the mean
	khopDepth      = 2
	pagerankIters  = 10
	analyticsRoots = 3
	rootMinDegree  = 16 // BFS roots sit in the giant component
	zipfOffset     = 1024
)

// stream is everything a round feeds the system, generated from the seed
// alone: the preload, the batches with their interleaved reads, the reads
// that follow the last batch, and the analytics roots.
type stream struct {
	numV     uint32
	preload  []graph.Edge
	batches  []batch
	tail     []readOp // reads after the last batch (and after prepare)
	roots    []graph.VID
	userOps  int // edge operations in batches (adds + deletes)
	liveEdge int // adds minus deletes, preload included
}

// adds is the head of the stream's adds, preload first, deletes skipped:
// what the ladders, the primitives and the GraphOne comparison replay.
func (st *stream) adds(n int) []graph.Edge {
	out := make([]graph.Edge, 0, n)
	out = append(out, st.preload[:min(len(st.preload), n)]...)
	for i := range st.batches {
		for _, e := range st.batches[i].edges {
			if len(out) < n && !e.IsDelete() {
				out = append(out, e)
			}
		}
	}
	return out
}

// readMix is the share of each read kind, in percent, summing to 100.
type readMix [numReadKinds]int

// streamSpec sizes a stream; see the workload table in workloads.go.
type streamSpec struct {
	scale         int // RMAT scale: 2^scale vertices
	preload       int // adds ingested by the library before the timed phase
	batches       int
	batchOps      int     // edge operations per batch
	delFrac       float64 // share of operations deleting a live earlier edge
	typedEvery    int     // every n-th batch is typed (0: never)
	jsonEvery     int     // every n-th batch travels as JSON (0: never); needs delFrac 0, POST /v1/edges only adds
	propsPerTyped int
	readsPerBatch int
	tailReads     int
	mix           readMix
	uniformReads  bool // uniform-random sources instead of recency-zipf
	// analyticsEvery n runs the analytics phase in rounds 1, 1+n, 1+2n...:
	// every round where analytics is the workload's focus, every other
	// round elsewhere, so a run holds five write and read phases.
	analyticsEvery int
	encode         bool // pre-encode request bodies (HTTP targets)
}

// sampler draws read sources. With zipf it ranks the adds seen so far by
// recency (rank 0 = newest), draws a rank with P(k) ~ (zipfOffset+k)^-1.1
// and returns an endpoint of that edge: vertices are hit in proportion to
// their degree, and a third of the reads land in the last write window,
// one snapshot publication later. The offset flattens the head: without
// it the ten newest edges take a third of all reads, and the read
// percentiles become the degrees of ten vertices, different on each seed.
type sampler struct {
	r       *rng
	zipf    *rand.Zipf
	seen    []graph.Edge // adds so far, preload included
	outDeg  []int32
	numV    uint32
	uniform bool
}

func (s *sampler) edge() graph.Edge {
	n := uint64(len(s.seen))
	z := s.zipf.Uint64()
	for z >= n {
		z = s.zipf.Uint64()
	}
	return s.seen[n-1-z]
}

func (s *sampler) source(in bool) graph.VID {
	if s.uniform {
		return graph.VID(s.r.intn(int(s.numV)))
	}
	e := s.edge()
	if in {
		return e.Dst
	}
	return e.Src
}

// khopRoot redraws until the root's current out-degree is under the cap.
func (s *sampler) khopRoot() graph.VID {
	for try := 0; try < 64; try++ {
		if v := s.source(false); s.outDeg[v] <= khopDegreeCap {
			return v
		}
	}
	for {
		if v := graph.VID(s.r.intn(int(s.numV))); s.outDeg[v] <= khopDegreeCap {
			return v
		}
	}
}

func (s *sampler) reads(n int, mix readMix) []readOp {
	ops := make([]readOp, n)
	for i := range ops {
		p := s.r.intn(100)
		kind := 0
		for acc := mix[0]; p >= acc; acc += mix[kind] {
			kind++
		}
		op := readOp{kind: uint8(kind)}
		switch kind {
		case readOut:
			op.v = s.source(false)
		case readIn:
			op.v = s.source(true)
		default:
			op.v = s.khopRoot()
		}
		ops[i] = op
	}
	return ops
}

// streamSeed folds the workload's name into the seed, so two workloads of
// one RMAT scale do not draw the same graph from the same --seed.
func streamSeed(workload string, seed uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return seed ^ h
}

// generate builds the stream for a seed. The same seed gives the same
// stream; a different seed gives a different graph of the same shape.
func generate(sp streamSpec, seed uint64) *stream {
	r := rng(seed)
	numV := uint32(1) << sp.scale
	st := &stream{numV: numV}

	// Deletes take some of the batch slots, so the pool is an upper bound.
	pool := rmat(sp.scale, sp.preload+sp.batches*sp.batchOps, &r)
	st.preload = pool[:sp.preload]
	next := sp.preload

	smp := &sampler{
		r:       &r,
		zipf:    rand.NewZipf(rand.New(rand.NewSource(int64(r.next()>>1))), 1.1, zipfOffset, uint64(len(pool))),
		outDeg:  make([]int32, numV),
		numV:    numV,
		uniform: sp.uniformReads,
	}
	smp.seen = append(smp.seen, st.preload...)
	for _, e := range st.preload {
		smp.outDeg[e.Src]++
	}
	// live holds edges a later batch may delete; an edge joins it only
	// once its own batch is complete, so no batch deletes its own adds.
	live := append([]graph.Edge(nil), st.preload...)

	for i := 0; i < sp.batches; i++ {
		b := batch{kind: writeBin}
		if sp.typedEvery > 0 && i%sp.typedEvery == sp.typedEvery-1 {
			b.kind = writeTyped
		} else if sp.jsonEvery > 0 && i%sp.jsonEvery == sp.jsonEvery-1 {
			b.kind = writeJSON
		}
		b.edges = make([]graph.Edge, 0, sp.batchOps)
		var added []graph.Edge
		for len(b.edges) < sp.batchOps {
			if len(live) > 0 && r.float() < sp.delFrac {
				j := r.intn(len(live))
				e := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				b.edges = append(b.edges, graph.Del(e.Src, e.Dst))
				smp.outDeg[e.Src]--
				st.liveEdge--
				continue
			}
			e := pool[next]
			next++
			b.edges = append(b.edges, e)
			added = append(added, e)
		}
		if b.kind == writeTyped {
			b.labels = make([]uint16, len(b.edges))
			for j := range b.labels {
				switch p := r.intn(10); p {
				case 0:
					b.labels[j] = 1
				case 1:
					b.labels[j] = 2
				}
			}
			b.props = make([]graph.PropSet, sp.propsPerTyped)
			for j := range b.props {
				b.props[j] = graph.PropSet{
					V:   smp.source(true),
					Key: propKey,
					Val: int64(r.intn(propValRange)),
				}
			}
		}
		live = append(live, added...)
		smp.seen = append(smp.seen, added...)
		for _, e := range added {
			smp.outDeg[e.Src]++
		}
		st.liveEdge += len(added)
		st.userOps += len(b.edges)
		if sp.encode {
			b.body = encodeBody(&b)
		}
		b.reads = smp.reads(sp.readsPerBatch, sp.mix)
		st.batches = append(st.batches, b)
	}
	st.liveEdge += sp.preload
	st.tail = smp.reads(sp.tailReads, sp.mix)

	// Analytics roots: seeded picks among vertices busy enough to sit in
	// the giant component, so a BFS never degenerates to a handful of
	// vertices on one seed and a full traversal on the next.
	for len(st.roots) < analyticsRoots {
		v := graph.VID(r.intn(int(numV)))
		if smp.outDeg[v] >= rootMinDegree {
			st.roots = append(st.roots, v)
		}
	}
	return st
}

// encodeBody renders the request body a client would send for the batch.
func encodeBody(b *batch) []byte {
	switch b.kind {
	case writeTyped:
		return ingest.EncodeTypedBatch(b.edges, b.labels, b.props)
	case writeJSON:
		var buf bytes.Buffer
		buf.Grow(len(b.edges) * 28)
		buf.WriteString(`{"edges":[`)
		for i, e := range b.edges {
			if i > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, `{"src":%d,"dst":%d}`, e.Src, e.Dst)
		}
		buf.WriteString("]}")
		return buf.Bytes()
	default:
		return ingest.EncodeBatch(b.edges, false)
	}
}
