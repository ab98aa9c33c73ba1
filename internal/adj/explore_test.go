package adj

import (
	"flag"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/elog"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// The small-scope explorer of the block commit protocol: every sequence of
// up to depth operations on a two-vertex arena, killed at every media write
// of its last operation under word tears, recovered, replayed and held to
// difftest's prefix mode — then run one flush cycle further and crashed
// again. The crash sweeps of internal/crashtest kill one workload's run at
// every point; this kills every short history, which is where the header
// bugs on record (DESIGN.md §7 "Bugs the harnesses caught") lived.

var exploreDepth = flag.Int("explore.depth", 0, "operations per explored sequence (0: 5, 3 under -short)")

// xop is one explorer operation.
type xop struct {
	name   string
	kind   xopKind
	v      graph.VID
	n      int  // records an append logs
	varint bool // the append's new blocks are delta-varint
	fill   bool // the append is a flush drain's: FillTail, then Append what is left
}

type xopKind uint8

const (
	xAppend  xopKind = iota // log n records of v, then append them to its chain (or fill its tail first)
	xFlush                  // a flush cycle: Ack, writeback barrier, commit
	xCompact                // a flush cycle, then compact v
	xDelete                 // log a tombstone for each of v's live records, then xCompact: v's chain dies and its blocks go to the free lists
)

// xops is the alphabet. Blocks hold 4 fixed records or 16 bytes of varint
// ones, so a vertex's chain grows with its second append, a varint block
// holds four times more records than its capacity word says, and every dead
// block has the size a later append asks for: it is recycled. The arena's
// first block ends its XPLine, so a tail fill into it writes its count in
// one line and its records in the next; the second straddles a line.
var xops = []xop{
	{name: "a3", v: 0, n: 3},
	{name: "f3", v: 0, n: 3, fill: true},
	{name: "b3", v: 1, n: 3},
	{name: "av", v: 0, n: 20, varint: true},
	{name: "bv", v: 1, n: 20, varint: true},
	{name: "F", kind: xFlush},
	{name: "Ca", kind: xCompact, v: 0},
	{name: "Da", kind: xDelete, v: 0},
	{name: "Db", kind: xDelete, v: 1},
}

const (
	xLogCap     = 2048
	xArenaBytes = 64 << 10
)

var xOpts = Options{CrashSafe: true, Sizing: func(int, int) int { return 4 }}

// xrun is one run of a sequence on a fresh single-socket machine with fault
// tracking: the arena, a real edge log beside it, and the stream the log
// holds.
type xrun struct {
	m         *xpsim.Machine
	heap      *pmem.Heap
	log       *elog.Log
	s         *Store
	ctx       *xpsim.Ctx
	edges     []graph.Edge
	logged    [2]uint32 // records logged per vertex: the value generator
	hdr, base int64     // where the log sits in its region
	cover     xcover
	seedTaken bool // the free block the arena starts with was allocated
}

// xcover records which of the states the alphabet is sized to reach a run
// reached.
type xcover struct{ grew, straddled, recycled, filledAcross bool }

func newXRun(t *testing.T) *xrun {
	m := xpsim.NewMachine(1, 128<<10, xpsim.DefaultLatency())
	m.TrackFaults()
	heap := pmem.NewHeap(m)
	arena, err := heap.Map("arena", xArenaBytes, pmem.Placement{Kind: pmem.Bind})
	if err != nil {
		t.Fatal(err)
	}
	logMem, err := heap.Map("elog", elog.HeaderBytes+xLogCap*graph.EdgeBytes+2*xpsim.XPLineSize, pmem.Placement{Kind: pmem.Bind})
	if err != nil {
		t.Fatal(err)
	}
	ctx := xpsim.NewCtx(0)
	log, err := elog.CreateWith(ctx, logMem, xLogCap, elog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := &xrun{m: m, heap: heap, log: log, s: New(arena, &m.Lat, 1, xOpts), ctx: ctx,
		hdr: log.HeaderOffset(), base: log.BaseOffset()}
	// Dead blocks lay the arena out so that the first block allocated — a
	// recycled block of the alphabet's size, the free lists' only one — has
	// its header end an XPLine, and the first block bumped after it has its
	// header straddle the next.
	recycled := int64(4*4 + headerBytes)
	for _, size := range []int64{xpsim.XPLineSize - headerBytes - arena.UserStart(), recycled,
		2*xpsim.XPLineSize - headerBytes/2 - (xpsim.XPLineSize - headerBytes + recycled)} {
		off, err := arena.Alloc(ctx, size, headerAlign)
		if err != nil {
			t.Fatal(err)
		}
		x.s.writeDead(ctx, off, uint32(size-headerBytes)/4, fmtFixed)
		if size == recycled {
			x.s.recycle(off, 4)
		}
	}
	m.TotalStats() // the empty store is durable: kills count from here
	return x
}

// value is the next record of v: small values, so varint deltas take one
// byte, and a per-vertex pattern.
func (x *xrun) value(v graph.VID) uint32 {
	k := x.logged[v]
	x.logged[v]++
	return 2 + (k*3+uint32(v))%7
}

// logAndAppend logs recs as edges of v, marks them buffered and appends
// them to v's chain: the buffering phase and a drain in one. With fill the
// drain is a flush-all's: it fills v's tail first, then opens new blocks
// for the rest.
func (x *xrun) logAndAppend(v graph.VID, recs []uint32, fill bool) error {
	edges := make([]graph.Edge, len(recs))
	for i, r := range recs {
		edges[i] = graph.Edge{Src: v, Dst: r}
	}
	if _, err := x.log.Append(x.ctx, edges); err != nil {
		return err
	}
	x.edges = append(x.edges, edges...)
	x.log.MarkBuffered(x.ctx, x.log.Head())
	if fill && x.s.Has(v) {
		t := x.s.vx[v]
		used := 4 * t.cnt
		if t.format == fmtVarint {
			used = t.bytes
		}
		n, err := x.s.FillTail(x.ctx, v, recs)
		if err != nil {
			return err
		}
		slot := t.tail + slotOff(int(x.s.vx[v].stamp&stampSel))
		x.cover.filledAcross = x.cover.filledAcross ||
			n > 0 && slot/xpsim.XPLineSize != (t.tail+headerBytes+int64(used))/xpsim.XPLineSize
		recs = recs[n:]
	}
	return x.s.Append(x.ctx, v, recs)
}

func (x *xrun) do(op xop) error {
	switch op.kind {
	case xAppend:
		recs := make([]uint32, op.n)
		for i := range recs {
			recs[i] = x.value(op.v)
		}
		x.s.opts.VarintBlocks = op.varint
		free := len(x.s.freeBlocks[4])
		err := x.logAndAppend(op.v, recs, op.fill)
		if len(x.s.freeBlocks[4]) < free {
			// The first block taken off the free lists is the arena's own.
			x.cover.recycled = x.cover.recycled || x.seedTaken
			x.seedTaken = true
		}
		return err
	case xFlush:
		return x.flush()
	case xDelete:
		live := x.s.Neighbors(x.ctx, op.v, nil)
		for i := range live {
			live[i] |= graph.DelFlag
		}
		if err := x.logAndAppend(op.v, live, false); err != nil {
			return err
		}
	}
	if err := x.flush(); err != nil {
		return err
	}
	return x.s.Compact(x.ctx, op.v)
}

// applicable prunes sequences that repeat a state: a flush cycle right
// after one (compaction and deletion end in one), on an empty store, and a
// compaction or deletion of a vertex without live records.
func (x *xrun) applicable(prev *xop, op xop) bool {
	switch op.kind {
	case xFlush:
		return prev != nil && prev.kind == xAppend
	case xCompact, xDelete:
		return len(x.s.Neighbors(x.ctx, op.v, nil)) > 0
	}
	return true
}

// observe notes the coverage of the arena as it stands.
func (x *xrun) observe() {
	for v := graph.VID(0); v < x.s.NumVertices(); v++ {
		blocks := 0
		x.s.walk(x.ctx, v, walkOpts{}, func(_ *reader, off int64, _ header) error {
			blocks++
			x.cover.straddled = x.cover.straddled || off%xpsim.XPLineSize > xpsim.XPLineSize-headerBytes
			return nil
		})
		x.cover.grew = x.cover.grew || blocks > 1
	}
}

// flush is a flushing phase's commit: Ack, a machine-wide writeback
// barrier, then the edge log's single-word commit.
func (x *xrun) flush() error {
	x.s.Ack(x.ctx, x.log.Epoch()+1, 0, 1)
	for _, d := range x.m.Devices() {
		d.WritebackAll(x.ctx)
	}
	return x.log.Commit(x.ctx, x.log.Buffered())
}

// crash recovers the durable image of x's machine the way core.Recover
// does — attach the log, scan the arena trusting what the log committed,
// replay [flushed, head) — and holds the arena to the stream's prefix
// before and after the replay. It returns the recovered run.
func (x *xrun) crash() (*xrun, error) {
	clone, err := x.heap.CrashClone()
	if err != nil {
		return nil, err
	}
	arena, _ := clone.Get("arena")
	logMem, _ := clone.Get("elog")
	ctx := xpsim.NewCtx(0)
	log, err := elog.AttachWith(ctx, logMem, x.hdr, x.base, elog.Config{})
	if err != nil {
		return nil, fmt.Errorf("attach log: %w", err)
	}
	s, err := RecoverWith(ctx, arena, &clone.Machine().Lat, xOpts, log.Epoch(), nil)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	model := difftest.Of(x.edges)
	if err := (difftest.Compare{}).Prefix(model, int(log.Flushed()), newXSource(ctx, s)); err != nil {
		return nil, fmt.Errorf("before the replay: %w", err)
	}
	r := &xrun{m: clone.Machine(), heap: clone, log: log, s: s, ctx: ctx, edges: x.edges[:log.Head()], hdr: x.hdr, base: x.base}
	log.RewindBuffered()
	window := log.Read(ctx, log.Flushed(), log.Head(), nil)
	for i := 0; i < len(window); {
		j := i
		var recs []uint32
		for ; j < len(window) && window[j].Src == window[i].Src; j++ {
			recs = append(recs, window[j].Dst)
		}
		if err := s.Append(ctx, window[i].Src, recs); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		i = j
	}
	log.MarkBuffered(ctx, log.Head())
	if err := (difftest.Compare{}).Prefix(model, int(log.Head()), newXSource(ctx, s)); err != nil {
		return nil, fmt.Errorf("after the replay: %w", err)
	}
	return r, nil
}

// runSeq replays seq on a fresh machine, armed with plan (nil: none) for
// its last operation, and reports the media writes of that operation.
func runSeq(t *testing.T, seq []xop, plan *xpsim.FaultPlan) (*xrun, int64, error) {
	x := newXRun(t)
	for i, op := range seq {
		if i == len(seq)-1 {
			p := xpsim.FaultPlan{}
			if plan != nil {
				p = *plan
			}
			x.m.Faults().Arm(p) // kill indexes count from the last operation
		}
		if err := x.do(op); err != nil {
			return x, 0, fmt.Errorf("%s: %w", op.name, err)
		}
	}
	return x, x.m.Faults().MediaWrites(), nil
}

// TestExploreCommitProtocol explores every sequence of the alphabet up to
// the depth. Each sequence's last operation is a difftest.Sweep: a kill at
// each of its media writes, under word tears, recovered and replayed (held
// to the prefix before and after the replay), then one flush cycle — the
// replay's first commit — and a second crash at its end, recovered again.
// States are deduplicated by a hash of the media and the vertex index: a
// state reached twice is extended once.
func TestExploreCommitProtocol(t *testing.T) {
	depth := *exploreDepth
	if depth == 0 {
		depth = difftest.Short(5, 3)
	}
	seen := map[uint64]bool{}
	var cover xcover
	sequences, kills := 0, 0
	var explore func(seq []xop)
	explore = func(seq []xop) {
		x, writes, err := runSeq(t, seq, nil)
		if err != nil {
			t.Fatalf("%s: %v", seqName(seq), err)
		}
		x.observe()
		cover.grew, cover.straddled, cover.recycled = cover.grew || x.cover.grew, cover.straddled || x.cover.straddled, cover.recycled || x.cover.recycled
		cover.filledAcross = cover.filledAcross || x.cover.filledAcross
		sequences++
		if writes > 0 {
			difftest.Sweep{Name: seqName(seq), Writes: writes}.Run(t, func(c difftest.Case) error {
				kills++
				return killAndRecover(t, seq, c.Plan)
			})
		}
		key := x.stateHash()
		if len(seq) == depth || seen[key] {
			return
		}
		seen[key] = true
		for _, op := range xops {
			var prev *xop
			if len(seq) > 0 {
				prev = &seq[len(seq)-1]
			}
			if x.applicable(prev, op) {
				explore(append(seq[:len(seq):len(seq)], op))
			}
		}
	}
	explore(nil)
	t.Logf("depth %d: %d sequences, %d states, %d kills", depth, sequences, len(seen), kills)
	if !cover.grew || !cover.straddled || !cover.recycled || !cover.filledAcross {
		t.Errorf("depth %d reaches chains that grow %v, headers that straddle an XPLine %v, recycled blocks %v, tail fills whose count and records lie in two lines %v; want all four",
			depth, cover.grew, cover.straddled, cover.recycled, cover.filledAcross)
	}
}

// killAndRecover kills seq's last operation per plan, recovers, runs the
// replay's first flush cycle and crashes again at its end.
func killAndRecover(t *testing.T, seq []xop, plan xpsim.FaultPlan) error {
	x, _, err := runSeq(t, seq, &plan)
	if err != nil {
		return err
	}
	r, err := x.crash()
	if err != nil {
		return fmt.Errorf("first crash: %w", err)
	}
	r.m.Faults().Arm(xpsim.FaultPlan{})
	if err := r.flush(); err != nil {
		return fmt.Errorf("the replay's flush cycle: %w", err)
	}
	if _, err := r.crash(); err != nil {
		return fmt.Errorf("second crash, after the replay's commit: %w", err)
	}
	return nil
}

// stateHash hashes the media of both regions and the arena's vertex index.
func (x *xrun) stateHash() uint64 {
	h := fnv.New64a()
	for _, name := range []string{"arena", "elog"} {
		r, _ := x.heap.Get(name)
		buf := make([]byte, r.AllocBytes())
		r.Read(x.ctx, 0, buf)
		h.Write(buf)
	}
	fmt.Fprint(h, x.s.vx)
	return h.Sum64()
}

func seqName(seq []xop) string {
	names := make([]string, len(seq))
	for i, op := range seq {
		names[i] = op.name
	}
	return strings.Join(names, "-")
}

// xsource is one arena as a view.Source: its chains, read once through the
// checked walk with tombstones resolved, are the out-edges, and the in-edges
// are their inversion.
type xsource struct {
	out  [][]uint32
	errs []error
}

func newXSource(ctx *xpsim.Ctx, s *Store) xsource {
	var x xsource
	for v := graph.VID(0); v < s.NumVertices(); v++ {
		var res Resolver
		recs, err := s.Read(ctx, v, nil, res.Run, true)
		x.out = append(x.out, res.Live(recs, 0))
		x.errs = append(x.errs, err)
	}
	return x
}

func (x xsource) NumVertices() graph.VID                       { return graph.VID(len(x.out)) }
func (x xsource) Node(view.Dir, graph.VID) int                 { return xpsim.NodeUnbound }
func (x xsource) Labels() []string                             { return []string{""} }
func (x xsource) VProp(graph.VID, uint16) (int64, bool, error) { return 0, false, nil }

func (x xsource) Degree(view.Dir, graph.VID) (int, error) {
	return 0, fmt.Errorf("the explorer compares no degrees")
}

func (x xsource) Visit(_ *xpsim.Ctx, d view.Dir, v graph.VID, _ view.Opts, fn func([]uint32, []uint16)) error {
	if d == view.Out {
		if int(v) < len(x.out) {
			fn(x.out[v], nil)
			return x.errs[v]
		}
		return nil
	}
	var srcs []uint32
	for u, recs := range x.out {
		if x.errs[u] != nil {
			return x.errs[u]
		}
		for _, r := range recs {
			if r == v {
				srcs = append(srcs, uint32(u))
			}
		}
	}
	fn(srcs, nil)
	return nil
}
