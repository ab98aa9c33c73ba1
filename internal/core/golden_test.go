package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/adj"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/view"
	"repro/internal/xpsim"
)

var printGolden = flag.Bool("golden.print", false, "print the access-sequence table instead of checking it")

// goldenRow is what the simulated machine saw during one step of the golden
// workload: the device counters, the simulated nanoseconds charged, and a
// hash of every non-zero media byte once the step is over.
type goldenRow struct {
	step                    string
	mediaR, mediaW          int64
	hits, misses, evictions int64
	flushes                 int64
	ns                      int64
	media                   uint64
}

// mediaHash hashes the machine's media contents, XPLine by XPLine, less the
// store's quarantine region (whose record format is core's own business).
// Lines that hold only zeroes are skipped: a read materialises the chunk it
// touches.
func mediaHash(m *xpsim.Machine, h *pmem.Heap, name string) uint64 {
	skip := map[[2]int64]bool{}
	if q, ok := h.Get(name + "-quar"); ok {
		for off := int64(0); off < q.Size(); off += xpsim.XPLineSize {
			node, line := q.LineAt(off)
			skip[[2]int64{int64(node), line}] = true
		}
	}
	sum := fnv.New64a()
	var zero [xpsim.XPLineSize]byte
	for _, d := range m.Devices() {
		st := d.ExportState()
		idx := make([]int, 0, len(st.Chunks))
		for i := range st.Chunks {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			chunk := st.Chunks[i]
			for at := 0; at < len(chunk); at += xpsim.XPLineSize {
				line := (int64(i)*int64(len(chunk)) + int64(at)) / xpsim.XPLineSize
				b := chunk[at : at+xpsim.XPLineSize]
				if skip[[2]int64{int64(d.Node()), line}] || bytes.Equal(b, zero[:]) {
					continue
				}
				fmt.Fprintf(sum, "%d/%d:", d.Node(), line)
				sum.Write(b)
			}
		}
	}
	return sum.Sum64()
}

// goldenRun drives the fixed-seed workload over a store built from opts and
// returns one row per step.
func goldenRun(t *testing.T, opts Options) []goldenRow {
	t.Helper()
	opts.Name = "gold"
	opts.NumVertices = 1 << 9
	opts.LogCapacity = 1 << 12
	opts.ArchiveThreshold = 1 << 8
	opts.ArchiveThreads = 4
	opts.NUMA = NUMASubgraph
	opts.PoolBulk = 256 << 10
	m, h := testMachine()
	s, err := New(m, h, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := gen.Evolving(9, 36000, 0.05, 7)

	var rows []goldenRow
	last := xpsim.Stats{}
	step := func(mach *xpsim.Machine, hp *pmem.Heap, name string, ns int64) {
		st := mach.TotalStats()
		d := st.Sub(last)
		last = st
		rows = append(rows, goldenRow{name, d.MediaReadLines, d.MediaWriteLines, d.BufHits, d.BufMisses, d.BufEvictions, d.Flushes, ns, mediaHash(mach, hp, opts.Name)})
	}
	ingest := func(name string, edges []graph.Edge) {
		var ns int64
		for len(edges) > 0 {
			n := min(len(edges), 5000)
			rep, err := s.Ingest(edges[:n])
			if err != nil {
				t.Fatal(err)
			}
			ns += rep.LogNs + rep.BufferNs + rep.FlushNs
			edges = edges[n:]
		}
		if err := s.FlushAllVbufs(); err != nil {
			t.Fatal(err)
		}
		step(m, h, name, ns)
	}
	// scan reads every vertex in both directions through src and folds what
	// it read into sum, so a step that reads the same accesses but different
	// records cannot pass.
	var sum uint64
	scan := func(mach *xpsim.Machine, hp *pmem.Heap, name string, src view.Source, o view.Opts) {
		ctx := xpsim.NewCtx(0)
		for d := view.Out; d <= view.In; d++ {
			for v := graph.VID(0); v < src.NumVertices(); v++ {
				err := src.Visit(ctx, d, v, o, func(nbrs []uint32, _ []uint16) {
					for _, nb := range nbrs {
						sum = sum*1099511628211 + uint64(nb) + 1
					}
				})
				if err != nil {
					t.Fatalf("%s: vertex %d: %v", name, v, err)
				}
			}
		}
		step(mach, hp, name, ctx.Cost.Ns())
	}
	scans := func(mach *xpsim.Machine, hp *pmem.Heap, s *Store, tag string) {
		scan(mach, hp, tag+"newest", s, view.Opts{})
		scan(mach, hp, tag+"newest-checked", s, view.Opts{Checked: true})
		ctx := xpsim.NewCtx(0)
		sn := s.Snapshot(ctx)
		scan(mach, hp, tag+"oldest", sn, view.Opts{})
		scan(mach, hp, tag+"oldest-checked", sn, view.Opts{Checked: true})
		sn.Close()
	}

	ingest("ingest", edges[:30000])
	scans(m, h, s, "scan-")
	ctx := xpsim.NewCtx(0)
	if err := s.CompactAllAdjs(ctx); err != nil {
		t.Fatal(err)
	}
	step(m, h, "compact", ctx.Cost.Ns())
	scans(m, h, s, "compacted-")
	ingest("ingest-more", edges[30000:])
	if opts.MediaGuard {
		// The scrub repair primitive on the hub of partition 0's out-graph.
		hub, best := graph.VID(0), -1
		for v := graph.VID(0); v < s.NumVertices(); v++ {
			if n := s.groups[Out][s.partOf(v)].adj.Records(v); n > best {
				hub, best = v, n
			}
		}
		ctx := xpsim.NewCtx(0)
		recs, err := s.rawStream(ctx, Out, hub, adj.ReadOpts{OldestFirst: true, Checked: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.groups[Out][s.partOf(hub)].adj.ReplaceChain(ctx, hub, recs); err != nil {
			t.Fatal(err)
		}
		step(m, h, "replace", ctx.Cost.Ns())
		scans(m, h, s, "replaced-")
	}
	if !opts.RelaxedDurability {
		ch, err := h.CrashClone()
		if err != nil {
			t.Fatal(err)
		}
		last = xpsim.Stats{}
		rs, rep, err := Recover(ch.Machine(), ch, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		step(ch.Machine(), ch, "recover", rep.SimNs)
		scans(ch.Machine(), ch, rs, "recovered-")
	}
	rows = append(rows, goldenRow{step: "records-read", media: sum})
	return rows
}

var goldenConfigs = []struct {
	name string
	opts Options
}{
	{"fixed", Options{}},
	{"varint", Options{CompressedAdj: true}},
	{"checksummed", Options{MediaGuard: true}},
	{"checksummed-varint", Options{MediaGuard: true, CompressedAdj: true}},
	{"relaxed", Options{RelaxedDurability: true}},
}

// goldenParent is what goldenRun printed at commit e8a6b09, before the shard
// stage cut batches at XPLines and read the log back in spans (`go test
// ./internal/core -run TestGoldenAccessSequence -golden.print -v` prints the
// table in this syntax) — the TestAckSplitIsInvisibleToDevice twin idiom,
// across commits.
var goldenParent = map[string][]goldenRow{
	"fixed": {
		{"ingest", 6823, 8346, 40007, 9239, 6187, 1004, 3386372, 0x5bd5e371eb23561f},
		{"scan-newest", 1539, 0, 4647, 1539, 0, 0, 849729, 0x5bd5e371eb23561f},
		{"scan-newest-checked", 1537, 0, 7407, 1537, 0, 0, 892283, 0x5bd5e371eb23561f},
		{"scan-oldest", 1536, 0, 7408, 1536, 0, 0, 891634, 0x5bd5e371eb23561f},
		{"scan-oldest-checked", 1536, 0, 7408, 1536, 0, 0, 891634, 0x5bd5e371eb23561f},
		{"compact", 2573, 9835, 15398, 3658, 426, 9533, 2881937, 0xaba596a8b841a417},
		{"compacted-newest", 1147, 0, 1655, 1147, 0, 0, 598315, 0xaba596a8b841a417},
		{"compacted-newest-checked", 1148, 0, 2678, 1148, 0, 0, 614958, 0xaba596a8b841a417},
		{"compacted-oldest", 1148, 0, 2678, 1148, 0, 0, 614958, 0xaba596a8b841a417},
		{"compacted-oldest-checked", 1148, 0, 2678, 1148, 0, 0, 614958, 0xaba596a8b841a417},
		{"ingest-more", 1719, 1999, 7142, 2176, 1414, 202, 690640, 0x4561fec74aac047},
		{"recover", 1758, 0, 2035, 1758, 0, 0, 145190, 0x4561fec74aac047},
		{"recovered-newest", 1892, 0, 2684, 1892, 0, 0, 984648, 0x4561fec74aac047},
		{"recovered-newest-checked", 1892, 0, 4538, 1892, 0, 0, 1014036, 0x4561fec74aac047},
		{"recovered-oldest", 1890, 0, 4540, 1890, 0, 0, 1013446, 0x4561fec74aac047},
		{"recovered-oldest-checked", 1890, 0, 4540, 1890, 0, 0, 1013446, 0x4561fec74aac047},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x547b9986255d0288},
	},
	"varint": {
		{"ingest", 6108, 7039, 39075, 7932, 4880, 1004, 3291695, 0x5027dc59caab4053},
		{"scan-newest", 945, 0, 3227, 945, 0, 0, 530195, 0x5027dc59caab4053},
		{"scan-newest-checked", 942, 0, 5073, 942, 0, 0, 557364, 0x5027dc59caab4053},
		{"scan-oldest", 941, 0, 5074, 941, 0, 0, 556715, 0x5027dc59caab4053},
		{"scan-oldest-checked", 941, 0, 5074, 941, 0, 0, 556715, 0x5027dc59caab4053},
		{"compact", 1638, 8296, 12515, 2069, 372, 7959, 2018420, 0xa7a34ff1dfa79314},
		{"compacted-newest", 451, 0, 1760, 451, 0, 0, 249373, 0xa7a34ff1dfa79314},
		{"compacted-newest-checked", 455, 0, 2763, 455, 0, 0, 267565, 0xa7a34ff1dfa79314},
		{"compacted-oldest", 455, 0, 2763, 455, 0, 0, 267565, 0xa7a34ff1dfa79314},
		{"compacted-oldest-checked", 455, 0, 2763, 455, 0, 0, 267565, 0xa7a34ff1dfa79314},
		{"ingest-more", 2267, 2469, 7477, 2646, 1884, 202, 746359, 0xb5bc2bc79c20dbbf},
		{"recover", 1983, 0, 2204, 1983, 0, 0, 160810, 0xb5bc2bc79c20dbbf},
		{"recovered-newest", 1139, 0, 2800, 1139, 0, 0, 602945, 0xb5bc2bc79c20dbbf},
		{"recovered-newest-checked", 1139, 0, 4551, 1139, 0, 0, 630571, 0xb5bc2bc79c20dbbf},
		{"recovered-oldest", 1140, 0, 4550, 1140, 0, 0, 631220, 0xb5bc2bc79c20dbbf},
		{"recovered-oldest-checked", 1140, 0, 4550, 1140, 0, 0, 631220, 0xb5bc2bc79c20dbbf},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x9d934efb22ebe9c},
	},
	"checksummed": {
		{"ingest", 6841, 8826, 40005, 9726, 6530, 1485, 3517853, 0xf53e5c060f7b41c7},
		{"scan-newest", 1539, 0, 4647, 1539, 0, 0, 849729, 0xf53e5c060f7b41c7},
		{"scan-newest-checked", 1539, 0, 4647, 1539, 0, 0, 849729, 0xf53e5c060f7b41c7},
		{"scan-oldest", 1536, 0, 7408, 1536, 0, 0, 891634, 0xf53e5c060f7b41c7},
		{"scan-oldest-checked", 1537, 0, 4649, 1537, 0, 0, 848431, 0xf53e5c060f7b41c7},
		{"compact", 2573, 9835, 15398, 3658, 426, 9533, 2881937, 0x4a8a2b33495cd185},
		{"compacted-newest", 1147, 0, 1655, 1147, 0, 0, 598315, 0x4a8a2b33495cd185},
		{"compacted-newest-checked", 1148, 0, 1654, 1148, 0, 0, 598610, 0x4a8a2b33495cd185},
		{"compacted-oldest", 1148, 0, 2678, 1148, 0, 0, 614958, 0x4a8a2b33495cd185},
		{"compacted-oldest-checked", 1148, 0, 1654, 1148, 0, 0, 598610, 0x4a8a2b33495cd185},
		{"ingest-more", 1724, 2095, 7141, 2274, 1478, 299, 718130, 0x7bea9dea9736a3d7},
		{"replace", 48, 52, 7, 93, 0, 52, 28470, 0xfbd3fa1289b184e1},
		{"replaced-newest", 1846, 0, 2728, 1846, 0, 0, 971058, 0xfbd3fa1289b184e1},
		{"replaced-newest-checked", 1892, 0, 2682, 1892, 0, 0, 984628, 0xfbd3fa1289b184e1},
		{"replaced-oldest", 1890, 0, 4537, 1890, 0, 0, 1013416, 0xfbd3fa1289b184e1},
		{"replaced-oldest-checked", 1889, 0, 2685, 1889, 0, 0, 983743, 0xfbd3fa1289b184e1},
		{"recover", 3692, 0, 2827, 3692, 0, 0, 303565, 0xfbd3fa1289b184e1},
		{"recovered-newest", 1892, 0, 2682, 1892, 0, 0, 984628, 0xfbd3fa1289b184e1},
		{"recovered-newest-checked", 1892, 0, 2682, 1892, 0, 0, 984628, 0xfbd3fa1289b184e1},
		{"recovered-oldest", 1890, 0, 4537, 1890, 0, 0, 1013416, 0xfbd3fa1289b184e1},
		{"recovered-oldest-checked", 1889, 0, 2685, 1889, 0, 0, 983743, 0xfbd3fa1289b184e1},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0xe82acb6e3f01b60c},
	},
	"checksummed-varint": {
		{"ingest", 6126, 7519, 39073, 8419, 5223, 1485, 3423176, 0x3664dd6bfd8ea1cb},
		{"scan-newest", 945, 0, 3227, 945, 0, 0, 530195, 0x3664dd6bfd8ea1cb},
		{"scan-newest-checked", 946, 0, 3226, 946, 0, 0, 530490, 0x3664dd6bfd8ea1cb},
		{"scan-oldest", 941, 0, 5074, 941, 0, 0, 556715, 0x3664dd6bfd8ea1cb},
		{"scan-oldest-checked", 940, 0, 3232, 940, 0, 0, 526950, 0x3664dd6bfd8ea1cb},
		{"compact", 1638, 8296, 12515, 2069, 372, 7959, 2018420, 0x97f143fb6bdc3d5f},
		{"compacted-newest", 451, 0, 1760, 451, 0, 0, 249373, 0x97f143fb6bdc3d5f},
		{"compacted-newest-checked", 455, 0, 1756, 455, 0, 0, 251615, 0x97f143fb6bdc3d5f},
		{"compacted-oldest", 455, 0, 2763, 455, 0, 0, 267565, 0x97f143fb6bdc3d5f},
		{"compacted-oldest-checked", 455, 0, 1756, 455, 0, 0, 251615, 0x97f143fb6bdc3d5f},
		{"ingest-more", 2272, 2565, 7476, 2744, 1948, 299, 773849, 0x543fac650e3f8435},
		{"replace", 16, 21, 19, 30, 0, 21, 10012, 0x1452c6c7bfed0bfb},
		{"replaced-newest", 1124, 0, 2814, 1124, 0, 0, 598510, 0x1452c6c7bfed0bfb},
		{"replaced-newest-checked", 1139, 0, 2799, 1139, 0, 0, 602935, 0x1452c6c7bfed0bfb},
		{"replaced-oldest", 1140, 0, 4548, 1140, 0, 0, 631200, 0x1452c6c7bfed0bfb},
		{"replaced-oldest-checked", 1140, 0, 2798, 1140, 0, 0, 603584, 0x1452c6c7bfed0bfb},
		{"recover", 2419, 0, 3979, 2419, 0, 0, 201045, 0x1452c6c7bfed0bfb},
		{"recovered-newest", 1139, 0, 2799, 1139, 0, 0, 602935, 0x1452c6c7bfed0bfb},
		{"recovered-newest-checked", 1139, 0, 2799, 1139, 0, 0, 602935, 0x1452c6c7bfed0bfb},
		{"recovered-oldest", 1140, 0, 4548, 1140, 0, 0, 631200, 0x1452c6c7bfed0bfb},
		{"recovered-oldest-checked", 1140, 0, 2798, 1140, 0, 0, 603584, 0x1452c6c7bfed0bfb},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x4d08a21f9a7ce638},
	},
	"relaxed": {
		{"ingest", 4780, 6227, 39848, 7121, 5098, 1004, 3035596, 0xd6f1d6380d4211d3},
		{"scan-newest", 1539, 0, 4647, 1539, 0, 0, 849729, 0xd6f1d6380d4211d3},
		{"scan-newest-checked", 1537, 0, 7407, 1537, 0, 0, 892283, 0xd6f1d6380d4211d3},
		{"scan-oldest", 1536, 0, 7408, 1536, 0, 0, 891634, 0xd6f1d6380d4211d3},
		{"scan-oldest-checked", 1536, 0, 7408, 1536, 0, 0, 891634, 0xd6f1d6380d4211d3},
		{"compact", 2030, 2760, 11150, 3046, 1725, 914, 1604818, 0x11835ccb38e88d2a},
		{"compacted-newest", 1148, 0, 1638, 1148, 0, 0, 598402, 0x11835ccb38e88d2a},
		{"compacted-newest-checked", 1150, 0, 2656, 1150, 0, 0, 615546, 0x11835ccb38e88d2a},
		{"compacted-oldest", 1150, 0, 2656, 1150, 0, 0, 615546, 0x11835ccb38e88d2a},
		{"compacted-oldest-checked", 1150, 0, 2656, 1150, 0, 0, 615546, 0x11835ccb38e88d2a},
		{"ingest-more", 1220, 1496, 6890, 1672, 1168, 202, 653343, 0x6315188e35056819},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0xfeba9b980290324},
	},
}

// moved is how far a step sits from the parent's row, counter by counter.
type moved struct{ mediaR, mediaW, hits, misses, evictions, ns int64 }

// goldenMoved lists every step that differs from goldenParent: the two
// ingest steps, whose buffering phases read the log back. Flushes and every
// media byte are the parent's in every step, and every other step is the
// parent's to the nanosecond.
//
// The shard stage reads each piece of the log as one access per XPLine
// where the parent read one per 8-byte record, so XPBuffer accesses fall by
// the records read less the lines read: 29 036 of the 30 000 records ingest
// reads (964 line accesses), 5 807 of the 6 000 of ingest-more. All but a
// line's first record were hits, so hits fall by about as much. The
// XPBuffer's reuse window counts accesses: with fewer of them between two
// touches of another line, more of those touches hit, so misses fall too —
// media reads, and write misses — and so do the dirty lines evicted before
// their next touch and the media writes those evictions were. The simulated
// nanoseconds fall with the hits and misses and with the sharders' full
// width (ingest-more by the same 68 673 ns in every store).
var goldenMoved = map[string]map[string]moved{
	"fixed":              {"ingest": {-136, -52, -28886, -150, -52, -259004}, "ingest-more": {-35, -6, -5772, -35, -6, -68673}},
	"varint":             {"ingest": {-142, -54, -28884, -152, -54, -260135}, "ingest-more": {-35, -6, -5772, -35, -6, -68673}},
	"checksummed":        {"ingest": {-89, -51, -28933, -103, -51, -251924}, "ingest-more": {-36, -6, -5771, -36, -6, -68673}},
	"checksummed-varint": {"ingest": {-95, -53, -28931, -105, -53, -253055}, "ingest-more": {-36, -6, -5771, -36, -6, -68673}},
	"relaxed":            {"ingest": {-162, -78, -28860, -176, -78, -259004}, "ingest-more": {-41, -12, -5766, -41, -12, -68673}},
}

// TestGoldenAccessSequence pins what the simulated machine sees of the
// store, step by step, against the table captured at the parent commit:
// every counter, the simulated nanoseconds and every media byte must be the
// parent's, moved only as goldenMoved says — and what it moves, it moves
// down.
func TestGoldenAccessSequence(t *testing.T) {
	for name, steps := range goldenMoved {
		for step, mv := range steps {
			if mv.mediaR > 0 || mv.mediaW > 0 || mv.hits > 0 || mv.misses > 0 || mv.evictions > 0 || mv.ns > 0 {
				t.Errorf("%s: %s: goldenMoved %+v raises a counter", name, step, mv)
			}
		}
	}
	for _, c := range goldenConfigs {
		rows := goldenRun(t, c.opts)
		if *printGolden {
			fmt.Printf("\t%q: {\n", c.name)
			for _, r := range rows {
				fmt.Printf("\t\t{%q, %d, %d, %d, %d, %d, %d, %d, %#x},\n", r.step, r.mediaR, r.mediaW, r.hits, r.misses, r.evictions, r.flushes, r.ns, r.media)
			}
			fmt.Printf("\t},\n")
			continue
		}
		want := goldenParent[c.name]
		if len(rows) != len(want) {
			t.Fatalf("%s: %d steps, the table has %d", c.name, len(rows), len(want))
		}
		for i, got := range rows {
			w, mv := want[i], goldenMoved[c.name][want[i].step]
			w.mediaR += mv.mediaR
			w.mediaW += mv.mediaW
			w.hits += mv.hits
			w.misses += mv.misses
			w.evictions += mv.evictions
			w.ns += mv.ns
			if got != w {
				t.Errorf("%s: %s:\n got  %+v\n want %+v (the parent's, moved by %+v)", c.name, w.step, got, w, mv)
			}
		}
	}
}
