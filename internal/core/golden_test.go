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

// goldenParent is what goldenRun printed at commit eb81c4c, before
// XPGraph's ranged lists were hashed (`go test ./internal/core -run
// TestGoldenAccessSequence -golden.print -v` prints the table in this
// syntax) — the TestAckSplitIsInvisibleToDevice twin idiom, across commits.
var goldenParent = map[string][]goldenRow{
	"fixed": {
		{"ingest", 6687, 8294, 11121, 9089, 6135, 1004, 3127368, 0x5bd5e371eb23561f},
		{"scan-newest", 1539, 0, 4647, 1539, 0, 0, 849729, 0x5bd5e371eb23561f},
		{"scan-newest-checked", 1537, 0, 7407, 1537, 0, 0, 892283, 0x5bd5e371eb23561f},
		{"scan-oldest", 1536, 0, 7408, 1536, 0, 0, 891634, 0x5bd5e371eb23561f},
		{"scan-oldest-checked", 1536, 0, 7408, 1536, 0, 0, 891634, 0x5bd5e371eb23561f},
		{"compact", 2573, 9835, 15398, 3658, 426, 9533, 2881937, 0xaba596a8b841a417},
		{"compacted-newest", 1147, 0, 1655, 1147, 0, 0, 598315, 0xaba596a8b841a417},
		{"compacted-newest-checked", 1148, 0, 2678, 1148, 0, 0, 614958, 0xaba596a8b841a417},
		{"compacted-oldest", 1148, 0, 2678, 1148, 0, 0, 614958, 0xaba596a8b841a417},
		{"compacted-oldest-checked", 1148, 0, 2678, 1148, 0, 0, 614958, 0xaba596a8b841a417},
		{"ingest-more", 1684, 1993, 1370, 2141, 1408, 202, 621967, 0x4561fec74aac047},
		{"recover", 1758, 0, 2035, 1758, 0, 0, 145190, 0x4561fec74aac047},
		{"recovered-newest", 1892, 0, 2684, 1892, 0, 0, 984648, 0x4561fec74aac047},
		{"recovered-newest-checked", 1892, 0, 4538, 1892, 0, 0, 1014036, 0x4561fec74aac047},
		{"recovered-oldest", 1890, 0, 4540, 1890, 0, 0, 1013446, 0x4561fec74aac047},
		{"recovered-oldest-checked", 1890, 0, 4540, 1890, 0, 0, 1013446, 0x4561fec74aac047},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x547b9986255d0288},
	},
	"varint": {
		{"ingest", 5966, 6985, 10191, 7780, 4826, 1004, 3031560, 0x5027dc59caab4053},
		{"scan-newest", 945, 0, 3227, 945, 0, 0, 530195, 0x5027dc59caab4053},
		{"scan-newest-checked", 942, 0, 5073, 942, 0, 0, 557364, 0x5027dc59caab4053},
		{"scan-oldest", 941, 0, 5074, 941, 0, 0, 556715, 0x5027dc59caab4053},
		{"scan-oldest-checked", 941, 0, 5074, 941, 0, 0, 556715, 0x5027dc59caab4053},
		{"compact", 1638, 8296, 12515, 2069, 372, 7959, 2018420, 0xa7a34ff1dfa79314},
		{"compacted-newest", 451, 0, 1760, 451, 0, 0, 249373, 0xa7a34ff1dfa79314},
		{"compacted-newest-checked", 455, 0, 2763, 455, 0, 0, 267565, 0xa7a34ff1dfa79314},
		{"compacted-oldest", 455, 0, 2763, 455, 0, 0, 267565, 0xa7a34ff1dfa79314},
		{"compacted-oldest-checked", 455, 0, 2763, 455, 0, 0, 267565, 0xa7a34ff1dfa79314},
		{"ingest-more", 2232, 2463, 1705, 2611, 1878, 202, 677686, 0xb5bc2bc79c20dbbf},
		{"recover", 1983, 0, 2204, 1983, 0, 0, 160810, 0xb5bc2bc79c20dbbf},
		{"recovered-newest", 1139, 0, 2800, 1139, 0, 0, 602945, 0xb5bc2bc79c20dbbf},
		{"recovered-newest-checked", 1139, 0, 4551, 1139, 0, 0, 630571, 0xb5bc2bc79c20dbbf},
		{"recovered-oldest", 1140, 0, 4550, 1140, 0, 0, 631220, 0xb5bc2bc79c20dbbf},
		{"recovered-oldest-checked", 1140, 0, 4550, 1140, 0, 0, 631220, 0xb5bc2bc79c20dbbf},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x9d934efb22ebe9c},
	},
	"checksummed": {
		{"ingest", 6752, 8775, 11072, 9623, 6479, 1485, 3265929, 0xf53e5c060f7b41c7},
		{"scan-newest", 1539, 0, 4647, 1539, 0, 0, 849729, 0xf53e5c060f7b41c7},
		{"scan-newest-checked", 1539, 0, 4647, 1539, 0, 0, 849729, 0xf53e5c060f7b41c7},
		{"scan-oldest", 1536, 0, 7408, 1536, 0, 0, 891634, 0xf53e5c060f7b41c7},
		{"scan-oldest-checked", 1537, 0, 4649, 1537, 0, 0, 848431, 0xf53e5c060f7b41c7},
		{"compact", 2573, 9835, 15398, 3658, 426, 9533, 2881937, 0x4a8a2b33495cd185},
		{"compacted-newest", 1147, 0, 1655, 1147, 0, 0, 598315, 0x4a8a2b33495cd185},
		{"compacted-newest-checked", 1148, 0, 1654, 1148, 0, 0, 598610, 0x4a8a2b33495cd185},
		{"compacted-oldest", 1148, 0, 2678, 1148, 0, 0, 614958, 0x4a8a2b33495cd185},
		{"compacted-oldest-checked", 1148, 0, 1654, 1148, 0, 0, 598610, 0x4a8a2b33495cd185},
		{"ingest-more", 1688, 2089, 1370, 2238, 1472, 299, 649457, 0x7bea9dea9736a3d7},
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
		{"ingest", 6031, 7466, 10142, 8314, 5170, 1485, 3170121, 0x3664dd6bfd8ea1cb},
		{"scan-newest", 945, 0, 3227, 945, 0, 0, 530195, 0x3664dd6bfd8ea1cb},
		{"scan-newest-checked", 946, 0, 3226, 946, 0, 0, 530490, 0x3664dd6bfd8ea1cb},
		{"scan-oldest", 941, 0, 5074, 941, 0, 0, 556715, 0x3664dd6bfd8ea1cb},
		{"scan-oldest-checked", 940, 0, 3232, 940, 0, 0, 526950, 0x3664dd6bfd8ea1cb},
		{"compact", 1638, 8296, 12515, 2069, 372, 7959, 2018420, 0x97f143fb6bdc3d5f},
		{"compacted-newest", 451, 0, 1760, 451, 0, 0, 249373, 0x97f143fb6bdc3d5f},
		{"compacted-newest-checked", 455, 0, 1756, 455, 0, 0, 251615, 0x97f143fb6bdc3d5f},
		{"compacted-oldest", 455, 0, 2763, 455, 0, 0, 267565, 0x97f143fb6bdc3d5f},
		{"compacted-oldest-checked", 455, 0, 1756, 455, 0, 0, 251615, 0x97f143fb6bdc3d5f},
		{"ingest-more", 2236, 2559, 1705, 2708, 1942, 299, 705176, 0x543fac650e3f8435},
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
		{"ingest", 4618, 6149, 10988, 6945, 5020, 1004, 2776592, 0xd6f1d6380d4211d3},
		{"scan-newest", 1539, 0, 4647, 1539, 0, 0, 849729, 0xd6f1d6380d4211d3},
		{"scan-newest-checked", 1537, 0, 7407, 1537, 0, 0, 892283, 0xd6f1d6380d4211d3},
		{"scan-oldest", 1536, 0, 7408, 1536, 0, 0, 891634, 0xd6f1d6380d4211d3},
		{"scan-oldest-checked", 1536, 0, 7408, 1536, 0, 0, 891634, 0xd6f1d6380d4211d3},
		{"compact", 2030, 2760, 11150, 3046, 1725, 914, 1604818, 0x11835ccb38e88d2a},
		{"compacted-newest", 1148, 0, 1638, 1148, 0, 0, 598402, 0x11835ccb38e88d2a},
		{"compacted-newest-checked", 1150, 0, 2656, 1150, 0, 0, 615546, 0x11835ccb38e88d2a},
		{"compacted-oldest", 1150, 0, 2656, 1150, 0, 0, 615546, 0x11835ccb38e88d2a},
		{"compacted-oldest-checked", 1150, 0, 2656, 1150, 0, 0, 615546, 0x11835ccb38e88d2a},
		{"ingest-more", 1179, 1484, 1124, 1631, 1156, 202, 584670, 0x6315188e35056819},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0xfeba9b980290324},
	},
}

// moved is how far a step sits from the parent's row, counter by counter,
// and the media hash the step now ends with (0: the parent's).
type moved struct {
	mediaR, mediaW, hits, misses, evictions, flushes, ns int64
	media                                                uint64
}

// goldenMoved lists every step that differs from goldenParent: all of them
// but records-read, which no step may move — every scan returns the parent's
// records, in the parent's order.
//
// A vertex's entries now go to the list its hash picks instead of the one its
// ID range picks. The golden store runs one drain worker per group (4 archive
// threads, 2 directions × 2 partitions), so each worker still drains all of
// its partition's entries, but Balance hands it the lists longest first, and
// they now hold other vertices: vertices meet the pool in another order. The
// blocks are the parent's — the same records in the same sizes — at other
// arena offsets: where an L4 buffer overflows its append lands at another
// address, and so does every later allocation. So the media hash moves in
// every step, and a chain's blocks straddle one line more or less here and
// there, which moves hits and misses with the media reads:
//   - ingest reads 1–6 lines fewer and writes 1–4 fewer (relaxed: 3 more),
//     its time within ±0.03 %;
//   - the scans read 1–7 lines more or fewer, recovery 1–2 more;
//   - compaction reads 1–7 fewer, and relaxed compaction drains one flush and
//     two media writes fewer;
//   - ingest-more's time is the parent's to the nanosecond in every store.
var goldenMoved = map[string]map[string]moved{
	"fixed": {
		"ingest":                   {-6, -4, 1, -4, -4, 0, -714, 0xe6f35d95553d92d5},
		"scan-newest":              {3, 0, -4, 3, 0, 0, 1925, 0xe6f35d95553d92d5},
		"scan-newest-checked":      {-2, 0, 2, -2, 0, 0, -1310, 0xe6f35d95553d92d5},
		"scan-oldest":              {2, 0, -2, 2, 0, 0, 1286, 0xe6f35d95553d92d5},
		"scan-oldest-checked":      {2, 0, -2, 2, 0, 0, 1286, 0xe6f35d95553d92d5},
		"compact":                  {-7, 0, 8, -8, 0, 0, -3384, 0x9e2bda6ea2f14566},
		"compacted-newest":         {-1, 0, 1, -1, 0, 0, -649, 0x9e2bda6ea2f14566},
		"compacted-newest-checked": {-1, 0, 1, -1, 0, 0, -649, 0x9e2bda6ea2f14566},
		"compacted-oldest":         {-1, 0, 1, -1, 0, 0, -649, 0x9e2bda6ea2f14566},
		"compacted-oldest-checked": {-1, 0, 1, -1, 0, 0, -649, 0x9e2bda6ea2f14566},
		"ingest-more":              {-1, 0, -1, 0, 0, 0, 0, 0xae211b5913fd7b12},
		"recover":                  {1, 0, 0, 1, 0, 0, 0, 0xae211b5913fd7b12},
		"recovered-newest":         {-1, 0, 1, -1, 0, 0, -649, 0xae211b5913fd7b12},
		"recovered-newest-checked": {-1, 0, 1, -1, 0, 0, -649, 0xae211b5913fd7b12},
		"recovered-oldest":         {-1, 0, 1, -1, 0, 0, -649, 0xae211b5913fd7b12},
		"recovered-oldest-checked": {-1, 0, 1, -1, 0, 0, -649, 0xae211b5913fd7b12},
	},
	"varint": {
		"ingest":                   {-1, -1, -1, -1, -1, 0, 929, 0xa330bfbbf2336996},
		"scan-newest":              {3, 0, -4, 3, 0, 0, 1925, 0xa330bfbbf2336996},
		"scan-newest-checked":      {7, 0, -8, 7, 0, 0, 4521, 0xa330bfbbf2336996},
		"scan-oldest":              {7, 0, -8, 7, 0, 0, 4521, 0xa330bfbbf2336996},
		"scan-oldest-checked":      {7, 0, -8, 7, 0, 0, 4521, 0xa330bfbbf2336996},
		"compact":                  {-1, 0, 2, -3, 0, 0, 238, 0x4c448f258009eea3},
		"compacted-newest":         {-1, 0, 1, -1, 0, 0, -649, 0x4c448f258009eea3},
		"compacted-newest-checked": {-1, 0, 1, -1, 0, 0, -649, 0x4c448f258009eea3},
		"compacted-oldest":         {-1, 0, 1, -1, 0, 0, -649, 0x4c448f258009eea3},
		"compacted-oldest-checked": {-1, 0, 1, -1, 0, 0, -649, 0x4c448f258009eea3},
		"ingest-more":              {-1, -2, 3, -2, -2, 0, 0, 0x3fe6e41cc5cb32d8},
		"recover":                  {2, 0, 0, 2, 0, 0, 610, 0x3fe6e41cc5cb32d8},
		"recovered-newest":         {-1, 0, 3, -1, 0, 0, -605, 0x3fe6e41cc5cb32d8},
		"recovered-newest-checked": {-1, 0, 3, -1, 0, 0, -605, 0x3fe6e41cc5cb32d8},
		"recovered-oldest":         {-1, 0, 3, -1, 0, 0, -605, 0x3fe6e41cc5cb32d8},
		"recovered-oldest-checked": {-1, 0, 3, -1, 0, 0, -605, 0x3fe6e41cc5cb32d8},
	},
	"checksummed": {
		"ingest":                   {-6, -4, 1, -4, -4, 0, -714, 0x2f9e8ed341e46040},
		"scan-newest":              {3, 0, -4, 3, 0, 0, 1925, 0x2f9e8ed341e46040},
		"scan-newest-checked":      {3, 0, -4, 3, 0, 0, 1925, 0x2f9e8ed341e46040},
		"scan-oldest":              {2, 0, -2, 2, 0, 0, 1286, 0x2f9e8ed341e46040},
		"scan-oldest-checked":      {3, 0, -4, 3, 0, 0, 1925, 0x2f9e8ed341e46040},
		"compact":                  {-7, 0, 8, -8, 0, 0, -3384, 0xb6bbdda08b3f9b6f},
		"compacted-newest":         {-1, 0, 1, -1, 0, 0, -649, 0xb6bbdda08b3f9b6f},
		"compacted-newest-checked": {-1, 0, 1, -1, 0, 0, -649, 0xb6bbdda08b3f9b6f},
		"compacted-oldest":         {-1, 0, 1, -1, 0, 0, -649, 0xb6bbdda08b3f9b6f},
		"compacted-oldest-checked": {-1, 0, 1, -1, 0, 0, -649, 0xb6bbdda08b3f9b6f},
		"ingest-more":              {-1, 0, -1, 0, 0, 0, 0, 0x98d3f80d7b6447ce},
		"replace":                  {0, 0, 0, 0, 0, 0, 0, 0x4a064af65656ac30},
		"replaced-newest":          {0, 0, 0, 0, 0, 0, -354, 0x4a064af65656ac30},
		"replaced-newest-checked":  {-1, 0, 1, -1, 0, 0, -649, 0x4a064af65656ac30},
		"replaced-oldest":          {-1, 0, 1, -1, 0, 0, -649, 0x4a064af65656ac30},
		"replaced-oldest-checked":  {-1, 0, 1, -1, 0, 0, -649, 0x4a064af65656ac30},
		"recover":                  {1, 0, 0, 1, 0, 0, -305, 0x4a064af65656ac30},
		"recovered-newest":         {-1, 0, 1, -1, 0, 0, -649, 0x4a064af65656ac30},
		"recovered-newest-checked": {-1, 0, 1, -1, 0, 0, -649, 0x4a064af65656ac30},
		"recovered-oldest":         {-1, 0, 1, -1, 0, 0, -649, 0x4a064af65656ac30},
		"recovered-oldest-checked": {-1, 0, 1, -1, 0, 0, -649, 0x4a064af65656ac30},
	},
	"checksummed-varint": {
		"ingest":                   {-2, -2, 0, -2, -2, 0, 929, 0xfd4f876b1ec080b0},
		"scan-newest":              {3, 0, -4, 3, 0, 0, 1925, 0xfd4f876b1ec080b0},
		"scan-newest-checked":      {3, 0, -4, 3, 0, 0, 1925, 0xfd4f876b1ec080b0},
		"scan-oldest":              {7, 0, -8, 7, 0, 0, 4521, 0xfd4f876b1ec080b0},
		"scan-oldest-checked":      {6, 0, -7, 6, 0, 0, 3872, 0xfd4f876b1ec080b0},
		"compact":                  {-1, 0, 2, -3, 0, 0, 238, 0xf4a5d2c05b02ac6},
		"compacted-newest":         {-1, 0, 1, -1, 0, 0, -649, 0xf4a5d2c05b02ac6},
		"compacted-newest-checked": {-1, 0, 1, -1, 0, 0, -649, 0xf4a5d2c05b02ac6},
		"compacted-oldest":         {-1, 0, 1, -1, 0, 0, -649, 0xf4a5d2c05b02ac6},
		"compacted-oldest-checked": {-1, 0, 1, -1, 0, 0, -649, 0xf4a5d2c05b02ac6},
		"ingest-more":              {-1, -2, 3, -2, -2, 0, 0, 0xd80d520d32ac2500},
		"replace":                  {0, 0, 0, 0, 0, 0, 0, 0x822c1f1697664afe},
		"replaced-newest":          {-1, 0, 3, -1, 0, 0, -605, 0x822c1f1697664afe},
		"replaced-newest-checked":  {-1, 0, 3, -1, 0, 0, -605, 0x822c1f1697664afe},
		"replaced-oldest":          {-1, 0, 3, -1, 0, 0, -605, 0x822c1f1697664afe},
		"replaced-oldest-checked":  {0, 0, 2, 0, 0, 0, 44, 0x822c1f1697664afe},
		"recover":                  {1, 0, 3, 1, 0, 0, 0, 0x822c1f1697664afe},
		"recovered-newest":         {-1, 0, 3, -1, 0, 0, -605, 0x822c1f1697664afe},
		"recovered-newest-checked": {-1, 0, 3, -1, 0, 0, -605, 0x822c1f1697664afe},
		"recovered-oldest":         {-1, 0, 3, -1, 0, 0, -605, 0x822c1f1697664afe},
		"recovered-oldest-checked": {0, 0, 2, 0, 0, 0, 44, 0x822c1f1697664afe},
	},
	"relaxed": {
		"ingest":                   {-1, 3, -5, 3, 3, 0, -902, 0x3056e30fb992c7d1},
		"scan-newest":              {3, 0, -4, 3, 0, 0, 1925, 0x3056e30fb992c7d1},
		"scan-newest-checked":      {-2, 0, 2, -2, 0, 0, -1310, 0x3056e30fb992c7d1},
		"scan-oldest":              {2, 0, -2, 2, 0, 0, 1286, 0x3056e30fb992c7d1},
		"scan-oldest-checked":      {2, 0, -2, 2, 0, 0, 1286, 0x3056e30fb992c7d1},
		"compact":                  {-7, -2, 7, -8, -1, -1, -2576, 0xe0cc9b97dd502273},
		"compacted-newest":         {-1, 0, 1, -1, 0, 0, -649, 0xe0cc9b97dd502273},
		"compacted-newest-checked": {-1, 0, 1, -1, 0, 0, -649, 0xe0cc9b97dd502273},
		"compacted-oldest":         {-1, 0, 1, -1, 0, 0, -649, 0xe0cc9b97dd502273},
		"compacted-oldest-checked": {-1, 0, 1, -1, 0, 0, -649, 0xe0cc9b97dd502273},
		"ingest-more":              {-1, 0, -1, 0, 0, 0, 0, 0x2ba4a8c817de9186},
	},
}

// TestGoldenAccessSequence pins what the simulated machine sees of the
// store, step by step, against the table captured at the parent commit:
// every counter, the simulated nanoseconds and every media byte must be the
// parent's, moved only as goldenMoved says.
func TestGoldenAccessSequence(t *testing.T) {
	for name, steps := range goldenMoved {
		if _, ok := steps["records-read"]; ok {
			t.Errorf("%s: goldenMoved moves the records the scans read", name)
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
			w.flushes += mv.flushes
			w.ns += mv.ns
			if mv.media != 0 {
				w.media = mv.media
			}
			if got != w {
				t.Errorf("%s: %s:\n got  %+v\n want %+v (the parent's, moved by %+v)", c.name, w.step, got, w, mv)
			}
		}
	}
}
