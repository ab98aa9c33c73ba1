package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

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
		// The hub's raw stream in insertion order (its vertex buffer is
		// empty after the flush): the chain's block runs, oldest first.
		a := s.groups[Out][s.partOf(hub)].adj
		var runs [][]uint32
		if _, err := a.Read(ctx, hub, nil, func(run []uint32) { runs = append(runs, slices.Clone(run)) }, true); err != nil {
			t.Fatal(err)
		}
		var recs []uint32
		for i := len(runs) - 1; i >= 0; i-- {
			recs = append(recs, runs[i]...)
		}
		if _, err := a.ReplaceChain(ctx, hub, recs); err != nil {
			t.Fatal(err)
		}
		step(m, h, "replace", ctx.Cost.Ns())
		scans(m, h, s, "replaced-")
	}
	if !opts.relaxedDurability {
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
	{"relaxed", Options{relaxedDurability: true}},
}

// goldenParent is what goldenRun printed at commit 90bd908, the last one
// whose chain walks read each block's header and its records in separate
// device reads (`go test ./internal/core -run TestGoldenAccessSequence
// -golden.print -v` prints the table in this syntax) — the
// TestAckSplitIsInvisibleToDevice twin idiom, across commits.
var goldenParent = map[string][]goldenRow{
	"fixed": {
		{"ingest", 4372, 6072, 12874, 6867, 3913, 1004, 2922380, 0x3a4b875fe0e65f12},
		{"scan-newest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x3a4b875fe0e65f12},
		{"scan-newest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0x3a4b875fe0e65f12},
		{"scan-oldest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x3a4b875fe0e65f12},
		{"scan-oldest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0x3a4b875fe0e65f12},
		{"compact", 2066, 9281, 15132, 3094, 0, 9533, 2877255, 0xebe2b9bd02c33b83},
		{"compacted-newest", 1146, 0, 1656, 1146, 0, 0, 597666, 0xebe2b9bd02c33b83},
		{"compacted-newest-checked", 1147, 0, 2679, 1147, 0, 0, 614309, 0xebe2b9bd02c33b83},
		{"compacted-oldest", 1147, 0, 1655, 1147, 0, 0, 597961, 0xebe2b9bd02c33b83},
		{"compacted-oldest-checked", 1147, 0, 2679, 1147, 0, 0, 614309, 0xebe2b9bd02c33b83},
		{"ingest-more", 1048, 1388, 1239, 1535, 931, 202, 605811, 0x9f54db82a3888f84},
		{"recover", 1759, 0, 2036, 1759, 0, 0, 145200, 0x9f54db82a3888f84},
		{"recovered-newest", 1891, 0, 2685, 1891, 0, 0, 983999, 0x9f54db82a3888f84},
		{"recovered-newest-checked", 1891, 0, 4539, 1891, 0, 0, 1013387, 0x9f54db82a3888f84},
		{"recovered-oldest", 1891, 0, 2685, 1891, 0, 0, 983999, 0x9f54db82a3888f84},
		{"recovered-oldest-checked", 1891, 0, 4539, 1891, 0, 0, 1013387, 0x9f54db82a3888f84},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x547b9986255d0288},
	},
	"varint": {
		{"ingest", 4172, 5316, 12598, 6111, 3157, 1004, 2875005, 0xc1add1073d6cfa09},
		{"scan-newest", 947, 0, 3224, 947, 0, 0, 531471, 0xc1add1073d6cfa09},
		{"scan-newest-checked", 949, 0, 5065, 949, 0, 0, 561885, 0xc1add1073d6cfa09},
		{"scan-oldest", 949, 0, 3222, 949, 0, 0, 532415, 0xc1add1073d6cfa09},
		{"scan-oldest-checked", 949, 0, 5065, 949, 0, 0, 561885, 0xc1add1073d6cfa09},
		{"compact", 1194, 7796, 12245, 1566, 0, 7959, 2019807, 0x3b2d9e40b55f13da},
		{"compacted-newest", 450, 0, 1761, 450, 0, 0, 248724, 0x3b2d9e40b55f13da},
		{"compacted-newest-checked", 454, 0, 2764, 454, 0, 0, 266916, 0x3b2d9e40b55f13da},
		{"compacted-oldest", 454, 0, 1757, 454, 0, 0, 250966, 0x3b2d9e40b55f13da},
		{"compacted-oldest-checked", 454, 0, 2764, 454, 0, 0, 266916, 0x3b2d9e40b55f13da},
		{"ingest-more", 1358, 1590, 1918, 1737, 1133, 202, 645718, 0xda6493014ad93575},
		{"recover", 1985, 0, 2205, 1985, 0, 0, 161430, 0xda6493014ad93575},
		{"recovered-newest", 1138, 0, 2803, 1138, 0, 0, 602340, 0xda6493014ad93575},
		{"recovered-newest-checked", 1138, 0, 4554, 1138, 0, 0, 629966, 0xda6493014ad93575},
		{"recovered-oldest", 1138, 0, 2803, 1138, 0, 0, 602340, 0xda6493014ad93575},
		{"recovered-oldest-checked", 1138, 0, 4554, 1138, 0, 0, 629966, 0xda6493014ad93575},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x9d934efb22ebe9c},
	},
	"checksummed": {
		{"ingest", 4436, 6552, 12826, 7400, 4256, 1485, 3060941, 0x82f30163955b966f},
		{"scan-newest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x82f30163955b966f},
		{"scan-newest-checked", 1542, 0, 4643, 1542, 0, 0, 851654, 0x82f30163955b966f},
		{"scan-oldest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x82f30163955b966f},
		{"scan-oldest-checked", 1542, 0, 4643, 1542, 0, 0, 851654, 0x82f30163955b966f},
		{"compact", 2066, 9281, 15132, 3094, 0, 9533, 2877255, 0x1c6f67fb3d7fd00a},
		{"compacted-newest", 1146, 0, 1656, 1146, 0, 0, 597666, 0x1c6f67fb3d7fd00a},
		{"compacted-newest-checked", 1147, 0, 1655, 1147, 0, 0, 597961, 0x1c6f67fb3d7fd00a},
		{"compacted-oldest", 1147, 0, 1655, 1147, 0, 0, 597961, 0x1c6f67fb3d7fd00a},
		{"compacted-oldest-checked", 1147, 0, 1655, 1147, 0, 0, 597961, 0x1c6f67fb3d7fd00a},
		{"ingest-more", 1052, 1484, 1239, 1632, 995, 299, 633301, 0xabb72ea48a4ba9cb},
		{"replace", 48, 52, 6, 94, 0, 52, 28598, 0x3a03760f820b3d2e},
		{"replaced-newest", 1845, 0, 2729, 1845, 0, 0, 970409, 0x3a03760f820b3d2e},
		{"replaced-newest-checked", 1891, 0, 2683, 1891, 0, 0, 983979, 0x3a03760f820b3d2e},
		{"replaced-oldest", 1891, 0, 2683, 1891, 0, 0, 983979, 0x3a03760f820b3d2e},
		{"replaced-oldest-checked", 1891, 0, 2683, 1891, 0, 0, 983979, 0x3a03760f820b3d2e},
		{"recover", 3693, 0, 2828, 3693, 0, 0, 303270, 0x3a03760f820b3d2e},
		{"recovered-newest", 1891, 0, 2683, 1891, 0, 0, 983979, 0x3a03760f820b3d2e},
		{"recovered-newest-checked", 1891, 0, 2683, 1891, 0, 0, 983979, 0x3a03760f820b3d2e},
		{"recovered-oldest", 1891, 0, 2683, 1891, 0, 0, 983979, 0x3a03760f820b3d2e},
		{"recovered-oldest-checked", 1891, 0, 2683, 1891, 0, 0, 983979, 0x3a03760f820b3d2e},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0xe82acb6e3f01b60c},
	},
	"checksummed-varint": {
		{"ingest", 4236, 5796, 12550, 6644, 3500, 1485, 3013566, 0x4b030369cd82dbd},
		{"scan-newest", 947, 0, 3224, 947, 0, 0, 531471, 0x4b030369cd82dbd},
		{"scan-newest-checked", 949, 0, 3222, 949, 0, 0, 532415, 0x4b030369cd82dbd},
		{"scan-oldest", 949, 0, 3222, 949, 0, 0, 532415, 0x4b030369cd82dbd},
		{"scan-oldest-checked", 949, 0, 3222, 949, 0, 0, 532415, 0x4b030369cd82dbd},
		{"compact", 1194, 7796, 12245, 1566, 0, 7959, 2019807, 0xaa77187efba39fcf},
		{"compacted-newest", 450, 0, 1761, 450, 0, 0, 248724, 0xaa77187efba39fcf},
		{"compacted-newest-checked", 454, 0, 1757, 454, 0, 0, 250966, 0xaa77187efba39fcf},
		{"compacted-oldest", 454, 0, 1757, 454, 0, 0, 250966, 0xaa77187efba39fcf},
		{"compacted-oldest-checked", 454, 0, 1757, 454, 0, 0, 250966, 0xaa77187efba39fcf},
		{"ingest-more", 1362, 1686, 1918, 1834, 1197, 299, 673208, 0x38311b3d7a3650d6},
		{"replace", 16, 21, 19, 30, 0, 21, 10012, 0xc5b4a1171738428a},
		{"replaced-newest", 1123, 0, 2817, 1123, 0, 0, 597905, 0xc5b4a1171738428a},
		{"replaced-newest-checked", 1138, 0, 2802, 1138, 0, 0, 602330, 0xc5b4a1171738428a},
		{"replaced-oldest", 1138, 0, 2802, 1138, 0, 0, 602330, 0xc5b4a1171738428a},
		{"replaced-oldest-checked", 1138, 0, 2802, 1138, 0, 0, 602330, 0xc5b4a1171738428a},
		{"recover", 2420, 0, 3983, 2420, 0, 0, 201055, 0xc5b4a1171738428a},
		{"recovered-newest", 1138, 0, 2802, 1138, 0, 0, 602330, 0xc5b4a1171738428a},
		{"recovered-newest-checked", 1138, 0, 2802, 1138, 0, 0, 602330, 0xc5b4a1171738428a},
		{"recovered-oldest", 1138, 0, 2802, 1138, 0, 0, 602330, 0xc5b4a1171738428a},
		{"recovered-oldest-checked", 1138, 0, 2802, 1138, 0, 0, 602330, 0xc5b4a1171738428a},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x4d08a21f9a7ce638},
	},
	"relaxed": {
		{"ingest", 4249, 6061, 11074, 6857, 4932, 1004, 2766628, 0x3056e30fb992c7d1},
		{"scan-newest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x3056e30fb992c7d1},
		{"scan-newest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0x3056e30fb992c7d1},
		{"scan-oldest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x3056e30fb992c7d1},
		{"scan-oldest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0x3056e30fb992c7d1},
		{"compact", 2023, 2758, 11157, 3038, 1724, 913, 1602242, 0xe0cc9b97dd502273},
		{"compacted-newest", 1147, 0, 1639, 1147, 0, 0, 597753, 0xe0cc9b97dd502273},
		{"compacted-newest-checked", 1149, 0, 2657, 1149, 0, 0, 614897, 0xe0cc9b97dd502273},
		{"compacted-oldest", 1149, 0, 1637, 1149, 0, 0, 598697, 0xe0cc9b97dd502273},
		{"compacted-oldest-checked", 1149, 0, 2657, 1149, 0, 0, 614897, 0xe0cc9b97dd502273},
		{"ingest-more", 1044, 1385, 1222, 1532, 1057, 202, 570740, 0x2ba4a8c817de9186},
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
// A block's header read now fetches the rest of its XPLine in the same
// device read, and the walk takes the records in that line from the copy;
// the recovery scan parses consecutive headers in one line from one fetch.
// The varint decoder's chunks end at XPLine boundaries, where they started
// 32 bytes past the header and straddled two lines each. No write moves,
// and no media byte. So:
//   - in the fixed, checksummed and relaxed stores only hits fall, and each
//     removed hit is a line the window served: in a scan, compaction's
//     reads or a repair, one per block visit whose records start in the
//     header's line (2448 visits in a scan of the ingested fixed store, 903
//     once compacted, 1635 once recovered); in the recover step, one per
//     header line a header shared with the one before it (2022 in fixed).
//     The parent read such a line twice in a row, so the second read was a
//     hit and no media read moves. Counted with a probe in the reader;
//   - in the varint stores the window serves 1627 lines of a scan, and the
//     line-cut chunks remove the rest: a chunk no longer reads the start of
//     the line past its records' last one (media reads and misses fall
//     together: 22 in a scan, 102 once recovered, 116 in the recover step's
//     tail decodes and 138 with its CRC checks) or reads one line in two
//     pieces (hits);
//   - the simulated nanoseconds follow the counters.
var goldenMoved = map[string]map[string]moved{
	"fixed": {
		"scan-newest":              {0, 0, -2448, 0, 0, 0, -38916, 0},
		"scan-newest-checked":      {0, 0, -2448, 0, 0, 0, -38916, 0},
		"scan-oldest":              {0, 0, -2448, 0, 0, 0, -38916, 0},
		"scan-oldest-checked":      {0, 0, -2448, 0, 0, 0, -38916, 0},
		"compact":                  {0, 0, -2448, 0, 0, 0, -38916, 0},
		"compacted-newest":         {0, 0, -903, 0, 0, 0, -14334, 0},
		"compacted-newest-checked": {0, 0, -903, 0, 0, 0, -14334, 0},
		"compacted-oldest":         {0, 0, -903, 0, 0, 0, -14334, 0},
		"compacted-oldest-checked": {0, 0, -903, 0, 0, 0, -14334, 0},
		"recover":                  {0, 0, -2022, 0, 0, 0, -4840, 0},
		"recovered-newest":         {0, 0, -1635, 0, 0, 0, -25878, 0},
		"recovered-newest-checked": {0, 0, -1635, 0, 0, 0, -25878, 0},
		"recovered-oldest":         {0, 0, -1635, 0, 0, 0, -25878, 0},
		"recovered-oldest-checked": {0, 0, -1635, 0, 0, 0, -25878, 0},
	},
	"varint": {
		"scan-newest":              {-22, 0, -1809, -22, 0, 0, -42368, 0},
		"scan-newest-checked":      {-22, 0, -1809, -22, 0, 0, -42368, 0},
		"scan-oldest":              {-22, 0, -1809, -22, 0, 0, -42368, 0},
		"scan-oldest-checked":      {-22, 0, -1809, -22, 0, 0, -42368, 0},
		"compact":                  {-51, 0, -1779, -52, 0, 0, -56977, 0},
		"compacted-newest":         {0, 0, -953, 0, 0, 0, -15110, 0},
		"compacted-newest-checked": {0, 0, -953, 0, 0, 0, -15110, 0},
		"compacted-oldest":         {0, 0, -953, 0, 0, 0, -15110, 0},
		"compacted-oldest-checked": {0, 0, -953, 0, 0, 0, -15110, 0},
		"recover":                  {-116, 0, -1846, -116, 0, 0, -12950, 0},
		"recovered-newest":         {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"recovered-newest-checked": {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"recovered-oldest":         {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"recovered-oldest-checked": {-102, 0, -1721, -102, 0, 0, -78482, 0},
	},
	"checksummed": {
		"scan-newest":              {0, 0, -2448, 0, 0, 0, -38916, 0},
		"scan-newest-checked":      {0, 0, -2448, 0, 0, 0, -38916, 0},
		"scan-oldest":              {0, 0, -2448, 0, 0, 0, -38916, 0},
		"scan-oldest-checked":      {0, 0, -2448, 0, 0, 0, -38916, 0},
		"compact":                  {0, 0, -2448, 0, 0, 0, -38916, 0},
		"compacted-newest":         {0, 0, -903, 0, 0, 0, -14334, 0},
		"compacted-newest-checked": {0, 0, -903, 0, 0, 0, -14334, 0},
		"compacted-oldest":         {0, 0, -903, 0, 0, 0, -14334, 0},
		"compacted-oldest-checked": {0, 0, -903, 0, 0, 0, -14334, 0},
		"replace":                  {0, 0, -2, 0, 0, 0, -20, 0},
		"replaced-newest":          {0, 0, -1634, 0, 0, 0, -25868, 0},
		"replaced-newest-checked":  {0, 0, -1634, 0, 0, 0, -25868, 0},
		"replaced-oldest":          {0, 0, -1634, 0, 0, 0, -25868, 0},
		"replaced-oldest-checked":  {0, 0, -1634, 0, 0, 0, -25868, 0},
		"recover":                  {0, 0, -2023, 0, 0, 0, -4840, 0},
		"recovered-newest":         {0, 0, -1634, 0, 0, 0, -25868, 0},
		"recovered-newest-checked": {0, 0, -1634, 0, 0, 0, -25868, 0},
		"recovered-oldest":         {0, 0, -1634, 0, 0, 0, -25868, 0},
		"recovered-oldest-checked": {0, 0, -1634, 0, 0, 0, -25868, 0},
	},
	"checksummed-varint": {
		"scan-newest":              {-22, 0, -1809, -22, 0, 0, -42368, 0},
		"scan-newest-checked":      {-22, 0, -1809, -22, 0, 0, -42368, 0},
		"scan-oldest":              {-22, 0, -1809, -22, 0, 0, -42368, 0},
		"scan-oldest-checked":      {-22, 0, -1809, -22, 0, 0, -42368, 0},
		"compact":                  {-51, 0, -1779, -52, 0, 0, -56977, 0},
		"compacted-newest":         {0, 0, -953, 0, 0, 0, -15110, 0},
		"compacted-newest-checked": {0, 0, -953, 0, 0, 0, -15110, 0},
		"compacted-oldest":         {0, 0, -953, 0, 0, 0, -15110, 0},
		"compacted-oldest-checked": {0, 0, -953, 0, 0, 0, -15110, 0},
		"replace":                  {0, 0, -13, 0, 0, 0, -130, 0},
		"replaced-newest":          {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"replaced-newest-checked":  {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"replaced-oldest":          {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"replaced-oldest-checked":  {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"recover":                  {-138, 0, -2093, -138, 0, 0, -16515, 0},
		"recovered-newest":         {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"recovered-newest-checked": {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"recovered-oldest":         {-102, 0, -1721, -102, 0, 0, -78482, 0},
		"recovered-oldest-checked": {-102, 0, -1721, -102, 0, 0, -78482, 0},
	},
	"relaxed": {
		"scan-newest":              {0, 0, -2448, 0, 0, 0, -38916, 0},
		"scan-newest-checked":      {0, 0, -2448, 0, 0, 0, -38916, 0},
		"scan-oldest":              {0, 0, -2448, 0, 0, 0, -38916, 0},
		"scan-oldest-checked":      {0, 0, -2448, 0, 0, 0, -38916, 0},
		"compact":                  {0, 0, -2448, 0, 0, 0, -38916, 0},
		"compacted-newest":         {0, 0, -904, 0, 0, 0, -14344, 0},
		"compacted-newest-checked": {0, 0, -904, 0, 0, 0, -14344, 0},
		"compacted-oldest":         {0, 0, -904, 0, 0, 0, -14344, 0},
		"compacted-oldest-checked": {0, 0, -904, 0, 0, 0, -14344, 0},
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
