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

// goldenParent is what goldenRun printed at commit fae1e7b, the last one
// whose flush drain filled tails and opened blocks in one sweep in ID order
// (`go test ./internal/core -run TestGoldenAccessSequence -golden.print -v`
// prints the table in this syntax) — the TestAckSplitIsInvisibleToDevice
// twin idiom, across commits.
var goldenParent = map[string][]goldenRow{
	"fixed": {
		{"ingest", 5195, 6731, 12243, 7526, 4572, 1004, 2989085, 0x3a4b875fe0e65f12},
		{"scan-newest", 1539, 0, 4646, 1539, 0, 0, 850061, 0x3a4b875fe0e65f12},
		{"scan-newest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0x3a4b875fe0e65f12},
		{"scan-oldest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x3a4b875fe0e65f12},
		{"scan-oldest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0x3a4b875fe0e65f12},
		{"compact", 2066, 9281, 15132, 3094, 0, 9533, 2877255, 0xebe2b9bd02c33b83},
		{"compacted-newest", 1146, 0, 1656, 1146, 0, 0, 597666, 0xebe2b9bd02c33b83},
		{"compacted-newest-checked", 1147, 0, 2679, 1147, 0, 0, 614309, 0xebe2b9bd02c33b83},
		{"compacted-oldest", 1147, 0, 1655, 1147, 0, 0, 597961, 0xebe2b9bd02c33b83},
		{"compacted-oldest-checked", 1147, 0, 2679, 1147, 0, 0, 614309, 0xebe2b9bd02c33b83},
		{"ingest-more", 1211, 1519, 1113, 1666, 1062, 202, 622308, 0x9f54db82a3888f84},
		{"recover", 1759, 0, 2036, 1759, 0, 0, 145200, 0x9f54db82a3888f84},
		{"recovered-newest", 1891, 0, 2685, 1891, 0, 0, 983999, 0x9f54db82a3888f84},
		{"recovered-newest-checked", 1891, 0, 4539, 1891, 0, 0, 1013387, 0x9f54db82a3888f84},
		{"recovered-oldest", 1891, 0, 2685, 1891, 0, 0, 983999, 0x9f54db82a3888f84},
		{"recovered-oldest-checked", 1891, 0, 4539, 1891, 0, 0, 1013387, 0x9f54db82a3888f84},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x547b9986255d0288},
	},
	"varint": {
		{"ingest", 5057, 6064, 11874, 6859, 3905, 1004, 2951962, 0xc1add1073d6cfa09},
		{"scan-newest", 946, 0, 3225, 946, 0, 0, 531176, 0xc1add1073d6cfa09},
		{"scan-newest-checked", 949, 0, 5065, 949, 0, 0, 561885, 0xc1add1073d6cfa09},
		{"scan-oldest", 949, 0, 3222, 949, 0, 0, 532415, 0xc1add1073d6cfa09},
		{"scan-oldest-checked", 949, 0, 5065, 949, 0, 0, 561885, 0xc1add1073d6cfa09},
		{"compact", 1194, 7796, 12245, 1566, 0, 7959, 2019807, 0x3b2d9e40b55f13da},
		{"compacted-newest", 450, 0, 1761, 450, 0, 0, 248724, 0x3b2d9e40b55f13da},
		{"compacted-newest-checked", 454, 0, 2764, 454, 0, 0, 266916, 0x3b2d9e40b55f13da},
		{"compacted-oldest", 454, 0, 1757, 454, 0, 0, 250966, 0x3b2d9e40b55f13da},
		{"compacted-oldest-checked", 454, 0, 2764, 454, 0, 0, 266916, 0x3b2d9e40b55f13da},
		{"ingest-more", 1570, 1785, 1726, 1932, 1328, 202, 660923, 0xda6493014ad93575},
		{"recover", 1985, 0, 2205, 1985, 0, 0, 161430, 0xda6493014ad93575},
		{"recovered-newest", 1138, 0, 2803, 1138, 0, 0, 602340, 0xda6493014ad93575},
		{"recovered-newest-checked", 1138, 0, 4554, 1138, 0, 0, 629966, 0xda6493014ad93575},
		{"recovered-oldest", 1138, 0, 2803, 1138, 0, 0, 602340, 0xda6493014ad93575},
		{"recovered-oldest-checked", 1138, 0, 4554, 1138, 0, 0, 629966, 0xda6493014ad93575},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x9d934efb22ebe9c},
	},
	"checksummed": {
		{"ingest", 5260, 7212, 12194, 8060, 4916, 1485, 3127646, 0x82f30163955b966f},
		{"scan-newest", 1539, 0, 4646, 1539, 0, 0, 850061, 0x82f30163955b966f},
		{"scan-newest-checked", 1542, 0, 4643, 1542, 0, 0, 851654, 0x82f30163955b966f},
		{"scan-oldest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x82f30163955b966f},
		{"scan-oldest-checked", 1542, 0, 4643, 1542, 0, 0, 851654, 0x82f30163955b966f},
		{"compact", 2066, 9281, 15132, 3094, 0, 9533, 2877255, 0x1c6f67fb3d7fd00a},
		{"compacted-newest", 1146, 0, 1656, 1146, 0, 0, 597666, 0x1c6f67fb3d7fd00a},
		{"compacted-newest-checked", 1147, 0, 1655, 1147, 0, 0, 597961, 0x1c6f67fb3d7fd00a},
		{"compacted-oldest", 1147, 0, 1655, 1147, 0, 0, 597961, 0x1c6f67fb3d7fd00a},
		{"compacted-oldest-checked", 1147, 0, 1655, 1147, 0, 0, 597961, 0x1c6f67fb3d7fd00a},
		{"ingest-more", 1215, 1615, 1113, 1763, 1126, 299, 649798, 0xabb72ea48a4ba9cb},
		{"replace", 47, 52, 7, 93, 0, 52, 28303, 0x3a03760f820b3d2e},
		{"replaced-newest", 1842, 0, 2732, 1842, 0, 0, 968462, 0x3a03760f820b3d2e},
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
		{"ingest", 5121, 6544, 11826, 7392, 4248, 1485, 3090523, 0x4b030369cd82dbd},
		{"scan-newest", 946, 0, 3225, 946, 0, 0, 531176, 0x4b030369cd82dbd},
		{"scan-newest-checked", 949, 0, 3222, 949, 0, 0, 532415, 0x4b030369cd82dbd},
		{"scan-oldest", 949, 0, 3222, 949, 0, 0, 532415, 0x4b030369cd82dbd},
		{"scan-oldest-checked", 949, 0, 3222, 949, 0, 0, 532415, 0x4b030369cd82dbd},
		{"compact", 1194, 7796, 12245, 1566, 0, 7959, 2019807, 0xaa77187efba39fcf},
		{"compacted-newest", 450, 0, 1761, 450, 0, 0, 248724, 0xaa77187efba39fcf},
		{"compacted-newest-checked", 454, 0, 1757, 454, 0, 0, 250966, 0xaa77187efba39fcf},
		{"compacted-oldest", 454, 0, 1757, 454, 0, 0, 250966, 0xaa77187efba39fcf},
		{"compacted-oldest-checked", 454, 0, 1757, 454, 0, 0, 250966, 0xaa77187efba39fcf},
		{"ingest-more", 1574, 1881, 1726, 2029, 1392, 299, 688413, 0x38311b3d7a3650d6},
		{"replace", 15, 21, 20, 29, 0, 21, 9717, 0xc5b4a1171738428a},
		{"replaced-newest", 1115, 0, 2825, 1115, 0, 0, 593067, 0xc5b4a1171738428a},
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
		{"ingest", 4617, 6152, 10983, 6948, 5023, 1004, 2775690, 0x3056e30fb992c7d1},
		{"scan-newest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x3056e30fb992c7d1},
		{"scan-newest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0x3056e30fb992c7d1},
		{"scan-oldest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x3056e30fb992c7d1},
		{"scan-oldest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0x3056e30fb992c7d1},
		{"compact", 2023, 2758, 11157, 3038, 1724, 913, 1602242, 0xe0cc9b97dd502273},
		{"compacted-newest", 1147, 0, 1639, 1147, 0, 0, 597753, 0xe0cc9b97dd502273},
		{"compacted-newest-checked", 1149, 0, 2657, 1149, 0, 0, 614897, 0xe0cc9b97dd502273},
		{"compacted-oldest", 1149, 0, 1637, 1149, 0, 0, 598697, 0xe0cc9b97dd502273},
		{"compacted-oldest-checked", 1149, 0, 2657, 1149, 0, 0, 614897, 0xe0cc9b97dd502273},
		{"ingest-more", 1178, 1484, 1123, 1631, 1156, 202, 584670, 0x2ba4a8c817de9186},
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
// A flush's drain now fills the tails earlier flushes left with room in
// offset order, each count written just before its records, and then opens
// new blocks in ID order; the parent filled tails and opened blocks in one
// sweep in ID order. The blocks, their sizes and every byte are the same —
// no media hash moves. So:
//   - in the ingest steps, each tail line the parent wrote again after the
//     XPBuffer had evicted it is now written once: one miss fewer, and one
//     eviction and media write fewer, each (fixed ingest: 659); a
//     partial-line miss was also a media read, the read-modify-write (823
//     fewer), and the re-write is now a hit (+631). Hits and misses fall
//     together by a few dozen accesses: a tail fill writes the stamp only
//     when the media lacks it, where Ack wrote it with every count. The
//     relaxed store has no Ack and no stamp: its hits and misses trade one
//     for one;
//   - a scan or repair right after a flush starts from the XPBuffer that
//     flush left, whose last lines are written in another order: 1 to 8
//     lines more to read;
//   - the simulated nanoseconds follow the counters.
//
// No media byte moves, and no records-read row.
var goldenMoved = map[string]map[string]moved{
	"fixed": {
		"ingest":      {-823, -659, 631, -659, -659, 0, -66705, 0},
		"scan-newest": {3, 0, -3, 3, 0, 0, 1593, 0},
		"ingest-more": {-163, -131, 126, -131, -131, 0, -16497, 0},
	},
	"varint": {
		"ingest":      {-885, -748, 724, -748, -748, 0, -76957, 0},
		"scan-newest": {1, 0, -1, 1, 0, 0, 295, 0},
		"ingest-more": {-212, -195, 192, -195, -195, 0, -15205, 0},
	},
	"checksummed": {
		"ingest":          {-824, -660, 632, -660, -660, 0, -66705, 0},
		"scan-newest":     {3, 0, -3, 3, 0, 0, 1593, 0},
		"ingest-more":     {-163, -131, 126, -131, -131, 0, -16497, 0},
		"replace":         {1, 0, -1, 1, 0, 0, 295, 0},
		"replaced-newest": {3, 0, -3, 3, 0, 0, 1947, 0},
	},
	"checksummed-varint": {
		"ingest":          {-885, -748, 724, -748, -748, 0, -76957, 0},
		"scan-newest":     {1, 0, -1, 1, 0, 0, 295, 0},
		"ingest-more":     {-212, -195, 192, -195, -195, 0, -15205, 0},
		"replace":         {1, 0, -1, 1, 0, 0, 295, 0},
		"replaced-newest": {8, 0, -8, 8, 0, 0, 4838, 0},
	},
	"relaxed": {
		"ingest":      {-368, -91, 91, -91, -91, 0, -9062, 0},
		"ingest-more": {-134, -99, 99, -99, -99, 0, -13930, 0},
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
