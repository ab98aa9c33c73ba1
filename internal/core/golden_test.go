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

// goldenParent is what goldenRun printed at commit f1b1f9f, the last one
// whose checked walks validated a chain's links in a pass of their own
// before visiting it, and whose recovery scan decoded every varint tail from
// the device (`go test ./internal/core -run TestGoldenAccessSequence
// -golden.print -v` prints the table in this syntax) — the
// TestAckSplitIsInvisibleToDevice twin idiom, across commits.
var goldenParent = map[string][]goldenRow{
	"fixed": {
		{"ingest", 4372, 6072, 12874, 6867, 3913, 1004, 2922380, 0x3a4b875fe0e65f12},
		{"scan-newest", 1542, 0, 2195, 1542, 0, 0, 812738, 0x3a4b875fe0e65f12},
		{"scan-newest-checked", 1535, 0, 4961, 1535, 0, 0, 852057, 0x3a4b875fe0e65f12},
		{"scan-oldest", 1542, 0, 2195, 1542, 0, 0, 812738, 0x3a4b875fe0e65f12},
		{"scan-oldest-checked", 1535, 0, 4961, 1535, 0, 0, 852057, 0x3a4b875fe0e65f12},
		{"compact", 2066, 9281, 12684, 3094, 0, 9533, 2838339, 0xebe2b9bd02c33b83},
		{"compacted-newest", 1146, 0, 753, 1146, 0, 0, 583332, 0xebe2b9bd02c33b83},
		{"compacted-newest-checked", 1147, 0, 1776, 1147, 0, 0, 599975, 0xebe2b9bd02c33b83},
		{"compacted-oldest", 1147, 0, 752, 1147, 0, 0, 583627, 0xebe2b9bd02c33b83},
		{"compacted-oldest-checked", 1147, 0, 1776, 1147, 0, 0, 599975, 0xebe2b9bd02c33b83},
		{"ingest-more", 1048, 1388, 1239, 1535, 931, 202, 605811, 0x9f54db82a3888f84},
		{"recover", 1759, 0, 14, 1759, 0, 0, 140360, 0x9f54db82a3888f84},
		{"recovered-newest", 1891, 0, 1050, 1891, 0, 0, 958121, 0x9f54db82a3888f84},
		{"recovered-newest-checked", 1891, 0, 2904, 1891, 0, 0, 987509, 0x9f54db82a3888f84},
		{"recovered-oldest", 1891, 0, 1050, 1891, 0, 0, 958121, 0x9f54db82a3888f84},
		{"recovered-oldest-checked", 1891, 0, 2904, 1891, 0, 0, 987509, 0x9f54db82a3888f84},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x547b9986255d0288},
	},
	"varint": {
		{"ingest", 4172, 5316, 12598, 6111, 3157, 1004, 2875005, 0xc1add1073d6cfa09},
		{"scan-newest", 925, 0, 1415, 925, 0, 0, 489103, 0xc1add1073d6cfa09},
		{"scan-newest-checked", 927, 0, 3256, 927, 0, 0, 519517, 0xc1add1073d6cfa09},
		{"scan-oldest", 927, 0, 1413, 927, 0, 0, 490047, 0xc1add1073d6cfa09},
		{"scan-oldest-checked", 927, 0, 3256, 927, 0, 0, 519517, 0xc1add1073d6cfa09},
		{"compact", 1143, 7796, 10466, 1514, 0, 7959, 1962830, 0x3b2d9e40b55f13da},
		{"compacted-newest", 450, 0, 808, 450, 0, 0, 233614, 0x3b2d9e40b55f13da},
		{"compacted-newest-checked", 454, 0, 1811, 454, 0, 0, 251806, 0x3b2d9e40b55f13da},
		{"compacted-oldest", 454, 0, 804, 454, 0, 0, 235856, 0x3b2d9e40b55f13da},
		{"compacted-oldest-checked", 454, 0, 1811, 454, 0, 0, 251806, 0x3b2d9e40b55f13da},
		{"ingest-more", 1358, 1590, 1918, 1737, 1133, 202, 645718, 0xda6493014ad93575},
		{"recover", 1869, 0, 359, 1869, 0, 0, 148480, 0xda6493014ad93575},
		{"recovered-newest", 1036, 0, 1082, 1036, 0, 0, 523858, 0xda6493014ad93575},
		{"recovered-newest-checked", 1036, 0, 2833, 1036, 0, 0, 551484, 0xda6493014ad93575},
		{"recovered-oldest", 1036, 0, 1082, 1036, 0, 0, 523858, 0xda6493014ad93575},
		{"recovered-oldest-checked", 1036, 0, 2833, 1036, 0, 0, 551484, 0xda6493014ad93575},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x9d934efb22ebe9c},
	},
	"checksummed": {
		{"ingest", 4436, 6552, 12826, 7400, 4256, 1485, 3060941, 0x82f30163955b966f},
		{"scan-newest", 1542, 0, 2195, 1542, 0, 0, 812738, 0x82f30163955b966f},
		{"scan-newest-checked", 1542, 0, 2195, 1542, 0, 0, 812738, 0x82f30163955b966f},
		{"scan-oldest", 1542, 0, 2195, 1542, 0, 0, 812738, 0x82f30163955b966f},
		{"scan-oldest-checked", 1542, 0, 2195, 1542, 0, 0, 812738, 0x82f30163955b966f},
		{"compact", 2066, 9281, 12684, 3094, 0, 9533, 2838339, 0x1c6f67fb3d7fd00a},
		{"compacted-newest", 1146, 0, 753, 1146, 0, 0, 583332, 0x1c6f67fb3d7fd00a},
		{"compacted-newest-checked", 1147, 0, 752, 1147, 0, 0, 583627, 0x1c6f67fb3d7fd00a},
		{"compacted-oldest", 1147, 0, 752, 1147, 0, 0, 583627, 0x1c6f67fb3d7fd00a},
		{"compacted-oldest-checked", 1147, 0, 752, 1147, 0, 0, 583627, 0x1c6f67fb3d7fd00a},
		{"ingest-more", 1052, 1484, 1239, 1632, 995, 299, 633301, 0xabb72ea48a4ba9cb},
		{"replace", 48, 52, 4, 94, 0, 52, 28578, 0x3a03760f820b3d2e},
		{"replaced-newest", 1845, 0, 1095, 1845, 0, 0, 944541, 0x3a03760f820b3d2e},
		{"replaced-newest-checked", 1891, 0, 1049, 1891, 0, 0, 958111, 0x3a03760f820b3d2e},
		{"replaced-oldest", 1891, 0, 1049, 1891, 0, 0, 958111, 0x3a03760f820b3d2e},
		{"replaced-oldest-checked", 1891, 0, 1049, 1891, 0, 0, 958111, 0x3a03760f820b3d2e},
		{"recover", 3693, 0, 805, 3693, 0, 0, 298430, 0x3a03760f820b3d2e},
		{"recovered-newest", 1891, 0, 1049, 1891, 0, 0, 958111, 0x3a03760f820b3d2e},
		{"recovered-newest-checked", 1891, 0, 1049, 1891, 0, 0, 958111, 0x3a03760f820b3d2e},
		{"recovered-oldest", 1891, 0, 1049, 1891, 0, 0, 958111, 0x3a03760f820b3d2e},
		{"recovered-oldest-checked", 1891, 0, 1049, 1891, 0, 0, 958111, 0x3a03760f820b3d2e},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0xe82acb6e3f01b60c},
	},
	"checksummed-varint": {
		{"ingest", 4236, 5796, 12550, 6644, 3500, 1485, 3013566, 0x4b030369cd82dbd},
		{"scan-newest", 925, 0, 1415, 925, 0, 0, 489103, 0x4b030369cd82dbd},
		{"scan-newest-checked", 927, 0, 1413, 927, 0, 0, 490047, 0x4b030369cd82dbd},
		{"scan-oldest", 927, 0, 1413, 927, 0, 0, 490047, 0x4b030369cd82dbd},
		{"scan-oldest-checked", 927, 0, 1413, 927, 0, 0, 490047, 0x4b030369cd82dbd},
		{"compact", 1143, 7796, 10466, 1514, 0, 7959, 1962830, 0xaa77187efba39fcf},
		{"compacted-newest", 450, 0, 808, 450, 0, 0, 233614, 0xaa77187efba39fcf},
		{"compacted-newest-checked", 454, 0, 804, 454, 0, 0, 235856, 0xaa77187efba39fcf},
		{"compacted-oldest", 454, 0, 804, 454, 0, 0, 235856, 0xaa77187efba39fcf},
		{"compacted-oldest-checked", 454, 0, 804, 454, 0, 0, 235856, 0xaa77187efba39fcf},
		{"ingest-more", 1362, 1686, 1918, 1834, 1197, 299, 673208, 0x38311b3d7a3650d6},
		{"replace", 16, 21, 6, 30, 0, 21, 9882, 0xc5b4a1171738428a},
		{"replaced-newest", 1021, 0, 1096, 1021, 0, 0, 519423, 0xc5b4a1171738428a},
		{"replaced-newest-checked", 1036, 0, 1081, 1036, 0, 0, 523848, 0xc5b4a1171738428a},
		{"replaced-oldest", 1036, 0, 1081, 1036, 0, 0, 523848, 0xc5b4a1171738428a},
		{"replaced-oldest-checked", 1036, 0, 1081, 1036, 0, 0, 523848, 0xc5b4a1171738428a},
		{"recover", 2282, 0, 1890, 2282, 0, 0, 184540, 0xc5b4a1171738428a},
		{"recovered-newest", 1036, 0, 1081, 1036, 0, 0, 523848, 0xc5b4a1171738428a},
		{"recovered-newest-checked", 1036, 0, 1081, 1036, 0, 0, 523848, 0xc5b4a1171738428a},
		{"recovered-oldest", 1036, 0, 1081, 1036, 0, 0, 523848, 0xc5b4a1171738428a},
		{"recovered-oldest-checked", 1036, 0, 1081, 1036, 0, 0, 523848, 0xc5b4a1171738428a},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x4d08a21f9a7ce638},
	},
	"relaxed": {
		{"ingest", 4249, 6061, 11074, 6857, 4932, 1004, 2766628, 0x3056e30fb992c7d1},
		{"scan-newest", 1542, 0, 2195, 1542, 0, 0, 812738, 0x3056e30fb992c7d1},
		{"scan-newest-checked", 1535, 0, 4961, 1535, 0, 0, 852057, 0x3056e30fb992c7d1},
		{"scan-oldest", 1542, 0, 2195, 1542, 0, 0, 812738, 0x3056e30fb992c7d1},
		{"scan-oldest-checked", 1535, 0, 4961, 1535, 0, 0, 852057, 0x3056e30fb992c7d1},
		{"compact", 2023, 2758, 8709, 3038, 1724, 913, 1563326, 0xe0cc9b97dd502273},
		{"compacted-newest", 1147, 0, 735, 1147, 0, 0, 583409, 0xe0cc9b97dd502273},
		{"compacted-newest-checked", 1149, 0, 1753, 1149, 0, 0, 600553, 0xe0cc9b97dd502273},
		{"compacted-oldest", 1149, 0, 733, 1149, 0, 0, 584353, 0xe0cc9b97dd502273},
		{"compacted-oldest-checked", 1149, 0, 1753, 1149, 0, 0, 600553, 0xe0cc9b97dd502273},
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

// goldenMoved lists every step that differs from goldenParent; no step may
// move records-read — every scan returns the parent's records, in the
// parent's order. No write moves, and no media byte.
//
//   - A checked walk over the links visits as it follows them, where it
//     read every header of the chain in a validation pass and then each
//     again to visit. Its scans now make exactly the trusting scan's
//     accesses: one hit fewer per block visit (2766 in a scan of the
//     ingested fixed store, 1024 once compacted, 1854 once recovered; 1843,
//     1007 and 1751 in the varint store; 1020 compacted in the relaxed one).
//     In the fixed and relaxed scans 7 media reads come back (1535 → 1542,
//     the trusting scan's count): the second header read had refreshed 7
//     lines in the XPBuffer that the next vertex's walk then hit. Mirror
//     walks (the checksummed stores) do not move.
//   - The recovery scan decodes a varint block's visible records from the
//     window its header read fetched when they lie in it, and pass 3
//     decodes only the tails whose records reach past it: 505 media reads
//     and 341 hits fewer in the varint store's recover step, 32 and 814
//     with the CRC checks that read every payload anyway.
//   - The simulated nanoseconds follow the counters.
var goldenMoved = map[string]map[string]moved{
	"fixed": {
		"scan-newest-checked":      {7, 0, -2766, 7, 0, 0, -39319, 0},
		"scan-oldest-checked":      {7, 0, -2766, 7, 0, 0, -39319, 0},
		"compacted-newest-checked": {0, 0, -1024, 0, 0, 0, -16348, 0},
		"compacted-oldest-checked": {0, 0, -1024, 0, 0, 0, -16348, 0},
		"recovered-newest-checked": {0, 0, -1854, 0, 0, 0, -29388, 0},
		"recovered-oldest-checked": {0, 0, -1854, 0, 0, 0, -29388, 0},
	},
	"varint": {
		"scan-newest-checked":      {0, 0, -1843, 0, 0, 0, -29470, 0},
		"scan-oldest-checked":      {0, 0, -1843, 0, 0, 0, -29470, 0},
		"compacted-newest-checked": {0, 0, -1007, 0, 0, 0, -15950, 0},
		"compacted-oldest-checked": {0, 0, -1007, 0, 0, 0, -15950, 0},
		"recover":                  {-505, 0, -341, -505, 0, 0, -35560, 0},
		"recovered-newest-checked": {0, 0, -1751, 0, 0, 0, -27626, 0},
		"recovered-oldest-checked": {0, 0, -1751, 0, 0, 0, -27626, 0},
	},
	"checksummed-varint": {
		"recover": {-32, 0, -814, -32, 0, 0, -3110, 0},
	},
	"relaxed": {
		"scan-newest-checked":      {7, 0, -2766, 7, 0, 0, -39319, 0},
		"scan-oldest-checked":      {7, 0, -2766, 7, 0, 0, -39319, 0},
		"compacted-newest-checked": {0, 0, -1020, 0, 0, 0, -16200, 0},
		"compacted-oldest-checked": {0, 0, -1020, 0, 0, 0, -16200, 0},
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
