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

// goldenParent is what goldenRun printed at commit cea12b2, the last one
// with one global count-slot parity (`go test ./internal/core -run
// TestGoldenAccessSequence -golden.print -v` prints the table in this
// syntax) — the TestAckSplitIsInvisibleToDevice twin idiom, across commits.
var goldenParent = map[string][]goldenRow{
	"fixed": {
		{"ingest", 6681, 8290, 11122, 9085, 6131, 1004, 3126654, 0xe6f35d95553d92d5},
		{"scan-newest", 1542, 0, 4643, 1542, 0, 0, 851654, 0xe6f35d95553d92d5},
		{"scan-newest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0xe6f35d95553d92d5},
		{"scan-oldest", 1538, 0, 7406, 1538, 0, 0, 892920, 0xe6f35d95553d92d5},
		{"scan-oldest-checked", 1538, 0, 7406, 1538, 0, 0, 892920, 0xe6f35d95553d92d5},
		{"compact", 2566, 9835, 15406, 3650, 426, 9533, 2878553, 0x9e2bda6ea2f14566},
		{"compacted-newest", 1146, 0, 1656, 1146, 0, 0, 597666, 0x9e2bda6ea2f14566},
		{"compacted-newest-checked", 1147, 0, 2679, 1147, 0, 0, 614309, 0x9e2bda6ea2f14566},
		{"compacted-oldest", 1147, 0, 2679, 1147, 0, 0, 614309, 0x9e2bda6ea2f14566},
		{"compacted-oldest-checked", 1147, 0, 2679, 1147, 0, 0, 614309, 0x9e2bda6ea2f14566},
		{"ingest-more", 1683, 1993, 1369, 2141, 1408, 202, 621967, 0xae211b5913fd7b12},
		{"recover", 1759, 0, 2035, 1759, 0, 0, 145190, 0xae211b5913fd7b12},
		{"recovered-newest", 1891, 0, 2685, 1891, 0, 0, 983999, 0xae211b5913fd7b12},
		{"recovered-newest-checked", 1891, 0, 4539, 1891, 0, 0, 1013387, 0xae211b5913fd7b12},
		{"recovered-oldest", 1889, 0, 4541, 1889, 0, 0, 1012797, 0xae211b5913fd7b12},
		{"recovered-oldest-checked", 1889, 0, 4541, 1889, 0, 0, 1012797, 0xae211b5913fd7b12},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x547b9986255d0288},
	},
	"varint": {
		{"ingest", 5965, 6984, 10190, 7779, 4825, 1004, 3032489, 0xa330bfbbf2336996},
		{"scan-newest", 948, 0, 3223, 948, 0, 0, 532120, 0xa330bfbbf2336996},
		{"scan-newest-checked", 949, 0, 5065, 949, 0, 0, 561885, 0xa330bfbbf2336996},
		{"scan-oldest", 948, 0, 5066, 948, 0, 0, 561236, 0xa330bfbbf2336996},
		{"scan-oldest-checked", 948, 0, 5066, 948, 0, 0, 561236, 0xa330bfbbf2336996},
		{"compact", 1637, 8296, 12517, 2066, 372, 7959, 2018658, 0x4c448f258009eea3},
		{"compacted-newest", 450, 0, 1761, 450, 0, 0, 248724, 0x4c448f258009eea3},
		{"compacted-newest-checked", 454, 0, 2764, 454, 0, 0, 266916, 0x4c448f258009eea3},
		{"compacted-oldest", 454, 0, 2764, 454, 0, 0, 266916, 0x4c448f258009eea3},
		{"compacted-oldest-checked", 454, 0, 2764, 454, 0, 0, 266916, 0x4c448f258009eea3},
		{"ingest-more", 2231, 2461, 1708, 2609, 1876, 202, 677686, 0x3fe6e41cc5cb32d8},
		{"recover", 1985, 0, 2204, 1985, 0, 0, 161420, 0x3fe6e41cc5cb32d8},
		{"recovered-newest", 1138, 0, 2803, 1138, 0, 0, 602340, 0x3fe6e41cc5cb32d8},
		{"recovered-newest-checked", 1138, 0, 4554, 1138, 0, 0, 629966, 0x3fe6e41cc5cb32d8},
		{"recovered-oldest", 1139, 0, 4553, 1139, 0, 0, 630615, 0x3fe6e41cc5cb32d8},
		{"recovered-oldest-checked", 1139, 0, 4553, 1139, 0, 0, 630615, 0x3fe6e41cc5cb32d8},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x9d934efb22ebe9c},
	},
	"checksummed": {
		{"ingest", 6746, 8771, 11073, 9619, 6475, 1485, 3265215, 0x2f9e8ed341e46040},
		{"scan-newest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x2f9e8ed341e46040},
		{"scan-newest-checked", 1542, 0, 4643, 1542, 0, 0, 851654, 0x2f9e8ed341e46040},
		{"scan-oldest", 1538, 0, 7406, 1538, 0, 0, 892920, 0x2f9e8ed341e46040},
		{"scan-oldest-checked", 1540, 0, 4645, 1540, 0, 0, 850356, 0x2f9e8ed341e46040},
		{"compact", 2566, 9835, 15406, 3650, 426, 9533, 2878553, 0xb6bbdda08b3f9b6f},
		{"compacted-newest", 1146, 0, 1656, 1146, 0, 0, 597666, 0xb6bbdda08b3f9b6f},
		{"compacted-newest-checked", 1147, 0, 1655, 1147, 0, 0, 597961, 0xb6bbdda08b3f9b6f},
		{"compacted-oldest", 1147, 0, 2679, 1147, 0, 0, 614309, 0xb6bbdda08b3f9b6f},
		{"compacted-oldest-checked", 1147, 0, 1655, 1147, 0, 0, 597961, 0xb6bbdda08b3f9b6f},
		{"ingest-more", 1687, 2089, 1369, 2238, 1472, 299, 649457, 0x98d3f80d7b6447ce},
		{"replace", 48, 52, 7, 93, 0, 52, 28470, 0x4a064af65656ac30},
		{"replaced-newest", 1846, 0, 2728, 1846, 0, 0, 970704, 0x4a064af65656ac30},
		{"replaced-newest-checked", 1891, 0, 2683, 1891, 0, 0, 983979, 0x4a064af65656ac30},
		{"replaced-oldest", 1889, 0, 4538, 1889, 0, 0, 1012767, 0x4a064af65656ac30},
		{"replaced-oldest-checked", 1888, 0, 2686, 1888, 0, 0, 983094, 0x4a064af65656ac30},
		{"recover", 3693, 0, 2827, 3693, 0, 0, 303260, 0x4a064af65656ac30},
		{"recovered-newest", 1891, 0, 2683, 1891, 0, 0, 983979, 0x4a064af65656ac30},
		{"recovered-newest-checked", 1891, 0, 2683, 1891, 0, 0, 983979, 0x4a064af65656ac30},
		{"recovered-oldest", 1889, 0, 4538, 1889, 0, 0, 1012767, 0x4a064af65656ac30},
		{"recovered-oldest-checked", 1888, 0, 2686, 1888, 0, 0, 983094, 0x4a064af65656ac30},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0xe82acb6e3f01b60c},
	},
	"checksummed-varint": {
		{"ingest", 6029, 7464, 10142, 8312, 5168, 1485, 3171050, 0xfd4f876b1ec080b0},
		{"scan-newest", 948, 0, 3223, 948, 0, 0, 532120, 0xfd4f876b1ec080b0},
		{"scan-newest-checked", 949, 0, 3222, 949, 0, 0, 532415, 0xfd4f876b1ec080b0},
		{"scan-oldest", 948, 0, 5066, 948, 0, 0, 561236, 0xfd4f876b1ec080b0},
		{"scan-oldest-checked", 946, 0, 3225, 946, 0, 0, 530822, 0xfd4f876b1ec080b0},
		{"compact", 1637, 8296, 12517, 2066, 372, 7959, 2018658, 0xf4a5d2c05b02ac6},
		{"compacted-newest", 450, 0, 1761, 450, 0, 0, 248724, 0xf4a5d2c05b02ac6},
		{"compacted-newest-checked", 454, 0, 1757, 454, 0, 0, 250966, 0xf4a5d2c05b02ac6},
		{"compacted-oldest", 454, 0, 2764, 454, 0, 0, 266916, 0xf4a5d2c05b02ac6},
		{"compacted-oldest-checked", 454, 0, 1757, 454, 0, 0, 250966, 0xf4a5d2c05b02ac6},
		{"ingest-more", 2235, 2557, 1708, 2706, 1940, 299, 705176, 0xd80d520d32ac2500},
		{"replace", 16, 21, 19, 30, 0, 21, 10012, 0x822c1f1697664afe},
		{"replaced-newest", 1123, 0, 2817, 1123, 0, 0, 597905, 0x822c1f1697664afe},
		{"replaced-newest-checked", 1138, 0, 2802, 1138, 0, 0, 602330, 0x822c1f1697664afe},
		{"replaced-oldest", 1139, 0, 4551, 1139, 0, 0, 630595, 0x822c1f1697664afe},
		{"replaced-oldest-checked", 1140, 0, 2800, 1140, 0, 0, 603628, 0x822c1f1697664afe},
		{"recover", 2420, 0, 3982, 2420, 0, 0, 201045, 0x822c1f1697664afe},
		{"recovered-newest", 1138, 0, 2802, 1138, 0, 0, 602330, 0x822c1f1697664afe},
		{"recovered-newest-checked", 1138, 0, 2802, 1138, 0, 0, 602330, 0x822c1f1697664afe},
		{"recovered-oldest", 1139, 0, 4551, 1139, 0, 0, 630595, 0x822c1f1697664afe},
		{"recovered-oldest-checked", 1140, 0, 2800, 1140, 0, 0, 603628, 0x822c1f1697664afe},
		{"records-read", 0, 0, 0, 0, 0, 0, 0, 0x4d08a21f9a7ce638},
	},
	"relaxed": {
		{"ingest", 4617, 6152, 10983, 6948, 5023, 1004, 2775690, 0x3056e30fb992c7d1},
		{"scan-newest", 1542, 0, 4643, 1542, 0, 0, 851654, 0x3056e30fb992c7d1},
		{"scan-newest-checked", 1535, 0, 7409, 1535, 0, 0, 890973, 0x3056e30fb992c7d1},
		{"scan-oldest", 1538, 0, 7406, 1538, 0, 0, 892920, 0x3056e30fb992c7d1},
		{"scan-oldest-checked", 1538, 0, 7406, 1538, 0, 0, 892920, 0x3056e30fb992c7d1},
		{"compact", 2023, 2758, 11157, 3038, 1724, 913, 1602242, 0xe0cc9b97dd502273},
		{"compacted-newest", 1147, 0, 1639, 1147, 0, 0, 597753, 0xe0cc9b97dd502273},
		{"compacted-newest-checked", 1149, 0, 2657, 1149, 0, 0, 614897, 0xe0cc9b97dd502273},
		{"compacted-oldest", 1149, 0, 2657, 1149, 0, 0, 614897, 0xe0cc9b97dd502273},
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
// A block's header now names its own current count slot and the flush
// epoch that chose it, so a block left alone after the epoch it changed in
// owes the next one nothing; the parent re-acknowledged every such block
// into its other slot. The media hash moves in every step: the stamps are
// new header bytes, and the other slots keep what they held. The crash-safe
// stores:
//   - ingest writes 920–1559 lines fewer (−12 to −19 %), reads as many fewer
//     (each re-acknowledged header line was a miss, then an eviction) and
//     takes 2.7–4.4 % less time;
//   - compaction's leading flush-all re-acknowledged the whole last ingest
//     cycle: 500–554 writes, 444–500 reads and all 372–426 evictions fewer,
//     its time within ±0.05 %;
//   - ingest-more writes 474–676 lines fewer, its time +0.05 % (fixed: a
//     block's first change in an epoch that turns it to slot 1 is two write
//     requests, stamp and count) to −2.4 % (varint);
//   - the scan right after ingest, and the one after the repair, find 2–8
//     more of their lines in the XPBuffer that the last flush left behind,
//     and every other scan reads what the parent read;
//   - recovery reads the log's epoch word: one buffer hit, 10 ns;
//   - the checksummed-varint repair reads one line fewer.
//
// The relaxed store counts at append and commits no epoch: not a row moves.
var goldenMoved = map[string]map[string]moved{
	"fixed": {
		"ingest":                   {-1486, -1559, 1121, -1559, -1559, 0, -137569, 0x3a4b875fe0e65f12},
		"scan-newest":              {-3, 0, 3, -3, 0, 0, -1593, 0x3a4b875fe0e65f12},
		"scan-newest-checked":      {0, 0, 0, 0, 0, 0, 0, 0x3a4b875fe0e65f12},
		"scan-oldest":              {0, 0, 0, 0, 0, 0, 0, 0x3a4b875fe0e65f12},
		"scan-oldest-checked":      {0, 0, 0, 0, 0, 0, 0, 0x3a4b875fe0e65f12},
		"compact":                  {-500, -554, -274, -556, -426, 0, -1298, 0xebe2b9bd02c33b83},
		"compacted-newest":         {0, 0, 0, 0, 0, 0, 0, 0xebe2b9bd02c33b83},
		"compacted-newest-checked": {0, 0, 0, 0, 0, 0, 0, 0xebe2b9bd02c33b83},
		"compacted-oldest":         {0, 0, 0, 0, 0, 0, 0, 0xebe2b9bd02c33b83},
		"compacted-oldest-checked": {0, 0, 0, 0, 0, 0, 0, 0xebe2b9bd02c33b83},
		"ingest-more":              {-472, -474, -256, -475, -346, 0, 341, 0x9f54db82a3888f84},
		"recover":                  {0, 0, 1, 0, 0, 0, 10, 0x9f54db82a3888f84},
		"recovered-newest":         {0, 0, 0, 0, 0, 0, 0, 0x9f54db82a3888f84},
		"recovered-newest-checked": {0, 0, 0, 0, 0, 0, 0, 0x9f54db82a3888f84},
		"recovered-oldest":         {0, 0, 0, 0, 0, 0, 0, 0x9f54db82a3888f84},
		"recovered-oldest-checked": {0, 0, 0, 0, 0, 0, 0, 0x9f54db82a3888f84},
	},
	"varint": {
		"ingest":                   {-908, -920, 1684, -920, -920, 0, -80527, 0xc1add1073d6cfa09},
		"scan-newest":              {-2, 0, 2, -2, 0, 0, -944, 0xc1add1073d6cfa09},
		"scan-newest-checked":      {0, 0, 0, 0, 0, 0, 0, 0xc1add1073d6cfa09},
		"scan-oldest":              {0, 0, 0, 0, 0, 0, 0, 0xc1add1073d6cfa09},
		"scan-oldest-checked":      {0, 0, 0, 0, 0, 0, 0, 0xc1add1073d6cfa09},
		"compact":                  {-444, -500, -271, -501, -372, 0, 716, 0x3b2d9e40b55f13da},
		"compacted-newest":         {0, 0, 0, 0, 0, 0, 0, 0x3b2d9e40b55f13da},
		"compacted-newest-checked": {0, 0, 0, 0, 0, 0, 0, 0x3b2d9e40b55f13da},
		"compacted-oldest":         {0, 0, 0, 0, 0, 0, 0, 0x3b2d9e40b55f13da},
		"compacted-oldest-checked": {0, 0, 0, 0, 0, 0, 0, 0x3b2d9e40b55f13da},
		"ingest-more":              {-661, -676, 18, -677, -548, 0, -16763, 0xda6493014ad93575},
		"recover":                  {0, 0, 1, 0, 0, 0, 10, 0xda6493014ad93575},
		"recovered-newest":         {0, 0, 0, 0, 0, 0, 0, 0xda6493014ad93575},
		"recovered-newest-checked": {0, 0, 0, 0, 0, 0, 0, 0xda6493014ad93575},
		"recovered-oldest":         {0, 0, 0, 0, 0, 0, 0, 0xda6493014ad93575},
		"recovered-oldest-checked": {0, 0, 0, 0, 0, 0, 0, 0xda6493014ad93575},
	},
	"checksummed": {
		"ingest":                   {-1486, -1559, 1121, -1559, -1559, 0, -137569, 0x82f30163955b966f},
		"scan-newest":              {-3, 0, 3, -3, 0, 0, -1593, 0x82f30163955b966f},
		"scan-newest-checked":      {0, 0, 0, 0, 0, 0, 0, 0x82f30163955b966f},
		"scan-oldest":              {0, 0, 0, 0, 0, 0, 0, 0x82f30163955b966f},
		"scan-oldest-checked":      {0, 0, 0, 0, 0, 0, 0, 0x82f30163955b966f},
		"compact":                  {-500, -554, -274, -556, -426, 0, -1298, 0x1c6f67fb3d7fd00a},
		"compacted-newest":         {0, 0, 0, 0, 0, 0, 0, 0x1c6f67fb3d7fd00a},
		"compacted-newest-checked": {0, 0, 0, 0, 0, 0, 0, 0x1c6f67fb3d7fd00a},
		"compacted-oldest":         {0, 0, 0, 0, 0, 0, 0, 0x1c6f67fb3d7fd00a},
		"compacted-oldest-checked": {0, 0, 0, 0, 0, 0, 0, 0x1c6f67fb3d7fd00a},
		"ingest-more":              {-472, -474, -256, -475, -346, 0, 341, 0xabb72ea48a4ba9cb},
		"replace":                  {0, 0, 0, 0, 0, 0, 0, 0x3a03760f820b3d2e},
		"replaced-newest":          {-3, 0, 3, -3, 0, 0, -1947, 0x3a03760f820b3d2e},
		"replaced-newest-checked":  {0, 0, 0, 0, 0, 0, 0, 0x3a03760f820b3d2e},
		"replaced-oldest":          {0, 0, 0, 0, 0, 0, 0, 0x3a03760f820b3d2e},
		"replaced-oldest-checked":  {0, 0, 0, 0, 0, 0, 0, 0x3a03760f820b3d2e},
		"recover":                  {0, 0, 1, 0, 0, 0, 10, 0x3a03760f820b3d2e},
		"recovered-newest":         {0, 0, 0, 0, 0, 0, 0, 0x3a03760f820b3d2e},
		"recovered-newest-checked": {0, 0, 0, 0, 0, 0, 0, 0x3a03760f820b3d2e},
		"recovered-oldest":         {0, 0, 0, 0, 0, 0, 0, 0x3a03760f820b3d2e},
		"recovered-oldest-checked": {0, 0, 0, 0, 0, 0, 0, 0x3a03760f820b3d2e},
	},
	"checksummed-varint": {
		"ingest":                   {-908, -920, 1684, -920, -920, 0, -80527, 0x4b030369cd82dbd},
		"scan-newest":              {-2, 0, 2, -2, 0, 0, -944, 0x4b030369cd82dbd},
		"scan-newest-checked":      {0, 0, 0, 0, 0, 0, 0, 0x4b030369cd82dbd},
		"scan-oldest":              {0, 0, 0, 0, 0, 0, 0, 0x4b030369cd82dbd},
		"scan-oldest-checked":      {0, 0, 0, 0, 0, 0, 0, 0x4b030369cd82dbd},
		"compact":                  {-444, -500, -271, -501, -372, 0, 716, 0xaa77187efba39fcf},
		"compacted-newest":         {0, 0, 0, 0, 0, 0, 0, 0xaa77187efba39fcf},
		"compacted-newest-checked": {0, 0, 0, 0, 0, 0, 0, 0xaa77187efba39fcf},
		"compacted-oldest":         {0, 0, 0, 0, 0, 0, 0, 0xaa77187efba39fcf},
		"compacted-oldest-checked": {0, 0, 0, 0, 0, 0, 0, 0xaa77187efba39fcf},
		"ingest-more":              {-661, -676, 18, -677, -548, 0, -16763, 0x38311b3d7a3650d6},
		"replace":                  {-1, 0, 1, -1, 0, 0, -295, 0xc5b4a1171738428a},
		"replaced-newest":          {-8, 0, 8, -8, 0, 0, -4838, 0xc5b4a1171738428a},
		"replaced-newest-checked":  {0, 0, 0, 0, 0, 0, 0, 0xc5b4a1171738428a},
		"replaced-oldest":          {0, 0, 0, 0, 0, 0, 0, 0xc5b4a1171738428a},
		"replaced-oldest-checked":  {0, 0, 0, 0, 0, 0, 0, 0xc5b4a1171738428a},
		"recover":                  {0, 0, 1, 0, 0, 0, 10, 0xc5b4a1171738428a},
		"recovered-newest":         {0, 0, 0, 0, 0, 0, 0, 0xc5b4a1171738428a},
		"recovered-newest-checked": {0, 0, 0, 0, 0, 0, 0, 0xc5b4a1171738428a},
		"recovered-oldest":         {0, 0, 0, 0, 0, 0, 0, 0xc5b4a1171738428a},
		"recovered-oldest-checked": {0, 0, 0, 0, 0, 0, 0, 0xc5b4a1171738428a},
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
