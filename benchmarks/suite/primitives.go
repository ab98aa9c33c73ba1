package suite

import (
	"fmt"
	"time"

	"repro/internal/adj"
	"repro/internal/analytics"
	"repro/internal/elog"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mempool"
	"repro/internal/pmem"
	"repro/internal/prop"
	"repro/internal/vbuf"
	"repro/internal/xpsim"
)

// The primitives time one layer's public functions on the workload's own
// inputs, outside any store: the layer's cost per unit of work, which the
// ladders cannot see because core calls these layers from inside. Each
// runs for tens of milliseconds; none has a bound.

const primitiveEdges = 1 << 17 // adds each primitive replays

// scratchRegion maps one PMEM region on a fresh machine.
func scratchRegion(size int64, place pmem.Placement) (*pmem.Region, *xpsim.Machine, error) {
	m := xpsim.NewMachine(2, size+(8<<20), xpsim.DefaultLatency())
	reg, err := pmem.NewHeap(m).Map("scratch", size, place)
	return reg, m, err
}

func (r *run) primitives(m map[string]float64, st *stream) error {
	adds := st.adds(max(int(primitiveEdges*r.cfg.Scale), 4096))
	n := float64(len(adds))

	t0 := time.Now()
	gen.RMAT(r.spec.scale, int64(len(adds)), r.cfg.Seed)
	m["gen.rmat_host_ns_per_edge"] = float64(time.Since(t0)) / n

	// elog: append the adds in the logging thread's 4096-edge chunks.
	reg, _, err := scratchRegion(int64(len(adds))*graph.EdgeBytes+(1<<20), pmem.Placement{Kind: pmem.Interleave})
	if err != nil {
		return err
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	log, err := elog.CreateWith(ctx, reg, int64(len(adds)), elog.Config{})
	if err != nil {
		return err
	}
	ctx = xpsim.NewCtx(xpsim.NodeUnbound)
	t0 = time.Now()
	for off := 0; off < len(adds); off += 4096 {
		if _, err := log.Append(ctx, adds[off:min(off+4096, len(adds))]); err != nil {
			return fmt.Errorf("elog append: %w", err)
		}
	}
	m["elog.append_host_ns_per_edge"] = float64(time.Since(t0)) / n
	m["elog.append_sim_ns_per_edge"] = float64(ctx.Cost.Ns()) / n

	// mempool + vbuf: fill and drain largest-class buffers.
	lat := xpsim.DefaultLatency()
	pool := mempool.New(mempool.Config{Threads: 1})
	bufs := vbuf.New(pool, &lat)
	cls := mempool.ClassFor(256)
	var drained []uint32
	ctx = xpsim.NewCtx(0)
	var allocs int
	var allocTime time.Duration
	t0 = time.Now()
	for off := 0; off < len(adds); {
		ta := time.Now()
		h, err := bufs.NewBuf(ctx, 0, cls)
		allocTime += time.Since(ta)
		allocs++
		if err != nil {
			return fmt.Errorf("vbuf: %w", err)
		}
		for ; off < len(adds) && !bufs.Full(h, cls); off++ {
			bufs.Append(ctx, h, cls, adds[off].Dst)
		}
		drained = bufs.Drain(ctx, h, cls, drained[:0])
		bufs.Free(0, h, cls)
	}
	m["vbuf.append_host_ns_per_edge"] = float64(time.Since(t0)-allocTime) / n
	m["mempool.alloc_host_ns"] = float64(allocTime) / float64(allocs)

	// adj: append per-vertex runs the size of a full vertex buffer, then
	// decode every chain, in the block format the workload's store uses.
	appendNs, decodeNs, err := adjPrimitive(adds, st.numV, r.w.store.varint)
	if err != nil {
		return err
	}
	m["adj.append_host_ns_per_edge"] = appendNs
	if r.w.store.varint {
		m["adj.decode_varint_host_ns_per_nbr"] = decodeNs
	} else {
		m["adj.decode_fixed_host_ns_per_nbr"] = decodeNs
	}

	if r.w.store.props {
		reg, _, err := scratchRegion(8<<20, pmem.Placement{Kind: pmem.Interleave})
		if err != nil {
			return err
		}
		base := (reg.UserStart() + prop.BlockBytes - 1) / prop.BlockBytes * prop.BlockBytes
		ps, err := prop.Create(reg, &lat, base, (reg.Size()-base)/prop.BlockBytes)
		if err != nil {
			return err
		}
		recs := adds[:min(len(adds), 1<<15)]
		labels := make([]uint16, len(recs))
		for i := range labels {
			labels[i] = 1
		}
		t0 = time.Now()
		ps.ApplyEdgeLabels(recs, labels)
		if err := ps.Flush(xpsim.NewCtx(xpsim.NodeUnbound)); err != nil {
			return fmt.Errorf("prop flush: %w", err)
		}
		m["prop.append_host_ns_per_record"] = float64(time.Since(t0)) / float64(len(recs))
	}

	// xpsim + pmem: whole-XPLine writes and reads, strided so most miss
	// the XPBuffer the way flush traffic does.
	const lines = 1 << 16
	dev := xpsim.NewDevice(0, 2, lines*xpsim.XPLineSize, &lat)
	var line [xpsim.XPLineSize]byte
	ctx = xpsim.NewCtx(0)
	stride := func(i int) int64 { return int64(i*7919%lines) * xpsim.XPLineSize }
	t0 = time.Now()
	for i := 0; i < lines; i++ {
		dev.Write(ctx, stride(i), line[:])
	}
	m["xpsim.device_write_host_ns_per_line"] = float64(time.Since(t0)) / lines
	t0 = time.Now()
	for i := 0; i < lines; i++ {
		dev.Read(ctx, stride(i), line[:])
	}
	m["xpsim.device_read_host_ns_per_line"] = float64(time.Since(t0)) / lines
	wreg, _, err := scratchRegion(lines*xpsim.XPLineSize+(1<<20), pmem.Placement{Kind: pmem.Interleave})
	if err != nil {
		return err
	}
	base := (wreg.UserStart() + xpsim.XPLineSize - 1) / xpsim.XPLineSize * xpsim.XPLineSize
	t0 = time.Now()
	for i := 0; i < lines; i++ {
		wreg.Write(ctx, base+stride(i), line[:])
	}
	m["pmem.region_write_host_ns_per_line"] = float64(time.Since(t0)) / lines
	return nil
}

// adjPrimitive returns host ns per appended edge and per decoded
// neighbor for one adjacency arena fed the adds grouped by source.
func adjPrimitive(adds []graph.Edge, numV uint32, varint bool) (appendNs, decodeNs float64, err error) {
	reg, m, err := scratchRegion(int64(len(adds))*32+(16<<20), pmem.Placement{Kind: pmem.Bind, Node: 0})
	if err != nil {
		return 0, 0, err
	}
	st := adj.New(reg, &m.Lat, numV-1, adj.Options{ProactiveFlush: true, CrashSafe: true, VarintBlocks: varint})
	byV := make([][]uint32, numV)
	for _, e := range adds {
		byV[e.Src] = append(byV[e.Src], e.Dst)
	}
	run := vbuf.Cap(mempool.ClassFor(256))
	ctx := xpsim.NewCtx(0)
	t0 := time.Now()
	for pending := true; pending; {
		pending = false
		for v, nbrs := range byV {
			if len(nbrs) == 0 {
				continue
			}
			k := min(run, len(nbrs))
			if err := st.Append(ctx, graph.VID(v), nbrs[:k]); err != nil {
				return 0, 0, fmt.Errorf("adj append: %w", err)
			}
			byV[v] = nbrs[k:]
			pending = pending || len(byV[v]) > 0
		}
	}
	appendNs = float64(time.Since(t0)) / float64(len(adds))
	var scratch []uint32
	var decoded int
	t0 = time.Now()
	for v := graph.VID(0); v < graph.VID(numV); v++ {
		scratch = st.Neighbors(ctx, v, scratch[:0])
		decoded += len(scratch)
	}
	decodeNs = ratio(float64(time.Since(t0)), float64(decoded))
	return appendNs, decodeNs, nil
}

// filterPushdown is the media traffic of the filtered 2-hop reads over
// the unfiltered ones from the same roots: what pruning at adjacency
// decode saves.
func (r *run) filterPushdown(m map[string]float64, ht *httpTarget, st *stream) {
	var roots []graph.VID
	for i := range st.batches {
		for _, op := range st.batches[i].reads {
			if op.kind == readKHopFiltered && len(roots) < 256 {
				roots = append(roots, op.v)
			}
		}
	}
	cv := ht.cl.AcquireView()
	defer cv.Release()
	eng := analytics.NewEngine(cv, &ht.cl.Shard(0).Store().Machine().Lat, queryThreads)
	lines := func() (n int64) {
		for _, mc := range ht.machines() {
			n += mc.SnapshotStats().MediaReadLines
		}
		return n
	}
	l0 := lines()
	for _, v := range roots {
		eng.KHop(v, khopDepth)
	}
	l1 := lines()
	for _, v := range roots {
		if _, err := eng.KHopFiltered(v, khopDepth, filteredFilter()); err != nil {
			r.fail("filtered k-hop: %v", err)
		}
	}
	m["prop.filtered_media_lines_ratio"] = ratio(float64(lines()-l1), float64(l1-l0))
}

// compaction flushes and compacts shard 0 last of all, since it rewrites
// the chains everything else read. The compact-first workload already
// did it in every round and reports the last round's.
func (r *run) compaction(m map[string]float64, tg target) error {
	s := tg.leaders()[0]
	var hostUs float64
	simCtx := xpsim.NewCtx(xpsim.NodeUnbound)
	const reps = 16
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s.Snapshot(simCtx).Close()
		hostUs += float64(time.Since(t0)) / 1e3
	}
	m["core.snapshot_host_us"] = hostUs / reps
	m["core.snapshot_sim_us"] = float64(simCtx.Cost.Ns()) / 1e3 / reps

	if lt, ok := tg.(*libTarget); ok && lt.compactFirst {
		m["core.compact_sim_ms"] = float64(lt.prepSimNs) / 1e6
		m["core.compact_host_ms"] = float64(lt.prepHost) / 1e6
		return nil
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	before := s.Report().FlushNs
	t0 := time.Now()
	if err := s.CompactAllAdjs(ctx); err != nil {
		return fmt.Errorf("compaction: %w", err)
	}
	m["core.compact_host_ms"] = float64(time.Since(t0)) / 1e6
	m["core.compact_sim_ms"] = float64(ctx.Cost.Ns()+s.Report().FlushNs-before) / 1e6
	return nil
}
