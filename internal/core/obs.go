package core

import (
	"fmt"

	"repro/internal/obs"
)

// SetTracer attaches (or, with nil, detaches) a phase tracer. Spans are
// recorded on the simulated clock: each pipeline lane (logging,
// buffering, flushing, compaction, recovery) keeps a cursor that
// advances by the simulated duration of every phase placed on it, so
// the exported timeline reproduces the Fig. 3a phase split. A nil
// tracer costs one branch per phase boundary — the ingest hot loop
// itself is never instrumented per edge.
func (s *Store) SetTracer(t *obs.Tracer) { s.tracer = t }

// Tracer returns the attached tracer (nil when tracing is disabled).
func (s *Store) Tracer() *obs.Tracer { return s.tracer }

// emitSpan places a span of durNs at the current end of lane and
// advances the lane cursor. It returns the span's start so callers can
// co-locate per-worker sub-spans with the parent phase.
func (s *Store) emitSpan(name string, lane int64, durNs int64) int64 {
	start := s.laneEnd[lane]
	s.laneEnd[lane] += durNs
	s.tracer.EmitPhase(name, lane, start, durNs)
	return start
}

// dirName labels the two adjacency directions in span and metric names.
func dirName(d int) string {
	if Direction(d) == Out {
		return "out"
	}
	return "in"
}

// workerSpan emits a per-group worker-lane sub-span aligned with its
// parent phase (nil-safe; only called at phase boundaries). A phase's
// group names ("buffer out/p0", ...) are built once per store.
func (s *Store) workerSpan(phase string, d, p int, startNs, durNs int64) {
	if s.tracer == nil {
		return
	}
	names := s.spanNames[phase]
	if names == nil {
		names = make([]string, 2*s.nparts)
		for g := range names {
			names[g] = fmt.Sprintf("%s %s/p%d", phase, dirName(g/s.nparts), g%s.nparts)
		}
		if s.spanNames == nil {
			s.spanNames = make(map[string][]string)
		}
		s.spanNames[phase] = names
	}
	g := d*s.nparts + p
	s.subSpan(names[g], g, startNs, durNs)
}

// shardSpans emits the last shard stage's sub-spans from startNs: one per
// group lane, as long as the slowest of the archive threads that serve
// that group (thread t serves group t mod 2P) took to read, count and
// scatter its stripes. The groups' buffer spans follow once every sharder
// is done.
func (s *Store) shardSpans(startNs int64) {
	if s.tracer == nil {
		return
	}
	groups := 2 * s.nparts
	for g := 0; g < groups; g++ {
		var ns int64
		for t := g; t < s.opts.ArchiveThreads; t += groups {
			ns = max(ns, s.stage.SharderNs(t))
		}
		s.workerSpan("shard", g/s.nparts, g%s.nparts, startNs, ns)
	}
}

// subSpan emits a sub-span on worker lane `worker`: lanes 0..2*nparts-1
// belong to the adjacency groups, lane 2*nparts to the property-column
// flush that runs beside them.
func (s *Store) subSpan(name string, worker int, startNs, durNs int64) {
	s.tracer.Emit(obs.Span{
		Name:    name,
		Cat:     "worker",
		Lane:    obs.LaneWorkerBase + int64(worker),
		StartNs: startNs,
		DurNs:   durNs,
	})
}

// RegisterMetrics registers the store's occupancy gauges and pipeline
// counters with a registry. The gauge callbacks read live store state,
// so on a concurrently-served store the scrape must run under the same
// lock that serializes writes (the server holds its state lock around
// Gather).
func (s *Store) RegisterMetrics(r *obs.Registry) {
	gauge := func(name, help string, fn func() float64) {
		r.Register(obs.NewGaugeFunc(name, help, fn))
	}
	gauge("xpgraph_vertices", "Current vertex-ID space of the store.",
		func() float64 { return float64(s.NumVertices()) })

	// Edge-log occupancy (the circular log of §III-B / Fig. 7).
	gauge("xpgraph_elog_capacity_edges", "Circular edge log capacity in edges.",
		func() float64 { return float64(s.log.Cap()) })
	gauge("xpgraph_elog_logged_edges", "Total edges ever appended to the log (head cursor).",
		func() float64 { return float64(s.log.Head()) })
	gauge("xpgraph_elog_buffered_edges", "Edges staged into DRAM vertex buffers (buffered cursor).",
		func() float64 { return float64(s.log.Buffered()) })
	gauge("xpgraph_elog_flushed_edges", "Edges durable in PMEM adjacency lists (flushed cursor).",
		func() float64 { return float64(s.log.Flushed()) })
	gauge("xpgraph_elog_pending_buffer_edges", "Edges logged but not yet buffered.",
		func() float64 { return float64(s.log.PendingBuffer()) })
	gauge("xpgraph_elog_pending_flush_edges", "Edges buffered but not yet flush-acknowledged.",
		func() float64 { return float64(s.log.PendingFlush()) })
	gauge("xpgraph_elog_occupancy_ratio", "Unflushed log window / capacity (1.0 = head caught the flushing cursor).",
		func() float64 {
			if c := s.log.Cap(); c > 0 {
				return float64(s.log.Head()-s.log.Flushed()) / float64(c)
			}
			return 0
		})

	// DRAM vertex-buffer pool (§III-C).
	gauge("xpgraph_pool_used_bytes", "Vertex-buffer pool bytes currently allocated.",
		func() float64 { return float64(s.pool.Used()) })
	gauge("xpgraph_pool_peak_bytes", "Vertex-buffer pool high-water mark.",
		func() float64 { return float64(s.pool.Peak()) })
	gauge("xpgraph_pool_footprint_bytes", "Vertex-buffer pool bulks reserved from the DRAM budget.",
		func() float64 { return float64(s.pool.Footprint()) })
	gauge("xpgraph_pool_backed_bytes", "Host memory allocated behind the reserved bulks (what carving reached).",
		func() float64 { return float64(s.pool.Backed()) })

	// Table III memory breakdown.
	gauge("xpgraph_meta_dram_bytes", "DRAM metadata bytes (vertex indexes, batch counters, shard scratch).",
		func() float64 { return float64(s.MemUsage().MetaDRAM) })
	gauge("xpgraph_elog_pmem_bytes", "PMEM bytes of the circular edge log.",
		func() float64 { return float64(s.MemUsage().ElogPMEM) })
	gauge("xpgraph_pblk_pmem_bytes", "PMEM bytes of persistent adjacency blocks.",
		func() float64 { return float64(s.MemUsage().PblkPMEM) })

	// Pipeline counters from the accumulated ingest report, including
	// the per-phase simulated seconds behind the Fig. 3a split.
	r.Register(obs.CollectorFunc(func(emit func(obs.Sample)) {
		rep := s.Report()
		counter := func(name, help string, v float64, labels ...obs.Label) {
			emit(obs.Sample{Name: name, Help: help, Kind: obs.KindCounter, Labels: labels, Value: v})
		}
		counter("xpgraph_ingested_edges_total", "Edges accepted through the logging pipeline.", float64(rep.Edges))
		counter("xpgraph_buffer_phases_total", "Buffering phases executed.", float64(rep.Batches))
		counter("xpgraph_flush_phases_total", "Full flushing phases executed.", float64(rep.FlushAlls))
		counter("xpgraph_pool_fallbacks_total", "Buffer allocations that fell back to direct adjacency writes.", float64(rep.PoolFallbacks))
		counter("xpgraph_snapshot_short_reads_total", "Snapshot reads refused because a compaction rewrote the chains past the fencing.", float64(s.snapshotShortReads()))
		phase := func(name string, ns int64) {
			counter("xpgraph_phase_seconds_total", "Simulated seconds spent per pipeline phase (Fig. 3a split).",
				float64(ns)/1e9, obs.Label{Key: "phase", Value: name})
		}
		phase("logging", rep.LogNs)
		phase("buffering", rep.BufferNs)
		phase("flushing", rep.FlushNs)

		// Adjacency block encoding (fixed vs delta-varint): cumulative
		// payload bytes and records per format, plus the derived
		// edges-per-256B-XPLine density each format achieves.
		es := s.AdjEncoding()
		byFormat := func(name, help string, fixed, varint float64) {
			counter(name, help, fixed, obs.Label{Key: "format", Value: "fixed"})
			counter(name, help, varint, obs.Label{Key: "format", Value: "varint"})
		}
		byFormat("xpgraph_adj_encoded_bytes_total", "Adjacency payload bytes written, by block format.",
			float64(es.FixedBytes), float64(es.VarintBytes))
		byFormat("xpgraph_adj_encoded_records_total", "Adjacency records written, by block format.",
			float64(es.FixedRecords), float64(es.VarintRecords))
		epl := func(recs, bytes int64) float64 {
			if bytes == 0 {
				return 0
			}
			return float64(recs) * 256 / float64(bytes) // 256 = xpsim.XPLineSize
		}
		density := func(v float64, format string) {
			emit(obs.Sample{Name: "xpgraph_adj_edges_per_xpline",
				Help: "Adjacency records per 256 B XPLine of written payload, by block format.",
				Kind: obs.KindGauge, Labels: []obs.Label{{Key: "format", Value: format}}, Value: v})
		}
		density(epl(es.FixedRecords, es.FixedBytes), "fixed")
		density(epl(es.VarintRecords, es.VarintBytes), "varint")

		// Media-error tolerance: scrub activity and quarantine occupancy
		// (all zero unless Options.MediaGuard is on — see media.go).
		sc := s.scrubStats
		counter("xpgraph_scrub_runs_total", "Scrub passes executed.", float64(sc.Runs))
		counter("xpgraph_scrub_damaged_vertices_total", "Vertices found with corrupt or unreadable chains.", float64(sc.Damaged))
		counter("xpgraph_scrub_repaired_vertices_total", "Damaged vertices rebuilt onto fresh blocks.", float64(sc.Repaired))
		counter("xpgraph_scrub_unrecoverable_vertices_total", "Damaged vertices no rebuild source covered.", float64(sc.Unrecoverable))
		counter("xpgraph_scrub_log_bad_records_total", "Edge-log window records failing CRC or unreadable.", float64(sc.LogBadRecords))
		h := s.Health()
		g := func(name, help string, v float64) {
			emit(obs.Sample{Name: name, Help: help, Kind: obs.KindGauge, Value: v})
		}
		g("xpgraph_health_state", "Media-health state machine: 0=ok, 1=degraded, 2=readonly.", float64(h.State))
		g("xpgraph_damaged_vertices", "Vertices with detected damage awaiting repair.", float64(h.DamagedVertices))
		g("xpgraph_unrecoverable_vertices", "Vertices quarantined as unrecoverable.", float64(h.UnrecoverableVertices))
		g("xpgraph_quarantined_spans", "Adjacency block spans quarantined off the free lists.", float64(h.QuarantinedSpans))
		g("xpgraph_quarantined_bytes", "PMEM bytes held in quarantine.", float64(h.QuarantinedBytes))
		g("xpgraph_media_ue_lines", "XPLines currently marked uncorrectable in the fault model.", float64(h.UELines))
		g("xpgraph_dead_numa_nodes", "Failed NUMA nodes (whole-device failures).", float64(len(h.DeadNodes)))
	}))
}
