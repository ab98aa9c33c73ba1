package suite

import (
	"math"
	"slices"
)

// Metric describes one reported number. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; the schema
// test keeps the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
	Clock  string  // sim, host, count: which clock or counter it reads
}

// EndToEnd are the metrics every workload reports from the untraced run.
// The driver runs ten seeds, takes each metric's quartile spread over
// them, and refuses the benchmark if one exceeds its bound, so a bound is
// at least three times the widest spread seen on any workload (NOISE.md
// has the measurements), rounded up. Simulated-clock and count metrics
// repeat exactly for a fixed seed; what their bounds cover is the
// seed-to-seed spread of same-shaped graphs.
//
// ISSUE 13's three wall-clock metrics (ingest ns/edge, read us/op,
// analytics ms) are not here. They were measured as end-to-end metrics
// at the committed sizes, phases of 0.6-3 s over five rounds: their
// quartile spread over ten runs was 3-9 % in a quiet hour, 5-25 % in the
// next and 3-31 % three hours later, and two sets of ten differed by up
// to 11 % in their medians. At the issue's 10 % bound the driver would
// have refused the benchmark on about half the spreads it computes, at
// the contract's ceiling of 25 % on two. By the issue's rule for a
// host-time metric whose two sets differ by more than half its bound
// after its phases were lengthened, they are the traced run's client.*
// metrics, unbounded. setup_s stays because the contract requires it; it
// carries the widest bound and is exempt from the spread check.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25, "host"},                               // input generation + store build + preload, median over rounds
	{"ingest_sim_medges_per_s", "Medges/s", "higher", 0.01, "sim"},        // edge operations / simulated ingest seconds
	{"ingest_host_allocs_per_edge", "1/edge", "lower", 0.02, "host"},      // heap objects allocated during write calls / edge operations, median over rounds
	{"ingest_host_alloc_bytes_per_edge", "B/edge", "lower", 0.02, "host"}, // heap bytes allocated during write calls / edge operations, median over rounds
	{"read_sim_p50_us", "us", "lower", 0.16, "sim"},                       // simulated latency of the workload's reads, mean of the sample between its quartiles
	{"read_sim_p99_us", "us", "lower", 0.10, "sim"},                       // the same between the 98.5th and 99.5th percentile
	{"analytics_sim_ms", "ms", "lower", 0.02, "sim"},                      // BFS from 3 roots + PageRank 10 iterations, simulated
	{"recovery_sim_ms", "ms", "lower", 0.01, "sim"},                       // core.Recover on a crash clone taken after the last write
	{"media_write_bytes_per_edge", "B/edge", "lower", 0.005, "count"},     // media bytes written during the write phase, followers included / edge operations
	{"dram_bytes_per_edge", "B/edge", "lower", 0.005, "count"},            // (metadata + vertex-buffer DRAM) / live edges
	{"pmem_bytes_per_edge", "B/edge", "lower", 0.01, "count"},             // (edge log + adjacency blocks + property columns) / live edges
	{"fig11_speedup_vs_graphone_p", "x", "higher", 0.05, "sim"},           // GraphOne-P / XPGraph simulated ingest time on the first 2^20 adds of the stream
	{"peak_rss_mb", "MB", "lower", 0.10, "host"},                          // largest VmRSS seen after any write or phase of a round, median over rounds
}

// PerLayer are the traced run's metrics, one layer (module) per prefix.
// A metric that does not apply to a workload reports 0.
var PerLayer = []Metric{
	{Name: "client.ingest_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "client.read_host_us_per_op", Unit: "us", Better: "lower"},
	{Name: "client.analytics_host_ms", Unit: "ms", Better: "lower"},

	{Name: "server.ingest_bin_self_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "server.ingest_json_self_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "server.read_self_host_us", Unit: "us", Better: "lower"},
	{Name: "server.analytics_self_host_ms", Unit: "ms", Better: "lower"},
	{Name: "server.resp_bytes_per_read", Unit: "B", Better: "lower"},
	{Name: "server.requests", Unit: "count", Better: "higher"},
	{Name: "server.failed", Unit: "count", Better: "lower"},

	{Name: "ingest.wire_bin_decode_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "ingest.wire_json_decode_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "ingest.wire_typed_decode_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "ingest.wire_bytes_per_edge", Unit: "B/edge", Better: "lower"},
	{Name: "ingest.pipeline_self_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "ingest.batches_applied", Unit: "count", Better: "lower"},
	{Name: "ingest.batch_edges_mean", Unit: "count", Better: "higher"},
	{Name: "ingest.rejected", Unit: "count", Better: "lower"},
	{Name: "ingest.linger_waits", Unit: "count", Better: "lower"},

	{Name: "cluster.route_self_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "shard.owner_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "cluster.shard_edge_imbalance", Unit: "x", Better: "lower"},
	{Name: "cluster.ship_attempts", Unit: "count", Better: "lower"},
	{Name: "cluster.ship_retries", Unit: "count", Better: "lower"},
	{Name: "cluster.ship_giveups", Unit: "count", Better: "lower"},
	{Name: "cluster.replica_resyncs", Unit: "count", Better: "lower"},
	{Name: "cluster.replica_catchup_host_us_per_write", Unit: "us", Better: "lower"},
	{Name: "cluster.view_acquire_host_us", Unit: "us", Better: "lower"},
	{Name: "cluster.view_read_self_host_us", Unit: "us", Better: "lower"},

	{Name: "core.log_sim_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "core.buffer_sim_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "core.flush_sim_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "core.batches", Unit: "count", Better: "lower"},
	{Name: "core.flush_alls", Unit: "count", Better: "lower"},
	{Name: "core.pool_fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.ingest_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "core.snapshot_host_us", Unit: "us", Better: "lower"},
	{Name: "core.snapshot_sim_us", Unit: "us", Better: "lower"},
	{Name: "core.compact_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compact_host_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recover_host_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recover_blocks_scanned", Unit: "count", Better: "lower"},
	{Name: "core.recover_replayed_edges", Unit: "count", Better: "lower"},
	{Name: "core.nbrs_live_host_ns_per_nbr", Unit: "ns", Better: "lower"},
	{Name: "core.nbrs_snapshot_host_ns_per_nbr", Unit: "ns", Better: "lower"},
	{Name: "core.nbrs_flushed_sim_ns_per_nbr", Unit: "ns", Better: "lower"},
	{Name: "core.nbrs_buffered_sim_ns_per_nbr", Unit: "ns", Better: "lower"},

	{Name: "elog.append_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "elog.append_sim_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "elog.pmem_bytes", Unit: "B", Better: "lower"},
	{Name: "vbuf.dram_bytes", Unit: "B", Better: "lower"},
	{Name: "vbuf.append_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "mempool.alloc_host_ns", Unit: "ns", Better: "lower"},
	{Name: "adj.append_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "adj.decode_fixed_host_ns_per_nbr", Unit: "ns", Better: "lower"},
	{Name: "adj.decode_varint_host_ns_per_nbr", Unit: "ns", Better: "lower"},
	{Name: "adj.edges_per_xpline", Unit: "1/line", Better: "higher"},
	{Name: "adj.blocks_per_vertex_mean", Unit: "count", Better: "lower"},
	{Name: "adj.pmem_bytes", Unit: "B", Better: "lower"},
	{Name: "prop.append_host_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "prop.blocks", Unit: "count", Better: "lower"},
	{Name: "prop.filtered_media_lines_ratio", Unit: "x", Better: "lower"},

	{Name: "xpsim.media_write_lines", Unit: "count", Better: "lower"},
	{Name: "xpsim.media_read_lines", Unit: "count", Better: "lower"},
	{Name: "xpsim.write_amp", Unit: "x", Better: "lower"},
	{Name: "xpsim.read_amp", Unit: "x", Better: "lower"},
	{Name: "xpsim.xpbuffer_hit_ratio", Unit: "x", Better: "higher"},
	{Name: "xpsim.xpbuffer_evictions", Unit: "count", Better: "lower"},
	{Name: "xpsim.remote_access_ratio", Unit: "x", Better: "lower"},
	{Name: "xpsim.flushes", Unit: "count", Better: "lower"},
	{Name: "xpsim.device_write_host_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "xpsim.device_read_host_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "pmem.region_write_host_ns_per_line", Unit: "ns", Better: "lower"},

	{Name: "analytics.bfs_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "analytics.bfs_host_ms", Unit: "ms", Better: "lower"},
	{Name: "analytics.pagerank_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "analytics.pagerank_host_ms", Unit: "ms", Better: "lower"},
	{Name: "analytics.cc_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "analytics.cc_host_ms", Unit: "ms", Better: "lower"},
	{Name: "analytics.khop2_sim_us", Unit: "us", Better: "lower"},
	{Name: "analytics.khop2_filtered_sim_us", Unit: "us", Better: "lower"},
	{Name: "analytics.host_ns_per_edge_visited", Unit: "ns", Better: "lower"},
	{Name: "view.guard_self_host_ns_per_read", Unit: "ns", Better: "lower"},

	{Name: "graphone.ingest_sim_s", Unit: "s", Better: "higher"},
	{Name: "graphone.fig13_write_ratio", Unit: "x", Better: "higher"},
	{Name: "graphone.fig13_read_ratio", Unit: "x", Better: "higher"},
	{Name: "graphone.fig15_recovery_ratio", Unit: "x", Better: "higher"},
	{Name: "gen.rmat_host_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "x", Better: "lower"},
}

// median of a copy of xs; 0 for an empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile: the smallest value with at
// least q of the sample at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// bandMean is the mean of the sample between its quantiles lo and hi: a
// percentile smoothed over a band around it. The simulator's latencies
// are discrete (a vertex without out-edges costs 0 ns, one with a few
// buffered edges 315 ns), so a plain order statistic sits on one mass
// point: the median of bulk-ingest's reads is 0.315 us on every seed and
// would not move unless a change pushed half of all reads across a step.
// The band mean moves with every read inside the band.
func bandMean(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	a := int(lo * float64(len(s)))
	b := max(int(math.Ceil(hi*float64(len(s)))), a+1)
	var sum float64
	for _, x := range s[a:min(b, len(s))] {
		sum += x
	}
	return sum / float64(min(b, len(s))-a)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
