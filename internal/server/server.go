// Package server exposes an XPGraph cluster as an HTTP graph service. It
// speaks JSON over stdlib net/http, versioned under /v1:
//
//	POST /v1/edges            {"edges":[{"src":1,"dst":2}, ...]}   ingest a batch
//	DELETE /v1/edges          {"edges":[{"src":1,"dst":2}]}        delete edges
//	POST /v1/ingest/bin       binary batch (application/x-xpgraph-batch)
//	GET  /v1/vertices/{id}/out                                     resolved out-neighbors
//	GET  /v1/vertices/{id}/in                                      resolved in-neighbors
//	GET  /v1/vertices/{id}/degree                                  out/in record counts
//	POST /v1/snapshot                                              publish fresh snapshots
//	POST /v1/compact/{id}                                          compact one vertex
//	POST /v1/flush                                                 flush all vertex buffers
//	POST /v1/scrub                                                 verify checksums, repair + quarantine damage
//	GET  /v1/stats                                                 store + machine statistics
//	GET  /v1/healthz                                               liveness + per-shard health
//	GET  /v1/metrics                                               pipeline + device metrics (JSON or Prometheus)
//	GET  /v1/trace                                                 drain phase spans as Chrome trace JSON
//	POST /v1/query/bfs        {"root":1}                           BFS traversal
//	POST /v1/query/pagerank   {"iterations":10,"top":5}            PageRank top-k
//	POST /v1/query/cc         {}                                   connected components
//	POST /v1/query/khop       {"root":1,"k":2,"types":["follows"],"filter":{...}}  bounded (optionally filtered) exploration
//	POST /v1/query/path       {"root":1,"target":9,"types":[...]}  filtered shortest path
//	GET  /v1/labels                                                the edge-label table
//	POST /v1/labels           {"name":"follows"}                   register an edge label
//
// The serving backend is an internal/cluster.Cluster: New wraps a single
// store in a degenerate one-shard cluster (the classic single-box
// deployment), NewCluster serves a partitioned one — same routes, same
// payloads, because every read goes through the one view.Full surface
// (cluster.ClusterView) and every write goes through the cluster router.
//
// # Concurrency model
//
// Writes and reads are decoupled. POST/DELETE /v1/edges and
// POST /v1/ingest/bin route each batch to its owner shards, where a
// bounded per-shard ingest pipeline (internal/ingest) gathers requests
// into batches, applies them under the shard's write lock, and publishes
// a fresh core.Snapshot after every batch. When an owner shard's queue
// is full the server sheds load with 429 + Retry-After instead of
// blocking. By default a write responds after its edges are applied on
// every owner shard (read-your-writes); `?async=1` returns 202 as soon
// as every part is queued. Writes are per-shard atomic: a batch spanning
// shards may land on some and be refused by others, and the error
// envelope names the refusing shard.
//
// POST /v1/ingest/bin is the allocation-free fast path: a
// length-prefixed binary batch (Content-Type application/x-xpgraph-batch,
// format in DESIGN.md §10.1 and ingest.EncodeBatch) decodes straight
// into pooled edge buffers — no per-edge allocation, no reflection.
// The JSON handlers stream through json.Decoder into the same pools, so
// neither path ever buffers a whole request body as an intermediate
// struct slice.
//
// Reads and analytics never touch the ingest queues or the live stores
// directly: they run against a pinned ClusterView — one published
// snapshot per shard, each read through that shard's guard — so a BFS
// interleaves with in-flight ingest batches and still returns answers
// exact for its epoch vector. Every snapshot-served response carries the
// scalar epoch (the vector's sum) as an `epoch` JSON field and an
// `X-Snapshot-Epoch` header, plus the full per-shard vector as
// `epoch_vector` (length 1 on a single-shard deployment).
//
// # Observability
//
// GET /v1/metrics answers with the cluster-aggregated JSON
// MetricsResponse by default and with the full Prometheus text
// exposition (device telemetry, store gauges, per-endpoint latency
// histograms; series carry a shard label when the cluster has more than
// one) when the request prefers it — Accept: text/plain, an openmetrics
// Accept, or ?format=prometheus. GET /v1/trace drains the phase-span
// ring as Chrome trace-event JSON. See internal/obs and DESIGN.md §8.
//
// # Degraded-mode serving
//
// On MediaGuard stores the server degrades instead of lying or dying.
// GET /v1/vertices/{id}/out|in read through the media-checked path: a
// neighbor list whose adjacency blocks fail their CRC or sit on
// uncorrectable lines answers 503 media_error (or 503 unrecoverable once
// a scrub has exhausted every rebuild source) — never silently wrong
// edges. A killed shard degrades only its partition: reads of it fail
// over to the shard's best replica, and only when it has none do they
// answer 503 partition_down; other partitions keep serving throughout.
// GET /v1/healthz reports the aggregate state (ok → degraded →
// readonly) with per-shard detail, answering 503 only when no partition
// accepts writes. Whole-graph analytics (/v1/query/*) answer 503
// degraded while any partition is damaged or down, since a traversal
// cannot skip bad vertices and stay correct. Writes get a per-shard
// circuit breaker: repeated media-write failures on one shard shed that
// shard's writes with 503 circuit_open + Retry-After until a cooldown
// probe succeeds, leaving the other partitions writable.
//
// # Errors
//
// All errors use one envelope:
//
//	{"error": {"code": "queue_full", "message": "...", "shard": 2,
//	           "epoch_vector": [4,7,3,9]}}
//
// with machine-readable codes (bad_request, bad_frame,
// unsupported_media_type, method_not_allowed, not_found, queue_full,
// batch_too_large, ingest_failed, internal, shutting_down, media_error,
// unrecoverable, degraded, readonly, circuit_open, partition_down,
// shard_down, deadline_exceeded, invalid_argument, no_property_layer). `shard` and `epoch_vector` appear when
// the failure is attributable to one partition. 429 and circuit_open
// responses carry a Retry-After header; the 429 delay is jittered over
// 1-3 s so shed writers do not retry in lockstep.
//
// The pre-/v1 unversioned aliases that earlier releases served with
// Deprecation headers have been removed; they now answer 404 with a
// `Link: </v1>; rel="successor-version"` pointer.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/xpsim"
)

// Config tunes the serving stack. The zero value is usable: every field
// defaults to the value documented on it.
type Config struct {
	// QueryThreads is the simulated parallelism of /v1/query/* runs
	// (default 8).
	QueryThreads int
	// QueueCap bounds each shard's ingest queue in edges; writes beyond
	// it get 429 + Retry-After (default 1<<16).
	QueueCap int
	// BatchEdges caps how many edges one ingest batch applies under a
	// shard's write lock before its snapshot is republished (default 4096).
	BatchEdges int
	// Linger is how long each shard's writer waits for more requests to
	// fill a batch before applying a partial one (default 2ms).
	Linger time.Duration
	// FlushEvery periodically flushes all vertex buffers to PMEM from
	// each shard's writer goroutine (0 disables; flushing still happens
	// through the store's own archive thresholds and POST /v1/flush).
	FlushEvery time.Duration
	// Tracer receives the stores' phase spans and backs GET /v1/trace.
	// When nil the server uses the first store's attached tracer, or
	// creates a default bounded ring so /v1/trace always works.
	Tracer *obs.Tracer
	// RequestTimeout bounds every request; one that runs past it answers
	// 503 deadline_exceeded (0 disables).
	RequestTimeout time.Duration
	// ScrubEvery periodically runs a media scrub pass from each shard's
	// writer goroutine — MediaGuard stores only (0 disables; POST
	// /v1/scrub always works).
	ScrubEvery time.Duration
	// BreakerThreshold is how many consecutive media-write failures open
	// a shard's ingest circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a breaker stays open before admitting
	// a half-open probe write (default 5s).
	BreakerCooldown time.Duration
	// MaxBodyBytes bounds every write-request body via
	// http.MaxBytesReader; oversized bodies answer 413 batch_too_large
	// (default 32 MiB).
	MaxBodyBytes int64
	// Adaptive attaches the AIMD admission controller to every shard's
	// ingest pipeline: BatchEdges/Linger/QueueCap become ceilings and
	// the live knobs tune down under congestion (DESIGN.md §12.3).
	Adaptive bool
	// AdaptiveTarget overrides the controller's applied-batch latency
	// target (default 2ms host time).
	AdaptiveTarget time.Duration

	// batchDelay is a test hook: sleep between batch applications,
	// outside the write locks, so tests can observe reads completing
	// while a multi-batch ingest is mid-flight.
	batchDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueryThreads <= 0 {
		c.QueryThreads = 8
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1 << 16
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// clusterConfig maps the server's pipeline knobs onto the cluster's.
func (c Config) clusterConfig() cluster.Config {
	return cluster.Config{
		QueueCap:         c.QueueCap,
		BatchEdges:       c.BatchEdges,
		Linger:           c.Linger,
		FlushEvery:       c.FlushEvery,
		ScrubEvery:       c.ScrubEvery,
		BreakerThreshold: c.BreakerThreshold,
		BreakerCooldown:  c.BreakerCooldown,
		BatchDelay:       c.batchDelay,
		Adaptive:         c.Adaptive,
		AdaptiveTarget:   c.AdaptiveTarget,
	}
}

// Server wraps a cluster with an http.Handler. Create with New (single
// store) or NewCluster (partitioned), dispose with Close (stops the
// ingest pipelines).
type Server struct {
	cfg Config
	// cl is the serving backend: partitioning, pipelines, publications,
	// breakers, replicas. A single-store server is a one-shard cluster.
	cl *cluster.Cluster
	// machine is the reference machine for query latency modeling (shard
	// 0's; all shards of a cluster are configured identically).
	machine *xpsim.Machine
	mux     *http.ServeMux
	// inner is the mux, optionally wrapped in http.TimeoutHandler when
	// Config.RequestTimeout is set; ServeHTTP routes through it after the
	// /v1 prefix handling.
	inner http.Handler

	// retrySeq sequences the jittered Retry-After values of 429 responses.
	retrySeq atomic.Uint64

	// Observability surface: the registry gathers device telemetry,
	// store gauges, and the server's own series; the tracer ring backs
	// GET /v1/trace.
	reg      *obs.Registry
	tracer   *obs.Tracer
	httpLat  *obs.HistogramVec
	httpReqs *obs.CounterVec
}

// New builds a server over a single store — a one-shard cluster — and
// starts its ingest pipeline. The classic deployment, and bit-compatible
// with the pre-cluster wire surface (scalar epochs gain a length-1
// epoch_vector alongside).
func New(store *core.Store, machine *xpsim.Machine, cfg Config) *Server {
	cl, err := cluster.New([]*core.Store{store}, cfg.withDefaults().clusterConfig())
	if err != nil {
		panic(fmt.Sprintf("server: building one-shard cluster: %v", err))
	}
	return newServer(cl, machine, cfg)
}

// NewCluster builds a server over a pre-built, not-yet-started cluster
// (its pipeline knobs were fixed at cluster.New; the server's own
// pipeline fields are ignored here). The server takes ownership: Close/
// Shutdown stop the cluster.
func NewCluster(cl *cluster.Cluster, cfg Config) *Server {
	return newServer(cl, cl.Shard(0).Store().Machine(), cfg)
}

func newServer(cl *cluster.Cluster, machine *xpsim.Machine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, cl: cl, machine: machine}

	// Attach the tracer before Start's first publications so even the
	// initial snapshots' spans land in the ring.
	s.tracer = cfg.Tracer
	if s.tracer == nil {
		s.tracer = cl.Shard(0).Store().Tracer()
	}
	if s.tracer == nil {
		s.tracer = obs.NewTracer(0)
	}
	for i := 0; i < cl.Shards(); i++ {
		cl.Shard(i).Store().SetTracer(s.tracer)
	}
	s.initMetrics()

	if err := cl.Start(); err != nil {
		panic(fmt.Sprintf("server: starting cluster: %v", err))
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/edges", s.handleEdges)
	mux.HandleFunc("/ingest/bin", s.handleIngestBin)
	mux.HandleFunc("/vertices/", s.handleVertex)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/compact/", s.handleCompact)
	mux.HandleFunc("/flush", s.handleFlush)
	mux.HandleFunc("/scrub", s.handleScrub)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/query/bfs", s.handleBFS)
	mux.HandleFunc("/query/pagerank", s.handlePageRank)
	mux.HandleFunc("/query/cc", s.handleCC)
	mux.HandleFunc("/query/khop", s.handleKHop)
	mux.HandleFunc("/query/path", s.handlePath)
	mux.HandleFunc("/labels", s.handleLabels)
	// Catch-all so unknown routes get the JSON error envelope instead of
	// the mux's plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "not_found", "no such route %q", r.URL.Path)
	})
	s.mux = mux
	s.inner = mux
	if cfg.RequestTimeout > 0 {
		// TimeoutHandler answers abandoned requests itself with 503 and
		// our JSON envelope; the metrics wrapper in ServeHTTP stays
		// outside so timed-out requests are still counted.
		body, _ := json.Marshal(errorBody{Error: errorDetail{
			Code:    "deadline_exceeded",
			Message: fmt.Sprintf("request exceeded the %v deadline", cfg.RequestTimeout),
		}})
		s.inner = http.TimeoutHandler(mux, cfg.RequestTimeout, string(body))
	}
	return s
}

// Cluster returns the serving backend (tests and embedding callers).
func (s *Server) Cluster() *cluster.Cluster { return s.cl }

// ServeHTTP implements http.Handler. Only /v1/* routes exist; the
// pre-/v1 unversioned aliases were removed after their deprecation
// release and now answer 404 with a successor-version pointer. Every
// request is timed into the per-endpoint latency histogram under a
// normalized route label.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	route := "other"
	if p, ok := strings.CutPrefix(r.URL.Path, "/v1"); ok && (p == "" || strings.HasPrefix(p, "/")) {
		route = routeLabel(p)
		r2 := r.Clone(r.Context())
		r2.URL.Path = p
		s.inner.ServeHTTP(w, r2)
	} else {
		w.Header().Set("Link", `</v1>; rel="successor-version"`)
		httpError(w, http.StatusNotFound, "not_found",
			"unversioned route %q was removed; use /v1%s", r.URL.Path, r.URL.Path)
	}
	s.httpReqs.With(route).Inc()
	s.httpLat.With(route).Observe(time.Since(start).Seconds())
}

// Close stops the cluster's ingest pipelines abruptly. Pending
// synchronous writers are released with a shutting_down error;
// queued-but-unapplied async edges are dropped. Close the HTTP listener
// first. For a drain that applies queued writes, use Shutdown.
func (s *Server) Close() {
	s.cl.Close()
}

// Shutdown gracefully stops the cluster: new writes are rejected with
// shutting_down, every already-accepted write is applied normally
// (synchronous writers receive their results), each shard runs a final
// vertex-buffer flush, and the replicas drain everything shipped.
// Returns once every pipeline has exited; Close afterwards is a no-op.
// Stop accepting HTTP traffic (http.Server.Shutdown) first.
func (s *Server) Shutdown() {
	s.cl.Shutdown()
}

// Tracer returns the phase tracer the server records into (never nil;
// New falls back to a default ring when none was configured).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// ---- request/response shapes ----

// edgeJSON is one edge in wire format.
type edgeJSON struct {
	Src graph.VID `json:"src"`
	Dst graph.VID `json:"dst"`
}

// IngestResponse reports an ingestion. For async (202) responses only
// Accepted and the epochs (current at enqueue time) are set.
type IngestResponse struct {
	Accepted int64   `json:"accepted"`
	SimMs    float64 `json:"sim_ms"`
	Batches  int64   `json:"batches"`
	// Epoch is the scalar snapshot epoch (the vector's sum) at which the
	// write became readable on every shard it touched.
	Epoch uint64 `json:"epoch"`
	// EpochVector is the per-shard epoch vector (length 1 on a
	// single-shard deployment).
	EpochVector []uint64 `json:"epoch_vector"`
}

// NeighborsResponse reports a neighbor query.
type NeighborsResponse struct {
	Vertex      graph.VID `json:"vertex"`
	Neighbors   []uint32  `json:"neighbors"`
	SimUs       float64   `json:"sim_us"`
	Epoch       uint64    `json:"epoch"`
	EpochVector []uint64  `json:"epoch_vector"`
}

// degreeResponse reports record counts.
type degreeResponse struct {
	Vertex      graph.VID `json:"vertex"`
	Out         int       `json:"out"`
	In          int       `json:"in"`
	Epoch       uint64    `json:"epoch"`
	EpochVector []uint64  `json:"epoch_vector"`
}

// statsResponse reports store and machine statistics, summed across
// shards (NumVertices is the max: vertex IDs are global).
type statsResponse struct {
	NumVertices     graph.VID `json:"num_vertices"`
	LoggedEdges     int64     `json:"logged_edges"`
	MetaDRAMBytes   int64     `json:"meta_dram_bytes"`
	VbufDRAMBytes   int64     `json:"vbuf_dram_bytes"`
	ElogPMEMBytes   int64     `json:"elog_pmem_bytes"`
	PblkPMEMBytes   int64     `json:"pblk_pmem_bytes"`
	MediaReadBytes  int64     `json:"pmem_media_read_bytes"`
	MediaWriteBytes int64     `json:"pmem_media_write_bytes"`
	Shards          int       `json:"shards"`
	Epoch           uint64    `json:"epoch"`
	EpochVector     []uint64  `json:"epoch_vector"`
}

// snapshotResponse reports an explicit snapshot publication.
type snapshotResponse struct {
	Epoch       uint64   `json:"epoch"`
	EpochVector []uint64 `json:"epoch_vector"`
}

// ShardHealthJSON is one partition's health in the healthz body.
type ShardHealthJSON struct {
	Shard int `json:"shard"`
	// Status is ok/degraded/readonly from the store's health machine, or
	// "down" once the shard was killed.
	Status string `json:"status"`
	// ServingReplica is true when the partition's reads come from a
	// follower because the leader is down.
	ServingReplica bool     `json:"serving_replica,omitempty"`
	Epoch          uint64   `json:"epoch"`
	ReplicaEpochs  []uint64 `json:"replica_epochs,omitempty"`
	// ReplicaStates names each follower's state machine position
	// (running/resyncing/damaged), index-aligned with ReplicaEpochs.
	ReplicaStates         []string `json:"replica_states,omitempty"`
	DamagedVertices       int      `json:"damaged_vertices,omitempty"`
	UnrecoverableVertices int      `json:"unrecoverable_vertices,omitempty"`
	BreakerOpen           bool     `json:"breaker_open,omitempty"`
}

// HealthzResponse is the liveness probe body. Status is the aggregate
// state: "ok" only when every partition is ok, "degraded" when any
// partition is damaged or down (its reads may be served by a replica),
// "readonly" (503) only when no partition accepts writes. The damage
// counts are summed across partitions; Shards carries the per-partition
// detail.
type HealthzResponse struct {
	Status                string            `json:"status"`
	Epoch                 uint64            `json:"epoch"`
	EpochVector           []uint64          `json:"epoch_vector"`
	DamagedVertices       int               `json:"damaged_vertices"`
	UnrecoverableVertices int               `json:"unrecoverable_vertices"`
	QuarantinedSpans      int               `json:"quarantined_spans"`
	QuarantinedBytes      int64             `json:"quarantined_bytes"`
	DeadNodes             []int             `json:"dead_nodes,omitempty"`
	UELines               int               `json:"ue_lines"`
	BreakerOpen           bool              `json:"breaker_open"`
	Shards                []ShardHealthJSON `json:"shards"`
}

// ScrubResponse reports one POST /v1/scrub pass (summed across shards;
// SimMs is the slowest shard's — they scrub in parallel).
type ScrubResponse struct {
	VerticesScanned  int64 `json:"vertices_scanned"`
	Damaged          int64 `json:"damaged"`
	Repaired         int64 `json:"repaired"`
	Unrecoverable    int64 `json:"unrecoverable"`
	SpansQuarantined int64 `json:"spans_quarantined"`
	BytesQuarantined int64 `json:"bytes_quarantined"`
	LogBadRecords    int64 `json:"log_bad_records"`
	// Property-column counters (zero unless the stores carry columns).
	PropBlocksScrubbed int64 `json:"prop_blocks_scrubbed,omitempty"`
	PropBlocksBad      int64 `json:"prop_blocks_bad,omitempty"`
	PropBlocksRebuilt  int64 `json:"prop_blocks_rebuilt,omitempty"`
	PropUnrecoverable  int64 `json:"prop_unrecoverable,omitempty"`

	SimMs       float64  `json:"sim_ms"`
	Health      string   `json:"health"`
	Epoch       uint64   `json:"epoch"`
	EpochVector []uint64 `json:"epoch_vector"`
}

// MetricsResponse reports ingest-pipeline and snapshot metrics, summed
// across shards. All counters come from one consistent snapshot per
// shard pipeline, so EdgesApplied + EdgesDropped + QueueDepthEdges ==
// EdgesAccepted holds in every response, even one racing concurrent
// ingest. The LastBatch* fields describe the most recently applied batch
// on any shard.
type MetricsResponse struct {
	QueueDepthEdges int64 `json:"queue_depth_edges"`
	QueueCapEdges   int64 `json:"queue_cap_edges"`
	EdgesAccepted   int64 `json:"edges_accepted"`
	EdgesApplied    int64 `json:"edges_applied"`
	EdgesDropped    int64 `json:"edges_dropped"`
	BatchesApplied  int64 `json:"batches_applied"`
	RejectedWrites  int64 `json:"rejected_writes"`
	// LastBatch* describe the most recently applied ingest batch:
	// host-clock latency, simulated store time, and size.
	LastBatchHostUs float64  `json:"last_batch_host_us"`
	LastBatchSimMs  float64  `json:"last_batch_sim_ms"`
	LastBatchEdges  int64    `json:"last_batch_edges"`
	SnapshotEpoch   uint64   `json:"snapshot_epoch"`
	SnapshotAgeMs   float64  `json:"snapshot_age_ms"`
	EpochVector     []uint64 `json:"epoch_vector"`
}

// bfsRequest selects a traversal root.
type bfsRequest struct {
	Root graph.VID `json:"root"`
}

// bfsResponse reports a traversal.
type bfsResponse struct {
	Root        graph.VID `json:"root"`
	Visited     int64     `json:"visited"`
	Levels      int       `json:"levels"`
	SimMs       float64   `json:"sim_ms"`
	Epoch       uint64    `json:"epoch"`
	EpochVector []uint64  `json:"epoch_vector"`
}

// pageRankRequest configures a PageRank run.
type pageRankRequest struct {
	Iterations int `json:"iterations"`
	Top        int `json:"top"`
}

// rankedVertex pairs a vertex with its rank.
type rankedVertex struct {
	Vertex graph.VID `json:"vertex"`
	Rank   float64   `json:"rank"`
}

// pageRankResponse reports the top-ranked vertices.
type pageRankResponse struct {
	Top         []rankedVertex `json:"top"`
	SimMs       float64        `json:"sim_ms"`
	Epoch       uint64         `json:"epoch"`
	EpochVector []uint64       `json:"epoch_vector"`
}

// ccResponse reports connected components.
type ccResponse struct {
	Components  int      `json:"components"`
	SimMs       float64  `json:"sim_ms"`
	Epoch       uint64   `json:"epoch"`
	EpochVector []uint64 `json:"epoch_vector"`
}

// FilterJSON is the wire form of a vertex-property predicate: keep a
// neighbor only when its property Key relates to Value under Op (eq, ne,
// lt, le, gt, ge, exists). The predicate — like the types list it rides
// with — is pushed down into the view layer, pruning the traversal
// frontier at adjacency-decode time (DESIGN.md §13.4).
type FilterJSON struct {
	Key   uint16 `json:"key"`
	Op    string `json:"op"`
	Value int64  `json:"value"`
}

// KHopRequest bounds a neighborhood exploration. Types and Filter are
// optional: when either is set the traversal expands only edges whose
// label name is in Types (all labels when empty) and whose destination
// passes Filter. K must be in [0, 64]; 0 defaults to 2.
type KHopRequest struct {
	Root   graph.VID   `json:"root"`
	K      int         `json:"k"`
	Types  []string    `json:"types,omitempty"`
	Filter *FilterJSON `json:"filter,omitempty"`
}

// KHopResponse reports the bounded exploration.
type KHopResponse struct {
	Root        graph.VID `json:"root"`
	Reached     int64     `json:"reached"`
	PerHop      []int64   `json:"per_hop"`
	SimMs       float64   `json:"sim_ms"`
	Epoch       uint64    `json:"epoch"`
	EpochVector []uint64  `json:"epoch_vector"`
}

// pathRequest asks for a shortest path (by hop count) from Root to
// Target through edges passing the optional Types/Filter predicate,
// exploring at most MaxDepth hops (default 8, max 64).
type pathRequest struct {
	Root     graph.VID   `json:"root"`
	Target   graph.VID   `json:"target"`
	MaxDepth int         `json:"max_depth"`
	Types    []string    `json:"types,omitempty"`
	Filter   *FilterJSON `json:"filter,omitempty"`
}

// pathResponse reports the search: when Found, Path is the vertex
// sequence root..target inclusive and Hops == len(path)-1.
type pathResponse struct {
	Root        graph.VID   `json:"root"`
	Target      graph.VID   `json:"target"`
	Found       bool        `json:"found"`
	Path        []graph.VID `json:"path,omitempty"`
	Hops        int         `json:"hops"`
	SimMs       float64     `json:"sim_ms"`
	Epoch       uint64      `json:"epoch"`
	EpochVector []uint64    `json:"epoch_vector"`
}

// labelsResponse is the edge-label table: Labels[id] is the name of
// label id, with id 0 the default (untyped) label whose name is "".
type labelsResponse struct {
	Labels      []string `json:"labels"`
	Epoch       uint64   `json:"epoch"`
	EpochVector []uint64 `json:"epoch_vector"`
}

// labelRequest is the body of POST /v1/labels.
type labelRequest struct {
	Name string `json:"name"`
}

// labelResponse reports a label registration (idempotent: registering
// an existing name returns its id).
type labelResponse struct {
	ID          uint16   `json:"id"`
	Name        string   `json:"name"`
	Epoch       uint64   `json:"epoch"`
	EpochVector []uint64 `json:"epoch_vector"`
}

// ---- JSON plumbing ----

// errorBody is the uniform error envelope of the /v1 API.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Shard names the partition the failure is attributable to, when it
	// is one partition's (queue_full, circuit_open, media_error,
	// partition_down, ...).
	Shard *int `json:"shard,omitempty"`
	// EpochVector is the cluster's epoch vector at failure time, when a
	// consistent read of it was available.
	EpochVector []uint64 `json:"epoch_vector,omitempty"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The header is already out; nothing sensible left to do.
		_ = err
	}
}

// writeEpochJSON emits v with the scalar snapshot epoch mirrored in a
// header, so clients that discard bodies can still track staleness.
func writeEpochJSON(w http.ResponseWriter, epoch uint64, v any) {
	w.Header().Set("X-Snapshot-Epoch", fmt.Sprintf("%d", epoch))
	writeJSON(w, v)
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeErrorDetail(w, status, errorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	})
}

// httpShardError is httpError with the partition attribution the
// cluster-aware envelope carries.
func httpShardError(w http.ResponseWriter, status int, code string, shardID int, vec []uint64, format string, args ...any) {
	writeErrorDetail(w, status, errorDetail{
		Code:        code,
		Message:     fmt.Sprintf(format, args...),
		Shard:       &shardID,
		EpochVector: vec,
	})
}

func writeErrorDetail(w http.ResponseWriter, status int, d errorDetail) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: d})
}
