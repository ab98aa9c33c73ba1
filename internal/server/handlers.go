package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/prop"
	"repro/internal/splitmix"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// engineFor builds a per-request analytics engine over a pinned cluster
// view. The engine only sees view.View — it cannot tell one shard from
// sixteen, which is the whole point of the view-only read API.
func (s *Server) engineFor(cv *cluster.ClusterView) *analytics.Engine {
	return analytics.NewEngine(cv, &s.machine.Lat, s.cfg.QueryThreads)
}

// ---- writes ----

// decodeWriteBody reads a JSON ingest request body into a pooled edge
// buffer, streaming through ingest.DecodeJSONEdges — no intermediate
// struct slice, and http.MaxBytesReader fences runaway bodies. On error
// it writes the response, recycles the buffer, and returns nil.
func (s *Server) decodeWriteBody(w http.ResponseWriter, r *http.Request) []graph.Edge {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	edges := ingest.GetEdgeBuf()
	var err error
	edges, err = ingest.DecodeJSONEdges(body, edges, r.Method == http.MethodDelete, s.cl.Pipeline().QueueCap)
	if err == nil && len(edges) == 0 {
		err = errors.New("no edges")
	}
	if err != nil {
		ingest.PutEdgeBuf(edges)
		s.writeDecodeError(w, err, false)
		return nil
	}
	return edges
}

// writeDecodeError maps a body-decode failure onto the envelope; both
// the JSON and binary transports share it.
func (s *Server) writeDecodeError(w http.ResponseWriter, err error, binary bool) {
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, ingest.ErrBatchTooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			"request exceeds the queue capacity of %d edges; split it", s.cl.Pipeline().QueueCap)
	case errors.As(err, &mbe):
		httpError(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			"request body exceeds the %d byte limit; split it", s.cfg.MaxBodyBytes)
	case binary && errors.Is(err, ingest.ErrBadFrame):
		httpError(w, http.StatusBadRequest, "bad_frame", "bad batch: %v", err)
	default:
		httpError(w, http.StatusBadRequest, "bad_request", "bad body: %v", err)
	}
}

// writeIngestError maps a cluster routing/application failure onto the
// error envelope, naming the shard that refused.
func (s *Server) writeIngestError(w http.ResponseWriter, err error) {
	shardID := -1
	var se *cluster.ShardError
	if errors.As(err, &se) {
		shardID = se.Shard
	}
	vec := s.cl.EpochVector()
	var boe *cluster.BreakerOpenError
	var me *xpsim.MediaError
	switch {
	case errors.As(err, &boe):
		w.Header().Set("Retry-After", strconv.Itoa(int(boe.Wait/time.Second)+1))
		httpShardError(w, http.StatusServiceUnavailable, "circuit_open", shardID, vec,
			"ingest circuit breaker is open after repeated media-write failures; retry in %v",
			boe.Wait.Round(time.Millisecond))
	case errors.Is(err, cluster.ErrShardDown):
		httpShardError(w, http.StatusServiceUnavailable, "shard_down", shardID, vec,
			"shard %d is down; its partition refuses writes", shardID)
	case errors.Is(err, ingest.ErrShuttingDown):
		httpError(w, http.StatusServiceUnavailable, "shutting_down", "server is shutting down")
	case errors.Is(err, ingest.ErrQueueFull):
		// Jitter the retry delay so a burst of shed writers spreads out
		// instead of stampeding back on the same second.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(s.retrySeq.Add(1))))
		queued := int64(0)
		if shardID >= 0 {
			queued = s.cl.Shard(shardID).PipeStats().Queued
		}
		httpShardError(w, http.StatusTooManyRequests, "queue_full", shardID, vec,
			"ingest queue of shard %d is full (%d edges queued, capacity %d)",
			shardID, queued, s.cl.Pipeline().QueueCap)
	case errors.As(err, &me):
		// A media failure, not a capacity problem: the device under the
		// write is gone or erroring. 503 so clients back off.
		httpShardError(w, http.StatusServiceUnavailable, "media_error", shardID, vec,
			"ingest: %v", err)
	default:
		httpShardError(w, http.StatusInsufficientStorage, "ingest_failed", shardID, vec,
			"ingest: %v", err)
	}
}

// retryAfterSecs maps a request sequence number to a deterministic
// pseudo-random Retry-After of 1, 2, or 3 seconds (splitmix64 finalizer),
// spreading shed writers' retries instead of synchronizing them on one
// fixed delay.
func retryAfterSecs(seq uint64) int {
	return 1 + int(splitmix.Mix(seq)%3)
}

// enqueueAndRespond routes decoded edges through the cluster — breaker
// and queue admission per owner shard — and writes the ingest response.
// The cluster copies each shard's part into its own pooled buffer, so
// the decoded slice is recycled here as soon as Ingest returns.
func (s *Server) enqueueAndRespond(w http.ResponseWriter, r *http.Request, edges []graph.Edge) {
	async := r.URL.Query().Get("async") == "1"
	n := int64(len(edges))
	res, err := s.cl.Ingest(edges, !async)
	ingest.PutEdgeBuf(edges)
	if err != nil {
		s.writeIngestError(w, err)
		return
	}
	if async {
		epoch := cluster.EpochScalar(res.Epochs)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Snapshot-Epoch", fmt.Sprintf("%d", epoch))
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, IngestResponse{Accepted: n, Epoch: epoch, EpochVector: res.Epochs})
		return
	}
	epoch := res.Epoch()
	writeEpochJSON(w, epoch, IngestResponse{
		Accepted:    res.Accepted,
		SimMs:       float64(res.SimNs) / 1e6,
		Batches:     res.Batches,
		Epoch:       epoch,
		EpochVector: res.Epochs,
	})
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodDelete {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST or DELETE")
		return
	}
	edges := s.decodeWriteBody(w, r)
	if edges == nil {
		return
	}
	s.enqueueAndRespond(w, r, edges)
}

// handleIngestBin is the binary batch endpoint: POST /v1/edges behind
// the length-prefixed wire format of ingest.DecodeBatch (DESIGN.md
// §10.1), extended with typed-edge and property-set frames (§13.6). A
// plain batch takes the pipeline route, a batch with labels or property
// writes cluster.IngestTyped; §11.2's table says how each commits.
func (s *Server) handleIngestBin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != ingest.ContentTypeBatch {
			httpError(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
				"use Content-Type %s", ingest.ContentTypeBatch)
			return
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	b := ingest.TypedBatch{Edges: ingest.GetEdgeBuf()}
	err := ingest.DecodeBatchTyped(body, &b, s.cl.Pipeline().QueueCap)
	if err == nil && len(b.Edges) == 0 && len(b.Props) == 0 {
		err = errors.New("no edges")
	}
	if err != nil {
		ingest.PutEdgeBuf(b.Edges)
		s.writeDecodeError(w, err, true)
		return
	}
	if b.Labels == nil && len(b.Props) == 0 {
		s.enqueueAndRespond(w, r, b.Edges)
		return
	}
	if r.URL.Query().Get("async") == "1" {
		ingest.PutEdgeBuf(b.Edges)
		httpError(w, http.StatusBadRequest, "invalid_argument",
			"typed batches are applied synchronously; drop ?async=1")
		return
	}
	res, ierr := s.cl.IngestTyped(b.Edges, b.Labels, b.Props)
	ingest.PutEdgeBuf(b.Edges)
	if ierr != nil {
		s.writeIngestError(w, ierr)
		return
	}
	epoch := res.Epoch()
	writeEpochJSON(w, epoch, IngestResponse{
		Accepted:    res.Accepted,
		SimMs:       float64(res.SimNs) / 1e6,
		Batches:     res.Batches,
		Epoch:       epoch,
		EpochVector: res.Epochs,
	})
}

// ---- snapshot reads ----

// nbrScratchPool recycles the neighbor-resolution destination slices of
// the point-read handlers, so a GET /v1/vertices/{id}/out allocates only
// the response encoding.
var nbrScratchPool = sync.Pool{
	New: func() any { b := make([]uint32, 0, 256); return &b },
}

func getNbrScratch() *[]uint32 { return nbrScratchPool.Get().(*[]uint32) }

func putNbrScratch(bp *[]uint32, used []uint32) {
	// Keep the grown slice when resolution outgrew the pooled one, but
	// drop pathological capacities so one super-vertex cannot pin memory.
	if cap(used) > cap(*bp) {
		*bp = used
	}
	if cap(*bp) > 1<<20 {
		return
	}
	*bp = (*bp)[:0]
	nbrScratchPool.Put(bp)
}

// vertexPath parses "/v1/vertices/{id}/{rest...}".
func vertexPath(path string) (graph.VID, string, error) {
	rest := strings.TrimPrefix(path, v1+"/vertices/")
	parts := strings.SplitN(rest, "/", 2)
	id, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return 0, "", fmt.Errorf("bad vertex id %q", parts[0])
	}
	sub := ""
	if len(parts) == 2 {
		sub = parts[1]
	}
	return graph.VID(id), sub, nil
}

// writeReadError maps a checked-read failure onto the envelope: typed
// partition-down, exhausted-rebuild, or plain media error — always with
// the partition named.
func (s *Server) writeReadError(w http.ResponseWriter, cv *cluster.ClusterView, v graph.VID, err error) {
	shardID := s.cl.Owner(v)
	var se *cluster.ShardError
	if errors.As(err, &se) {
		shardID = se.Shard
	}
	var pd *cluster.PartitionDownError
	if errors.As(err, &pd) {
		httpShardError(w, http.StatusServiceUnavailable, "partition_down", pd.Shard, cv.EpochVector(),
			"vertex %d: %v", v, err)
		return
	}
	var ue *core.UnrecoverableError
	if errors.As(err, &ue) {
		httpShardError(w, http.StatusServiceUnavailable, "unrecoverable", shardID, cv.EpochVector(),
			"vertex %d: %v", v, err)
		return
	}
	httpShardError(w, http.StatusServiceUnavailable, "media_error", shardID, cv.EpochVector(),
		"vertex %d: %v (a scrub may repair it: POST /v1/scrub)", v, err)
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	v, sub, err := vertexPath(r.URL.Path)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	cv := s.cl.AcquireView()
	defer cv.Release()
	ctx := xpsim.NewCtx(cv.OutNode(v))
	switch sub {
	case "out", "in":
		// Read through the media-checked path: a neighbor list whose
		// adjacency blocks fail their checksum or sit on uncorrectable
		// lines answers 503 instead of silently wrong edges. The view's
		// per-shard guards take each shard's read lock internally.
		scratch := getNbrScratch()
		var nbrs []uint32
		var nerr error
		if sub == "out" {
			nbrs, nerr = cv.NbrsOutChecked(ctx, v, (*scratch)[:0])
		} else {
			nbrs, nerr = cv.NbrsInChecked(ctx, v, (*scratch)[:0])
		}
		defer putNbrScratch(scratch, nbrs)
		if nerr != nil {
			s.writeReadError(w, cv, v, nerr)
			return
		}
		if nbrs == nil {
			nbrs = []uint32{}
		}
		writeEpochJSON(w, cv.Epoch(), NeighborsResponse{Vertex: v, Neighbors: nbrs,
			SimUs: float64(ctx.Cost.Ns()) / 1e3, Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
	case "degree":
		// The checked form: a count that silently leaves out a dead,
		// replica-less partition's records answers 503 like /out and /in.
		out, err := cv.Degree(view.Out, v)
		in, inErr := cv.Degree(view.In, v)
		if err == nil {
			err = inErr
		}
		if err != nil {
			s.writeReadError(w, cv, v, err)
			return
		}
		writeEpochJSON(w, cv.Epoch(), degreeResponse{Vertex: v, Out: out, In: in,
			Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
	default:
		httpError(w, http.StatusNotFound, "not_found", "unknown vertex view %q", sub)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	ch := s.cl.Health()
	vec := s.cl.EpochVector()
	resp := HealthzResponse{
		Status:      ch.State,
		Epoch:       cluster.EpochScalar(vec),
		EpochVector: vec,
	}
	for _, sh := range ch.Shards {
		resp.DamagedVertices += sh.Health.DamagedVertices
		resp.UnrecoverableVertices += sh.Health.UnrecoverableVertices
		resp.QuarantinedSpans += sh.Health.QuarantinedSpans
		resp.QuarantinedBytes += sh.Health.QuarantinedBytes
		resp.DeadNodes = append(resp.DeadNodes, sh.Health.DeadNodes...)
		resp.UELines += sh.Health.UELines
		resp.BreakerOpen = resp.BreakerOpen || sh.Breaker.Open
		resp.Shards = append(resp.Shards, ShardHealthJSON{
			Shard:                 sh.Shard,
			Status:                sh.State,
			ServingReplica:        sh.ServingReplica,
			Epoch:                 sh.Epoch,
			ReplicaEpochs:         sh.ReplicaEpochs,
			ReplicaStates:         sh.ReplicaStates,
			DamagedVertices:       sh.Health.DamagedVertices,
			UnrecoverableVertices: sh.Health.UnrecoverableVertices,
			BreakerOpen:           sh.Breaker.Open,
		})
	}
	w.Header().Set("X-Snapshot-Epoch", fmt.Sprintf("%d", resp.Epoch))
	if ch.State == core.HealthReadonly.String() {
		// Probes should see the cluster as unavailable for writes; the
		// body still carries the full health detail.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, resp)
}

// wantsPrometheus decides the /v1/metrics representation: the JSON
// shape stays the default; the Prometheus text exposition is chosen by
// content negotiation or an explicit format override.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	if wantsPrometheus(r) {
		// Gather under every shard's shared lock: store gauge callbacks
		// read live log cursors and pool counters that concurrent ingest
		// batches mutate under the exclusive locks.
		var buf bytes.Buffer
		var err error
		s.cl.RLockAll(func() {
			err = s.reg.WritePrometheus(&buf)
		})
		if err != nil {
			httpError(w, http.StatusInternalServerError, "internal", "gather: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
		return
	}
	// One consistent Stats copy per shard pipeline, summed: applied can
	// never exceed accepted, per shard and therefore in the sum.
	var resp MetricsResponse
	var lastPub int64
	for i := 0; i < s.cl.Shards(); i++ {
		v := s.cl.Shard(i).PipeStats()
		resp.QueueDepthEdges += v.Queued
		resp.EdgesAccepted += v.EdgesAccepted
		resp.EdgesApplied += v.EdgesApplied
		resp.EdgesDropped += v.EdgesDropped
		resp.BatchesApplied += v.BatchesApplied
		resp.RejectedWrites += v.Rejected
		resp.SnapshotEpoch += v.Epoch
		resp.EpochVector = append(resp.EpochVector, v.Epoch)
		if v.PublishedAtNs > lastPub {
			lastPub = v.PublishedAtNs
		}
		if v.LastBatchHostNs > 0 && float64(v.LastBatchHostNs)/1e3 > resp.LastBatchHostUs {
			resp.LastBatchHostUs = float64(v.LastBatchHostNs) / 1e3
			resp.LastBatchSimMs = float64(v.LastBatchSimNs) / 1e6
			resp.LastBatchEdges = v.LastBatchEdges
		}
	}
	resp.QueueCapEdges = int64(s.cl.Pipeline().QueueCap) * int64(s.cl.Shards())
	resp.SnapshotAgeMs = float64(s.cl.Clock().Now().UnixNano()-lastPub) / 1e6
	writeJSON(w, resp)
}

// handleTrace drains the span ring as Chrome trace-event JSON: each GET
// returns everything recorded since the previous one.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	spans := s.tracer.Drain()
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTrace(w, spans); err != nil {
		_ = err // headers are out; nothing sensible left to do
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.cl.Stats()
	resp := statsResponse{
		NumVertices:     st.NumVertices,
		LoggedEdges:     st.LoggedEdges,
		MetaDRAMBytes:   st.MetaDRAMBytes,
		VbufDRAMBytes:   st.VbufDRAMBytes,
		ElogPMEMBytes:   st.ElogPMEMBytes,
		PblkPMEMBytes:   st.PblkPMEMBytes,
		MediaReadBytes:  st.MediaReadBytes,
		MediaWriteBytes: st.MediaWriteBytes,
		Shards:          s.cl.Shards(),
		Epoch:           cluster.EpochScalar(st.Epochs),
		EpochVector:     st.Epochs,
	}
	writeEpochJSON(w, resp.Epoch, resp)
}

// ---- admin writes (exclusive per-shard lock, then republish) ----

// writeAdminError maps an admin-op failure, attributing the shard when
// the cluster named one.
func (s *Server) writeAdminError(w http.ResponseWriter, op string, err error) {
	var se *cluster.ShardError
	if errors.As(err, &se) {
		if errors.Is(err, cluster.ErrShardDown) {
			httpShardError(w, http.StatusServiceUnavailable, "shard_down", se.Shard,
				s.cl.EpochVector(), "%s: %v", op, err)
			return
		}
		httpShardError(w, http.StatusInternalServerError, "internal", se.Shard,
			s.cl.EpochVector(), "%s: %v", op, err)
		return
	}
	httpError(w, http.StatusInternalServerError, "internal", "%s: %v", op, err)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	vec := s.cl.PublishAll()
	epoch := cluster.EpochScalar(vec)
	writeEpochJSON(w, epoch, snapshotResponse{Epoch: epoch, EpochVector: vec})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, v1+"/compact/")
	id, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "bad vertex id %q", idStr)
		return
	}
	simNs, cerr := s.cl.CompactVertex(graph.VID(id))
	if cerr != nil {
		s.writeAdminError(w, "compact", cerr)
		return
	}
	vec := s.cl.EpochVector()
	epoch := cluster.EpochScalar(vec)
	writeEpochJSON(w, epoch, map[string]any{
		"compacted": id, "sim_us": float64(simNs) / 1e3, "epoch": epoch, "epoch_vector": vec})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	if ferr := s.cl.FlushAll(); ferr != nil {
		s.writeAdminError(w, "flush", ferr)
		return
	}
	vec := s.cl.EpochVector()
	epoch := cluster.EpochScalar(vec)
	writeEpochJSON(w, epoch, map[string]any{"flushed": true, "epoch": epoch, "epoch_vector": vec})
}

// handleScrub runs one synchronous media-scrub pass on every live
// shard: verify every chain, rebuild damaged vertices from the archive
// or log window, quarantine the replaced spans, and republish so reads
// see the repaired view.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	rep, serr := s.cl.ScrubAll()
	if serr != nil {
		s.writeAdminError(w, "scrub", serr)
		return
	}
	vec := s.cl.EpochVector()
	epoch := cluster.EpochScalar(vec)
	writeEpochJSON(w, epoch, ScrubResponse{
		VerticesScanned:    rep.VerticesScanned,
		Damaged:            rep.Damaged,
		Repaired:           rep.Repaired,
		Unrecoverable:      rep.Unrecoverable,
		SpansQuarantined:   rep.SpansQuarantined,
		BytesQuarantined:   rep.BytesQuarantined,
		LogBadRecords:      rep.LogBadRecords,
		PropBlocksScrubbed: rep.PropBlocksScrubbed,
		PropBlocksBad:      rep.PropBlocksBad,
		PropBlocksRebuilt:  rep.PropBlocksRebuilt,
		PropUnrecoverable:  rep.PropUnrecoverable,
		SimMs:              float64(rep.SimNs) / 1e6,
		Health:             s.cl.Health().State,
		Epoch:              epoch,
		EpochVector:        vec,
	})
}

// ---- analytics over the pinned cluster view ----

// rejectIfDegraded gates whole-graph analytics: a traversal reads every
// reachable vertex through the unchecked fast path and cannot skip
// damaged ones — or a dead partition — and stay correct, so while any
// partition is damaged or down the query answers 503 degraded (scrub or
// restore, then retry). Point reads stay available throughout — they
// fail per vertex, typed, and fail over to replicas.
func (s *Server) rejectIfDegraded(w http.ResponseWriter) bool {
	ch := s.cl.Health()
	if ch.State == core.HealthOK.String() {
		return false
	}
	bad := 0
	for _, sh := range ch.Shards {
		if sh.Down || sh.State != core.HealthOK.String() {
			bad++
		}
	}
	httpError(w, http.StatusServiceUnavailable, "degraded",
		"cluster is %s (%d of %d partitions unhealthy); whole-graph queries are suspended",
		ch.State, bad, len(ch.Shards))
	return true
}

func (s *Server) handleBFS(w http.ResponseWriter, r *http.Request) {
	var req bfsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "bad body: %v", err)
		return
	}
	if s.rejectIfDegraded(w) {
		return
	}
	cv := s.cl.AcquireView()
	defer cv.Release()
	res := s.engineFor(cv).BFS(req.Root)
	writeEpochJSON(w, cv.Epoch(), bfsResponse{Root: req.Root, Visited: res.Visited,
		Levels: res.Levels, SimMs: float64(res.SimNs) / 1e6,
		Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
}

func (s *Server) handlePageRank(w http.ResponseWriter, r *http.Request) {
	var req pageRankRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "bad body: %v", err)
		return
	}
	if req.Iterations <= 0 {
		req.Iterations = 10
	}
	if req.Top <= 0 {
		req.Top = 10
	}
	if s.rejectIfDegraded(w) {
		return
	}
	cv := s.cl.AcquireView()
	defer cv.Release()
	res := s.engineFor(cv).PageRank(req.Iterations)

	ranked := make([]rankedVertex, len(res.Ranks))
	for v, rk := range res.Ranks {
		ranked[v] = rankedVertex{Vertex: graph.VID(v), Rank: rk}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].Rank > ranked[j].Rank })
	if len(ranked) > req.Top {
		ranked = ranked[:req.Top]
	}
	writeEpochJSON(w, cv.Epoch(), pageRankResponse{Top: ranked,
		SimMs: float64(res.SimNs) / 1e6, Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
}

func (s *Server) handleCC(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDegraded(w) {
		return
	}
	cv := s.cl.AcquireView()
	defer cv.Release()
	res := s.engineFor(cv).CC()
	writeEpochJSON(w, cv.Epoch(), ccResponse{Components: res.Components,
		SimMs: float64(res.SimNs) / 1e6, Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
}

// maxTraversalDepth bounds K and MaxDepth: a hop count past it is a
// client bug (the frontier saturates the graph long before), not a
// bigger query, so it answers 400 instead of burning a core.
const maxTraversalDepth = 64

// buildFilter resolves a request's types/filter pair against the pinned
// view's label table into the prop.Filter the engine pushes down. An
// unknown label name or a malformed predicate fails typed so the handler
// can answer 400 invalid_argument.
func buildFilter(cv *cluster.ClusterView, types []string, fj *FilterJSON) (prop.Filter, error) {
	var f prop.Filter
	for _, name := range types {
		id, ok := cv.LabelID(name)
		if !ok {
			return f, fmt.Errorf("unknown edge type %q (register it: POST /v1/labels)", name)
		}
		f.Types = append(f.Types, id)
	}
	if fj != nil {
		f.Key, f.Op, f.Val = fj.Key, fj.Op, fj.Value
	}
	if err := f.Validate(); err != nil {
		return f, err
	}
	return f, nil
}

// writeQueryError maps a filtered-traversal failure: damaged property
// columns answer like any other media failure (scrub may rebuild them),
// a dead partition answers partition_down, anything else is internal.
func (s *Server) writeQueryError(w http.ResponseWriter, cv *cluster.ClusterView, err error) {
	var pd *cluster.PartitionDownError
	switch {
	case errors.As(err, &pd):
		httpShardError(w, http.StatusServiceUnavailable, "partition_down", pd.Shard,
			cv.EpochVector(), "query: %v", err)
	case errors.Is(err, prop.ErrDamaged):
		httpError(w, http.StatusServiceUnavailable, "media_error",
			"query: %v (a scrub may rebuild the property columns: POST /v1/scrub)", err)
	default:
		httpError(w, http.StatusInternalServerError, "internal", "query: %v", err)
	}
}

func (s *Server) handleKHop(w http.ResponseWriter, r *http.Request) {
	var req KHopRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "bad body: %v", err)
		return
	}
	if req.K < 0 || req.K > maxTraversalDepth {
		httpError(w, http.StatusBadRequest, "invalid_argument",
			"k must be in [0, %d], got %d", maxTraversalDepth, req.K)
		return
	}
	if req.K == 0 {
		req.K = 2
	}
	if s.rejectIfDegraded(w) {
		return
	}
	cv := s.cl.AcquireView()
	defer cv.Release()
	var res analytics.KHopResult
	if len(req.Types) > 0 || req.Filter != nil {
		f, ferr := buildFilter(cv, req.Types, req.Filter)
		if ferr != nil {
			httpError(w, http.StatusBadRequest, "invalid_argument", "%v", ferr)
			return
		}
		var qerr error
		res, qerr = s.engineFor(cv).KHopFiltered(req.Root, req.K, f)
		if qerr != nil {
			s.writeQueryError(w, cv, qerr)
			return
		}
	} else {
		res = s.engineFor(cv).KHop(req.Root, req.K)
	}
	writeEpochJSON(w, cv.Epoch(), KHopResponse{Root: req.Root, Reached: res.Reached,
		PerHop: res.PerHop, SimMs: float64(res.SimNs) / 1e6,
		Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	var req pathRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "bad body: %v", err)
		return
	}
	if req.MaxDepth < 0 || req.MaxDepth > maxTraversalDepth {
		httpError(w, http.StatusBadRequest, "invalid_argument",
			"max_depth must be in [0, %d], got %d", maxTraversalDepth, req.MaxDepth)
		return
	}
	if req.MaxDepth == 0 {
		req.MaxDepth = 8
	}
	if s.rejectIfDegraded(w) {
		return
	}
	cv := s.cl.AcquireView()
	defer cv.Release()
	f, ferr := buildFilter(cv, req.Types, req.Filter)
	if ferr != nil {
		httpError(w, http.StatusBadRequest, "invalid_argument", "%v", ferr)
		return
	}
	res, qerr := s.engineFor(cv).Path(req.Root, req.Target, req.MaxDepth, f)
	if qerr != nil {
		s.writeQueryError(w, cv, qerr)
		return
	}
	writeEpochJSON(w, cv.Epoch(), pathResponse{Root: req.Root, Target: req.Target,
		Found: res.Found, Path: res.Path, Hops: res.Hops,
		SimMs: float64(res.SimNs) / 1e6,
		Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
}

// handleLabels serves the edge-label table: GET reads it from the
// pinned view (any servable partition's table is authoritative — label
// registration broadcasts to every shard), POST registers a name
// cluster-wide and returns its id (idempotent for an existing name).
func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		cv := s.cl.AcquireView()
		defer cv.Release()
		writeEpochJSON(w, cv.Epoch(), labelsResponse{Labels: cv.Labels(),
			Epoch: cv.Epoch(), EpochVector: cv.EpochVector()})
	case http.MethodPost:
		var req labelRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad_request", "bad body: %v", err)
			return
		}
		id, err := s.cl.RegisterLabel(req.Name)
		if err != nil {
			switch {
			case errors.Is(err, prop.ErrBadLabel):
				httpError(w, http.StatusBadRequest, "invalid_argument", "%v", err)
			case errors.Is(err, core.ErrNoProps):
				httpError(w, http.StatusNotImplemented, "no_property_layer",
					"this deployment was built without the property layer (core.Options.Props)")
			case errors.Is(err, cluster.ErrShardDown):
				var se *cluster.ShardError
				shardID := -1
				if errors.As(err, &se) {
					shardID = se.Shard
				}
				httpShardError(w, http.StatusServiceUnavailable, "shard_down", shardID,
					s.cl.EpochVector(), "label registration needs every shard up: %v", err)
			default:
				s.writeAdminError(w, "register label", err)
			}
			return
		}
		vec := s.cl.EpochVector()
		epoch := cluster.EpochScalar(vec)
		writeEpochJSON(w, epoch, labelResponse{ID: id, Name: req.Name,
			Epoch: epoch, EpochVector: vec})
	default:
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET or POST")
	}
}
