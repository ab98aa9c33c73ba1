// Package cluster is the partitioned multi-shard layer over N XPGraph
// stores. It composes the pieces below rather than replacing them:
//
//   - partitioning: a stable hash-slot map (shard.SlotMap) routes every
//     edge by its source vertex and every out-read by its vertex;
//   - per-shard serving: each shard runs its own core.Store, its own
//     single-writer ingest.Pipeline, its own refcounted snapshot
//     publication chain, and its own media circuit breaker — exactly the
//     single-store server stack, one copy per partition;
//   - replication: each shard ships every applied chunk to its follower
//     replicas in application order (log shipping at batch granularity),
//     so followers converge on edge-for-edge identical views;
//   - reads: ClusterView pins one publication per shard (leader, or the
//     best replica once a shard is down) and implements view.Full over
//     the resulting epoch vector, so analytics and the HTTP handlers
//     cannot tell one store from sixteen.
//
// Failure semantics: a dead or readonly shard degrades its partition,
// never the cluster. Writes are per-shard atomic — a batch spanning
// shards may land on some and be refused by others, and the error names
// the refusing shard — while reads keep serving every surviving
// partition, through replicas when the leader is gone. See DESIGN.md
// §11.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/xpsim"
)

// Config tunes the cluster. The zero value is usable: one shard, no
// replicas, the single-store server's pipeline defaults.
type Config struct {
	// Replicas is the number of log-shipping followers per shard.
	Replicas int
	// ReplicaFactory builds one empty follower store; required when
	// Replicas > 0. It must configure the store like the leader (same
	// vertex space and options), typically on its own machine — each
	// follower is its own failure domain.
	ReplicaFactory func(shardID, replica int) (*core.Store, error)

	// Pipeline knobs, one pipeline per shard (defaults as in
	// internal/ingest).
	QueueCap   int
	BatchEdges int
	Linger     time.Duration
	FlushEvery time.Duration
	ScrubEvery time.Duration
	BatchDelay time.Duration // test hook: pause between chunks

	// Adaptive attaches the AIMD admission controller to every shard's
	// pipeline: BatchEdges/Linger/QueueCap become ceilings and the live
	// knobs tune down under congestion (DESIGN.md §12.3).
	Adaptive bool
	// AdaptiveTarget overrides the controller's applied-batch latency
	// target (default as in internal/ingest).
	AdaptiveTarget time.Duration

	// Breaker knobs, one breaker per shard; breakerThreshold consecutive
	// media failures open it.
	BreakerCooldown time.Duration // open duration before the half-open probe (default 5s)
	// BreakerSheds arms the overload side: consecutive queue-full sheds
	// that open the breaker (0, the default, disables the arm: only media
	// failures trip it).
	BreakerSheds int

	// Transport is the leader→replica delivery fabric (DESIGN.md §14);
	// nil means the in-process perfect transport. xpgraphd -chaos and the
	// soak chaos scenarios pass NewChaosTransport(plan).
	Transport Transport

	// Clock is the clock every shard's pipeline, breaker, publication
	// stamp, ship retry, chaos delay and follower reads; nil is the wall
	// clock. With a clock its owner advances (clock.Virtual) the cluster
	// is stepped: Start launches no goroutine, the owner calls each
	// Shard's Step at the time it asked for — and after a synchronous
	// IngestTyped, RegisterLabel or IngestLocal, which ship as they
	// apply — and writes through the pipelines must be asynchronous
	// (nothing applies while a synchronous Ingest waits).
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Transport == nil {
		c.Transport = perfectTransport{}
	}
	if c.Clock == nil {
		c.Clock = clock.Wall()
	}
	return c
}

// Typed routing errors. The server maps them onto the /v1 error
// envelope; ShardError carries which partition refused.
var (
	// ErrShardDown: the write's owner shard was killed and writes have
	// no failover (followers are read replicas, not leaders).
	ErrShardDown = errors.New("cluster: shard is down")
)

// BreakerOpenError is returned when a shard's circuit breaker sheds the
// write; Wait is the time until its half-open probe is admitted.
type BreakerOpenError struct {
	Wait time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("cluster: ingest circuit breaker is open; retry in %v", e.Wait.Round(time.Millisecond))
}

// ShardError wraps a per-shard failure with the shard that produced it,
// so callers (and the HTTP error envelope) can name the partition.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// Cluster is the router: it owns the partition map and the shards.
type Cluster struct {
	cfg    Config
	pmap   *shard.SlotMap
	shards []*Shard
	// routes recycles the writes' routing scratch (route).
	routes sync.Pool

	started sync.Once
	closed  sync.Once
}

// New builds a stopped cluster over pre-built leader stores, one per
// shard (a single store makes a degenerate one-shard cluster — the
// single-store HTTP server is exactly that). Followers are built with
// cfg.ReplicaFactory when cfg.Replicas > 0. Call Start before serving.
func New(stores []*core.Store, cfg Config) (*Cluster, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("cluster: need at least one store")
	}
	cfg = cfg.withDefaults()
	pmap, err := shard.NewSlotMap(len(stores), 0)
	if err != nil {
		return nil, err
	}
	if cfg.Replicas > 0 && cfg.ReplicaFactory == nil {
		return nil, fmt.Errorf("cluster: %d replicas requested without a ReplicaFactory", cfg.Replicas)
	}
	c := &Cluster{cfg: cfg, pmap: pmap}
	c.routes.New = func() any {
		return &route{parts: make([][]graph.Edge, len(stores)), reqs: make([]*ingest.Request, len(stores))}
	}
	for i, st := range stores {
		sh := &Shard{
			member: member{store: st},
			id:     i,
			clk:    cfg.Clock,
			br:     breaker{overload: cfg.BreakerSheds, cooldown: cfg.BreakerCooldown},
			tr:     cfg.Transport,
		}
		icfg := ingest.Config{
			QueueCap:   cfg.QueueCap,
			BatchEdges: cfg.BatchEdges,
			Linger:     cfg.Linger,
			FlushEvery: cfg.FlushEvery,
			ScrubEvery: cfg.ScrubEvery,
			BatchDelay: cfg.BatchDelay,
			Clock:      cfg.Clock,
		}
		if cfg.Adaptive {
			icfg.Adaptive = &ingest.AdaptiveConfig{Target: cfg.AdaptiveTarget}
		}
		sh.pipe = ingest.New(icfg, &shardApplier{sh: sh})
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// Start publishes every shard's initial snapshot (epoch 1), builds the
// followers, and starts the wall drivers of every pipeline and follower —
// unless the cluster is stepped (Config.Clock), in which case the owner
// steps them. Idempotent. Attach tracers to the shard
// stores before calling it so the initial snapshots' spans are recorded.
func (c *Cluster) Start() error {
	var err error
	c.started.Do(func() {
		for _, sh := range c.shards {
			if c.cfg.Replicas > 0 {
				for ri := 0; ri < c.cfg.Replicas; ri++ {
					st, ferr := c.cfg.ReplicaFactory(sh.id, ri)
					if ferr != nil {
						err = fmt.Errorf("cluster: shard %d replica %d: %w", sh.id, ri, ferr)
						return
					}
					ri := ri
					factory := func() (*core.Store, error) { return c.cfg.ReplicaFactory(sh.id, ri) }
					sh.replicas = append(sh.replicas, newReplica(sh, ri, st, factory))
				}
			}
			_ = sh.mutate(nil, republish)
			sh.pipe.Start()
		}
	})
	return err
}

// Shards reports the number of partitions.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns partition i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Owner maps a vertex to the shard that owns it (edges partition by
// source).
func (c *Cluster) Owner(v graph.VID) int { return c.pmap.Owner(v) }

// Pipeline is the configuration every shard's ingest pipeline runs, its
// defaults resolved: QueueCap is the per-shard queue bound in edges,
// BatchEdges the cap on one write window (the ceiling, under adaptive
// admission).
func (c *Cluster) Pipeline() ingest.Config { return c.shards[0].pipe.Config() }

// Clock is the clock the cluster's policy code reads (Config.Clock).
func (c *Cluster) Clock() clock.Clock { return c.cfg.Clock }

// Replicas is the configured follower count per shard.
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// EpochVector reads every shard's current snapshot epoch. The scalar
// epoch the API reports is its sum, so it is monotone under any single
// shard's publication and degenerates to the old single-store epoch at
// one shard.
func (c *Cluster) EpochVector() []uint64 {
	vec := make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		vec[i] = sh.Epoch()
	}
	return vec
}

// EpochScalar folds an epoch vector into the scalar the wire protocol
// reports alongside it.
func EpochScalar(vec []uint64) uint64 {
	var s uint64
	for _, e := range vec {
		s += e
	}
	return s
}

// ---- writes ----

// IngestResult reports one routed ingest.
type IngestResult struct {
	Accepted int64
	// SimNs is the simulated wall time of the slowest shard's
	// application — shards are independent machines applying their
	// partitions in parallel.
	SimNs   int64
	Batches int64
	// Epochs is the epoch vector after the write: the epoch at which the
	// write became readable on the shards it touched, and the current
	// epoch on the ones it did not.
	Epochs []uint64
}

// Epoch is the scalar fold of the result's epoch vector.
func (r IngestResult) Epoch() uint64 { return EpochScalar(r.Epochs) }

// Ingest routes one batch: splits it by owner shard, checks each owner's
// breaker and queue, and enqueues. With sync=true it waits until every
// shard has applied and published its part (read-your-writes across the
// whole batch); with sync=false it returns once every part is queued.
//
// The caller keeps ownership of edges (each shard gets a pooled copy).
//
// Writes are per-shard atomic, not cluster-atomic: when a shard refuses
// (queue full, breaker open, down, draining) or fails mid-apply, the
// parts routed to other shards still land, and the returned *ShardError
// names the refusing shard. Cross-shard rollback would need distributed
// transactions the evolving-graph workload does not ask for.
func (c *Cluster) Ingest(edges []graph.Edge, sync bool) (IngestResult, error) {
	res := IngestResult{}
	rt := c.split(edges)
	defer c.putRoute(rt)

	var firstErr *ShardError
	for i, part := range rt.parts {
		if len(part) == 0 {
			continue
		}
		sh := c.shards[i]
		if err := sh.admit(&shipEntry{edges: part}); err != nil {
			firstErr = &ShardError{Shard: i, Err: err}
			break
		}
		req := ingest.NewRequest(part)
		if err := sh.pipe.Enqueue(req); err != nil {
			req.Release()
			if errors.Is(err, ingest.ErrQueueFull) {
				// Feed the overload arm: sustained queue-full streaks trip
				// the breaker so the 429 storm becomes typed 503s.
				sh.br.noteShed(sh.clk.Now())
			}
			firstErr = &ShardError{Shard: i, Err: err}
			break
		}
		sh.br.noteAdmit()
		// The pipeline owns the part until its Result is delivered.
		rt.reqs[i] = req
	}

	// Wait for whatever was enqueued — even on a partial routing failure,
	// so sync callers always know the fate of the parts that did land and
	// the route keeps their buffers. Async callers return immediately;
	// their parts' buffers go to the GC with the pipeline.
	if !sync {
		for i, req := range rt.reqs {
			if req != nil {
				rt.parts[i], rt.reqs[i] = nil, nil
			}
		}
		if firstErr != nil {
			return res, firstErr
		}
		res.Accepted = int64(len(edges))
		res.Epochs = c.EpochVector()
		return res, nil
	}

	for i, req := range rt.reqs {
		if req == nil {
			continue
		}
		rt.reqs[i] = nil
		sh := c.shards[i]
		var r ingest.Result
		select {
		case r = <-req.Done():
		case <-sh.pipe.Stopping():
			if !sh.pipe.Draining() {
				// Abrupt stop: the pipeline may still hold the request and
				// its buffer; let the GC take them.
				rt.parts[i] = nil
				if firstErr == nil {
					firstErr = &ShardError{Shard: i, Err: ingest.ErrShuttingDown}
				}
				continue
			}
			// Graceful drain: every accepted request is applied and
			// answered.
			r = <-req.Done()
		}
		// Result delivered: the pipeline is done with the request and the
		// part's buffer.
		req.Release()
		if r.Err != nil {
			if firstErr == nil {
				firstErr = &ShardError{Shard: i, Err: r.Err}
			}
			continue
		}
		res.Accepted += r.Accepted
		res.Batches += r.Batches
		if r.SimNs > res.SimNs {
			res.SimNs = r.SimNs // shards apply in parallel: slowest wins
		}
	}
	res.Epochs = c.EpochVector()
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

// route is one write's routing scratch: each shard's part of the batch
// and the request that carries it to the shard's pipeline. Cluster.routes
// recycles it with the part buffers, so a warm write routes without
// allocating.
type route struct {
	parts [][]graph.Edge    // per shard; nil once a pipeline keeps the buffer
	reqs  []*ingest.Request // per shard; nil: nothing enqueued
}

// maxPartCap is the largest part buffer a route keeps, so one
// pathological write cannot pin memory forever.
const maxPartCap = 1 << 17

// getRoute takes a recycled route, every part empty.
func (c *Cluster) getRoute() *route {
	rt := c.routes.Get().(*route)
	for i, p := range rt.parts {
		if p == nil {
			p = make([]graph.Edge, 0, 4096)
		}
		rt.parts[i] = p[:0]
	}
	return rt
}

// split partitions edges by owner into a recycled route's parts.
func (c *Cluster) split(edges []graph.Edge) *route {
	rt := c.getRoute()
	if len(c.shards) == 1 {
		rt.parts[0] = append(rt.parts[0], edges...)
		return rt
	}
	for _, e := range edges {
		o := c.pmap.Owner(e.Src)
		rt.parts[o] = append(rt.parts[o], e)
	}
	return rt
}

// putRoute recycles a route whose requests have all been answered or let
// go.
func (c *Cluster) putRoute(rt *route) {
	for i, p := range rt.parts {
		if cap(p) > maxPartCap {
			rt.parts[i] = nil
		}
	}
	c.routes.Put(rt)
}

// IngestLocal applies edges synchronously, bypassing the pipelines — the
// bulk-load path (bench, preload). Each shard admits and commits its
// partition as one plain entry; the returned simulated time is the
// slowest shard's, since every shard is its own machine applying in
// parallel.
func (c *Cluster) IngestLocal(edges []graph.Edge) (simNs int64, err error) {
	rt := c.split(edges)
	defer c.putRoute(rt)
	for i, part := range rt.parts {
		if len(part) == 0 {
			continue
		}
		sh := c.shards[i]
		e := shipEntry{edges: part}
		var ns int64
		if err = sh.admit(&e); err == nil {
			ns, _, err = sh.commit(&e)
		}
		if err != nil {
			return simNs, &ShardError{Shard: i, Err: err}
		}
		simNs = max(simNs, ns)
	}
	return simNs, nil
}

// ---- admin ops: one mutate per live shard ----

// PublishAll publishes a fresh snapshot on every live shard and returns
// the resulting epoch vector.
func (c *Cluster) PublishAll() []uint64 {
	for _, sh := range c.shards {
		if !sh.down.Load() {
			_ = sh.mutate(nil, republish)
		}
	}
	return c.EpochVector()
}

// FlushAll drains every live shard's vertex buffers to PMEM and
// republishes. The first failure is returned, named.
func (c *Cluster) FlushAll() error {
	for _, sh := range c.shards {
		if sh.down.Load() {
			continue
		}
		if err := sh.mutate(nil, flushVbufs); err != nil {
			return &ShardError{Shard: sh.id, Err: err}
		}
	}
	return nil
}

// CompactVertex compacts v's adjacency chains on its owner shard and
// republishes there, returning the simulated cost.
func (c *Cluster) CompactVertex(v graph.VID) (simNs int64, err error) {
	sh := c.shards[c.pmap.Owner(v)]
	if sh.down.Load() {
		return 0, &ShardError{Shard: sh.id, Err: ErrShardDown}
	}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	err = sh.mutate(ctx, func(st *core.Store) (bool, error) { return true, st.CompactAdjs(ctx, v) })
	if err != nil {
		return 0, &ShardError{Shard: sh.id, Err: err}
	}
	return ctx.Cost.Ns(), nil
}

// ScrubAll runs one synchronous media-scrub pass on every live shard,
// returning the summed report. The first failure is returned, named.
func (c *Cluster) ScrubAll() (core.ScrubReport, error) {
	var total core.ScrubReport
	for _, sh := range c.shards {
		if sh.down.Load() {
			continue
		}
		var rep core.ScrubReport
		err := sh.mutate(nil, func(st *core.Store) (changed bool, err error) {
			rep, err = st.Scrub()
			return true, err
		})
		if err != nil {
			return total, &ShardError{Shard: sh.id, Err: err}
		}
		total.VerticesScanned += rep.VerticesScanned
		total.Damaged += rep.Damaged
		total.Repaired += rep.Repaired
		total.Unrecoverable += rep.Unrecoverable
		total.SpansQuarantined += rep.SpansQuarantined
		total.BytesQuarantined += rep.BytesQuarantined
		total.LogBadRecords += rep.LogBadRecords
		total.PropBlocksScrubbed += rep.PropBlocksScrubbed
		total.PropBlocksBad += rep.PropBlocksBad
		total.PropBlocksRebuilt += rep.PropBlocksRebuilt
		total.PropUnrecoverable += rep.PropUnrecoverable
		if rep.SimNs > total.SimNs {
			total.SimNs = rep.SimNs // shards scrub in parallel
		}
	}
	return total, nil
}

// ---- failure injection / failover ----

// KillShard simulates partition i's leader process dying: its pipeline
// stops abruptly (queued writers get ErrShuttingDown), new writes to the
// partition are refused with ErrShardDown, and reads fail over to the
// partition's best replica — or fail typed when it has none. The rest of
// the cluster keeps serving: degraded, not down.
func (c *Cluster) KillShard(i int) {
	sh := c.shards[i]
	if sh.down.Swap(true) {
		return
	}
	sh.pipe.Close()
}

// ---- stats & health ----

// Stats is the cluster-wide aggregate the /v1/stats endpoint serves.
type Stats struct {
	NumVertices     graph.VID // max over shards: vertex IDs are global
	LoggedEdges     int64
	MetaDRAMBytes   int64
	VbufDRAMBytes   int64
	ElogPMEMBytes   int64
	PblkPMEMBytes   int64
	MediaReadBytes  int64
	MediaWriteBytes int64
	Epochs          []uint64
}

// Stats aggregates store and machine statistics across live shards,
// under each shard's shared lock.
func (c *Cluster) Stats() Stats {
	st := Stats{Epochs: c.EpochVector()}
	for _, sh := range c.shards {
		if sh.down.Load() {
			continue
		}
		sh.mu.RLock()
		if nv := sh.store.NumVertices(); nv > st.NumVertices {
			st.NumVertices = nv
		}
		st.LoggedEdges += sh.store.Log().Head()
		u := sh.store.MemUsage()
		st.MetaDRAMBytes += u.MetaDRAM
		st.VbufDRAMBytes += u.VbufDRAM
		st.ElogPMEMBytes += u.ElogPMEM
		st.PblkPMEMBytes += u.PblkPMEM
		ms := sh.store.Machine().SnapshotStats()
		st.MediaReadBytes += ms.MediaReadBytes()
		st.MediaWriteBytes += ms.MediaWriteBytes()
		sh.mu.RUnlock()
	}
	return st
}

// RLockAll takes every live shard's shared lock, runs fn, and releases.
// The metrics gather uses it: store gauge callbacks read live cursors
// that writers mutate under the exclusive locks.
func (c *Cluster) RLockAll(fn func()) {
	for _, sh := range c.shards {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range c.shards {
			sh.mu.RUnlock()
		}
	}()
	fn()
}

// ShardHealth is one partition's health in the cluster report.
type ShardHealth struct {
	Shard int
	// State is the shard's serving state: the store's ok/degraded/
	// readonly machine, or "down" once killed.
	State string
	Down  bool
	// ServingReplica is set when reads of this partition come from a
	// follower because the leader is down.
	ServingReplica bool
	Health         core.Health // zero when down
	Epoch          uint64
	ReplicaEpochs  []uint64
	// ReplicaStates mirrors ReplicaEpochs: "running", "resyncing", or
	// "damaged" per follower (DESIGN.md §14.3).
	ReplicaStates []string
	Breaker       BreakerView
}

// ClusterHealth aggregates: the cluster is "ok" only when every
// partition is; any non-ok partition (including a killed one that a
// replica still serves) makes it "degraded"; it is "readonly" only when
// no partition accepts writes.
type ClusterHealth struct {
	State  string
	Shards []ShardHealth
}

// Health reports per-shard and aggregate health.
func (c *Cluster) Health() ClusterHealth {
	ch := ClusterHealth{}
	now := c.cfg.Clock.Now()
	allReadonly := true
	anyBad := false
	for _, sh := range c.shards {
		s := ShardHealth{Shard: sh.id, Breaker: sh.br.view(now), Epoch: sh.Epoch()}
		for _, r := range sh.replicas {
			s.ReplicaEpochs = append(s.ReplicaEpochs, r.Epoch())
			s.ReplicaStates = append(s.ReplicaStates, r.State())
		}
		if sh.down.Load() {
			s.State = "down"
			s.Down = true
			s.ServingReplica = bestReplica(sh) != nil
			anyBad = true
		} else {
			h := sh.health()
			s.Health = h
			s.State = h.State.String()
			if h.State != core.HealthOK {
				anyBad = true
			}
			if h.State != core.HealthReadonly {
				allReadonly = false
			}
		}
		ch.Shards = append(ch.Shards, s)
	}
	switch {
	case allReadonly:
		ch.State = core.HealthReadonly.String()
	case anyBad:
		ch.State = core.HealthDegraded.String()
	default:
		ch.State = core.HealthOK.String()
	}
	return ch
}

// RegisterMetrics registers the cluster's observability surface with a
// registry: per-shard store gauges, device telemetry, pipeline counters
// and breaker state. With one shard everything registers unlabeled —
// byte-for-byte the single-store exposition; with more, every series
// carries a shard label (replica stores are not scraped; their state is
// the leader's, shifted in time).
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	for _, sh := range c.shards {
		sh := sh
		r := reg
		if len(c.shards) > 1 {
			r = reg.Sub(obs.Label{Key: "shard", Value: fmt.Sprintf("%d", sh.id)})
		}
		r.Register(obs.NewMachineCollector(sh.store.Machine()))
		sh.store.RegisterMetrics(r)
		r.Register(obs.CollectorFunc(func(emit func(obs.Sample)) {
			v := sh.pipe.Stats()
			sample := func(name, help string, kind obs.Kind, val float64) {
				emit(obs.Sample{Name: name, Help: help, Kind: kind, Value: val})
			}
			sample("xpgraph_ingest_queue_depth_edges", "Edges accepted but not yet applied or dropped.", obs.KindGauge, float64(v.Queued))
			sample("xpgraph_ingest_queue_cap_edges", "Bounded ingest queue capacity in edges.", obs.KindGauge, float64(sh.pipe.Config().QueueCap))
			sample("xpgraph_ingest_edges_accepted_total", "Edges admitted past the queue-capacity check.", obs.KindCounter, float64(v.EdgesAccepted))
			sample("xpgraph_ingest_edges_applied_total", "Edges applied to the store.", obs.KindCounter, float64(v.EdgesApplied))
			sample("xpgraph_ingest_edges_dropped_total", "Accepted edges dequeued without application (failure or shutdown).", obs.KindCounter, float64(v.EdgesDropped))
			sample("xpgraph_ingest_batches_total", "Ingest batches applied under the write lock.", obs.KindCounter, float64(v.BatchesApplied))
			sample("xpgraph_ingest_rejected_writes_total", "Write requests shed with 429 queue_full.", obs.KindCounter, float64(v.Rejected))
			sample("xpgraph_snapshot_epoch", "Epoch of the currently published snapshot.", obs.KindGauge, float64(v.Epoch))
			sample("xpgraph_snapshot_age_seconds", "Seconds since the last snapshot publication.", obs.KindGauge,
				float64(sh.clk.Now().UnixNano()-v.PublishedAtNs)/1e9)
			sample("xpgraph_last_batch_host_seconds", "Host latency of the most recent ingest batch.", obs.KindGauge, float64(v.LastBatchHostNs)/1e9)
			sample("xpgraph_last_batch_sim_seconds", "Simulated store time of the most recent ingest batch.", obs.KindGauge, float64(v.LastBatchSimNs)/1e9)
			sample("xpgraph_last_batch_edges", "Size of the most recent ingest batch.", obs.KindGauge, float64(v.LastBatchEdges))
			sample("xpgraph_ingest_batch_edges_live", "Live write-window cap (static config, or the adaptive controller's current value).", obs.KindGauge, float64(v.CurBatchEdges))
			sample("xpgraph_ingest_linger_seconds_live", "Live batching linger.", obs.KindGauge, float64(v.CurLingerNs)/1e9)
			sample("xpgraph_ingest_admit_edges_live", "Live 429 admission threshold in queued edges.", obs.KindGauge, float64(v.AdmitEdges))
			sample("xpgraph_ingest_tune_decreases_total", "Multiplicative decreases taken by the adaptive admission controller.", obs.KindCounter, float64(v.TuneDecreases))
			sample("xpgraph_ingest_tune_increases_total", "Additive increases taken by the adaptive admission controller.", obs.KindCounter, float64(v.TuneIncreases))

			b := sh.Breaker()
			open := 0.0
			if b.Open {
				open = 1
			}
			sample("xpgraph_breaker_open", "Ingest circuit breaker state (1 = shedding writes).", obs.KindGauge, open)
			sample("xpgraph_breaker_trips_total", "Times the ingest circuit breaker opened (media failures or overload sheds).", obs.KindCounter, float64(b.Trips))
			sample("xpgraph_breaker_closes_total", "Times a half-open probe closed the ingest circuit breaker.", obs.KindCounter, float64(b.Closes))
			sample("xpgraph_breaker_probes_total", "Half-open probe writes admitted through the ingest circuit breaker.", obs.KindCounter, float64(b.Probes))
			sample("xpgraph_breaker_rejected_writes_total", "Write requests shed with 503 circuit_open.", obs.KindCounter, float64(b.Rejected))

			sc := sh.ShipCounters()
			sample("xpgraph_ship_attempts_total", "Transport delivery attempts for shipped chunks (first tries and retries).", obs.KindCounter, float64(sc.Attempts))
			sample("xpgraph_ship_retries_total", "Shipped-chunk delivery attempts after the first (retry with backoff).", obs.KindCounter, float64(sc.Retries))
			sample("xpgraph_ship_giveups_total", "Chunks abandoned after the retry budget; the follower resyncs.", obs.KindCounter, float64(sc.GiveUps))
			sample("xpgraph_ship_skips_total", "Chunks not shipped because the follower was resyncing or damaged.", obs.KindCounter, float64(sc.Skips))

			down := 0.0
			if sh.down.Load() {
				down = 1
			}
			sample("xpgraph_shard_down", "Partition leader killed (reads fail over to replicas).", obs.KindGauge, down)
			for ri, rep := range sh.replicas {
				lbl := []obs.Label{{Key: "replica", Value: fmt.Sprintf("%d", ri)}}
				rsample := func(name, help string, kind obs.Kind, val float64) {
					emit(obs.Sample{Name: name, Help: help, Kind: kind, Labels: lbl, Value: val})
				}
				rsample("xpgraph_replica_epoch", "Shipped leader epoch the follower has published up to.", obs.KindGauge, float64(rep.Epoch()))
				running := 0.0
				if rep.State() == "running" {
					running = 1
				}
				rsample("xpgraph_replica_running", "Follower apply state (1 = running, 0 = resyncing or damaged).", obs.KindGauge, running)
				rc := rep.Counters()
				rsample("xpgraph_replica_dedupes_total", "Duplicate chunk deliveries discarded by sequence number.", obs.KindCounter, float64(rc.Dedupes))
				rsample("xpgraph_replica_reorders_total", "Out-of-order chunk deliveries stashed for in-order apply.", obs.KindCounter, float64(rc.Reorders))
				rsample("xpgraph_replica_misroutes_total", "Chunks dropped on chunk-id verification failure.", obs.KindCounter, float64(rc.Misroutes))
				rsample("xpgraph_replica_resyncs_total", "Times the follower entered the resyncing state.", obs.KindCounter, float64(rc.Resyncs))
				rsample("xpgraph_replica_resync_log_total", "Resyncs satisfied by retained-log replay.", obs.KindCounter, float64(rc.LogReplays))
				rsample("xpgraph_replica_resync_snapshot_total", "Resyncs satisfied by full snapshot rebuild.", obs.KindCounter, float64(rc.SnapReplays))
				rsample("xpgraph_replica_transient_apply_errors_total", "Apply errors classified transient (resync, not damage).", obs.KindCounter, float64(rc.TransientApplyErrors))
			}
		}))
	}
}

// ---- lifecycle ----

// Close stops every shard's pipeline abruptly (queued writers get
// ErrShuttingDown) and stops the followers after they drain what was
// already shipped. Idempotent.
func (c *Cluster) Close() { c.stop(false) }

// Shutdown drains gracefully: every accepted write on every shard is
// applied, flushed, and shipped; followers then drain their queues, so
// the whole cluster — leaders and replicas — converges before return.
func (c *Cluster) Shutdown() { c.stop(true) }

// stop fences every pipeline first when draining, so no shard keeps
// admitting while another drains, then stops pipelines, then followers.
func (c *Cluster) stop(drain bool) {
	c.closed.Do(func() {
		for _, sh := range c.shards {
			if drain {
				sh.pipe.SetDraining()
			}
		}
		for _, sh := range c.shards {
			sh.pipe.Close()
		}
		for _, sh := range c.shards {
			for _, r := range sh.replicas {
				r.close()
			}
		}
	})
}
