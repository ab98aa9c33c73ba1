// Package ingest is the transport-independent batched write pipeline:
// bounded admission, linger-based batching, one writer and a graceful
// drain. It was extracted from the HTTP server so any transport (JSON
// handlers, the binary batch endpoint, CLI loaders, tests) feeds the same
// machinery.
//
// The pipeline owns the write queue and the ingest counters. What it
// does NOT own is the store: application, snapshot publication, and
// failure policy (circuit breaking) stay behind the Applier interface,
// so the pipeline never takes the caller's state lock itself and the
// lock ordering remains the caller's business.
//
// The writer is one resumable function, Step, on an injected clock
// (internal/clock; DESIGN.md §12.5 "Clocks"): each call does whatever is
// due at the clock's now — gather queued requests into the open batch,
// apply one chunk, run a background tick, drain for a stop — and returns
// when it next needs to run. On the wall clock Start hands Step to
// clock.Timer.Drive, which sleeps until that time, an Enqueue or a stop;
// on a clock its owner advances there is no goroutine and the owner calls
// Step. There is no second implementation of admission, gathering,
// chunking or the controller feed.
//
// Lifecycle: New builds the pipeline stopped; the caller publishes its
// initial snapshot (epoch 1) and then calls Start. Close stops abruptly
// (queued writes fail with ErrShuttingDown); Shutdown drains — every
// accepted write is applied and Flush is called once the queue is empty.
package ingest

import (
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/graph"
)

// Config sizes the pipeline. Zero fields take the defaults.
type Config struct {
	QueueCap   int           // max queued edges admitted (default 1<<16)
	BatchEdges int           // max edges applied per write window (default 4096)
	Linger     time.Duration // how long a batch waits for company (default 2ms)
	FlushEvery time.Duration // background vertex-buffer flush period; 0 = off
	ScrubEvery time.Duration // background scrub period; 0 = off
	BatchDelay time.Duration // test-only pause between chunks; 0 = none
	// Adaptive enables the AIMD admission controller (adaptive.go): the
	// static BatchEdges/Linger/QueueCap values become the ceiling and the
	// controller tunes the live knobs down under congestion. Nil keeps
	// the classic fully-static pipeline.
	Adaptive *AdaptiveConfig
	// Clock is the clock the writer lingers, pauses and measures batch
	// latency on; nil is the wall clock. A clock without a Timer (a
	// clock.Virtual) makes the pipeline stepped: Start launches nothing
	// and the clock's owner calls Step.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 1 << 16
	}
	if c.BatchEdges <= 0 {
		c.BatchEdges = 4096
	}
	if c.Linger <= 0 {
		c.Linger = 2 * time.Millisecond
	}
	return c
}

// Applier is the store-side surface the pipeline drives. Apply ingests
// one chunk and, on success, publishes a fresh snapshot, returning the
// simulated batch cost and the published epoch. It runs on the single
// writer (the goroutine, or the owner calling Step); implementations do
// their own locking. Flush and Scrub are the periodic background steps;
// failures are surfaced through their own endpoints, so they return
// nothing.
type Applier interface {
	Apply(chunk []graph.Edge) (simNs int64, epoch uint64, err error)
	Flush()
	Scrub()
}

// Result is what a write waits for.
type Result struct {
	Accepted int64
	SimNs    int64
	Batches  int64
	Epoch    uint64
	Err      error
}

// Request is one enqueued write. Its done channel is buffered (capacity
// 1) and receives exactly one Result when the request's last edge is
// applied or the request is dropped.
type Request struct {
	edges []graph.Edge
	done  chan Result
	// Writer-side progress while the request sits in a batch.
	res  Result
	left int // edges not yet applied
}

// NewRequest wraps edges for enqueueing. The pipeline owns the slice
// until the Result is delivered.
func NewRequest(edges []graph.Edge) *Request {
	return &Request{edges: edges, done: make(chan Result, 1)}
}

// Done is the request's completion channel.
func (r *Request) Done() <-chan Result { return r.done }

var (
	ErrShuttingDown = errors.New("ingest: pipeline is shutting down")
	ErrQueueFull    = errors.New("ingest: queue is full")
)

// Stats is one consistent copy of the pipeline counters: a scrape can
// never observe applied > accepted, or a queue depth that disagrees with
// accepted - applied - dropped.
type Stats struct {
	Queued         int64
	Epoch          uint64
	EdgesAccepted  int64
	EdgesApplied   int64
	EdgesDropped   int64
	BatchesApplied int64
	Rejected       int64
	// LastBatchHostNs is the most recent batch's latency on the
	// pipeline's clock: host time on the wall clock, the batch's
	// simulated cost on a virtual one.
	LastBatchHostNs int64
	LastBatchSimNs  int64
	LastBatchEdges  int64
	PublishedAtNs   int64
	// Live tuning: the static Config values, or the adaptive
	// controller's current knobs when one is attached.
	CurBatchEdges int64
	CurLingerNs   int64
	AdmitEdges    int64
	TuneDecreases int64
	TuneIncreases int64
}

// Pipeline is the single-writer batched ingest engine.
type Pipeline struct {
	cfg Config
	ap  Applier
	ctl *controller // the live knobs; fed only when cfg.Adaptive is set
	clk clock.Clock
	// driver is closed when the wall driver has exited; nil: stepped by
	// the clock's owner.
	driver <-chan struct{}

	stop    chan struct{}
	stopped sync.Once
	// kick wakes the wall driver after an Enqueue or a stop (capacity 1: a
	// pending kick already covers every request queued behind it).
	kick chan struct{}

	mu sync.Mutex
	st Stats
	// draining: graceful shutdown — reject new writes, apply queued ones.
	draining bool
	// queue holds admitted requests in arrival order, from qhead on.
	queue []*Request
	qhead int

	// Writer state: touched only by whoever calls Step.
	batch     []*Request   // the open batch, arrival order, from bhead on
	bhead     int          // first request of the batch not fully applied
	total     int          // edges gathered into the batch
	deadline  time.Time    // when the open batch stops waiting for company
	all       []graph.Edge // the closed batch's edges; nil while gathering
	off       int          // edges of all already applied
	buf       []graph.Edge // backing store of all for a multi-request batch
	busyUntil time.Time    // end of the current write window or chunk pause
	nextFlush time.Time    // zero: no background flush
	nextScrub time.Time    // zero: no background scrub
	finished  bool         // a stop has been fully served
}

// New builds a stopped pipeline. Call Start after the initial snapshot
// publication so readers never observe epoch 0.
func New(cfg Config, ap Applier) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:  cfg,
		ap:   ap,
		clk:  cfg.Clock,
		stop: make(chan struct{}),
		kick: make(chan struct{}, 1),
	}
	if p.clk == nil {
		p.clk = clock.Wall()
	}
	// A static pipeline keeps its knobs in a controller too — one that is
	// never fed, so they stay at the configured values.
	var adaptive AdaptiveConfig
	if cfg.Adaptive != nil {
		adaptive = *cfg.Adaptive
	}
	p.ctl = newController(cfg.QueueCap, tuning{
		BatchEdges: cfg.BatchEdges,
		Linger:     cfg.Linger,
		AdmitEdges: cfg.QueueCap,
	}, adaptive)
	return p
}

// Start arms the background ticks and, on a clock that can wake it,
// hands Step to the wall driver. A stepped pipeline starts nothing: its
// owner calls Step.
func (p *Pipeline) Start() {
	now := p.clk.Now()
	if p.cfg.FlushEvery > 0 {
		p.nextFlush = now.Add(p.cfg.FlushEvery)
	}
	if p.cfg.ScrubEvery > 0 {
		p.nextScrub = now.Add(p.cfg.ScrubEvery)
	}
	if t := p.clk.Timer(); t != nil {
		p.driver = t.Drive(p.kick, func() (time.Time, bool) {
			wake := p.Step()
			return wake, p.finished
		})
	}
}

// Stats snapshots every counter under one lock acquisition, plus the
// live tuning knobs (atomics; consistent enough for telemetry).
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	st := p.st
	p.mu.Unlock()
	st.CurBatchEdges = int64(p.ctl.curBatchEdges())
	st.CurLingerNs = int64(p.ctl.linger())
	st.AdmitEdges = int64(p.ctl.curAdmitEdges())
	st.TuneDecreases, st.TuneIncreases = p.ctl.steps()
	return st
}

// Epoch reads the current snapshot epoch.
func (p *Pipeline) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st.Epoch
}

// Publish bumps the epoch and stamps the publication time — called by
// the Applier whenever it publishes a snapshot.
func (p *Pipeline) Publish() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.st.Epoch++
	p.st.PublishedAtNs = p.clk.Now().UnixNano()
	return p.st.Epoch
}

// SetDraining flips the pipeline into graceful-shutdown mode: new writes
// are rejected while queued ones still apply.
func (p *Pipeline) SetDraining() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
}

// Draining reports graceful-shutdown mode.
func (p *Pipeline) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// Stopping is closed when the pipeline begins stopping; synchronous
// waiters select on it alongside their Result channel.
func (p *Pipeline) Stopping() <-chan struct{} { return p.stop }

// Close stops the pipeline abruptly: queued writes fail with
// ErrShuttingDown. Returns once the stop has been served — by the wall
// driver, or, on a stepped pipeline, by stepping it here (so the caller
// must be the clock's owner). Idempotent.
func (p *Pipeline) Close() {
	p.stopped.Do(func() { close(p.stop) })
	if p.driver == nil {
		for !p.finished {
			p.Step()
		}
		return
	}
	p.wake()
	<-p.driver
}

// wake kicks the wall driver without blocking.
func (p *Pipeline) wake() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// Enqueue reserves queue space for the request's edges and hands them to
// the writer. Reservation, acceptance counting and the hand-over share
// one critical section, so accepted >= applied + dropped + queued can
// never be violated by an interleaved scrape and a drain never has to
// wait for a request in flight between the two. Returns ErrQueueFull
// when the bounded queue is full — or, with the adaptive controller
// attached, when the queue sits above its current admission threshold
// (always at most QueueCap) — and ErrShuttingDown once draining started.
func (p *Pipeline) Enqueue(req *Request) error {
	n := int64(len(req.edges))
	admit := int64(p.ctl.curAdmitEdges())
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return ErrShuttingDown
	}
	if p.st.Queued+n > admit {
		p.st.Rejected++
		p.mu.Unlock()
		return ErrQueueFull
	}
	p.st.Queued += n
	p.st.EdgesAccepted += n
	p.queue = append(p.queue, req)
	p.mu.Unlock()
	p.wake()
	return nil
}

// stopClosed reports, without blocking, whether Close has been called.
func (p *Pipeline) stopClosed() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// Step is the single writer. It does what is due at the clock's now and
// returns when it next needs to run (the zero time: not before the next
// Enqueue or stop):
//
//   - a closed stop is served first: abruptly (every queued writer gets
//     ErrShuttingDown) or, when draining, by applying everything queued
//     without lingering, one chunk a call, then one final Flush;
//   - inside a write window or chunk pause nothing happens until its end;
//   - between batches a due background Flush or Scrub runs, unless a stop
//     or drain has been requested: the graceful drain runs its own final
//     Flush and a scrub is minutes of exclusive-lock work that must not
//     start behind an already-decided shutdown;
//   - queued requests join the open batch up to the live BatchEdges; the
//     batch closes when it is full, when its linger deadline has passed,
//     or when stopping, and then one chunk of at most the live BatchEdges
//     — re-read per chunk, so adaptive tuning takes effect mid-request —
//     is applied: one Applier.Apply call, one write window ending in a
//     snapshot publication, with reads interleaving between windows.
func (p *Pipeline) Step() time.Time {
	now := p.clk.Now()
	stop := p.stopClosed()
	draining := p.Draining()
	switch {
	case p.finished:
		return time.Time{}
	case stop && !draining:
		p.failQueued()
		p.finished = true
		return time.Time{}
	case !stop && now.Before(p.busyUntil):
		return p.busyUntil
	}
	if !stop && !draining && len(p.batch) == 0 {
		p.tick(now)
	}
	if p.all == nil && !p.gather(now, stop) {
		if stop && len(p.batch) == 0 {
			p.ap.Flush()
			p.finished = true
		}
		return p.idleWake()
	}
	p.applyChunk(stop)
	return p.busyUntil
}

// tick runs the background Flush and Scrub that have come due.
func (p *Pipeline) tick(now time.Time) {
	if !p.nextFlush.IsZero() && !now.Before(p.nextFlush) {
		p.ap.Flush()
		p.nextFlush = p.clk.Now().Add(p.cfg.FlushEvery)
	}
	if !p.nextScrub.IsZero() && !now.Before(p.nextScrub) {
		p.ap.Scrub()
		p.nextScrub = p.clk.Now().Add(p.cfg.ScrubEvery)
	}
}

// idleWake is the next time Step has something to do unasked: the open
// batch's linger deadline or, with no batch open, the earlier background
// tick.
func (p *Pipeline) idleWake() time.Time {
	if len(p.batch) > 0 {
		return p.deadline
	}
	wake := p.nextFlush
	if wake.IsZero() || (!p.nextScrub.IsZero() && p.nextScrub.Before(wake)) {
		wake = p.nextScrub
	}
	return wake
}

// gather moves queued requests into the open batch — up to the live
// BatchEdges cap — and reports whether the batch is ready to apply: full,
// lingered out, or the pipeline is stopping. A ready batch is closed:
// its edges become all, in arrival order.
func (p *Pipeline) gather(now time.Time, stop bool) bool {
	limit := p.ctl.curBatchEdges()
	p.mu.Lock()
	for p.total < limit && p.qhead < len(p.queue) {
		r := p.queue[p.qhead]
		p.queue[p.qhead] = nil
		p.qhead++
		r.left = len(r.edges)
		p.batch = append(p.batch, r)
		p.total += r.left
	}
	if p.qhead == len(p.queue) {
		p.queue, p.qhead = p.queue[:0], 0
	}
	p.mu.Unlock()
	if len(p.batch) == 0 {
		return false
	}
	if p.deadline.IsZero() {
		p.deadline = now.Add(p.ctl.linger())
	}
	if p.total < limit && !stop && now.Before(p.deadline) {
		return false
	}
	p.deadline = time.Time{}
	if len(p.batch) == 1 {
		p.all = p.batch[0].edges
		return true
	}
	p.buf = p.buf[:0]
	for _, r := range p.batch {
		p.buf = append(p.buf, r.edges...)
	}
	p.all = p.buf
	return true
}

// applyChunk applies the next chunk of the closed batch: one
// Applier.Apply call, the counters and the controller fed with the
// chunk's latency on the pipeline's clock, and the chunk credited to the
// requests it covered — a request is done when its last edge has been
// applied and published. An Apply error drops the failed chunk and
// everything behind it in the batch, dequeued without application.
func (p *Pipeline) applyChunk(stop bool) {
	end := min(p.off+p.ctl.curBatchEdges(), len(p.all))
	chunk := p.all[p.off:end]
	start := p.clk.Now()
	simNs, epoch, err := p.ap.Apply(chunk)
	p.busyUntil = p.clk.Done(start, time.Duration(simNs))
	if err != nil {
		p.failBatch(err, int64(len(p.all)-p.off))
		return
	}
	p.off = end
	lat := p.busyUntil.Sub(start)

	p.mu.Lock()
	p.st.Queued -= int64(len(chunk))
	p.st.EdgesApplied += int64(len(chunk))
	p.st.BatchesApplied++
	p.st.LastBatchHostNs = lat.Nanoseconds()
	p.st.LastBatchSimNs = simNs
	p.st.LastBatchEdges = int64(len(chunk))
	queued := p.st.Queued
	p.mu.Unlock()
	if p.cfg.Adaptive != nil {
		p.ctl.observe(queued, lat)
	}

	for n := len(chunk); n > 0; {
		r := p.batch[p.bhead]
		take := min(r.left, n)
		r.left -= take
		n -= take
		r.res.SimNs += simNs
		r.res.Batches++
		r.res.Epoch = epoch
		if r.left == 0 {
			r.res.Accepted = int64(len(r.edges))
			r.done <- r.res
			p.bhead++
		}
	}
	if p.off == len(p.all) {
		p.resetBatch()
	} else if p.cfg.BatchDelay > 0 && !stop {
		p.busyUntil = p.busyUntil.Add(p.cfg.BatchDelay)
	}
}

// resetBatch forgets the finished (or failed) batch, keeping its slices.
func (p *Pipeline) resetBatch() {
	clear(p.batch)
	p.batch, p.bhead, p.total = p.batch[:0], 0, 0
	p.all, p.off = nil, 0
	p.deadline = time.Time{}
}

// failBatch answers every request of the batch that is not fully
// applied with err (keeping the progress it had made) and counts the
// lost edges as dropped.
func (p *Pipeline) failBatch(err error, lost int64) {
	p.mu.Lock()
	p.st.Queued -= lost
	p.st.EdgesDropped += lost
	p.mu.Unlock()
	for _, r := range p.batch[p.bhead:] {
		r.res.Err = err
		r.done <- r.res
	}
	p.resetBatch()
}

// failQueued releases every writer the pipeline still holds — in the
// batch or behind it in the queue — with a shutdown error: the abrupt
// Close path.
func (p *Pipeline) failQueued() {
	p.failBatch(ErrShuttingDown, int64(p.total-p.off))
	p.mu.Lock()
	rest := p.queue[p.qhead:]
	p.queue, p.qhead = nil, 0
	for _, r := range rest {
		p.st.Queued -= int64(len(r.edges))
		p.st.EdgesDropped += int64(len(r.edges))
	}
	p.mu.Unlock()
	for _, r := range rest {
		r.done <- Result{Err: ErrShuttingDown}
	}
}

// edgeBufPool recycles decode scratch for the hot ingest handlers. Only
// return a buffer once its Result has been delivered (the pipeline owns
// request slices until then); async enqueues must let theirs go to the GC.
var edgeBufPool = sync.Pool{
	New: func() any { b := make([]graph.Edge, 0, 4096); return &b },
}

// GetEdgeBuf fetches an empty edge scratch buffer from the pool.
func GetEdgeBuf() []graph.Edge { return (*edgeBufPool.Get().(*[]graph.Edge))[:0] }

// PutEdgeBuf recycles an edge scratch buffer. Oversized buffers are
// dropped so one pathological request cannot pin memory forever.
func PutEdgeBuf(buf []graph.Edge) {
	if cap(buf) > 1<<17 {
		return
	}
	buf = buf[:0]
	edgeBufPool.Put(&buf)
}
