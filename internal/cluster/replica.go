package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/splitmix"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// ReplicaQueue bounds each follower's shipping inbox in chunks. A full
// inbox refuses delivery (the transport reports ErrShipBusy); the
// leader retries briefly and then abandons the chunk, flipping the
// follower into resync — bounded lag with shed-to-resync instead of
// the pre-PR-10 behavior of blocking the leader's writer goroutine.
const ReplicaQueue = 64

// shipEntry is one applied leader chunk's immutable payload. One copy
// is made when the leader assigns the chunk its sequence number; the
// retention ring and every delivery attempt (including chaos-injected
// duplicates) share it read-only. Typed entries additionally carry
// per-edge labels, vertex-property writes, and label-table broadcasts
// (DESIGN.md §13).
type shipEntry struct {
	edges []graph.Edge
	epoch uint64

	typed  bool
	labels []uint16        // labels[i] types edges[i]
	props  []graph.PropSet // vertex-property writes in the same window
	defs   []labelDef      // label-table (id, name) broadcasts
}

// labelDef is one broadcast label-table assignment.
type labelDef struct {
	id   uint16
	name string
}

// shipMsg is one framed chunk on the wire: the per-shard stream
// sequence number, the derived chunk id (an integrity tag the receiver
// verifies), and the shared immutable payload.
type shipMsg struct {
	seq uint64
	id  uint64
	e   *shipEntry
}

// chunkID derives the integrity tag for (shard, seq). A message whose
// tag does not match its claimed seq was corrupted or misrouted and is
// discarded on receive.
func chunkID(shard int, seq uint64) uint64 {
	return splitmix.Mix(uint64(uint32(shard))<<48 ^ seq)
}

// rstate is a replica's serving state (DESIGN.md §14.3).
type rstate int32

const (
	// replicaRunning: applying the shipped stream in sequence order.
	replicaRunning rstate = iota
	// replicaResyncing: fell behind (sequence gap, abandoned chunk, or
	// transient apply failure) and is catching up from the leader —
	// still serving reads at its last published epoch.
	replicaResyncing
	// replicaDamaged: a permanent apply failure (true data damage);
	// the replica stops advancing and is never selected for serving.
	replicaDamaged
)

func (s rstate) String() string {
	switch s {
	case replicaRunning:
		return "running"
	case replicaResyncing:
		return "resyncing"
	case replicaDamaged:
		return "damaged"
	}
	return fmt.Sprintf("rstate(%d)", int32(s))
}

// ReplicaCounters is one consistent copy of a follower's transport and
// resync counters for metrics and tests.
type ReplicaCounters struct {
	// Dedupes: duplicate deliveries discarded (seq already applied) —
	// the exactly-once-apply counter.
	Dedupes int64
	// Misroutes: deliveries whose chunk id did not match their seq.
	Misroutes int64
	// Reorders: out-of-order deliveries held in the reorder buffer.
	Reorders int64
	// Resyncs: times the replica entered the resyncing state.
	Resyncs int64
	// LogReplays: catch-up rounds served from the leader's retention
	// ring; SnapReplays: rounds that rebuilt from a leader snapshot.
	LogReplays  int64
	SnapReplays int64
	// TransientApplyErrors: apply failures classified transient and
	// recovered via resync instead of killing the replica.
	TransientApplyErrors int64
}

// Replica is one log-shipping follower of a shard: its own core.Store
// fed the leader's applied chunks in sequence order, publishing a
// snapshot stamped with the shipped leader epoch after each one. A
// replica's published view at epoch E is edge-for-edge identical to the
// leader's published view at epoch E, because both stores applied the
// identical chunk sequence — the property the replica-lag and chaos
// differential tests pin.
//
// Unlike the pre-PR-10 follower, delivery is fallible: chunks arrive
// through a Transport that may drop, duplicate, delay, or reorder them.
// The replica dedupes by sequence number (exactly-once apply), holds
// early arrivals in a bounded reorder buffer, and treats an unfilled
// sequence hole — or a transient apply failure — as a signal to enter
// the resyncing state and catch up from the leader (retention-ring
// replay, or a full snapshot rebuild) rather than dying. Permanent
// applyErr is reserved for true data damage.
type Replica struct {
	shardID int
	id      int
	sh      *Shard
	// factory provisions a fresh store for a snapshot rebuild — the
	// same constructor that built the follower at Start.
	factory func() (*core.Store, error)

	gapWait       time.Duration
	reorderWindow int
	resyncLimit   int

	// mu orders the apply goroutine's store mutation (and the snapshot-
	// resync store swap) against snapshot reads, exactly like a shard
	// leader's mu.
	mu    sync.RWMutex
	store *core.Store // guarded by mu; swapped by snapshot resync
	cur   *published  // guarded by mu

	// sendMu orders deliveries against close: chaos-delayed deliveries
	// can fire from timer goroutines long after the replica shut down.
	sendMu   sync.Mutex
	chClosed bool
	ch       chan shipMsg
	nudge    chan struct{}
	done     chan struct{}

	state   atomic.Int32  // rstate
	nextSeq atomic.Uint64 // next sequence number to apply

	applyErr error // first PERMANENT apply failure; guarded by mu

	// Apply-goroutine-owned resync bookkeeping.
	stash         map[uint64]shipMsg // reorder buffer
	forceSnapshot bool               // a chunk may be half-applied: log replay unsafe
	resyncFails   int                // consecutive failed resync rounds

	dedupes     atomic.Int64
	misroutes   atomic.Int64
	reorders    atomic.Int64
	resyncs     atomic.Int64
	logReplays  atomic.Int64
	snapReplays atomic.Int64
	transients  atomic.Int64

	// applyGate, when set, runs before each shipped chunk is applied —
	// outside mu, so reads keep flowing. Tests use it to stall the apply
	// goroutine and create replica lag deterministically. Guarded by mu.
	applyGate func()
	// applyErrHook, when set, may inject an apply error for a seq before
	// the store is touched (error-classification tests). Guarded by mu.
	applyErrHook func(seq uint64) error
}

// newReplica builds a follower over an empty store and starts its apply
// goroutine.
func newReplica(sh *Shard, id int, store *core.Store, factory func() (*core.Store, error), cfg Config) *Replica {
	r := &Replica{
		shardID:       sh.id,
		id:            id,
		sh:            sh,
		factory:       factory,
		gapWait:       cfg.GapWait,
		reorderWindow: cfg.ReorderWindow,
		resyncLimit:   cfg.ResyncLimit,
		store:         store,
		ch:            make(chan shipMsg, ReplicaQueue),
		nudge:         make(chan struct{}, 1),
		done:          make(chan struct{}),
		stash:         make(map[uint64]shipMsg),
	}
	r.nextSeq.Store(1)
	// Publish the initial empty snapshot at the leader's initial epoch
	// (1), so a view acquired before any write still has something to
	// pin.
	r.mu.Lock()
	r.cur = &published{snap: store.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound)), epoch: 1}
	r.mu.Unlock()
	go r.loop()
	return r
}

// Store returns the follower's current store (tests and telemetry; a
// snapshot resync replaces it).
func (r *Replica) Store() *core.Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store
}

// Epoch reads the shipped leader epoch the replica has published up to.
func (r *Replica) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur.epoch
}

// Err reports the first PERMANENT apply failure, if any. Transient
// faults — dropped chunks, reorders, recoverable apply errors — never
// surface here; they resolve through resync. A replica with a non-nil
// Err has stopped advancing and is never selected for serving.
func (r *Replica) Err() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.applyErr
}

// State reports the replica's serving state: running, resyncing, or
// damaged.
func (r *Replica) State() string { return r.stateNow().String() }

func (r *Replica) stateNow() rstate { return rstate(r.state.Load()) }

// NextSeq reports the next stream sequence number the replica expects
// (tests and metrics).
func (r *Replica) NextSeq() uint64 { return r.nextSeq.Load() }

// Counters reads the follower's transport/resync counters.
func (r *Replica) Counters() ReplicaCounters {
	return ReplicaCounters{
		Dedupes:              r.dedupes.Load(),
		Misroutes:            r.misroutes.Load(),
		Reorders:             r.reorders.Load(),
		Resyncs:              r.resyncs.Load(),
		LogReplays:           r.logReplays.Load(),
		SnapReplays:          r.snapReplays.Load(),
		TransientApplyErrors: r.transients.Load(),
	}
}

// deliver is the receiver side of the transport: non-blocking inbox
// admission. False means the inbox is full or the replica is closed —
// the transport surfaces that to the sender as ErrShipBusy.
func (r *Replica) deliver(m shipMsg) bool {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	if r.chClosed {
		return false
	}
	select {
	case r.ch <- m:
		return true
	default:
		return false
	}
}

// fellBehind is the leader's lag breaker: after exhausting its retry
// budget on a chunk it stops shipping to this follower and flips it
// into resync, instead of blocking the writer goroutine forever.
func (r *Replica) fellBehind() {
	r.toResync()
	select {
	case r.nudge <- struct{}{}:
	default:
	}
}

// toResync moves running → resyncing (damaged is terminal).
func (r *Replica) toResync() {
	for {
		s := r.state.Load()
		if rstate(s) == replicaDamaged || rstate(s) == replicaResyncing {
			return
		}
		if r.state.CompareAndSwap(s, int32(replicaResyncing)) {
			return
		}
	}
}

// setDamaged records a permanent apply failure and stops the replica.
func (r *Replica) setDamaged(err error) {
	r.mu.Lock()
	if r.applyErr == nil {
		r.applyErr = err
	}
	r.mu.Unlock()
	r.state.Store(int32(replicaDamaged))
}

// permanentApplyError classifies a replica apply failure. Media errors
// (the follower's own PMEM device dying) and damaged property columns
// are true data damage — no replay can fix them. Everything else is
// transient and recoverable by rebuilding from the leader.
func permanentApplyError(err error) bool {
	var me *xpsim.MediaError
	return errors.As(err, &me) || errors.Is(err, prop.ErrDamaged)
}

// close stops the apply goroutine. The goroutine first converges with
// the leader's shipped stream (resyncing if chunks were abandoned), so
// a graceful cluster shutdown leaves followers caught up.
func (r *Replica) close() {
	r.sendMu.Lock()
	if !r.chClosed {
		r.chClosed = true
		close(r.ch)
	}
	r.sendMu.Unlock()
	<-r.done
}

// loop is the apply goroutine: the in-order apply path, the reorder
// buffer's gap timer, and the resync state machine.
func (r *Replica) loop() {
	defer close(r.done)
	for {
		switch r.stateNow() {
		case replicaDamaged:
			for range r.ch { // discard deliveries until close
			}
			return
		case replicaResyncing:
			r.resync()
			continue
		}
		// Arm the gap timer only while the reorder buffer holds early
		// arrivals: if the missing seq does not show up within gapWait,
		// stop waiting and resync.
		var gap <-chan time.Time
		if len(r.stash) > 0 {
			gap = time.After(r.gapWait)
		}
		select {
		case m, ok := <-r.ch:
			if !ok {
				r.finalCatchUp()
				return
			}
			r.handle(m)
		case <-r.nudge:
			// State re-checked at the top of the loop.
		case <-gap:
			r.toResync()
		}
	}
}

// handle processes one delivery: integrity check, dedupe, in-order
// apply, or reorder-buffer stash with gap detection.
func (r *Replica) handle(m shipMsg) {
	if m.id != chunkID(r.shardID, m.seq) {
		r.misroutes.Add(1)
		return
	}
	next := r.nextSeq.Load()
	if m.seq < next {
		// Duplicate delivery (a retried chunk whose first copy arrived
		// late, or a chaos-injected dup): already applied, discard.
		r.dedupes.Add(1)
		return
	}
	if m.seq > next {
		// Sequence hole: hold the early arrival for reordering. A hole
		// wider than the reorder window will never close (the leader
		// abandoned a chunk) — resync immediately instead of waiting out
		// the gap timer.
		r.reorders.Add(1)
		r.stash[m.seq] = m
		if len(r.stash) > r.reorderWindow || m.seq-next > uint64(r.reorderWindow) {
			r.toResync()
		}
		return
	}
	if !r.applyMsg(m) {
		return
	}
	// Drain any stashed successors the apply just unblocked.
	for {
		m2, ok := r.stash[r.nextSeq.Load()]
		if !ok {
			return
		}
		delete(r.stash, m2.seq)
		if !r.applyMsg(m2) {
			return
		}
	}
}

// applyMsg applies one in-sequence chunk and republishes at its epoch.
// False means the replica left the running path (resyncing or damaged).
func (r *Replica) applyMsg(m shipMsg) bool {
	r.mu.RLock()
	gate, hook := r.applyGate, r.applyErrHook
	r.mu.RUnlock()
	if gate != nil {
		gate()
	}
	var err error
	if hook != nil {
		err = hook(m.seq)
	}
	if err == nil {
		r.mu.Lock()
		if err = r.apply(m.e); err == nil {
			r.nextSeq.Store(m.seq + 1)
			old := r.cur
			r.cur = &published{
				snap:  r.store.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound)),
				epoch: m.e.epoch,
			}
			old.retire()
		}
		r.mu.Unlock()
	}
	if err == nil {
		return true
	}
	if permanentApplyError(err) {
		r.setDamaged(err)
		return false
	}
	// Transient apply failure: the chunk may be half-applied, so replaying
	// it from the retention ring would double-apply its landed prefix.
	// Rebuild from a leader snapshot instead.
	r.transients.Add(1)
	r.forceSnapshot = true
	r.toResync()
	return false
}

// apply replays one shipped entry into the follower store (callers hold
// mu exclusively). Plain entries are a straight Ingest; typed entries
// replay label-table broadcasts first (so shipped ids always resolve),
// then the typed edges, then the property writes — the same order the
// leader applied them in.
func (r *Replica) apply(e *shipEntry) error {
	if !e.typed {
		_, err := r.store.Ingest(e.edges)
		return err
	}
	for _, d := range e.defs {
		if err := r.store.SetLabelDef(d.id, d.name); err != nil {
			return err
		}
	}
	if len(e.edges) > 0 {
		if _, err := r.store.IngestTyped(e.edges, e.labels); err != nil {
			return err
		}
	}
	if len(e.props) > 0 {
		if err := r.store.SetProps(e.props); err != nil {
			return err
		}
	}
	return nil
}

// resync is the catch-up state machine (DESIGN.md §14.3). Each round
// pins the leader's ship watermark; chunks still inside the leader's
// retention ring replay from it, anything older (or a possibly
// half-applied chunk) triggers a full snapshot rebuild. The replica
// keeps serving reads at its last published epoch throughout. The
// resyncing → running transition happens under the shard's exclusive
// lock, so no sequence number can be assigned between the caught-up
// check and the flip — a chunk shipped after it sees a running replica.
func (r *Replica) resync() {
	r.resyncs.Add(1)
	// The catch-up supersedes anything stashed; late stragglers dedupe.
	clear(r.stash)
	for {
		if r.stateNow() == replicaDamaged {
			return
		}
		r.sh.mu.Lock()
		head := r.sh.shipSeq
		if !r.forceSnapshot && r.nextSeq.Load() > head {
			r.state.Store(int32(replicaRunning))
			r.sh.mu.Unlock()
			return
		}
		var msgs []shipMsg
		if !r.forceSnapshot {
			msgs = r.sh.retainedFromLocked(r.nextSeq.Load())
		}
		r.sh.mu.Unlock()

		if len(msgs) > 0 {
			r.logReplays.Add(1)
			for _, m := range msgs {
				if !r.applyMsg(m) {
					break // damaged (checked at top) or forceSnapshot set
				}
			}
			continue
		}

		// The stream has moved past the retention ring, or a chunk is
		// half-applied: rebuild from a leader snapshot.
		r.snapReplays.Add(1)
		if err := r.snapshotResync(); err != nil {
			if permanentApplyError(err) {
				r.setDamaged(err)
				return
			}
			r.resyncFails++
			if r.resyncFails >= r.resyncLimit {
				r.setDamaged(fmt.Errorf("cluster: replica %d/%d: %d consecutive resync rounds failed: %w",
					r.shardID, r.id, r.resyncFails, err))
				return
			}
			continue
		}
		r.resyncFails = 0
		r.forceSnapshot = false
	}
}

// snapshotResync rebuilds the follower from the leader's pinned
// publication: provision a fresh store, transfer the label table and
// property index, stream every vertex's net adjacency, then swap the
// store in, publish at the pinned leader epoch, and fast-forward the
// sequence cursor to the pinned ship watermark. Chunks shipped after
// the pin replay on top — adjacency is snapshot-exact at the pin, and
// the property transfer is read-latest LWW state, idempotent under the
// replay (the same weaker-but-documented property contract every
// property read already has; DESIGN.md §13).
func (r *Replica) snapshotResync() error {
	// Pin the publication and the watermark in one lock window so they
	// describe the same moment.
	r.sh.mu.RLock()
	p := r.sh.cur
	p.refs.Add(1)
	head := r.sh.shipSeq
	r.sh.mu.RUnlock()
	defer p.unref()

	fresh, err := r.factory()
	if err != nil {
		return fmt.Errorf("provisioning rebuild store: %w", err)
	}
	src := view.GuardFull(p.snap, &r.sh.mu)

	leader := r.sh.store
	if fresh.PropsEnabled() && leader.PropsEnabled() {
		for id, name := range leader.Labels() {
			if id == 0 || name == "" {
				continue
			}
			if err := fresh.SetLabelDef(uint16(id), name); err != nil {
				return err
			}
		}
		pe, pl, ps := leader.ExportPropState()
		if err := fresh.RestorePropState(pe, pl, ps); err != nil {
			return err
		}
	}

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	batch := make([]graph.Edge, 0, 4096)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		_, ferr := fresh.Ingest(batch)
		batch = batch[:0]
		return ferr
	}
	for v, n := graph.VID(0), src.NumVertices(); v < n; v++ {
		src.VisitOut(ctx, v, func(nbr uint32) {
			batch = append(batch, graph.Edge{Src: v, Dst: nbr})
		})
		if len(batch) >= 4096 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	r.mu.Lock()
	old := r.cur
	r.store = fresh
	r.cur = &published{snap: fresh.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound)), epoch: p.epoch}
	old.retire()
	r.mu.Unlock()
	r.nextSeq.Store(head + 1)
	return nil
}

// finalCatchUp converges the follower with everything its leader
// shipped before the inbox closed, resyncing if chunks were abandoned
// mid-stream — a graceful shutdown leaves no follower behind.
func (r *Replica) finalCatchUp() {
	if r.stateNow() == replicaDamaged {
		return
	}
	r.sh.mu.RLock()
	head := r.sh.shipSeq
	r.sh.mu.RUnlock()
	if r.nextSeq.Load() <= head {
		r.toResync()
		r.resync()
	}
}

// acquire pins the replica's current publication.
func (r *Replica) acquire() *published {
	r.mu.RLock()
	p := r.cur
	p.refs.Add(1)
	r.mu.RUnlock()
	return p
}

// View pins the replica's current publication and returns a guarded
// read view over it plus the shipped epoch it represents. Release the
// view by calling the returned release func. Test and failover surface.
func (r *Replica) View() (v view.Full, epoch uint64, release func()) {
	p := r.acquire()
	return view.GuardFull(p.snap, &r.mu), p.epoch, p.unref
}
