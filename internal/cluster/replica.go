package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/prop"
	"repro/internal/splitmix"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// replicaQueue bounds each follower's inbox and each link's pending
// retries, in chunks. A full inbox refuses delivery (the transport
// reports errShipBusy); the leader retries on a backoff and then abandons
// the chunk, flipping the follower into resync — bounded lag with
// shed-to-resync, and a writer that never waits on a follower.
const replicaQueue = 64

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

// Shipping constants (DESIGN.md §14.1–14.3).
const (
	// shipAttempts bounds delivery attempts per (chunk, follower) before
	// the leader gives up and flips the follower into resync.
	shipAttempts = 4
	// shipBackoff and shipBackoffMax bound the exponential retry backoff.
	shipBackoff    = 200 * time.Microsecond
	shipBackoffMax = 2 * time.Millisecond
	// shipRetain is the retention ring length in chunks: a resyncing
	// follower within it replays the log tail instead of rebuilding from
	// a snapshot.
	shipRetain = 256
	// reorderWindow bounds how far ahead of its next sequence number a
	// follower stashes early chunks; a wider hole resyncs at once.
	reorderWindow = replicaQueue / 2
	// gapWait is how long a follower sits on a sequence hole before it
	// declares the chunk lost and resyncs, and how often a resync round
	// that cannot reach its leader across a cut link tries again.
	gapWait = 5 * time.Millisecond
	// resyncLimit is the consecutive failed snapshot rebuilds after which
	// a follower is declared damaged.
	resyncLimit = 3
)

// queued is a message due at a time: an arrival at the follower, or the
// leader's next attempt of a pending retry.
type queued struct {
	at      time.Time
	m       shipMsg
	attempt int
}

// earliestAt is when the first of q is due (zero: q is empty).
func earliestAt(q []queued) time.Time {
	var t time.Time
	for _, e := range q {
		t = earliest(t, e.at)
	}
	return t
}

// earliest is the earlier of two wake times, the zero time meaning none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// Replica is one log-shipping follower of a shard: its own core.Store
// fed the leader's applied chunks in sequence order, publishing a
// snapshot stamped with the shipped leader epoch after each one. A
// replica's published view at epoch E is edge-for-edge identical to the
// leader's published view at epoch E, because both stores applied the
// identical chunk sequence — the property the replica-lag and chaos
// differential tests pin.
//
// Delivery is fallible: chunks arrive through a Transport that may drop,
// duplicate, delay, or reorder them. The replica dedupes by sequence
// number (exactly-once apply), holds early arrivals in a bounded reorder
// stash, and treats an unfilled sequence hole — or a transient apply
// failure — as a signal to enter the resyncing state and catch up from
// the leader (retention-ring replay, or a full snapshot rebuild) rather
// than dying. Permanent applyErr is reserved for true data damage.
//
// The Replica also holds the leader's side of its link: the pending ship
// retries. Both halves are one resumable step on the cluster's clock —
// the link's due retries, then the follower's due arrivals, gap deadline
// or resync round — whose state lives on the struct. Shard.Step calls it
// on a stepped clock; on the wall clock it runs under clock.Timer.Drive.
type Replica struct {
	sh   *Shard
	link chaos.Link // shard and follower index
	clk  clock.Clock
	// factory provisions a fresh store for a snapshot rebuild — the
	// same constructor that built the follower at Start.
	factory func() (*core.Store, error)

	// mu orders the stepper's store mutation (and the snapshot-resync
	// store swap) against snapshot reads, exactly like a shard leader's
	// mu.
	mu    sync.RWMutex
	store *core.Store // guarded by mu; swapped by snapshot resync
	cur   *published  // guarded by mu

	// qmu guards the link's two bounded queues — the arrivals the
	// transport delivered and the leader's pending retries — and closed.
	// Arrival never blocks: a full inbox refuses.
	qmu     sync.Mutex
	inbox   []queued
	pending []queued
	closed  bool
	kick    chan struct{}   // wakes the wall driver; nil when stepped
	driver  <-chan struct{} // closed when the wall driver exits; nil when stepped

	state   atomic.Int32  // rstate
	nextSeq atomic.Uint64 // next sequence number to apply

	applyErr error // first PERMANENT apply failure; guarded by mu

	// Stepper-owned state.
	stash         map[uint64]shipMsg // reorder stash
	gapAt         time.Time          // when the hole at gapSeq turns into a resync; zero: no hole
	gapSeq        uint64
	busyUntil     time.Time // end of the current apply, or of a wait to resync across a cut link
	forceSnapshot bool      // a chunk may be half-applied: log replay unsafe
	resyncFails   int       // consecutive failed resync rounds
	due           []queued  // scratch for the retries one step makes

	dedupes     atomic.Int64
	misroutes   atomic.Int64
	reorders    atomic.Int64
	resyncs     atomic.Int64
	logReplays  atomic.Int64
	snapReplays atomic.Int64
	transients  atomic.Int64

	// applyGate, when set, runs before each shipped chunk is applied —
	// outside mu, so reads keep flowing. Tests use it to stall the
	// follower and create replica lag deterministically. Guarded by mu.
	applyGate func()
	// applyErrHook, when set, may inject an apply error for a seq before
	// the store is touched (error-classification tests). Guarded by mu.
	applyErrHook func(seq uint64) error
}

// newReplica builds a follower over an empty store and, on a clock that
// can wake it, starts its wall driver.
func newReplica(sh *Shard, id int, store *core.Store, factory func() (*core.Store, error)) *Replica {
	r := &Replica{
		sh:      sh,
		link:    chaos.Link{Shard: sh.id, Replica: id},
		clk:     sh.clk,
		factory: factory,
		store:   store,
		inbox:   make([]queued, 0, replicaQueue),
		stash:   make(map[uint64]shipMsg),
	}
	r.nextSeq.Store(1)
	// Publish the initial empty snapshot at the leader's initial epoch
	// (1), so a view acquired before any write still has something to
	// pin.
	r.cur = &published{snap: store.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound)), epoch: 1}
	if t := r.clk.Timer(); t != nil {
		r.kick = make(chan struct{}, 1)
		r.driver = t.Drive(r.kick, func() (time.Time, bool) {
			r.qmu.Lock()
			closed := r.closed
			r.qmu.Unlock()
			if closed {
				return time.Time{}, true
			}
			return r.step(), false
		})
	}
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

// wake kicks the wall driver without blocking (a no-op when stepped).
func (r *Replica) wake() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// ---- the leader's side of the link ----

// backoff derives the bounded, jittered wait before retry `attempt+1`:
// exponential from shipBackoff, capped at shipBackoffMax, with seeded
// jitter in [d/2, d) so concurrent shippers do not retry in lockstep.
func backoff(shard int, seq uint64, attempt int) time.Duration {
	d := min(shipBackoff<<(attempt-1), shipBackoffMax)
	h := splitmix.Mix(uint64(uint32(shard))<<40 ^ seq<<8 ^ uint64(attempt))
	return d/2 + time.Duration(h%uint64(d/2+1))
}

// ship makes delivery attempt `attempt` of m on the link, at now. A failed
// attempt becomes a pending retry after a jittered backoff; the last one,
// or one the bounded retry queue has no room for, gives up and flips the
// follower into resync — the lag breaker — instead of ever waiting.
func (r *Replica) ship(m shipMsg, attempt int, now time.Time) {
	sh := r.sh
	if r.stateNow() != replicaRunning {
		// Already resyncing (it will replay this seq from the retention
		// ring) or damaged: don't burn the retry budget.
		sh.shipSkips.Add(1)
		return
	}
	sh.shipsTotal.Add(1)
	if attempt > 1 {
		sh.shipRetries.Add(1)
	}
	if sh.tr.Ship(r.link, m.seq, attempt, now, func(at time.Time) bool { return r.deliver(m, at) }) == nil {
		return
	}
	if attempt < shipAttempts {
		r.qmu.Lock()
		ok := !r.closed && len(r.pending) < replicaQueue
		if ok {
			r.pending = append(r.pending, queued{at: now.Add(backoff(sh.id, m.seq, attempt)), m: m, attempt: attempt + 1})
		}
		r.qmu.Unlock()
		if ok {
			r.wake()
			return
		}
	}
	sh.shipGiveUps.Add(1)
	r.toResync()
}

// retryDue makes the link's retries that are due at now. A dead leader
// retries nothing.
func (r *Replica) retryDue(now time.Time) {
	r.qmu.Lock()
	keep := r.pending[:0]
	for _, p := range r.pending {
		switch {
		case r.sh.down.Load():
		case now.Before(p.at):
			keep = append(keep, p)
		default:
			r.due = append(r.due, p)
		}
	}
	clear(r.pending[len(keep):])
	r.pending = keep
	r.qmu.Unlock()
	for _, p := range r.due {
		r.ship(p.m, p.attempt, now)
	}
	clear(r.due)
	r.due = r.due[:0]
}

// ---- the follower ----

// deliver is the receiver side of the transport: non-blocking admission
// of a message arriving at at. False means the inbox is full or the
// replica is closed — the transport surfaces that as errShipBusy.
func (r *Replica) deliver(m shipMsg, at time.Time) bool {
	r.qmu.Lock()
	ok := !r.closed && len(r.inbox) < replicaQueue
	if ok {
		r.inbox = append(r.inbox, queued{at: at, m: m})
	}
	r.qmu.Unlock()
	if ok {
		r.wake()
	}
	return ok
}

// take removes and returns the lowest-sequence arrival due by now.
func (r *Replica) take(now time.Time) (shipMsg, bool) {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	best := -1
	for i, a := range r.inbox {
		if !now.Before(a.at) && (best < 0 || a.m.seq < r.inbox[best].m.seq) {
			best = i
		}
	}
	if best < 0 {
		return shipMsg{}, false
	}
	m := r.inbox[best].m
	last := len(r.inbox) - 1
	r.inbox[best] = r.inbox[last]
	r.inbox[last] = queued{}
	r.inbox = r.inbox[:last]
	return m, true
}

// toResync moves running → resyncing (damaged is terminal) and wakes the
// stepper for the first round. The leader calls it when it abandons a
// chunk, the follower on a hole it gives up on or a transient apply
// failure.
func (r *Replica) toResync() {
	if r.state.CompareAndSwap(int32(replicaRunning), int32(replicaResyncing)) {
		r.resyncs.Add(1)
		r.wake()
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
// (the follower's own PMEM device dying or reporting a poisoned line)
// and damaged property columns are true data damage — no replay can fix
// them. Everything else is transient and recoverable by rebuilding from
// the leader.
func permanentApplyError(err error) bool {
	var me *xpsim.MediaError
	return errors.As(err, &me) || errors.Is(err, prop.ErrDamaged)
}

// poisoned returns a media error when the follower's own device reports
// an uncorrectable line: the copy the next chunk would build on is no
// longer the leader's, and nothing the leader ships can repair it.
func poisoned(st *core.Store) error {
	f := st.Machine().Faults()
	if f == nil {
		return nil
	}
	for node := range st.Machine().Devices() {
		if lines := f.UELines(node); len(lines) > 0 {
			return &xpsim.MediaError{Node: node, Line: lines[0]}
		}
	}
	return nil
}

// step is one run of the link and the follower at the clock's now: the
// link's due ship retries, then — unless the follower is still busy
// applying on a stepped clock, where a chunk occupies it for its
// simulated cost — one resync round, or the due arrivals in sequence
// order and the gap deadline. It returns when it next needs to run (the
// zero time: not before the next arrival, retry or resync trigger).
func (r *Replica) step() time.Time {
	now := r.clk.Now()
	r.retryDue(now)
	if !now.Before(r.busyUntil) {
		switch r.stateNow() {
		case replicaDamaged:
			r.qmu.Lock()
			clear(r.inbox)
			r.inbox = r.inbox[:0]
			r.qmu.Unlock()
		case replicaResyncing:
			r.resyncRound()
		default:
			r.serve(now)
			r.checkGap(now)
		}
	}
	r.qmu.Lock()
	retry, arrival := earliestAt(r.pending), earliestAt(r.inbox)
	r.qmu.Unlock()
	switch {
	case r.busyUntil.After(now):
		return earliest(retry, r.busyUntil)
	case r.stateNow() == replicaDamaged, r.stateNow() == replicaResyncing && r.sh.down.Load():
		return retry // nothing to apply, or no leader to catch up from
	case r.stateNow() == replicaResyncing:
		return now
	}
	return earliest(earliest(retry, arrival), r.gapAt)
}

// serve applies what is due by now in sequence order: the stashed
// successor of the last applied chunk first, else the lowest-sequence due
// arrival. It stops when nothing is due, when the follower leaves the
// running path, or once a chunk keeps it busy past now.
func (r *Replica) serve(now time.Time) {
	for r.stateNow() == replicaRunning && !now.Before(r.busyUntil) {
		next := r.nextSeq.Load()
		m, ok := r.stash[next]
		if ok {
			delete(r.stash, next)
		} else if m, ok = r.take(now); !ok {
			return
		}
		r.receive(m)
	}
}

// receive processes one arrival: integrity check, dedupe, in-order
// apply, or reorder stash.
func (r *Replica) receive(m shipMsg) {
	next := r.nextSeq.Load()
	switch {
	case m.id != chunkID(r.link.Shard, m.seq):
		r.misroutes.Add(1)
	case m.seq < next:
		// Duplicate delivery (a retried chunk whose first copy arrived
		// late, or a chaos-injected dup): already applied, discard.
		r.dedupes.Add(1)
	case m.seq > next:
		// Sequence hole: hold the early arrival for reordering. A hole
		// wider than the reorder window will never close (the leader
		// abandoned a chunk) — resync now instead of waiting out the gap
		// deadline.
		r.reorders.Add(1)
		r.stash[m.seq] = m
		if len(r.stash) > reorderWindow || m.seq-next > reorderWindow {
			r.toResync()
		}
	default:
		r.applyMsg(m)
	}
}

// checkGap arms the gap deadline when a hole opens at the next sequence
// number, re-arms it when the follower moves past the hole, and resyncs
// when a hole has outlived it.
func (r *Replica) checkGap(now time.Time) {
	next := r.nextSeq.Load()
	switch {
	case len(r.stash) == 0:
		r.gapAt = time.Time{}
	case r.gapAt.IsZero() || r.gapSeq != next:
		r.gapAt, r.gapSeq = now.Add(gapWait), next
	case !now.Before(r.gapAt):
		r.toResync()
	}
}

// applyMsg applies one in-sequence chunk and republishes at its epoch; on
// a stepped clock the chunk occupies the follower for its simulated cost
// from when it is free. False means the replica left the running path
// (resyncing or damaged).
func (r *Replica) applyMsg(m shipMsg) bool {
	r.mu.RLock()
	gate, hook := r.applyGate, r.applyErrHook
	r.mu.RUnlock()
	if gate != nil {
		gate()
	}
	start := r.clk.Now()
	if r.busyUntil.After(start) {
		start = r.busyUntil
	}
	err := poisoned(r.store)
	if err == nil && hook != nil {
		err = hook(m.seq)
	}
	var simNs int64
	if err == nil {
		r.mu.Lock()
		if simNs, err = r.apply(m.e); err == nil {
			r.nextSeq.Store(m.seq + 1)
			r.cur.retire() // first, as in Shard.publishLocked
			r.cur = &published{
				snap:  r.store.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound)),
				epoch: m.e.epoch,
			}
		}
		r.mu.Unlock()
	}
	r.busyUntil = r.clk.Done(start, time.Duration(simNs))
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
// mu exclusively) and returns its simulated cost. Plain entries are a
// straight Ingest; typed entries replay label-table broadcasts first (so
// shipped ids always resolve), then the typed edges, then the property
// writes — the same order the leader applied them in.
func (r *Replica) apply(e *shipEntry) (int64, error) {
	if !e.typed {
		rep, err := r.store.Ingest(e.edges)
		return rep.TotalNs(), err
	}
	for _, d := range e.defs {
		if err := r.store.SetLabelDef(d.id, d.name); err != nil {
			return 0, err
		}
	}
	var simNs int64
	if len(e.edges) > 0 {
		rep, err := r.store.IngestTyped(e.edges, e.labels)
		if err != nil {
			return 0, err
		}
		simNs = rep.TotalNs()
	}
	if len(e.props) > 0 {
		if err := r.store.SetProps(e.props); err != nil {
			return simNs, err
		}
	}
	return simNs, nil
}

// resyncRound is one round of the catch-up state machine (DESIGN.md
// §14.3) and reports whether it reached the leader. It pins the leader's
// ship watermark; chunks still inside the leader's retention ring replay
// from it, anything older (or a possibly half-applied chunk) triggers a
// full snapshot rebuild. A round crosses the link like a shipment: a cut
// link refuses it, and a dead leader serves nothing — its follower keeps
// serving reads at its last published epoch throughout. The resyncing →
// running transition happens under the shard's exclusive lock, so no
// sequence number can be assigned between the caught-up check and the
// flip — a chunk shipped after it sees a running replica.
func (r *Replica) resyncRound() bool {
	// The catch-up supersedes anything stashed; late stragglers dedupe.
	clear(r.stash)
	r.gapAt = time.Time{}
	sh := r.sh
	if sh.down.Load() {
		return false
	}
	sh.mu.Lock()
	head := sh.shipSeq
	if sh.tr.Cut(r.link, head) {
		sh.mu.Unlock()
		r.busyUntil = r.clk.Now().Add(gapWait) // try again then
		return false
	}
	next := r.nextSeq.Load()
	if !r.forceSnapshot && next > head {
		r.state.Store(int32(replicaRunning))
		sh.mu.Unlock()
		return true
	}
	var msgs []shipMsg
	if !r.forceSnapshot {
		msgs = sh.retainedFromLocked(next)
	}
	sh.mu.Unlock()

	if len(msgs) > 0 {
		r.logReplays.Add(1)
		for _, m := range msgs {
			if !r.applyMsg(m) {
				break // damaged, or forceSnapshot set for the next round
			}
		}
		return true
	}

	// The stream has moved past the retention ring, or a chunk is
	// half-applied: rebuild from a leader snapshot.
	r.snapReplays.Add(1)
	start := r.clk.Now()
	simNs, err := r.snapshotResync()
	r.busyUntil = r.clk.Done(start, time.Duration(simNs))
	switch {
	case err == nil:
		r.resyncFails = 0
		r.forceSnapshot = false
	case permanentApplyError(err):
		r.setDamaged(err)
	default:
		r.resyncFails++
		if r.resyncFails >= resyncLimit {
			r.setDamaged(fmt.Errorf("cluster: replica %d/%d: %d consecutive resync rounds failed: %w",
				r.link.Shard, r.link.Replica, r.resyncFails, err))
		}
	}
	return true
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
func (r *Replica) snapshotResync() (simNs int64, err error) {
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
		return 0, fmt.Errorf("provisioning rebuild store: %w", err)
	}
	src := view.GuardFull(p.snap, &r.sh.mu)

	leader := r.sh.store
	if fresh.PropsEnabled() && leader.PropsEnabled() {
		for id, name := range leader.Labels() {
			if id == 0 || name == "" {
				continue
			}
			if err := fresh.SetLabelDef(uint16(id), name); err != nil {
				return 0, err
			}
		}
		pe, pl, ps := leader.ExportPropState()
		if err := fresh.RestorePropState(pe, pl, ps); err != nil {
			return 0, err
		}
	}

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	batch := make([]graph.Edge, 0, 4096)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		rep, ferr := fresh.Ingest(batch)
		simNs += rep.TotalNs()
		batch = batch[:0]
		return ferr
	}
	for v, n := graph.VID(0), src.NumVertices(); v < n; v++ {
		src.VisitOut(ctx, v, func(nbr uint32) {
			batch = append(batch, graph.Edge{Src: v, Dst: nbr})
		})
		if len(batch) >= 4096 {
			if err := flush(); err != nil {
				return simNs, err
			}
		}
	}
	if err := flush(); err != nil {
		return simNs, err
	}

	r.mu.Lock()
	old := r.cur
	r.store = fresh
	r.cur = &published{snap: fresh.Snapshot(xpsim.NewCtx(xpsim.NodeUnbound)), epoch: p.epoch}
	old.retire()
	r.mu.Unlock()
	r.nextSeq.Store(head + 1)
	return simNs, nil
}

// close stops the follower: its wall driver exits, and finish converges
// it with what its leader shipped.
func (r *Replica) close() {
	r.qmu.Lock()
	r.closed = true
	r.pending = nil // a stopped leader ships nothing more
	r.qmu.Unlock()
	if r.driver != nil {
		r.wake()
		<-r.driver
	}
	r.finish()
}

// endOfTime is after every arrival and apply a closing follower waits on.
var endOfTime = time.Unix(1<<40, 0)

// finish is a closing follower's last step: it applies everything that
// arrived, whatever its due time, then resyncs over any chunk its leader
// abandoned, so a graceful shutdown leaves no follower behind — unless it
// is damaged, its leader is down or the link is cut.
func (r *Replica) finish() {
	if r.stateNow() == replicaRunning {
		r.serve(endOfTime)
		if r.nextSeq.Load() <= r.sh.ShipSeq() {
			r.toResync()
		}
	}
	for r.stateNow() == replicaResyncing && r.resyncRound() {
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
