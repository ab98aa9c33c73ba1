package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/splitmix"
	"repro/internal/xpsim"
)

// published is one snapshot publication of a shard leader or replica.
// Readers pin it with a refcount under the owner's shared lock; the
// snapshot is closed (deregistered from compaction fencing) once it is
// both retired by a newer publication and unreferenced. This is the
// refcounted-publication protocol the single-store server ran (PR 2);
// it moved here so every shard — and every replica — runs its own copy.
type published struct {
	snap    *core.Snapshot
	epoch   uint64
	refs    atomic.Int64
	retired atomic.Bool
}

func (p *published) unref() {
	if p.refs.Add(-1) == 0 && p.retired.Load() {
		p.snap.Close()
	}
}

// retire marks p replaced by a newer publication, closing it when no
// reader holds it. Snapshot.Close is idempotent, so the benign race with
// a releasing reader's zero-check is harmless.
func (p *published) retire() {
	if p == nil {
		return
	}
	p.retired.Store(true)
	if p.refs.Load() == 0 {
		p.snap.Close()
	}
}

// ShipCounters is one consistent copy of a shard's leader-side shipping
// counters (DESIGN.md §14.2).
type ShipCounters struct {
	// Attempts: transport Ship calls (first tries and retries).
	Attempts int64
	// Retries: attempts after the first for a (chunk, replica) pair.
	Retries int64
	// GiveUps: chunks abandoned after the retry budget — the follower
	// was flipped into resync.
	GiveUps int64
	// Skips: chunks not shipped because the follower was already
	// resyncing or damaged (the lag breaker's steady state).
	Skips int64
}

// Shard is one partition leader: a core.Store, its single-writer ingest
// pipeline, its snapshot publication chain, its circuit breaker, and the
// log-shipping fan-out to its follower replicas over the transport.
//
// The store itself is not goroutine-safe; mu orders the pipeline's write
// windows against snapshot reads exactly as the single-store server's
// stateMu did. All reads of the shard go through a pinned publication
// wrapped in view.GuardFull(pub.snap, &sh.mu).
type Shard struct {
	id    int
	store *core.Store

	// mu orders store mutation against snapshot reads: the writer holds
	// it exclusively per batch; readers take it shared per neighbor
	// access and when pinning the published snapshot.
	mu  sync.RWMutex
	cur *published // guarded by mu; swapped only under the write lock

	pipe *ingest.Pipeline
	br   breaker
	clk  clock.Clock // Config.Clock: what the breaker and the gauges call now

	replicas []*Replica

	// Shipping stream state, guarded by mu: the sequence number is
	// assigned in the same exclusive window that applies and publishes
	// the chunk, so the stream order IS the application order, and the
	// retention ring holds the recent tail for resync replay.
	shipSeq uint64
	ret     []shipMsg
	retCap  int

	// Transport policy (from Config).
	tr             Transport
	shipAttempts   int
	shipBackoff    time.Duration
	shipBackoffMax time.Duration

	shipsTotal  atomic.Int64
	shipRetries atomic.Int64
	shipGiveUps atomic.Int64
	shipSkips   atomic.Int64

	// down simulates the shard process dying (KillShard): writes are
	// refused up front and reads fail over to the best replica.
	down atomic.Bool
}

// ID returns the shard's index in the partition map.
func (sh *Shard) ID() int { return sh.id }

// Store returns the leader store (tests and telemetry; serving code goes
// through pinned publications).
func (sh *Shard) Store() *core.Store { return sh.store }

// Epoch reads the shard's current snapshot epoch.
func (sh *Shard) Epoch() uint64 { return sh.pipe.Epoch() }

// Down reports whether the shard was killed.
func (sh *Shard) Down() bool { return sh.down.Load() }

// PipeStats reads one consistent copy of the shard's pipeline counters.
func (sh *Shard) PipeStats() ingest.Stats { return sh.pipe.Stats() }

// Breaker reads one consistent copy of the shard's breaker state.
func (sh *Shard) Breaker() BreakerView { return sh.br.view(sh.clk.Now()) }

// Step runs the shard's pipeline writer once (ingest.Pipeline.Step) and
// returns when it next needs to run. Only the owner of a stepped
// cluster's clock calls it; on the wall clock the pipeline's own
// goroutine is the writer.
func (sh *Shard) Step() time.Time { return sh.pipe.Step() }

// Replicas returns the shard's followers.
func (sh *Shard) Replicas() []*Replica { return sh.replicas }

// ShipSeq reads the last assigned stream sequence number.
func (sh *Shard) ShipSeq() uint64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.shipSeq
}

// ShipCounters reads the leader-side shipping counters.
func (sh *Shard) ShipCounters() ShipCounters {
	return ShipCounters{
		Attempts: sh.shipsTotal.Load(),
		Retries:  sh.shipRetries.Load(),
		GiveUps:  sh.shipGiveUps.Load(),
		Skips:    sh.shipSkips.Load(),
	}
}

// publishLocked captures a fresh leader snapshot, makes it the served
// view, and returns the new epoch. Callers must hold mu exclusively.
func (sh *Shard) publishLocked(ctx *xpsim.Ctx) uint64 {
	old := sh.cur
	epoch := sh.pipe.Publish()
	sh.cur = &published{snap: sh.store.Snapshot(ctx), epoch: epoch}
	old.retire()
	return epoch
}

// acquire pins the current leader publication. The ref is taken under
// the shared lock, so it cannot race with retirement: a reader either
// increments before the writer's zero-check or sees the newer
// publication.
func (sh *Shard) acquire() *published {
	sh.mu.RLock()
	p := sh.cur
	p.refs.Add(1)
	sh.mu.RUnlock()
	return p
}

// health reads the leader store's media-health summary under the shared
// lock (the damage sets are mutated under the exclusive lock).
func (sh *Shard) health() core.Health {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.store.Health()
}

// recordShipLocked assigns the next stream sequence number to one
// applied chunk, deep-copies its payload into an immutable entry, and
// appends it to the retention ring. Callers must hold mu exclusively —
// in the SAME window that applied and published the chunk, so sequence
// order is application order even when the pipeline and the synchronous
// typed path interleave. Returns the framed message to dispatch after
// the lock is released; the zero shipMsg (no replicas) dispatches as a
// no-op.
func (sh *Shard) recordShipLocked(e shipEntry) shipMsg {
	if len(sh.replicas) == 0 {
		return shipMsg{}
	}
	ent := &shipEntry{
		epoch:  e.epoch,
		typed:  e.typed,
		edges:  append([]graph.Edge(nil), e.edges...),
		labels: append([]uint16(nil), e.labels...),
		props:  append([]graph.PropSet(nil), e.props...),
		defs:   append([]labelDef(nil), e.defs...),
	}
	sh.shipSeq++
	m := shipMsg{seq: sh.shipSeq, id: chunkID(sh.id, sh.shipSeq), e: ent}
	sh.ret = append(sh.ret, m)
	if len(sh.ret) > sh.retCap {
		n := copy(sh.ret, sh.ret[1:])
		sh.ret[n] = shipMsg{} // release the dropped entry
		sh.ret = sh.ret[:n]
	}
	return m
}

// retainedFromLocked returns the retained stream tail starting at seq,
// or nil when the ring no longer reaches back that far (callers hold
// mu). The returned messages share the ring's immutable entries.
func (sh *Shard) retainedFromLocked(seq uint64) []shipMsg {
	if len(sh.ret) == 0 || seq < sh.ret[0].seq {
		return nil
	}
	idx := int(seq - sh.ret[0].seq)
	if idx >= len(sh.ret) {
		return nil
	}
	return append([]shipMsg(nil), sh.ret[idx:]...)
}

// backoff derives the bounded, jittered sleep before retry `attempt+1`:
// exponential from shipBackoff, capped at shipBackoffMax, with seeded
// jitter in [d/2, d) so concurrent shippers do not retry in lockstep.
func (sh *Shard) backoff(seq uint64, attempt int) time.Duration {
	d := sh.shipBackoff << (attempt - 1)
	if d > sh.shipBackoffMax {
		d = sh.shipBackoffMax
	}
	h := splitmix.Mix(uint64(uint32(sh.id))<<40 ^ seq<<8 ^ uint64(attempt))
	return d/2 + time.Duration(h%uint64(d/2+1))
}

// dispatch ships one recorded chunk to every running follower through
// the transport: bounded retries with exponential backoff + jitter per
// follower, and on exhaustion the follower is flipped into resync (the
// lag breaker) instead of blocking the caller. Runs OUTSIDE the shard
// lock; per-link ordering comes from the sequence numbers, not from
// delivery order.
func (sh *Shard) dispatch(m shipMsg) {
	if m.e == nil {
		return
	}
	for _, r := range sh.replicas {
		if r.stateNow() != replicaRunning {
			// Already resyncing (it will replay this seq from the
			// retention ring) or damaged: don't burn the retry budget.
			sh.shipSkips.Add(1)
			continue
		}
		link := chaos.Link{Shard: sh.id, Replica: r.id}
		delivered := false
		for attempt := 1; attempt <= sh.shipAttempts; attempt++ {
			sh.shipsTotal.Add(1)
			if err := sh.tr.Ship(link, m.seq, attempt, func() bool { return r.deliver(m) }); err == nil {
				delivered = true
				break
			}
			if attempt < sh.shipAttempts {
				sh.shipRetries.Add(1)
				time.Sleep(sh.backoff(m.seq, attempt))
			}
		}
		if !delivered {
			sh.shipGiveUps.Add(1)
			r.fellBehind()
		}
	}
}

// noteApply feeds one application's outcome to the circuit breaker:
// media-write failures count toward opening it, so repeated ones shed new
// writes up front instead of sending them into a failing store; a success
// closes it (and is what a half-open probe is waiting for).
func (sh *Shard) noteApply(err error) {
	var me *xpsim.MediaError
	switch {
	case err == nil:
		sh.br.recordSuccess()
	case errors.As(err, &me):
		sh.br.recordFailure(sh.clk.Now())
	}
}

// shardApplier is the shard's side of the ingest.Applier contract. It
// runs on the pipeline's single writer and owns the lock
// ordering: every application takes the shard's exclusive lock, ends in
// a snapshot publication plus a ship-stream record, feeds the circuit
// breaker, and dispatches the chunk to the followers outside the lock.
type shardApplier struct {
	sh *Shard
}

// Apply ingests one chunk under the exclusive lock and, on success,
// republishes the snapshot, records the chunk on the ship stream, and
// dispatches it.
func (a *shardApplier) Apply(chunk []graph.Edge) (int64, uint64, error) {
	sh := a.sh
	wctx := xpsim.NewCtx(xpsim.NodeUnbound)
	sh.mu.Lock()
	rep, err := sh.store.Ingest(chunk)
	var epoch uint64
	var msg shipMsg
	if err == nil {
		epoch = sh.publishLocked(wctx)
		msg = sh.recordShipLocked(shipEntry{edges: chunk, epoch: epoch})
	}
	sh.mu.Unlock()

	sh.noteApply(err)
	if err != nil {
		return 0, 0, err
	}
	sh.dispatch(msg)
	return rep.TotalNs(), epoch, nil
}

// Flush is the pipeline's background archive step: it drains every
// vertex buffer to PMEM and republishes. It also runs once at the end of
// a graceful drain.
func (a *shardApplier) Flush() {
	sh := a.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.store.FlushAllVbufs(); err != nil {
		return // surfaced through the flush admin op or the next write
	}
	sh.publishLocked(xpsim.NewCtx(xpsim.NodeUnbound))
}

// Scrub is the background scrubber: it walks the heap verifying
// checksums under the exclusive lock and republishes when the pass
// changed anything.
func (a *shardApplier) Scrub() {
	sh := a.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rep, err := sh.store.Scrub()
	if err != nil {
		return
	}
	if rep.Damaged > 0 || rep.Repaired > 0 {
		sh.publishLocked(xpsim.NewCtx(xpsim.NodeUnbound))
	}
}
