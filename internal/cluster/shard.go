package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ingest"
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
// reader holds it. A releasing reader's zero-check may race it to the
// close; Snapshot.Close runs once, so the snapshot's share of its count
// base is released exactly once.
func (p *published) retire() {
	if p == nil {
		return
	}
	p.retired.Store(true)
	if p.refs.Load() == 0 {
		p.snap.Close()
	}
}

// member is one copy of a partition — the leader Shard or a Replica: its
// store, its publication chain and the lock that orders the two. Content
// reaches a member only as a shipEntry, applied by the one apply, so a
// follower at epoch E holds what its leader held at E because both ran
// the same function over the same entries (DESIGN.md §11.2).
type member struct {
	// mu orders store mutation against snapshot reads: a write window
	// holds it exclusively; readers take it shared per neighbor access
	// and when pinning the publication.
	mu    sync.RWMutex
	store *core.Store // guarded by mu; a follower's snapshot resync swaps it
	cur   *published  // guarded by mu; swapped only under the write lock
}

// apply replays one entry into the store (callers hold mu exclusively)
// and returns its simulated cost: label definitions first, so every
// label id the entry's edges carry resolves, then the edges — typed when
// they carry labels — then the property writes. A definition with the
// default label's id, which no definition can name, is a registration:
// the store assigns the id and apply writes it into e, so the recorded
// copy ships it.
func (m *member) apply(e *shipEntry) (simNs int64, err error) {
	for i := range e.defs {
		d := &e.defs[i]
		if d.id == graph.DefaultLabel {
			d.id, err = m.store.RegisterLabel(d.name)
		} else {
			err = m.store.SetLabelDef(d.id, d.name)
		}
		if err != nil {
			return 0, err
		}
	}
	if len(e.edges) > 0 {
		var rep core.IngestReport
		if len(e.labels) > 0 {
			rep, err = m.store.IngestTyped(e.edges, e.labels)
		} else {
			rep, err = m.store.Ingest(e.edges)
		}
		if err != nil {
			return 0, err
		}
		simNs = rep.TotalNs()
	}
	if len(e.props) > 0 {
		if err := m.store.SetProps(e.props); err != nil {
			return simNs, err
		}
	}
	return simNs, nil
}

// publishLocked captures a fresh snapshot and makes it the served view
// at epoch, charging the capture to ctx. Callers hold mu exclusively, so
// no reader sees the old publication retired before the new one is in
// place; retiring it first lets an unpinned one close and its count base
// be patched instead of copied.
func (m *member) publishLocked(ctx *xpsim.Ctx, epoch uint64) {
	m.cur.retire()
	m.cur = &published{snap: m.store.Snapshot(ctx), epoch: epoch}
}

// acquire pins the current publication. The ref is taken under the
// shared lock, so it cannot race with retirement: a reader either
// increments before the writer's zero-check or sees the newer
// publication.
func (m *member) acquire() *published {
	m.mu.RLock()
	p := m.cur
	p.refs.Add(1)
	m.mu.RUnlock()
	return p
}

// replay is a follower's write window: it applies a shipped entry and,
// when the entry carries edges or properties, publishes at the leader
// epoch the entry was stamped with — the leader's commit, minus the
// stamping and the shipping.
func (m *member) replay(e *shipEntry) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	simNs, err := m.apply(e)
	if err == nil && e.hasData() {
		m.publishLocked(xpsim.NewCtx(xpsim.NodeUnbound), e.epoch)
	}
	return simNs, err
}

// reset swaps st in as the member's store and publishes it at epoch: a
// follower's first publication and its snapshot resync.
func (m *member) reset(st *core.Store, epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store = st
	m.publishLocked(xpsim.NewCtx(xpsim.NodeUnbound), epoch)
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

// Shard is one partition leader: a member (store, publication chain,
// lock), its single-writer ingest pipeline, its circuit breaker, and the
// log-shipping fan-out to its follower replicas over the transport.
//
// The store itself is not goroutine-safe; mu orders the write windows —
// commit and mutate — against snapshot reads exactly as the single-store
// server's stateMu did. All reads of the shard go through a pinned
// publication wrapped in view.GuardFull(pub.snap, &sh.mu).
type Shard struct {
	member
	id int

	pipe *ingest.Pipeline
	br   breaker
	clk  clock.Clock // Config.Clock: what the breaker and the gauges call now

	replicas []*Replica

	// Shipping stream state, guarded by mu: the sequence number is
	// assigned in the same exclusive window that applies and publishes
	// the entry, so the stream order IS the application order, and the
	// retention ring holds the recent tail (shipRetain entries) for
	// resync replay.
	shipSeq uint64
	ret     []shipMsg

	tr Transport // Config.Transport

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

// PipeStats reads one consistent copy of the shard's pipeline counters.
func (sh *Shard) PipeStats() ingest.Stats { return sh.pipe.Stats() }

// Breaker reads one consistent copy of the shard's breaker state.
func (sh *Shard) Breaker() BreakerView { return sh.br.view(sh.clk.Now()) }

// Step runs the shard once at its clock's now — the pipeline writer
// (ingest.Pipeline.Step), then each link's due ship retries and its
// follower — and returns the earliest time any of them next needs to run
// (the zero time: not before the next write). Only the owner of a stepped
// cluster's clock calls it; on the wall clock the pipeline and every
// follower run under their own driver.
func (sh *Shard) Step() time.Time {
	wake := sh.pipe.Step()
	for _, r := range sh.replicas {
		wake = earliest(wake, r.step())
	}
	return wake
}

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

// health reads the leader store's media-health summary under the shared
// lock (the damage sets are mutated under the exclusive lock).
func (sh *Shard) health() core.Health {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.store.Health()
}

// serving is the member a view pins for the partition: the leader, or its
// best live replica once it is down (nil: the partition is unservable).
func (sh *Shard) serving() *member {
	if !sh.down.Load() {
		return &sh.member
	}
	if r := bestReplica(sh); r != nil {
		return &r.member
	}
	return nil
}

// admit is every write route's admission (DESIGN.md §11.2): a down shard
// refuses any write, and an open breaker refuses one whose entry carries
// edges or properties — the entries whose outcome feeds it.
func (sh *Shard) admit(e *shipEntry) error {
	if sh.down.Load() {
		return ErrShardDown
	}
	if !e.hasData() {
		return nil
	}
	if ok, wait := sh.br.allow(sh.clk.Now()); !ok {
		return &BreakerOpenError{Wait: wait}
	}
	return nil
}

// commit is the one write window of the leader (DESIGN.md §11.2): under
// the exclusive lock it applies e, publishes when e carries edges or
// properties, stamps e with the resulting epoch and records it on the
// ship stream; after the lock it feeds the breaker the outcome of an
// entry with data and dispatches the record to the followers. A
// defs-only entry neither publishes nor feeds the breaker.
func (sh *Shard) commit(e *shipEntry) (int64, uint64, error) {
	data := e.hasData()
	sh.mu.Lock()
	simNs, err := sh.apply(e)
	var msg shipMsg
	if err == nil {
		if data {
			e.epoch = sh.pipe.Publish()
			sh.publishLocked(xpsim.NewCtx(xpsim.NodeUnbound), e.epoch)
		} else {
			e.epoch = sh.pipe.Epoch()
		}
		msg = sh.recordShipLocked(e)
	}
	sh.mu.Unlock()
	if data {
		sh.noteApply(err)
	}
	if err != nil {
		return 0, 0, err
	}
	sh.dispatch(msg)
	return simNs, e.epoch, nil
}

// mutate is the leader's one window that changes no content: fn runs on
// the store under the exclusive lock and, when it succeeds and reports a
// change, a fresh snapshot is published in the same window, its capture
// charged to ctx (nil: a fresh one). Nothing ships: a follower's epoch
// may trail its leader's by these publications (DESIGN.md §11.2).
func (sh *Shard) mutate(ctx *xpsim.Ctx, fn func(st *core.Store) (changed bool, err error)) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	changed, err := fn(sh.store)
	if err == nil && changed {
		if ctx == nil {
			ctx = xpsim.NewCtx(xpsim.NodeUnbound)
		}
		sh.publishLocked(ctx, sh.pipe.Publish())
	}
	return err
}

// republish is the mutate of a bare publication.
func republish(*core.Store) (bool, error) { return true, nil }

// flushVbufs is the mutate that drains every vertex buffer to PMEM.
func flushVbufs(st *core.Store) (bool, error) { return true, st.FlushAllVbufs() }

// recordShipLocked assigns the next stream sequence number to one
// applied entry, deep-copies its payload into an immutable entry, and
// appends it to the retention ring. Only commit calls it — in the SAME
// window that applied and published the entry, so sequence order is
// application order whichever route the entry came by. Returns the
// framed message to dispatch after the lock is released; the zero
// shipMsg (no replicas) dispatches as a no-op.
func (sh *Shard) recordShipLocked(e *shipEntry) shipMsg {
	if len(sh.replicas) == 0 {
		return shipMsg{}
	}
	ent := &shipEntry{
		epoch:  e.epoch,
		edges:  append([]graph.Edge(nil), e.edges...),
		labels: append([]uint16(nil), e.labels...),
		props:  append([]graph.PropSet(nil), e.props...),
		defs:   append([]labelDef(nil), e.defs...),
	}
	sh.shipSeq++
	m := shipMsg{seq: sh.shipSeq, id: chunkID(sh.id, sh.shipSeq), e: ent}
	sh.ret = append(sh.ret, m)
	if len(sh.ret) > shipRetain {
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

// dispatch ships one recorded entry to every running follower through
// the transport, outside the shard lock: a failed attempt becomes a
// pending retry on the link and the caller never waits (Replica.ship).
// Per-link ordering comes from the sequence numbers, not from delivery
// order.
func (sh *Shard) dispatch(m shipMsg) {
	if m.e == nil {
		return
	}
	now := sh.clk.Now()
	for _, r := range sh.replicas {
		r.ship(m, 1, now)
	}
}

// noteApply feeds one application's outcome to the circuit breaker:
// media-write failures count toward opening it, so repeated ones shed new
// writes up front instead of sending them into a failing store; a success
// closes it (and is what a half-open probe is waiting for).
func (sh *Shard) noteApply(err error) {
	if err == nil {
		sh.br.recordSuccess()
		return
	}
	// Declared past the success return: errors.As moves me to the heap.
	var me *xpsim.MediaError
	if errors.As(err, &me) {
		sh.br.recordFailure(sh.clk.Now())
	}
}

// shardApplier is the shard's side of the ingest.Applier contract: the
// pipeline's single writer commits each chunk as a plain entry, and its
// background flush and scrub are mutates.
type shardApplier struct {
	sh *Shard
}

// Apply commits one chunk.
func (a *shardApplier) Apply(chunk []graph.Edge) (int64, uint64, error) {
	return a.sh.commit(&shipEntry{edges: chunk})
}

// Flush is the pipeline's background archive step: it drains every
// vertex buffer to PMEM and republishes. It also runs once at the end of
// a graceful drain. A failure surfaces through the flush admin op or the
// next write.
func (a *shardApplier) Flush() {
	_ = a.sh.mutate(nil, flushVbufs)
}

// Scrub is the background scrubber: it walks the heap verifying
// checksums and republishes when the pass changed anything.
func (a *shardApplier) Scrub() {
	_ = a.sh.mutate(nil, func(st *core.Store) (bool, error) {
		rep, err := st.Scrub()
		return rep.Damaged > 0 || rep.Repaired > 0, err
	})
}
