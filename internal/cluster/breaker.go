package cluster

import (
	"sync"
	"time"
)

// breakerThreshold is how many consecutive media-write failures open a
// shard's breaker.
const breakerThreshold = 3

// breaker is the per-shard ingest circuit breaker. It has two arms:
//
//   - media: repeated media-write failures (the shard's store reporting
//     *xpsim.MediaError from Ingest) open it, so a dying device sheds
//     new writes up front with a BreakerOpenError instead of queueing
//     them into a pipeline that will drop them anyway;
//   - overload: sustained queue-full sheds (consecutive ErrQueueFull
//     refusals with no admit between them) open it too, so a shard
//     drowning in offered load converts the 429 storm into typed 503s
//     with a Retry-After instead of letting every caller hammer the
//     full queue (DESIGN.md §12.4).
//
// After the cooldown the breaker goes half-open: the next write is
// admitted as a probe, and what closes the breaker is the evidence its
// arm was waiting for — a probe admitted past the queue when overload
// opened it, a batch applied when media failures did; the failure it was
// opened for re-opens it immediately. The arms do not answer for each
// other: a batch that was queued before an overload trip and applies
// during the cooldown says nothing about the queue and leaves the
// breaker open, or an overload trip would last one write window instead
// of one cooldown (DESIGN.md §12.4).
//
// It lives here, not in internal/server, because failure shedding is a
// property of one shard, not of the HTTP frontend. Every method that
// compares times takes now from its caller, which reads the cluster's
// clock (Config.Clock): a breaker on a stepped cluster cools down on
// virtual time like everything else there.
type breaker struct {
	mu        sync.Mutex
	overload  int           // consecutive queue-full sheds that open it (0 = arm disabled)
	cooldown  time.Duration // open duration before the half-open probe
	fails     int           // consecutive media failures while closed
	sheds     int           // consecutive queue-full sheds while closed
	openUntil time.Time     // zero when closed
	halfOpen  bool          // a probe write is in flight
	byShed    bool          // which arm opened it: overload sheds, else media failures
	trips     int64
	closes    int64
	probes    int64
	rejected  int64
}

// allow reports whether a write may enter the pipeline; when refused it
// also reports how long until the half-open probe is admitted.
func (b *breaker) allow(now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true, 0
	}
	if now.Before(b.openUntil) {
		b.rejected++
		return false, b.openUntil.Sub(now)
	}
	if !b.halfOpen {
		b.halfOpen = true
		b.probes++
	}
	return true, 0
}

// openLocked trips the breaker for one arm (callers hold mu). A failed
// probe re-opens it for the arm it was probing for.
func (b *breaker) openLocked(now time.Time, byShed bool) {
	if !b.halfOpen {
		b.byShed = byShed
	}
	b.openUntil = now.Add(b.cooldown)
	b.trips++
	b.fails = 0
	b.sheds = 0
	b.halfOpen = false
}

// closeLocked closes an open or half-open breaker (callers hold mu).
func (b *breaker) closeLocked() {
	if !b.openUntil.IsZero() || b.halfOpen {
		b.closes++
	}
	b.fails = 0
	b.sheds = 0
	b.openUntil = time.Time{}
	b.halfOpen = false
}

// recordFailure counts one media-write failure. The breaker opens at
// breakerThreshold consecutive failures, or immediately when a half-open probe
// fails.
func (b *breaker) recordFailure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails >= breakerThreshold || b.halfOpen {
		b.openLocked(now, false)
	}
}

// recordSuccess records one applied batch: the media failure streak is
// over, and a breaker that media failures opened closes. One that
// overload opened stays as it is — the batch was admitted before the
// trip.
func (b *breaker) recordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if !b.openUntil.IsZero() && !b.byShed {
		b.closeLocked()
	}
}

// noteShed counts one queue-full refusal on the overload arm. The
// breaker opens at `overload` consecutive sheds, or immediately when a
// half-open probe is shed again.
func (b *breaker) noteShed(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.overload <= 0 {
		return
	}
	b.sheds++
	if b.sheds >= b.overload || b.halfOpen {
		b.openLocked(now, true)
	}
}

// noteAdmit records a write admitted past the queue: it clears the
// overload streak and closes a breaker that overload opened and that is
// half-open (the probe got through, so the queue is draining again). A
// probe for media failures still has to apply.
func (b *breaker) noteAdmit() {
	b.mu.Lock()
	b.sheds = 0
	if b.halfOpen && b.byShed {
		b.closeLocked()
	}
	b.mu.Unlock()
}

// BreakerView is one consistent copy of a shard breaker's state for
// metrics and the health endpoint.
type BreakerView struct {
	Open bool
	// Trips counts open transitions (either arm); Closes counts
	// half-open → closed recoveries; Probes counts half-open probe
	// admissions. Together they pin the open/half-open/close cycle.
	Trips    int64
	Closes   int64
	Probes   int64
	Rejected int64
}

func (b *breaker) view(now time.Time) BreakerView {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerView{
		Open:     !b.openUntil.IsZero() && now.Before(b.openUntil),
		Trips:    b.trips,
		Closes:   b.closes,
		Probes:   b.probes,
		Rejected: b.rejected,
	}
}
