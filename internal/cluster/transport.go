package cluster

import (
	"errors"
	"time"

	"repro/internal/chaos"
)

// The transport boundary between a shard leader and its followers
// (DESIGN.md §14). Every shipped chunk crosses an explicit, fallible
// Transport carrying a monotonic per-shard sequence number and a chunk
// id; a failed attempt becomes a pending retry with bounded exponential
// backoff on the link, and a chunk that cannot be delivered is
// *abandoned* — the follower resyncs instead of the leader waiting.
//
// Transport semantics are deliberately weak, like a real fabric:
//   - an attempt can fail with the message never arriving (drop,
//     partition, full inbox), and the sender knows;
//   - an attempt can "fail" with the message arriving anyway (a delay
//     past the sender's patience), and the sender cannot know — which
//     is why the receiver dedupes by sequence number;
//   - duplicated and reordered deliveries are legal.
// The replica's sequence/dedupe/resync machinery (replica.go) is the
// reliability layer on top; the transport stays dumb.

// Transport is one delivery fabric for leader→replica shipping. It
// never blocks and starts nothing: a delayed delivery is a message queued
// at the receiver with a later arrival time.
type Transport interface {
	// Ship makes one delivery attempt (attempt is 1-based), at now, of
	// the chunk with sequence number seq on link. deliver queues the
	// message at the receiver to arrive at the given time and reports
	// whether the receiver's inbox took it; the transport may call it
	// zero times (drop), once, or twice (duplication), for now or later.
	// A nil return means the sender may consider the chunk delivered;
	// an error means it should retry or give up — even though the
	// message may still arrive (delayed delivery).
	Ship(link chaos.Link, seq uint64, attempt int, now time.Time, deliver func(at time.Time) bool) error
	// Cut reports whether link is partitioned at stream position seq: a
	// follower's resync round cannot reach its leader across it either.
	Cut(link chaos.Link, seq uint64) bool
}

// Typed transport failures (all transient by construction — the
// sender's retry/give-up policy decides what to do with them).
var (
	// errShipDropped: the message was lost in flight.
	errShipDropped = errors.New("transport: message dropped")
	// errShipPartitioned: the link is partitioned; retries will keep
	// failing until the partition heals.
	errShipPartitioned = errors.New("transport: link partitioned")
	// errShipBusy: the receiver's inbox refused the message
	// (backpressure — the follower is not consuming).
	errShipBusy = errors.New("transport: receiver inbox full")
	// errShipTimeout: the delivery did not complete within the
	// sender's patience; the message may or may not arrive later.
	errShipTimeout = errors.New("transport: delivery timed out")
)

// perfectTransport is the default in-process fabric: one immediate
// delivery, failing only on receiver backpressure.
type perfectTransport struct{}

func (perfectTransport) Ship(_ chaos.Link, _ uint64, _ int, now time.Time, deliver func(time.Time) bool) error {
	if !deliver(now) {
		return errShipBusy
	}
	return nil
}

func (perfectTransport) Cut(chaos.Link, uint64) bool { return false }

// ChaosTransport injects faults from a seeded chaos.Plan: drops,
// duplicates, delays (a copy that arrives later, on whichever clock the
// cluster runs), and seq-window partitions. Deterministic per
// (seed, link, seq, attempt) — see internal/chaos.
type ChaosTransport struct {
	plan *chaos.Plan
}

// NewChaosTransport wraps a plan as a Transport. A nil or healed plan
// behaves like the perfect transport.
func NewChaosTransport(plan *chaos.Plan) *ChaosTransport {
	return &ChaosTransport{plan: plan}
}

func (t *ChaosTransport) Ship(link chaos.Link, seq uint64, attempt int, now time.Time, deliver func(time.Time) bool) error {
	verdict, d := t.plan.Fate(link, seq, attempt)
	switch verdict {
	case chaos.Drop:
		return errShipDropped
	case chaos.Partition:
		return errShipPartitioned
	case chaos.Delay:
		// The message will arrive after d, but the sender has already
		// lost patience: it sees a timeout and may retry, producing a
		// duplicate the receiver dedupes. This is the classic ambiguous
		// RPC outcome.
		deliver(now.Add(d))
		return errShipTimeout
	case chaos.Duplicate:
		// One copy now, one later. The payload is immutable and shared,
		// so the late copy needs no deep clone; the receiver dedupes.
		ok := deliver(now)
		deliver(now.Add(d))
		if !ok {
			return errShipBusy
		}
		return nil
	}
	return perfectTransport{}.Ship(link, seq, attempt, now, deliver)
}

func (t *ChaosTransport) Cut(link chaos.Link, seq uint64) bool { return t.plan.Partitioned(link, seq) }
