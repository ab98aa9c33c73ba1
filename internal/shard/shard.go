// Package shard implements the edge sharding both stores archive through
// (§IV-A): ranged edge lists dealt to workers by size. A batch of edges is
// split into many ranged edge lists keyed by vertex — by its hash for
// XPGraph, by its contiguous ID range for GraphOne — more lists than
// threads, and lists are assigned to workers greedily by size, so every
// worker gets about the same number of edges while staying free of atomics.
//
// The same idea generalized one level up is the cluster partition map
// (SlotMap): vertex IDs hash onto a fixed ring of slots — more slots than
// shards — and slots map to shard stores. Because both the hash and the
// slot table are pure functions of (vertex, slot count, shard count), the
// assignment is stable across process restarts and across reconfigurations
// that preserve the shard count; internal/cluster routes every edge and
// every read through it.
package shard

import (
	"fmt"

	"repro/internal/graph"
)

// Entry is one (vertex, neighbor) update routed to a worker. Nbr may carry
// graph.DelFlag.
type Entry struct {
	V   graph.VID
	Nbr uint32
}

// RangesPerWorker is how many ranged lists are created per worker, so the
// greedy assignment can balance skewed batches.
const RangesPerWorker = 4

// defaultSlots is the partition-ring size used when a SlotMap is built
// with slots <= 0. 256 slots over at most a few dozen shards keeps the
// per-shard slot count high enough that hash skew stays under a few
// percent, while the table itself stays a cache-line-scale array.
const defaultSlots = 256

// hash64 is the splitmix64 finalizer over a vertex ID: a fixed, seedless
// avalanche permutation of the 64-bit input. It is deliberately not
// seeded and not process-dependent — partition stability across restarts
// (same vid → same slot → same shard) is a correctness property of the
// cluster, not a tuning knob.
func hash64(v graph.VID) uint64 {
	x := uint64(v)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// PartOf maps a vertex to one of a store's parts NUMA sub-graphs (§III-D):
// the one partition function of the tree, used by core.Store and refined by
// Hashed's lists. It scales the high half of hash64 onto [0, parts).
// SlotMap takes the hash modulo the ring size — its low bits — and on the
// same bits every vertex a cluster shard owns would fall into one
// sub-graph. Like the slot map it is seedless: a recovered store must find
// every vertex in the arena that was written for it.
func PartOf(v graph.VID, parts int) int {
	if parts <= 1 {
		return 0
	}
	return int((hash64(v) >> 32) * uint64(parts) >> 32)
}

// SlotMap is the cluster partition map: a fixed ring of hash slots, each
// owned by one shard. The slot table is filled round-robin, so it is a
// pure function of (slots, shards) — two processes that agree on those
// two integers agree on the owner of every vertex, which is what makes
// restarts and replica promotion safe without any coordination service.
type SlotMap struct {
	slots  []uint16
	shards int
}

// NewSlotMap builds the map for nShards shards over a ring of `slots`
// slots (defaultSlots when slots <= 0). nShards must be in [1, 65536]
// and must not exceed the slot count, else every extra shard would own
// nothing.
func NewSlotMap(nShards, slots int) (*SlotMap, error) {
	if slots <= 0 {
		slots = defaultSlots
	}
	if nShards < 1 || nShards > 1<<16 {
		return nil, fmt.Errorf("shard: slot map needs 1..65536 shards, got %d", nShards)
	}
	if nShards > slots {
		return nil, fmt.Errorf("shard: %d shards exceed %d slots", nShards, slots)
	}
	m := &SlotMap{slots: make([]uint16, slots), shards: nShards}
	for i := range m.slots {
		m.slots[i] = uint16(i % nShards)
	}
	return m, nil
}

// slot maps a vertex to its hash slot.
func (m *SlotMap) slot(v graph.VID) int {
	return int(hash64(v) % uint64(len(m.slots)))
}

// Owner maps a vertex to the shard that owns it. Edges are partitioned
// by source vertex, so Owner(src) decides where an edge is applied and
// Owner(v) decides which shard answers v's out-neighbor reads.
func (m *SlotMap) Owner(v graph.VID) int {
	return int(m.slots[m.slot(v)])
}
