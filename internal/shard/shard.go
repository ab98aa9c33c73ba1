// Package shard implements the edge-sharding approach both stores use for
// load-balanced multi-threaded archiving (§IV-A, inherited from GraphOne):
// a batch of edges is split into many ranged edge lists keyed by vertex ID
// range — more lists than threads — and lists are assigned to workers
// greedily by size so every worker gets an approximately equal number of
// edges while staying free of atomics.
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

// Width returns the vertex-range width that splits numV vertices into
// nRanges ranges.
func Width(numV int64, nRanges int) int64 {
	w := (numV + int64(nRanges) - 1) / int64(nRanges)
	if w <= 0 {
		w = 1
	}
	return w
}

// RangeOf maps a vertex to its range index.
func RangeOf(v graph.VID, width int64, nRanges int) int {
	r := int(int64(v) / width)
	if r >= nRanges {
		r = nRanges - 1
	}
	return r
}

// DefaultSlots is the partition-ring size used when a SlotMap is built
// with slots <= 0. 256 slots over at most a few dozen shards keeps the
// per-shard slot count high enough that hash skew stays under a few
// percent, while the table itself stays a cache-line-scale array.
const DefaultSlots = 256

// Hash64 is the splitmix64 finalizer over a vertex ID: a fixed, seedless
// avalanche permutation of the 64-bit input. It is deliberately not
// seeded and not process-dependent — partition stability across restarts
// (same vid → same slot → same shard) is a correctness property of the
// cluster, not a tuning knob.
func Hash64(v graph.VID) uint64 {
	x := uint64(v)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// PartOf maps a vertex to one of a store's parts NUMA sub-graphs (§III-D):
// the one partition function of the tree, shared by core.Store and
// Geometry. It scales the high half of Hash64 onto [0, parts). SlotMap takes
// the hash modulo the ring size — its low bits — and on the same bits every
// vertex a cluster shard owns would fall into one sub-graph. Like the slot
// map it is seedless: a recovered store must find every vertex in the arena
// that was written for it.
func PartOf(v graph.VID, parts int) int {
	if parts <= 1 {
		return 0
	}
	return int((Hash64(v) >> 32) * uint64(parts) >> 32)
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
// slots (DefaultSlots when slots <= 0). nShards must be in [1, 65536]
// and must not exceed the slot count, else every extra shard would own
// nothing.
func NewSlotMap(nShards, slots int) (*SlotMap, error) {
	if slots <= 0 {
		slots = DefaultSlots
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

// Shards reports the number of shards the map distributes over.
func (m *SlotMap) Shards() int { return m.shards }

// Slots reports the ring size.
func (m *SlotMap) Slots() int { return len(m.slots) }

// Slot maps a vertex to its hash slot.
func (m *SlotMap) Slot(v graph.VID) int {
	return int(Hash64(v) % uint64(len(m.slots)))
}

// Owner maps a vertex to the shard that owns it. Edges are partitioned
// by source vertex, so Owner(src) decides where an edge is applied and
// Owner(v) decides which shard answers v's out-neighbor reads.
func (m *SlotMap) Owner(v graph.VID) int {
	return int(m.slots[m.Slot(v)])
}

// Split partitions a batch of edges by owner shard, appending into per-
// shard buffers (buffers may be nil or recycled from a previous call;
// they are truncated first). The returned slices alias bufs. Deletes
// route like adds: graph.Target strips the tombstone flag before the
// destination is inspected, and the source carries no flag.
func (m *SlotMap) Split(edges []graph.Edge, bufs [][]graph.Edge) [][]graph.Edge {
	if len(bufs) < m.shards {
		bufs = append(bufs, make([][]graph.Edge, m.shards-len(bufs))...)
	}
	bufs = bufs[:m.shards]
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	for _, e := range edges {
		bufs[m.Owner(e.Src)] = append(bufs[m.Owner(e.Src)], e)
	}
	return bufs
}
