package shard

import "repro/internal/graph"

// Slots reports the ring size.
func (m *SlotMap) Slots() int { return len(m.slots) }

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
