package cluster

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// Compile-time proof that the composite view serves the full contract.
var _ view.Full = (*ClusterView)(nil)

// PartitionDownError is returned by checked reads, typed reads and
// Degree of a partition whose leader is down and which has no live
// replica to fail over to. The unchecked algorithm surface returns empty
// results for such a partition instead (analytics is health-gated at the
// HTTP layer, so this only shows up when the gate is bypassed
// deliberately).
type PartitionDownError struct {
	Shard int
}

func (e *PartitionDownError) Error() string {
	return fmt.Sprintf("cluster: partition %d is down and has no live replica", e.Shard)
}

// ClusterView is one consistent read view of the whole cluster: one
// pinned snapshot publication per partition, read through that
// partition's guard so every access is ordered against its writer. It
// hand-writes view.Source by routing each call to the partitions holding
// the records, and embeds the view.Full surface derived from it — so the
// HTTP handlers and the analytics engine run over a 4-shard cluster
// through the same interface they run over a single snapshot.
//
// Consistency model: the view is per-shard consistent, cross-shard
// loose. Each partition is served at exactly one epoch (the pinned
// publication's), captured in the epoch vector; different partitions may
// be pinned at different points in time. Out-reads of v go to v's owner
// partition only; in-reads union every partition, because an edge (u,v)
// lives with u's owner and so v's in-records scatter across shards.
//
// Failover: a partition whose leader is down is served by its
// best-caught-up live replica; with no such replica the partition's
// sources are nil and reads of it degrade (empty / typed error), while
// every other partition keeps serving.
type ClusterView struct {
	view.Surface

	c    *Cluster
	pins []*published  // per shard; nil when the partition is unservable
	srcs []view.Source // guarded snapshots over pins; nil when unservable
	// epochs is the pinned epoch vector: the publication epoch each
	// partition is served at (0 for an unservable partition).
	epochs []uint64
	// numV is max over sources, captured at acquire so the view's vertex
	// space is stable even as shards publish newer snapshots.
	numV graph.VID
}

// bestReplica picks the follower to fail a dead shard's reads over to:
// the live (no apply error) replica with the highest shipped epoch.
func bestReplica(sh *Shard) *Replica {
	var best *Replica
	var bestEpoch uint64
	for _, r := range sh.replicas {
		if r.Err() != nil {
			continue
		}
		if e := r.Epoch(); best == nil || e > bestEpoch {
			best, bestEpoch = r, e
		}
	}
	return best
}

// AcquireView pins one publication per partition — the leader's, or the
// best live replica's when the leader is down — and returns the
// composite read view. The caller must Release it.
func (c *Cluster) AcquireView() *ClusterView {
	cv := &ClusterView{
		c:      c,
		pins:   make([]*published, len(c.shards)),
		srcs:   make([]view.Source, len(c.shards)),
		epochs: make([]uint64, len(c.shards)),
	}
	cv.Surface = view.Surface{Source: cv}
	for i, sh := range c.shards {
		m := sh.serving()
		if m == nil {
			continue
		}
		p := m.acquire()
		cv.pins[i] = p
		cv.srcs[i] = view.GuardSource(p.snap, &m.mu)
		cv.epochs[i] = p.epoch
		cv.numV = max(cv.numV, cv.srcs[i].NumVertices())
	}
	return cv
}

// Release unpins every publication. The view must not be used after.
func (cv *ClusterView) Release() {
	for i, p := range cv.pins {
		if p != nil {
			p.unref()
			cv.pins[i] = nil
			cv.srcs[i] = nil
		}
	}
}

// EpochVector is the pinned epoch vector (one entry per partition; 0 for
// an unservable one).
func (cv *ClusterView) EpochVector() []uint64 { return cv.epochs }

// Epoch is the scalar fold of the pinned epoch vector — what the
// X-Snapshot-Epoch header carries.
func (cv *ClusterView) Epoch() uint64 { return EpochScalar(cv.epochs) }

// ---- view.Source ----

// NumVertices is the max over partitions, captured at acquire time:
// vertex IDs are global, and every shard's store spans the same ID
// space (a shard simply holds no records for vertices it does not own).
func (cv *ClusterView) NumVertices() graph.VID { return cv.numV }

// parts is the partition range a read of v in direction d touches.
// Edges partition by source, so v's out-records all sit with its owner,
// while an edge (u,v) is recorded with u's owner and v's in-records
// scatter over every partition.
func (cv *ClusterView) parts(d view.Dir, v graph.VID) (lo, hi int) {
	if d == view.Out {
		o := cv.c.pmap.Owner(v)
		return o, o + 1
	}
	return 0, len(cv.srcs)
}

// Node reports the NUMA node of v's adjacency on its owner partition's
// machine (partitions are separate machines; the node index is only
// meaningful for binding queries on that shard). In-records scatter, so
// for them this is a placement hint, not a location.
func (cv *ClusterView) Node(d view.Dir, v graph.VID) int {
	s := cv.srcs[cv.c.pmap.Owner(v)]
	if s == nil {
		return xpsim.NodeUnbound
	}
	return s.Node(d, v)
}

// Degree sums v's stored record count over the partitions holding its
// records. When one of them cannot answer it returns what the rest hold
// together with the first failure, named.
func (cv *ClusterView) Degree(d view.Dir, v graph.VID) (int, error) {
	var n int
	var first error
	for i, hi := cv.parts(d, v); i < hi; i++ {
		var c int
		var err error
		if s := cv.srcs[i]; s == nil {
			err = &PartitionDownError{Shard: i}
		} else if c, err = s.Degree(d, v); err != nil {
			err = &ShardError{Shard: i, Err: err}
		}
		if first == nil {
			first = err
		}
		n += c
	}
	return n, first
}

// Visit hands over v's neighbors one run per partition holding them, in
// shard order: concatenation preserves multi-edge multiplicity exactly
// like a single store; only the order differs (per-shard runs instead of
// global arrival order). Each per-shard guard walks under its own lock
// and calls back unlocked, so no lock is held across fn. An edge's label
// lives with the edge, so each partition reports the labels of the
// records it holds. An unservable partition reads as empty on the plain
// walk and fails the checked and label-reporting walks, named; so does a
// partition's media error.
func (cv *ClusterView) Visit(ctx *xpsim.Ctx, d view.Dir, v graph.VID, o view.Opts, fn func(nbrs []uint32, lbls []uint16)) error {
	for i, hi := cv.parts(d, v); i < hi; i++ {
		s := cv.srcs[i]
		if s == nil {
			if o.Checked || o.Labels {
				return &PartitionDownError{Shard: i}
			}
			continue
		}
		if err := s.Visit(ctx, d, v, o, fn); err != nil {
			return &ShardError{Shard: i, Err: err}
		}
	}
	return nil
}

// Labels reads the label table from the first servable partition: label
// registration broadcasts (id, name) to every shard and its replicas, so
// any live partition's table is authoritative.
func (cv *ClusterView) Labels() []string {
	for _, s := range cv.srcs {
		if s != nil {
			return s.Labels()
		}
	}
	return []string{""}
}

// VProp reads vertex v's property from its owner partition — property
// writes route with the owner shard, so one shard holds the value. This
// is what sends a filter's vertex predicate to the NEIGHBOR's owner
// while the label it is paired with came from the edge's.
func (cv *ClusterView) VProp(v graph.VID, key uint16) (int64, bool, error) {
	o := cv.c.pmap.Owner(v)
	s := cv.srcs[o]
	if s == nil {
		return 0, false, &PartitionDownError{Shard: o}
	}
	return s.VProp(v, key)
}
