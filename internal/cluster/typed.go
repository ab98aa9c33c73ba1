package cluster

import (
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/xpsim"
)

// The typed write path of the cluster (DESIGN.md §13). Typed batches are
// applied synchronously under each owner shard's exclusive lock — they
// bypass the async pipeline on purpose: a typed edge's adjacency record
// and its label record must land in the same lock window, or a reader
// could see the edge with a stale label. The deliberate tradeoff is that
// typed writes pay per-batch lock latency instead of pipeline batching;
// mixed workloads keep the plain async path for their untyped edges.
//
// Routing follows the plain path exactly: a typed edge lives — adjacency
// and label both — with its source's owner shard, and a vertex property
// lives with the vertex's owner. Replicas receive labels and properties
// in the same shipped entry as the edges they ride with, so a follower's
// view converges typed-for-typed with its leader.

// RegisterLabel assigns one cluster-wide label id for name: shard 0's
// store assigns it (durable before this returns), every other shard
// installs the identical (id, name), and every replica receives it via
// log shipping. Registering an existing name returns its id.
//
// Registration is refused while any shard is down: a missed broadcast
// would leave that partition resolving the name to nothing after it
// comes back, and label registration is rare enough that fail-closed
// beats a repair protocol.
func (c *Cluster) RegisterLabel(name string) (uint16, error) {
	for _, sh := range c.shards {
		if sh.down.Load() {
			return 0, &ShardError{Shard: sh.id, Err: ErrShardDown}
		}
	}
	var id uint16
	for i, sh := range c.shards {
		sh.mu.Lock()
		var err error
		if i == 0 {
			id, err = sh.store.RegisterLabel(name)
		} else {
			err = sh.store.SetLabelDef(id, name)
		}
		var msg shipMsg
		if err == nil {
			msg = sh.recordShipLocked(shipEntry{
				epoch: sh.pipe.Epoch(),
				typed: true,
				defs:  []labelDef{{id: id, name: name}},
			})
		}
		sh.mu.Unlock()
		if err != nil {
			return 0, &ShardError{Shard: i, Err: err}
		}
		sh.dispatch(msg)
	}
	return id, nil
}

// IngestTyped routes one typed batch synchronously: edges[i] carries
// labels[i] (default label when the labels slice is short), props are
// vertex-property writes. Each owner shard applies its part — adjacency,
// labels, and properties — under its exclusive lock, republishes, and
// ships the typed entry to its followers. Per-shard atomic like Ingest:
// a failing shard is named and the parts routed elsewhere still land.
// The shard's breaker is consulted before the lock window and fed the
// outcome after it, exactly as on the pipeline path: an open breaker
// refuses typed writes too, typed media failures count toward opening
// it, and a typed success is a valid half-open probe.
func (c *Cluster) IngestTyped(edges []graph.Edge, labels []uint16, props []graph.PropSet) (IngestResult, error) {
	res := IngestResult{}
	n := len(c.shards)
	eparts := make([][]graph.Edge, n)
	lparts := make([][]uint16, n)
	pparts := make([][]graph.PropSet, n)
	for i := range eparts {
		eparts[i] = ingest.GetEdgeBuf()
	}
	defer putParts(eparts)
	for i, e := range edges {
		o := c.pmap.Owner(e.Src)
		eparts[o] = append(eparts[o], e)
		lbl := uint16(graph.DefaultLabel)
		if i < len(labels) {
			lbl = labels[i]
		}
		lparts[o] = append(lparts[o], lbl)
	}
	for _, p := range props {
		o := c.pmap.Owner(p.V)
		pparts[o] = append(pparts[o], p)
	}

	for i, sh := range c.shards {
		if len(eparts[i]) == 0 && len(pparts[i]) == 0 {
			continue
		}
		if sh.down.Load() {
			return res, &ShardError{Shard: i, Err: ErrShardDown}
		}
		if ok, wait := sh.br.allow(sh.clk.Now()); !ok {
			return res, &ShardError{Shard: i, Err: &BreakerOpenError{Wait: wait}}
		}
		wctx := xpsim.NewCtx(xpsim.NodeUnbound)
		sh.mu.Lock()
		var err error
		var simNs int64
		if len(eparts[i]) > 0 {
			rep, ierr := sh.store.IngestTyped(eparts[i], lparts[i])
			if ierr != nil {
				err = ierr
			} else {
				simNs = rep.TotalNs()
			}
		}
		if err == nil && len(pparts[i]) > 0 {
			err = sh.store.SetProps(pparts[i])
		}
		var msg shipMsg
		if err == nil {
			epoch := sh.publishLocked(wctx)
			msg = sh.recordShipLocked(shipEntry{
				epoch:  epoch,
				typed:  true,
				edges:  eparts[i],
				labels: lparts[i],
				props:  pparts[i],
			})
		}
		sh.mu.Unlock()
		sh.noteApply(err)
		if err != nil {
			return res, &ShardError{Shard: i, Err: err}
		}
		sh.dispatch(msg)
		res.Accepted += int64(len(eparts[i]))
		res.Batches++
		if simNs > res.SimNs {
			res.SimNs = simNs // shards apply in parallel: slowest wins
		}
	}
	res.Epochs = c.EpochVector()
	return res, nil
}
