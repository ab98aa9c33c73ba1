package cluster

import "repro/internal/graph"

// The typed write routes of the cluster (DESIGN.md §11.2's table, §13.5).
// A typed batch commits synchronously on each owner shard — it bypasses
// the async pipeline on purpose: a typed edge's adjacency record and its
// label record must land in the same lock window, or a reader could see
// the edge with a stale label. The deliberate tradeoff is that typed
// writes pay per-batch lock latency instead of pipeline batching; mixed
// workloads keep the plain async path for their untyped edges.
//
// Routing follows the plain path exactly: a typed edge lives — adjacency
// and label both — with its source's owner shard, and a vertex property
// lives with the vertex's owner. Each shard's part is one entry, and its
// followers apply the same entry, so they converge typed-for-typed.

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
	// The default label's id is the registration mark: shard 0's commit
	// assigns the id into the entry, which then broadcasts it.
	e := shipEntry{defs: []labelDef{{id: graph.DefaultLabel, name: name}}}
	for _, sh := range c.shards {
		if err := sh.admit(&e); err != nil {
			return 0, &ShardError{Shard: sh.id, Err: err}
		}
	}
	for _, sh := range c.shards {
		if _, _, err := sh.commit(&e); err != nil {
			return 0, &ShardError{Shard: sh.id, Err: err}
		}
	}
	return e.defs[0].id, nil
}

// IngestTyped routes one typed batch synchronously: edges[i] carries
// labels[i] (default label when the labels slice is short), props are
// vertex-property writes. Each owner shard admits and commits its part —
// adjacency, labels, and properties — as one entry. Per-shard atomic like
// Ingest: a failing shard is named and the parts routed elsewhere still
// land.
func (c *Cluster) IngestTyped(edges []graph.Edge, labels []uint16, props []graph.PropSet) (IngestResult, error) {
	res := IngestResult{}
	n := len(c.shards)
	rt := c.getRoute()
	defer c.putRoute(rt)
	eparts := rt.parts
	lparts := make([][]uint16, n)
	pparts := make([][]graph.PropSet, n)
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
		e := shipEntry{edges: eparts[i], labels: lparts[i], props: pparts[i]}
		if !e.hasData() {
			continue
		}
		var simNs int64
		err := sh.admit(&e)
		if err == nil {
			simNs, _, err = sh.commit(&e)
		}
		if err != nil {
			return res, &ShardError{Shard: i, Err: err}
		}
		res.Accepted += int64(len(e.edges))
		res.Batches++
		res.SimNs = max(res.SimNs, simNs) // shards apply in parallel: slowest wins
	}
	res.Epochs = c.EpochVector()
	return res, nil
}
