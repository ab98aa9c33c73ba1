package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/adj"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/view"
	"repro/internal/xpsim"
)

// deleteOpts is the MediaGuard geometry of the delete-semantics schedule:
// its log holds the whole stream, so a scrub rebuilds from position 0.
var deleteOpts = core.Options{NumVertices: 32, LogCapacity: 1 << 13, ArchiveThreshold: 1 << 6,
	ArchiveThreads: 2, MediaGuard: true}

func deleteStore(name string) (*core.Store, error) {
	m := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	o := deleteOpts
	o.Name = name
	return core.New(m, pmem.NewHeap(m), nil, o)
}

// TestDeleteSemanticsDifferential plays seeded schedules on a stepped
// one-shard cluster with a follower: small batches that delete edges no
// insert put there and insert edges again after deleting them, vertex
// compactions, scrub repairs of a compacted, UE-struck chain (ReplaceChain
// of its resolved stream), and two
// partitions of the shipping link, a long one the follower comes back from
// through a snapshot rebuild and a short one it replays from the leader's
// retention ring. The leader, a snapshot held across the schedule and one
// taken at its end, the follower and a store recovered from the leader's
// crash image each read as the difftest.Model of the stream.
func TestDeleteSemanticsDifferential(t *testing.T) {
	ops := map[string]int{}
	for _, seed := range difftest.Schedules(0xde1e7e, difftest.Short(8, 2)) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			if err := deleteSemanticsRun(t, seed, ops); err != nil {
				difftest.Fail(t, err)
			}
		})
	}
	for _, op := range []string{"absent-delete", "re-insert", "compact", "scrub", "log-replay", "snapshot-replay"} {
		if ops[op] == 0 {
			t.Errorf("no schedule reached %q: %v", op, ops)
		}
	}
	t.Logf("operations over the schedules: %v", ops)
}

func deleteSemanticsRun(t *testing.T, seed uint64, ops map[string]int) error {
	rng := rand.New(rand.NewSource(int64(seed)))
	clk := &clock.Virtual{}
	plan := &chaos.Plan{Seed: seed, Partitions: []chaos.Window{
		{From: 4, To: 4 + shipRetain + 16},
		{From: shipRetain + 40, To: shipRetain + 48},
	}}
	leader, err := deleteStore("del")
	if err != nil {
		return err
	}
	cl, err := New([]*core.Store{leader}, Config{Clock: clk, Transport: NewChaosTransport(plan), Replicas: 1,
		ReplicaFactory: func(int, int) (*core.Store, error) { return deleteStore("del-replica") }})
	if err != nil {
		return err
	}
	if err := cl.Start(); err != nil {
		return err
	}
	defer cl.Close()
	sh, ctx := cl.Shard(0), xpsim.NewCtx(xpsim.NodeUnbound)
	rep := sh.Replicas()[0]
	model := difftest.New()
	var deleted []graph.Edge // edges a delete named, for re-inserts
	var held *core.Snapshot
	var heldModel *difftest.Model

	for n := 0; sh.ShipSeq() < shipRetain+64; n++ {
		if n > 4000 {
			return fmt.Errorf("the schedule stalled at seq %d", sh.ShipSeq())
		}
		switch k := rng.Intn(40); {
		case k == 0: // compact one vertex
			v := graph.VID(rng.Intn(int(deleteOpts.NumVertices)))
			if _, err := cl.CompactVertex(v); err != nil {
				return fmt.Errorf("compact %d: %w", v, err)
			}
			model.Compact(v)
			ops["compact"]++
		case k == 1: // the longest out-chain compacted, struck by a UE and rebuilt by a scrub
			target, most := graph.VID(0), 0
			for v := graph.VID(0); v < leader.NumVertices(); v++ {
				if d, _ := leader.Degree(core.Out, v); d > most {
					target, most = v, d
				}
			}
			if _, err := cl.CompactVertex(target); err != nil {
				return fmt.Errorf("compact %d: %w", target, err)
			}
			model.Compact(target)
			lines := leader.VertexPayloadLines(core.Out, target)
			if len(lines) == 0 {
				continue
			}
			for _, ln := range lines {
				leader.Machine().InjectUE(ln.Node, ln.Line)
			}
			r, err := cl.ScrubAll()
			if err != nil || r.Damaged == 0 || r.Repaired != r.Damaged || r.Unrecoverable != 0 {
				return fmt.Errorf("scrub after a UE under vertex %d: %+v, %v", target, r, err)
			}
			ops["scrub"]++
		case k == 2 && held == nil: // a snapshot held to the end
			held, heldModel = leader.Snapshot(ctx), model.Clone()
		default:
			batch := make([]graph.Edge, 1+rng.Intn(4))
			for i := range batch {
				e := graph.Edge{Src: graph.VID(rng.Intn(3)), Dst: graph.VID(rng.Intn(int(deleteOpts.NumVertices)))}
				switch {
				case rng.Intn(4) == 0: // delete, often an edge not there
					if !slices.Contains(model.NbrsOut(ctx, e.Src, nil), e.Dst) {
						ops["absent-delete"]++
					}
					deleted = append(deleted, e)
					e = graph.Del(e.Src, e.Dst)
				case rng.Intn(3) == 0 && len(deleted) > 0: // insert a deleted edge again
					e = deleted[rng.Intn(len(deleted))]
					ops["re-insert"]++
				}
				model.Ingest([]graph.Edge{e})
				batch[i] = e
			}
			if _, err := cl.Ingest(batch, false); err != nil {
				return fmt.Errorf("ingest at seq %d: %w", sh.ShipSeq(), err)
			}
		}
		runUntil(cl, clk, clk.Now().Add(20*time.Millisecond))
	}
	plan.Heal()
	for i := 0; rep.State() != "running" || rep.Epoch() != sh.Epoch(); i++ {
		if err := rep.Err(); err != nil || i > 1000 {
			return fmt.Errorf("follower %s at epoch %d, leader at %d: %v", rep.State(), rep.Epoch(), sh.Epoch(), err)
		}
		runUntil(cl, clk, clk.Now().Add(20*time.Millisecond))
	}
	c := rep.Counters()
	if c.SnapReplays > 0 {
		ops["snapshot-replay"]++
	}
	if c.LogReplays > 0 {
		ops["log-replay"]++
	}

	clone, err := leader.Heap().CrashClone()
	if err != nil {
		return err
	}
	o := deleteOpts
	o.Name = "del"
	recovered, _, err := core.Recover(clone.Machine(), clone, nil, o)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	end := leader.Snapshot(ctx)
	defer end.Close()
	type source struct {
		name string
		got  view.Source
		want *difftest.Model
		// typed: reads may fail typed, as a snapshot held across a scrub
		// does on the vertices the scrub rebuilt.
		typed bool
	}
	sources := []source{
		{"leader", leader, model, false},
		{"snapshot at the end", end, model, false},
		{"follower", rep.Store(), model, false},
		{"recovered leader", recovered, model, false},
	}
	if held != nil {
		defer held.Close()
		sources = append(sources, source{"snapshot held across the schedule", held, heldModel, true})
	}
	for _, s := range sources {
		r, err := checked.Run(s.want, s.got)
		if err == nil && len(r.Failed) > 0 && !s.typed {
			err = fmt.Errorf("%d reads fail, the first %v", len(r.Failed), r.Failed[0])
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// checked reads a source through the media-checked walk: each read exact
// or failed typed.
var checked = difftest.Compare{Typed: func(err error) bool {
	var me *xpsim.MediaError
	var ce *adj.CorruptError
	var ue *core.UnrecoverableError
	return errors.As(err, &me) || errors.As(err, &ce) || errors.As(err, &ue)
}}
