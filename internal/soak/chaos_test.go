package soak

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/difftest"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/splitmix"
	"repro/internal/xpsim"
)

// exact compares adjacency, labels and the one property key typed writes
// set. Record counts are left out: a follower rebuilt from a snapshot nets
// deletions the log shipped as tombstones.
var exact = difftest.Compare{Labels: true, Props: []uint16{1}}

// chaosMix is the load every chaos schedule ships: plain adds and
// deletes through the pipelines and typed writes under two labels with
// property writes, from 4 shards to 2 followers each, for 3 s of virtual
// time — a third of that under -short.
func chaosMix(seed uint64) Scenario {
	return Scenario{
		Name: "chaos-mix", Seed: seed, Shards: 4, Replicas: 2, Vertices: 1 << 12, PMEMPerNodeMB: 64,
		Horizon: difftest.Short(3*time.Second, time.Second), WarmEdges: 4000,
		ReadsPerSec: 200, WritesPerSec: 400, WriteBatch: 64, TypedFrac: 0.1, DeleteFrac: 0.1,
		ZipfSkew: 0.5, Tenants: 1, ScrapeEvery: 250 * time.Millisecond,
		SLO: SLO{ReadP99Us: -1, WriteP99Ms: -1, Max429Frac: -1, MaxErrorFrac: 0, MaxReplicaLag: -1},
	}
}

// chaosSchedule derives one seeded chaos-mix run: the load from seed, and
// a chaos schedule in chaos.Parse's grammar whose rates come from seed
// too — up to 12 % drops, 8 % duplicates and 15 % delays of up to 0.8 ms —
// with short partition windows, or, with long set, one window longer than
// the 256-chunk retention ring, which only a snapshot rebuild crosses.
func chaosSchedule(seed uint64, long bool) Scenario {
	sc := chaosMix(seed)
	draw := func(term uint64) uint64 { return splitmix.Mix(seed ^ term) }
	rate := func(term uint64, hi float64) float64 { return float64(draw(term)%1000) / 1000 * hi }
	seqs := 400 * uint64(sc.Horizon/time.Second) // about the chunks a shard ships
	part := fmt.Sprintf("%dx%d@%d", 1+draw(5)%3, 4+draw(6)%24, seqs)
	if long {
		part = fmt.Sprintf("1x%d@%d", 300, seqs)
	}
	sc.Chaos = fmt.Sprintf("seed=%d,drop=%.3f,dup=%.3f,delay=%.3f:%dus,part=%s",
		seed, rate(1, 0.12), rate(2, 0.08), rate(3, 0.15), 200+draw(4)%600, part)
	return sc
}

// runQuiesced drives sc to its horizon, heals its chaos schedule and steps
// the cluster until nothing is due: every queued write applied, every
// follower as far as it can get.
func runQuiesced(t *testing.T, sc Scenario) *runner {
	t.Helper()
	r, err := newRunner(sc.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.srv.Shutdown)
	r.drive()
	r.finish()
	if r.rep.Failed() {
		t.Fatalf("%s violated its SLO: %v", sc.Name, r.rep.Violations)
	}
	r.plan.Heal()
	for {
		si := -1
		for i, sh := range r.shards {
			if sh.wake != never && (si < 0 || sh.wake < r.shards[si].wake) {
				si = i
			}
		}
		if si < 0 {
			return r
		}
		r.at(max(r.now, r.shards[si].wake))
		r.step(si)
	}
}

// model replays the journal of what the cluster applied.
func (r *runner) model() *difftest.Model {
	m := difftest.New()
	for _, a := range r.journal {
		switch {
		case a.label != "":
			m.RegisterLabel(a.label)
		case a.labels != nil:
			m.IngestTyped(a.edges, a.labels)
			m.SetProps(a.props)
		default:
			m.Ingest(a.edges)
		}
	}
	return m
}

// viewIsModel compares the cluster view with the model, vertex space
// included, and returns the epoch vector it was pinned at.
func (r *runner) viewIsModel(m *difftest.Model) ([]uint64, error) {
	cv := r.cl.AcquireView()
	defer cv.Release()
	if _, err := exact.Run(m, cv); err != nil {
		return nil, err
	}
	if want := max(graph.VID(r.sc.Vertices), m.NumVertices()); cv.NumVertices() != want {
		return nil, fmt.Errorf("NumVertices = %d, want %d", cv.NumVertices(), want)
	}
	return append([]uint64(nil), cv.EpochVector()...), nil
}

// TestChaos runs seeded chaos schedules over chaos-mix — plain adds and
// deletes, typed writes under two labels with property writes, and the
// two label registrations, all shipped under chaos — and ends each in a
// quiescent differential:
//
//   - no follower is damaged, each runs at its leader's epoch, and no
//     chunk id was misrouted: chaos is transport noise, all transient;
//   - the cluster view equals the model of what the cluster applied,
//     NumVertices included;
//   - every follower equals its leader in both directions, labels and
//     property 1 included;
//   - after a seed-chosen leader kill the view equals the model again.
//
// The schedules come from difftest.Schedules — 4, 2 under -short, times
// -difftest.tearseeds — and every other one cuts a window longer than the
// retention ring, so a sweep sees log replays and snapshot rebuilds as
// well as the dedupes and reorders every schedule makes.
func TestChaos(t *testing.T) {
	seeds := difftest.Schedules(0xC4A0_5EED, difftest.Short(4, 2)*difftest.TearSeeds())
	var sum cluster.ReplicaCounters
	ran := 0
	for i, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			ran++
			sc := chaosSchedule(seed, i%2 == 1)
			r := runQuiesced(t, sc)
			var rc cluster.ReplicaCounters
			err := func() error {
				for s := 0; s < r.cl.Shards(); s++ {
					sh := r.cl.Shard(s)
					for ri, rep := range sh.Replicas() {
						if err := rep.Err(); err != nil {
							return fmt.Errorf("shard %d replica %d damaged by transport chaos: %v", s, ri, err)
						}
						if rep.State() != "running" || rep.Epoch() != sh.Epoch() {
							return fmt.Errorf("shard %d replica %d stuck: state=%s epoch=%d leader=%d nextSeq=%d shipSeq=%d",
								s, ri, rep.State(), rep.Epoch(), sh.Epoch(), rep.NextSeq(), sh.ShipSeq())
						}
						if _, err := exact.Run(sh.Store(), rep.Store()); err != nil {
							return fmt.Errorf("shard %d replica %d vs leader: %v", s, ri, err)
						}
						c := rep.Counters()
						rc.Dedupes, rc.Misroutes, rc.Reorders = rc.Dedupes+c.Dedupes, rc.Misroutes+c.Misroutes, rc.Reorders+c.Reorders
						rc.Resyncs, rc.LogReplays, rc.SnapReplays = rc.Resyncs+c.Resyncs, rc.LogReplays+c.LogReplays, rc.SnapReplays+c.SnapReplays
					}
				}
				if rc.Misroutes != 0 {
					return fmt.Errorf("chunk-id verification rejected %d messages on an honest fabric", rc.Misroutes)
				}
				m := r.model()
				if _, err := r.viewIsModel(m); err != nil {
					return fmt.Errorf("cluster view: %v", err)
				}
				r.cl.KillShard(int(splitmix.Mix(seed^0x400) % uint64(r.cl.Shards())))
				if _, err := r.viewIsModel(m); err != nil {
					return fmt.Errorf("post-leader-kill view: %v", err)
				}
				return nil
			}()
			if err != nil {
				difftest.Fail(t, err)
				return
			}
			st := r.plan.Snapshot()
			t.Logf("%s: injected drops=%d dups=%d delays=%d partitioned=%d; %d typed writes; followers dedupes=%d reorders=%d resyncs=%d (log=%d snap=%d)",
				sc.Chaos, st.Drops, st.Dups, st.Delays, st.Partitions, r.rep.TypedWrites, rc.Dedupes, rc.Reorders, rc.Resyncs, rc.LogReplays, rc.SnapReplays)
			sum.Dedupes, sum.Reorders = sum.Dedupes+rc.Dedupes, sum.Reorders+rc.Reorders
			sum.LogReplays, sum.SnapReplays = sum.LogReplays+rc.LogReplays, sum.SnapReplays+rc.SnapReplays
		})
	}
	if ran == len(seeds) && (sum.Dedupes == 0 || sum.Reorders == 0 || sum.LogReplays == 0 || sum.SnapReplays == 0) {
		t.Errorf("the sweep left a recovery path unexercised: %+v", sum)
	}
}

// TestFollowerUEInsidePartition composes a media fault with a partition
// on one shard with two followers: every link is cut over a window of 200
// seqs, and a UE lands on follower 0's copy of the hottest vertices inside
// its window. When its window ends, the follower's first replayed chunk
// finds its device poisoned, so it ends damaged — named so by
// /v1/healthz and never chosen by failover — while the leader and the
// other follower compare exact, and so does the view once the leader is
// killed.
func TestFollowerUEInsidePartition(t *testing.T) {
	seed := uint64(0x0E5EED)
	t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
		sc := chaosMix(seed)
		sc.Shards, sc.MediaGuard, sc.WarmEdges = 1, true, 40_000
		sc.Chaos = fmt.Sprintf("seed=%d,part=1x200@300", seed)
		sc.Faults = []FaultOp{{At: 300 * time.Millisecond, Kind: "ue", Shard: 0, Replica: 1, Vertices: 64}}
		r := runQuiesced(t, sc)
		if err := ueInsidePartition(r); err != nil {
			difftest.Fail(t, err)
		}
	})
}

func ueInsidePartition(r *runner) error {
	sh := r.cl.Shard(0)
	hit, other := sh.Replicas()[0], sh.Replicas()[1]
	var me *xpsim.MediaError
	if hit.State() != "damaged" || !errors.As(hit.Err(), &me) {
		return fmt.Errorf("follower 0 is %s (%v), want damaged by a media error", hit.State(), hit.Err())
	}
	for _, w := range r.plan.Partitions {
		if w.Link == (chaos.Link{}) && hit.NextSeq() != w.From {
			return fmt.Errorf("follower 0 stopped at seq %d, not at its window [%d, %d): the UE did not land inside it", hit.NextSeq(), w.From, w.To)
		}
	}
	var h server.HealthzResponse
	r.call("GET", "/v1/healthz", "", nil, &h)
	if got := h.Shards[0].ReplicaStates; len(got) != 2 || got[0] != "damaged" || got[1] != "running" {
		return fmt.Errorf("/v1/healthz replica_states = %v, want [damaged running]", got)
	}
	if other.Epoch() != sh.Epoch() {
		return fmt.Errorf("follower 1 at epoch %d, leader %d", other.Epoch(), sh.Epoch())
	}
	if _, err := exact.Run(sh.Store(), other.Store()); err != nil {
		return fmt.Errorf("follower 1 vs leader: %v", err)
	}
	m := r.model()
	r.cl.KillShard(0)
	epochs, err := r.viewIsModel(m)
	if err != nil {
		return fmt.Errorf("post-leader-kill view: %v", err)
	}
	if epochs[0] != other.Epoch() {
		return fmt.Errorf("failover serves epoch %d, the healthy follower is at %d", epochs[0], other.Epoch())
	}
	return nil
}
