package crashtest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/splitmix"
	"repro/internal/xpsim"
)

// randomSchedule derives one workload config + fault plan from a seed.
// Everything — graph shape, deletion ratio, chunking, compaction cadence,
// NUMA mode, kill point, tear geometry — is a pure function of the seed.
func randomSchedule(seed uint64, mediaWrites int64) (config, xpsim.FaultPlan) {
	r := seed
	next := func(mod uint64) uint64 {
		r = splitmix.Mix(r)
		if mod == 0 {
			return r
		}
		return r % mod
	}
	cfg := config{
		Name:             "rand",
		Scale:            5 + int(next(3)),       // 32..128 vertices
		Edges:            200 + int64(next(400)), // 200..599 updates
		Seed:             next(0),
		LogCapacity:      128 << next(2),      // 128..512
		ArchiveThreshold: 16 << next(2),       // 16..64
		Chunk:            50 + int(next(100)), // 50..149
		CompactEvery:     int(next(4)),        // 0 = never
		NUMA:             []core.NUMAMode{core.NUMANone, core.NUMAOutIn, core.NUMASubgraph}[next(3)],
	}
	if next(4) == 0 {
		cfg.DelRatio = 0.1 + float64(next(20))/100
	}
	switch next(4) {
	case 0:
		cfg.Varint = true
	case 1:
		cfg.VarintFromRecovery = true
	}
	plan := xpsim.FaultPlan{
		Tear: []xpsim.TearMode{xpsim.TearNone, xpsim.TearPrefix, xpsim.TearWords}[next(3)],
		Seed: next(0),
	}
	if mediaWrites > 0 {
		if next(5) == 0 {
			// Site kill instead of a media-write kill.
			sites := []string{"buffer:staged", "buffer:marked", "flush:drained",
				"flush:acked", "flush:barrier", "flush:committed"}
			plan.KillAtSite = sites[next(uint64(len(sites)))]
			plan.KillAtSiteHit = 1 + int64(next(4))
		} else {
			plan.KillAtMediaWrite = 1 + int64(next(uint64(mediaWrites)))
		}
	}
	return cfg, plan
}

// TestCrashRandomizedSchedules probes and then crash-verifies a batch of
// seed-derived schedules, one subtest per schedule, so a failure's replay
// line reruns exactly its schedule; -difftest.tearseeds multiplies the
// batch and -difftest.seed draws a new one.
func TestCrashRandomizedSchedules(t *testing.T) {
	for _, seed := range difftest.Schedules(0x9E3779B97F4A7C15, difftest.Short(50, 8)*difftest.TearSeeds()) {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			cfg, _ := randomSchedule(seed, 0)
			probe, err := probeRun(cfg)
			if err != nil {
				difftest.Fail(t, fmt.Errorf("probe: %w", err))
				return
			}
			cfg, plan := randomSchedule(seed, probe.MediaWrites)
			res, err := run(cfg, plan)
			if err == nil && plan.KillAtMediaWrite > 0 && !res.Crashed {
				err = fmt.Errorf("plan %+v never fired (%d media writes)", plan, res.MediaWrites)
			}
			if err != nil {
				difftest.Fail(t, fmt.Errorf("plan %+v: %w", plan, err))
			}
		})
	}
}
