package crashtest

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/xpsim"
)

// TestCrashInsideRecovery sweeps the crash nobody injected before the
// replay became the buffering phase: a second power failure while
// core.Recover runs. Recovery writes — it rolls compaction journals
// forward, kills dangling blocks, rewinds allocation pointers, and its
// replay persists the buffered cursor after every batch and flushes
// whatever vertex buffer fills up — and all of that lands in the image the
// next recovery starts from.
//
// For every media write the workload performs (the first kill, word-torn)
// the crashed image is recovered once per media write and once per crash
// site hit of that recovery, killed there, and the twice-crashed image is
// recovered and verified against the prefix oracle. Exhaustive outside
// -short over the fixed and varint sweep workloads and both wide-archive
// ones (16 threads: the replay's sharders and drain workers are several
// per group); -crashtest.tearseeds widens it to several word-tear
// geometries per pair of kills.
//
// Most media writes of these workloads belong to compactions, which start
// from a flushed log, so a strided sample of them may never leave a window
// to replay. In both modes three more first kills land at the buffer:marked
// site — the first, the middle and the last buffering phase of the workload
// — where the batch just buffered is in the log and not flushed: each of
// their recoveries must replay at least one batch.
//
// Every failing combination is reported before the test fails, as
//
//	<config>: first kill <n=<n>/<m> seed=<s> | site buffer:marked hit <h>/<hits>>, recovery kill <write w | site name hit h>
func TestCrashInsideRecovery(t *testing.T) {
	cfgs := append([]Config{sweepConfig(), varintSweepConfig()}, wideSweepConfigs()...)
	for _, cfg := range cfgs {
		cfg.Name += "-rr"
		probe, err := Probe(cfg)
		if err != nil {
			t.Fatalf("%s: probe: %v", cfg.Name, err)
		}
		type firstKill struct {
			desc   string
			plan   xpsim.FaultPlan
			replay bool // the kill leaves a log window: its recovery must replay
		}
		var kills []firstKill
		m := probe.MediaWrites
		stride := int64(1)
		if testing.Short() {
			stride = m/6 + 1
		}
		for n := int64(1); n <= m; n += stride {
			for _, seed := range tearSeeds(uint64(n) * 0x2EC0) {
				kills = append(kills, firstKill{
					desc: fmt.Sprintf("n=%d/%d seed=%#x", n, m, seed),
					plan: xpsim.FaultPlan{KillAtMediaWrite: n, Tear: xpsim.TearWords, Seed: seed},
				})
			}
		}
		hits := probe.Sites["buffer:marked"]
		if hits == 0 {
			t.Fatalf("%s: the workload never ran a buffering phase", cfg.Name)
		}
		for _, hit := range slices.Compact([]int64{1, (hits + 1) / 2, hits}) {
			kills = append(kills, firstKill{
				desc:   fmt.Sprintf("site buffer:marked hit %d/%d", hit, hits),
				plan:   xpsim.FaultPlan{KillAtSite: "buffer:marked", KillAtSiteHit: hit, Seed: uint64(hit) * 0x2EC0},
				replay: true,
			})
		}

		var doubles, replays int64
		for _, k := range kills {
			c, err := Crash(cfg, k.plan)
			if err != nil {
				t.Fatalf("%s: first kill %s: %v", cfg.Name, k.desc, err)
			}
			space, err := c.RecoverCrashing(xpsim.FaultPlan{})
			if err != nil {
				t.Errorf("%s: first kill %s, recovery not killed: %v", cfg.Name, k.desc, err)
				continue
			}
			if k.replay && space.Sites["buffer:marked"] == 0 {
				t.Errorf("%s: first kill %s: the recovery replayed no batch", cfg.Name, k.desc)
			}
			replays += space.Sites["buffer:marked"]
			for w := int64(1); w <= space.MediaWrites; w++ {
				plan := xpsim.FaultPlan{KillAtMediaWrite: w, Tear: xpsim.TearWords, Seed: k.plan.Seed ^ uint64(w)*0x9E37}
				if _, err := c.RecoverCrashing(plan); err != nil {
					t.Errorf("%s: first kill %s, recovery kill write %d/%d: %v",
						cfg.Name, k.desc, w, space.MediaWrites, err)
				}
				doubles++
			}
			sites := make([]string, 0, len(space.Sites))
			for site := range space.Sites {
				sites = append(sites, site)
			}
			sort.Strings(sites)
			for _, site := range sites {
				for hit := int64(1); hit <= space.Sites[site]; hit++ {
					if _, err := c.RecoverCrashing(xpsim.FaultPlan{KillAtSite: site, KillAtSiteHit: hit}); err != nil {
						t.Errorf("%s: first kill %s, recovery kill site %s hit %d/%d: %v",
							cfg.Name, k.desc, site, hit, space.Sites[site], err)
					}
					doubles++
				}
			}
		}
		if replays == 0 {
			t.Errorf("%s: no recovery ever replayed a batch: the sweep never reached the buffering phase", cfg.Name)
		}
		t.Logf("%s: %d first kills, %d double crashes, %d replay batches", cfg.Name, len(kills), doubles, replays)
	}
}
