package chaostest

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/splitmix"
)

// Replay and scale knobs. A failing sweep prints the exact command to
// reproduce one schedule:
//
//	go test ./internal/chaostest/ -run TestChaosDifferential -chaostest.seed=0x<seed>
//
// The nightly workflow widens the sweep and the workload with
// -chaostest.sweep / -chaostest.edges and collects failing seeds from
// the log.
var (
	seedFlag  = flag.Uint64("chaostest.seed", 0, "replay exactly one chaos schedule by seed (0 = run the sweep)")
	sweepFlag = flag.Int("chaostest.sweep", 4, "number of seeded schedules per sweep")
	edgesFlag = flag.Int("chaostest.edges", 2000, "plain edges per schedule")
)

// TestChaosDifferential runs seeded chaos schedules over a sharded
// cluster with replicas and requires exact convergence with a reference
// store once the chaos heals — the PR-10 acceptance differential.
func TestChaosDifferential(t *testing.T) {
	if testing.Short() && *seedFlag == 0 && *sweepFlag > 2 {
		*sweepFlag = 2
	}
	seeds := make([]uint64, 0, *sweepFlag)
	if *seedFlag != 0 {
		seeds = append(seeds, *seedFlag)
	} else {
		// Fixed base: the default sweep is deterministic in CI; the
		// nightly varies it by widening the sweep, not the base.
		const base = 0xC4A0_5EED
		for i := 0; i < *sweepFlag; i++ {
			seeds = append(seeds, splitmix.Mix(base+uint64(i)))
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed_%#x", seed), func(t *testing.T) {
			res, err := Run(Options{Seed: seed, PlainEdges: *edgesFlag})
			if err != nil {
				logFailingSeed(t, seed)
				t.Fatalf("%v\nreplay: go test ./internal/chaostest/ -run TestChaosDifferential -chaostest.seed=%#x", err, seed)
			}
			t.Logf("seed %#x converged: %v", seed, res)
		})
	}
}

// logFailingSeed appends the seed to $CHAOSTEST_SEED_LOG when set — the
// nightly workflow points it at an artifact file so failing schedules
// survive the run.
func logFailingSeed(t *testing.T, seed uint64) {
	t.Helper()
	path := os.Getenv("CHAOSTEST_SEED_LOG")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("seed log: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%#x\n", seed)
}
