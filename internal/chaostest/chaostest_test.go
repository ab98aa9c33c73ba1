package chaostest

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/difftest"
)

// Scale knobs: the nightly widens the sweep and the workload. A failing
// schedule is reported in difftest's replay line, which names its subtest
// and carries these flags.
var (
	sweepFlag = flag.Int("chaostest.sweep", 4, "number of seeded schedules per sweep")
	edgesFlag = flag.Int("chaostest.edges", 2000, "plain edges per schedule")
)

// TestChaosDifferential runs seeded chaos schedules over a sharded
// cluster with replicas and requires exact convergence with the model
// once the chaos heals. The schedules derive from a fixed base, so the
// default sweep is the same in every run; -difftest.seed draws others.
func TestChaosDifferential(t *testing.T) {
	for _, seed := range difftest.Schedules(0xC4A0_5EED, difftest.Short(*sweepFlag, min(*sweepFlag, 2))) {
		t.Run(fmt.Sprintf("seed_%#x", seed), func(t *testing.T) {
			res, err := Run(Options{Seed: seed, PlainEdges: *edgesFlag})
			if err != nil {
				difftest.Fail(t, err, fmt.Sprintf("-chaostest.sweep=%d -chaostest.edges=%d", *sweepFlag, *edgesFlag))
				return
			}
			t.Logf("seed %#x converged: %v", seed, res)
		})
	}
}
