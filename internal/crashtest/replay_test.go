package crashtest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/difftest"
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
// recovered and held to the prefix mode. Exhaustive outside -short over
// the fixed and varint sweep workloads and both wide-archive ones (16
// threads: the replay's sharders and drain workers are several per group).
// A first kill's case reports every failing recovery kill of it.
//
// Most media writes of these workloads belong to compactions, which start
// from a flushed log, so a strided sample of them may never leave a window
// to replay. In both modes more first kills land at the buffer:marked
// site, where the batch just buffered is in the log and not flushed: each
// of their recoveries must replay at least one batch.
func TestCrashInsideRecovery(t *testing.T) {
	for _, cfg := range append([]config{sweepConfig(), varintSweepConfig()}, wideSweepConfigs()...) {
		cfg.Name += "-rr"
		s := probeSweep(t, cfg)
		if s.Sites["buffer:marked"] == 0 {
			t.Fatalf("%s: the workload never ran a buffering phase", cfg.Name)
		}
		s.Sites = map[string]int64{"buffer:marked": s.Sites["buffer:marked"]}
		s.Points = difftest.Short[int64](0, 6)
		var doubles, replays int64
		s.Run(t, func(c difftest.Case) error {
			crashed, err := crash(cfg, c.Plan)
			if err != nil {
				return err
			}
			space, err := crashed.RecoverCrashing(xpsim.FaultPlan{})
			if err != nil {
				return fmt.Errorf("recovery not killed: %w", err)
			}
			if c.Plan.KillAtSite != "" && space.Sites["buffer:marked"] == 0 {
				return errors.New("the recovery replayed no batch")
			}
			replays += space.Sites["buffer:marked"]
			var errs []error
			for _, k := range (difftest.Sweep{Name: c.Path, Writes: space.MediaWrites, Sites: space.Sites}).Cases() {
				if _, err := crashed.RecoverCrashing(k.Plan); err != nil {
					errs = append(errs, fmt.Errorf("recovery kill %s: %w", strings.TrimPrefix(k.Path, c.Path+"/"), err))
				}
				doubles++
			}
			return errors.Join(errs...)
		})
		t.Logf("%s: %d double crashes, %d replay batches", cfg.Name, doubles, replays)
	}
}
