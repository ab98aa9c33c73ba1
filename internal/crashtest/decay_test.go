// Seeded media decay (xpsim.Faults.SetDecay, xpgraphd -ue-decay): every
// checked media read rolls a die and may discover a fresh UE on the line it
// touched. The media-tolerance contract holds under decay as it does under
// injected UEs, and the rolls are a function of the seed and the order of
// the reads alone: the same run decays the same lines, a crash clone
// carries the decay state, and a recovery at a given worker count rolls the
// same dice every time.

package crashtest

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/prop"
	"repro/internal/xpsim"
)

// decayPerRead is the per-read UE probability of every decay run.
const decayPerRead = 0.02

// decayed builds cfg's workload, arms decay with seed and reads every vertex
// checked twice, the second pass meeting the lines the first decayed. Every
// read must be exact or fail typed; the failed reads of both passes are
// returned.
func decayed(cfg config, seed uint64) (*xpsim.Faults, []difftest.Read, error) {
	_, st, faults, m, err := build(cfg)
	if err != nil {
		return nil, nil, err
	}
	faults.SetDecay(decayPerRead, seed)
	var failed []difftest.Read
	for pass := 0; pass < 2; pass++ {
		rep, err := checked.Run(m, st)
		if err != nil {
			return nil, nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		failed = append(failed, rep.Failed...)
	}
	return faults, failed, nil
}

// TestUEDecayDetection: under seeded decay every checked read matches the
// model or fails typed, and decay does strike.
func TestUEDecayDetection(t *testing.T) {
	for _, cfg := range []config{
		{Name: "decay", Seed: 21, Edges: 600},
		{Name: "decay-vz", Seed: 22, Edges: 600, DelRatio: 0.2, Varint: true},
	} {
		faults, failed, err := decayed(cfg, 0x5EED_DECA)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if faults.UECount() == 0 || len(failed) == 0 {
			t.Fatalf("%s: decay struck %d lines and failed %d reads; want both above 0", cfg.Name, faults.UECount(), len(failed))
		}
	}
}

// TestUEDecayIsSeeded: two identical runs with the same seed decay the same
// lines and fail the same reads; another seed decays other lines.
func TestUEDecayIsSeeded(t *testing.T) {
	cfg := config{Name: "decay-seed", Seed: 23, Edges: 600}
	run := func(seed uint64) ([2][]int64, []string) {
		faults, failed, err := decayed(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		var reads []string
		for _, r := range failed {
			reads = append(reads, r.String())
		}
		return [2][]int64{faults.UELines(0), faults.UELines(1)}, reads
	}
	lines, reads := run(7)
	again, readsAgain := run(7)
	if !reflect.DeepEqual(lines, again) || !reflect.DeepEqual(reads, readsAgain) {
		t.Fatalf("seed 7 decayed %v failing %q, then %v failing %q", lines, reads, again, readsAgain)
	}
	if other, _ := run(8); reflect.DeepEqual(lines, other) {
		t.Fatalf("seeds 7 and 8 decayed the same lines %v", lines)
	}
}

// typedChecked is checked with the labels and the property column
// compared too: a read fails typed with a media error or prop.ErrDamaged,
// or matches.
var typedChecked = difftest.Compare{Labels: true, Props: []uint16{1},
	Typed: func(err error) bool { return typedMediaError(err) || errors.Is(err, prop.ErrDamaged) }}

// TestUEDecayAcrossRecovery: the decay state rides CrashClone, and a
// recovery of the clone at one worker and at four is each deterministic —
// the same outcome, the same lines decayed, the same reads failing — and
// holds the contract: a refusal is typed, a recovered store's checked
// reads — adjacency, labels and properties — are exact or fail typed. The
// two worker counts read in different orders (four walk speculative
// segments), so their rolls differ from each other. Over the seeds, some
// recovery decays a line and still completes, and at seed 4 on one worker
// the line that decays is the closing column block of the last
// acknowledged flush: the store must fail its typed reads closed, not
// answer default labels.
func TestUEDecayAcrossRecovery(t *testing.T) {
	struck := false
	for seed := uint64(1); seed <= 6; seed++ {
		st, faults, m, err := buildProp("decay-rec")
		if err != nil {
			t.Fatal(err)
		}
		faults.SetDecay(decayPerRead, seed)
		if _, err := typedChecked.Run(m, st); err != nil {
			t.Fatalf("seed %d: live: %v", seed, err)
		}
		live := faults.ExportMediaState()
		recoverClone := func(workers int) string {
			clone, err := st.Heap().CrashClone()
			if err != nil {
				t.Fatal(err)
			}
			cf := clone.Machine().Faults()
			if got := cf.ExportMediaState(); !reflect.DeepEqual(got, live) {
				t.Fatalf("seed %d: the crash clone's media state %+v, want the live machine's %+v", seed, got, live)
			}
			opts := propOptions("decay-rec")
			opts.ArchiveThreads = workers
			rs, _, err := core.Recover(clone.Machine(), clone, nil, opts)
			outcome := "recovered"
			switch {
			case err != nil && !typedMediaError(err) && !errors.Is(err, prop.ErrDamaged):
				t.Fatalf("seed %d, %d workers: recovery over decayed media failed untyped: %v", seed, workers, err)
			case err != nil:
				outcome = "refused: " + err.Error()
			default:
				if cf.UECount() > len(live.UE[0])+len(live.UE[1]) {
					struck = true
				}
				rep, err := typedChecked.Run(m, rs)
				if err != nil {
					t.Fatalf("seed %d, %d workers: recovered: %v", seed, workers, err)
				}
				outcome += fmt.Sprintf(", %d reads clean, %d failing %v", rep.Clean, len(rep.Failed), rep.Failed)
			}
			return fmt.Sprintf("decay state %+v; %s", cf.ExportMediaState(), outcome)
		}
		for _, workers := range []int{1, 4} {
			first, second := recoverClone(workers), recoverClone(workers)
			if first != second {
				t.Fatalf("seed %d, %d workers: recovery is not deterministic under decay:\n%s\n%s", seed, workers, first, second)
			}
			if len(first) > 400 {
				first = first[:400] + "…"
			}
			t.Logf("seed %d, %d workers: %s", seed, workers, first)
		}
	}
	if !struck {
		t.Fatal("no recovery decayed a line and completed: the seeds exercise no decay inside a recovery")
	}
}
