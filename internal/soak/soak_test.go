package soak

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDeterministicReport pins the harness's replayability contract:
// the same scenario with the same seed produces a bit-identical Report
// — every latency quantile, counter, epoch, replica lag, tuning step and
// breaker transition — across two full runs of the real server/cluster/
// ingest/core stack, whose pipelines, controller, breakers, followers and
// ship retries the driver steps on its virtual clock. fault-storm fails
// its SLO by design, the same way every run.
func TestDeterministicReport(t *testing.T) {
	for _, tc := range []struct {
		name, scenario     string
		adaptive, wantFail bool
	}{
		{"short-mix", ShortMix, false, false},
		{"short-mix/adaptive", ShortMix, true, false},
		{"bursty-ingest/static", BurstyIngest, false, false},
		{"bursty-ingest/adaptive", BurstyIngest, true, false},
		{"sustained-overload", sustainedOverload, false, false},
		{"fault-storm", faultStorm, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ByName(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			sc.Adaptive = tc.adaptive
			if testing.Short() {
				skipBenchScale(t, sc)
				sc.Horizon = time.Second
			}
			a, err := Run(sc, "")
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sc, "")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				aj, _ := json.Marshal(a)
				bj, _ := json.Marshal(b)
				t.Fatalf("same seed, different reports:\n run 1: %s\n run 2: %s", aj, bj)
			}
			if a.Failed() != tc.wantFail {
				t.Fatalf("%s: SLO violations %v, want failed=%v", sc.Name, a.Violations, tc.wantFail)
			}
			if a.Reads == 0 || a.EdgesAccepted == 0 {
				t.Fatalf("degenerate run: %d reads, %d edges accepted", a.Reads, a.EdgesAccepted)
			}
			if a.Scrapes == 0 {
				t.Fatal("no metrics/health scrapes ran")
			}
		})
	}
}

// skipBenchScale keeps -short (and the -race pass of scripts/check.sh)
// off bursty-ingest: its 1.2M-edge warm load is bench scale whatever the
// horizon. check.sh names these tests again without -short.
func skipBenchScale(t *testing.T, sc Scenario) {
	if sc.Name == BurstyIngest {
		t.Skip("bench-scale warm load; run without -short")
	}
}

// TestCountersAreTheClusters runs every builtin scenario and holds the
// report to identities instead of plausibility: what the driver counted
// from HTTP answers is what the cluster's own pipelines and breakers
// counted, and the tuning it reports is the live controller's. (The
// fifth identity — /v1/metrics' queue depth at every scrape equals the
// driver's count of admitted-not-yet-applied edges — is checked by the
// run itself and would be a "harness:" violation.)
func TestCountersAreTheClusters(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			sc, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if testing.Short() {
				skipBenchScale(t, sc)
			}
			r, err := newRunner(sc.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			defer r.srv.Shutdown()
			r.drive()
			r.finish()
			rep := r.rep
			for _, v := range rep.Violations {
				if strings.HasPrefix(v, "harness:") {
					t.Error(v)
				}
			}
			var rejected, accepted, settled int64
			var trips, closes, probes, refused int64
			for i := 0; i < r.cl.Shards(); i++ {
				st := r.cl.Shard(i).PipeStats()
				rejected += st.Rejected
				accepted += st.EdgesAccepted
				settled += st.EdgesApplied + st.EdgesDropped + st.Queued
				b := r.cl.Shard(i).Breaker()
				trips, closes, probes, refused = trips+b.Trips, closes+b.Closes, probes+b.Probes, refused+b.Rejected
				want := TuningReport{Shard: i, BatchEdges: int(st.CurBatchEdges), LingerUs: st.CurLingerNs / 1000,
					AdmitEdges: int(st.AdmitEdges), Decreases: st.TuneDecreases, Increases: st.TuneIncreases}
				if rep.FinalTuning[i] != want {
					t.Errorf("shard %d: reported tuning %+v, the pipeline's is %+v", i, rep.FinalTuning[i], want)
				}
			}
			if rep.Shed429 != rejected {
				t.Errorf("driver saw %d queue_full answers, the pipelines rejected %d writes", rep.Shed429, rejected)
			}
			if rep.Shed503 != refused {
				t.Errorf("driver saw %d circuit_open answers, the breakers refused %d writes", rep.Shed503, refused)
			}
			if rep.BreakerTrips != trips || rep.BreakerCloses != closes || rep.BreakerProbes != probes {
				t.Errorf("breaker transitions %d/%d/%d, the shards' breakers say %d/%d/%d",
					rep.BreakerTrips, rep.BreakerCloses, rep.BreakerProbes, trips, closes, probes)
			}
			if rep.EdgesAccepted != accepted || accepted != settled {
				t.Errorf("driver counted %d edges admitted, the pipelines accepted %d = %d applied + dropped + queued",
					rep.EdgesAccepted, accepted, settled)
			}
			if rep.EdgesAccepted+rep.EdgesShed != rep.EdgesOffered {
				t.Errorf("offered %d edges, accepted %d + shed %d", rep.EdgesOffered, rep.EdgesAccepted, rep.EdgesShed)
			}
		})
	}
}

// TestSeedChangesReport guards against the opposite failure: a report
// that is "deterministic" because the load generator ignores the seed.
func TestSeedChangesReport(t *testing.T) {
	sc, err := ByName(ShortMix)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = 500 * time.Millisecond
	a, err := Run(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed++
	b, err := Run(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical reports; the seed is not driving the load")
	}
}

// TestFaultScenarioFailsSLO runs the builtin fault-injection scenario
// (UEs under the hottest vertices, a slow-line region, a shard-leader
// kill, a late scrub) and requires that it fails its strict SLO spec
// and dumps the replay artifacts: scenario + seed + report JSON, a
// Chrome trace of the virtual timeline, and the metrics exposition.
func TestFaultScenarioFailsSLO(t *testing.T) {
	sc, err := ByName(faultStorm)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := Run(sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("fault scenario met its SLO; injected faults had no effect: %+v", rep)
	}
	var sawErrRate bool
	for _, v := range rep.Violations {
		if strings.Contains(v, "read error rate") {
			sawErrRate = true
		}
	}
	if !sawErrRate {
		t.Fatalf("expected a read-error-rate violation, got %v", rep.Violations)
	}
	if rep.Errors["media_error"] == 0 {
		t.Fatalf("UE injection produced no media_error reads: %v", rep.Errors)
	}
	if rep.Errors["shard_down"] == 0 {
		t.Fatalf("shard kill produced no shard_down writes: %v", rep.Errors)
	}

	files := sc.DumpFiles(dir)
	for _, f := range files {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("missing dump artifact: %v", err)
		}
	}
	// The report artifact must carry the seed and full scenario so the
	// run replays with `xpgraph soak -scenario fault-storm -seed N`.
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Scenario Scenario `json:"scenario"`
		Report   Report   `json:"report"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("report dump is not valid JSON: %v", err)
	}
	if dump.Scenario.Seed != sc.Seed || dump.Scenario.Name != sc.Name {
		t.Fatalf("dump does not identify the run: %+v", dump.Scenario)
	}
	if len(dump.Report.Violations) == 0 {
		t.Fatal("dumped report lost its violations")
	}
	// The trace artifact must be valid Chrome trace-event JSON with a
	// non-empty virtual timeline.
	raw, err = os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace dump is not valid Chrome trace JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace dump has no events")
	}
}

// TestSustainedOverloadBreaker runs the builtin sustained-overload
// scenario and requires the full breaker story: the over-capacity
// window fills the queue (429s), consecutive sheds trip the overload
// breaker (typed circuit_open 503s), half-open probes re-test the
// queue each cooldown, the breaker closes again, and the post-overload
// read tail recovers to its SLO budget.
func TestSustainedOverloadBreaker(t *testing.T) {
	sc, err := ByName(sustainedOverload)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("overload scenario violated its SLO: %v", rep.Violations)
	}
	if rep.Shed429 == 0 {
		t.Fatalf("overload window never filled the queue: %+v", rep)
	}
	if rep.BreakerTrips == 0 {
		t.Fatalf("queue-full sheds never tripped the breaker: %+v", rep)
	}
	if rep.Shed503 == 0 || rep.Errors["circuit_open"] == 0 {
		t.Fatalf("open breaker refused nothing: shed503=%d errors=%v", rep.Shed503, rep.Errors)
	}
	if rep.BreakerProbes == 0 || rep.BreakerCloses == 0 {
		t.Fatalf("breaker never completed a half-open probe cycle: probes=%d closes=%d",
			rep.BreakerProbes, rep.BreakerCloses)
	}
	if rep.TailReadP99Us <= 0 {
		t.Fatalf("no post-overload tail reads were sampled: %+v", rep)
	}
	// Writes must flow again once the window ends: the last accepted
	// edges cannot all predate the overload.
	if rep.EdgesAccepted == 0 {
		t.Fatalf("no writes were ever accepted: %+v", rep)
	}
	// Same seed replays bit-identically, breaker transitions included.
	again, err := Run(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		aj, _ := json.Marshal(rep)
		bj, _ := json.Marshal(again)
		t.Fatalf("same seed, different overload reports:\n run 1: %s\n run 2: %s", aj, bj)
	}
}

// TestAdaptiveBeatsStatic is the admission controller's claim at test
// scale, on the real pipeline: under the bursty-ingest scenario the
// AIMD controller must cut the time readers wait behind the writer by at
// least 1.2x vs the static defaults (the soak experiment's
// adaptive_advantage row holds the same floor at bench scale; why the
// mean wait and not the p99: DESIGN.md §12.3).
func TestAdaptiveBeatsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale comparison; run without -short or via xpgraph bench -exp soak")
	}
	sc, err := ByName(BurstyIngest)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	sc.Adaptive = true
	adaptive, err := Run(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	if static.Failed() || adaptive.Failed() {
		t.Fatalf("bursty scenario violated its own SLO: static %v adaptive %v",
			static.Violations, adaptive.Violations)
	}
	if adaptive.ReadWaitUs*1.2 > static.ReadWaitUs {
		t.Fatalf("readers wait %.3fus on average behind the adaptive writer, not >=1.2x less than the static one's %.3fus",
			adaptive.ReadWaitUs, static.ReadWaitUs)
	}
	var tuned bool
	for _, tr := range adaptive.FinalTuning {
		if tr.Decreases > 0 {
			tuned = true
		}
	}
	if !tuned {
		t.Fatal("adaptive run never tuned; the comparison is vacuous")
	}
}

// TestScenarioRoundTrip pins that a scenario survives JSON (the dump
// format) unchanged, so a replayed dump runs exactly what failed.
func TestScenarioRoundTrip(t *testing.T) {
	for _, name := range Names() {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("%s does not round-trip: %+v vs %+v", name, sc, back)
		}
	}
}

// TestUnknownScenario pins the error path CLI users hit.
func TestUnknownScenario(t *testing.T) {
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("expected an error for an unknown scenario")
	}
}
