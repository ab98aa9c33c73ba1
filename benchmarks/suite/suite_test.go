package suite

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// testScale shrinks every workload to a few tens of thousands of edges,
// so the whole file runs in seconds.
const testScale = 0.02

// cached memoizes runs across tests: only the determinism test needs a
// second run of the same configuration.
var cached = map[string]Result{}

func runSmall(t *testing.T, workload string, seed uint64, trace bool) Result {
	t.Helper()
	key := fmt.Sprint(workload, seed, trace)
	if res, ok := cached[key]; ok {
		return res
	}
	res := runFresh(t, workload, seed, trace)
	cached[key] = res
	return res
}

func runFresh(t *testing.T, workload string, seed uint64, trace bool) Result {
	t.Helper()
	var log bytes.Buffer
	res, err := Run(Config{Workload: workload, Seed: seed, Seconds: 0, Scale: testScale, MinRounds: 2, Trace: trace, Log: &log})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, log.String())
	}
	return res
}

// Two runs with one seed must agree exactly on everything that reads the
// simulated clock or a counter; only host-clock metrics may differ.
func TestSameSeedSameSimMetrics(t *testing.T) {
	for _, w := range Workloads {
		a := runSmall(t, w.Name, 7, false)
		b := runFresh(t, w.Name, 7, false)
		for _, m := range EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			switch m.Clock {
			case "sim", "count":
				tol := 0.0
				if m.Name == "analytics_sim_ms" {
					tol = 0.01 // BFS bucket order; see analyticsDigest
				}
				if d := va - vb; d > tol*va || -d > tol*va {
					t.Errorf("%s %s: %v then %v with the same seed", w.Name, m.Name, va, vb)
				}
			}
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	for _, w := range Workloads {
		sp := w.scaled(testScale)
		a, b, c := generate(sp, 1), generate(sp, 1), generate(sp, 2)
		if !sameEdges(a, b) {
			t.Errorf("%s: the same seed gave two different streams", w.Name)
		}
		if sameEdges(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.Name)
		}
	}
}

func sameEdges(a, b *stream) bool {
	if len(a.batches) != len(b.batches) {
		return false
	}
	for i := range a.batches {
		ea, eb := a.batches[i].edges, b.batches[i].edges
		if len(ea) != len(eb) {
			return false
		}
		for j := range ea {
			if ea[j] != eb[j] {
				return false
			}
		}
	}
	return true
}

// BENCHMARK.json is generated from the tables; a hand edit of either side
// shows up here.
func TestSchemaMatchesTables(t *testing.T) {
	var want bytes.Buffer
	if err := WriteSchema(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("BENCHMARK.json is stale: regenerate it with `go run ./cmd/xpbench schema > ../BENCHMARK.json`")
	}
	if len(want.Bytes()) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", want.Len())
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range Workloads {
		checkName(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
	}
	if len(Workloads) < 2 || len(Workloads) > 8 || len(EndToEnd) > 16 || len(PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside the contract's counts", len(Workloads), len(EndToEnd), len(PerLayer))
	}
}

// Every run prints exactly the declared names: the untraced run the
// end-to-end table, the traced run the per-layer table, whose ladder
// invariants are checks that count as failed operations.
func TestRunsPrintDeclaredNames(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			table := EndToEnd
			if trace {
				table = PerLayer
			}
			res := runSmall(t, w.Name, 7, trace)
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(table))
			}
			for _, m := range table {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", w.Name, trace, m.Name)
				} else if v.Unit != m.Unit {
					t.Errorf("%s: unit %q printed, %q declared", m.Name, v.Unit, m.Unit)
				}
			}
		}
	}
}

// The layers a workload bypasses must read 0 in its traced run: that is
// the "must not move" half of the interaction map.
func TestBypassedLayersReadZero(t *testing.T) {
	res := runSmall(t, "bulk-ingest", 7, true)
	for _, n := range []string{
		"server.requests", "server.read_self_host_us", "ingest.batches_applied",
		"ingest.wire_bin_decode_host_ns_per_edge", "cluster.ship_attempts", "prop.blocks",
		"adj.decode_varint_host_ns_per_nbr",
	} {
		if v := res.Metrics[n].Value; v != 0 {
			t.Errorf("bulk-ingest: %s = %v, want 0", n, v)
		}
	}
	res = runSmall(t, "cluster-4s1r", 7, true)
	for _, n := range []string{"server.requests", "ingest.batches_applied", "cluster.ship_attempts", "cluster.replica_catchup_host_us_per_write"} {
		if v := res.Metrics[n].Value; v <= 0 {
			t.Errorf("cluster-4s1r: %s = %v, want > 0", n, v)
		}
	}
	for _, n := range []string{"ingest.linger_waits", "cluster.ship_giveups", "cluster.replica_resyncs", "server.failed"} {
		if v := res.Metrics[n].Value; v != 0 {
			t.Errorf("cluster-4s1r: %s = %v, want 0", n, v)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
