package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func ptr(v float64) *float64 { return &v }

// writeRows writes a row report into the test's directory.
func writeRows(t *testing.T, name string, rows ...bench.Row) string {
	t.Helper()
	var buf bytes.Buffer
	if err := bench.WriteRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchgate drives `xpgraph benchgate` on doctored reports: the exit
// status, and that a failure names the row it is about.
func TestBenchgate(t *testing.T) {
	speedup := bench.Row{Exp: "cluster", Name: "TT@100/shards=4/speedup", Value: 3.5, Unit: "x",
		Better: bench.Higher, Floor: ptr(2), Bound: ptr(0.05)}
	simS := bench.Row{Exp: "cluster", Name: "TT@100/shards=4/sim_s", Value: 0.004, Unit: "s",
		Better: bench.Lower, Bound: ptr(0.05)}
	with := func(r bench.Row, v float64) bench.Row { r.Value = v; return r }
	baseline := writeRows(t, "BENCH_0.json", speedup, simS)

	notRows := filepath.Join(t.TempDir(), "old.json")
	os.WriteFile(notRows, []byte("{\n  \"experiment\": \"cluster\",\n  \"reports\": []\n}\n"), 0o644)

	for _, tc := range []struct {
		name string
		args []string
		exit int
		want string // in the error
	}{
		{"equal to the baseline", []string{"-new", baseline, "-baseline", baseline}, 0, ""},
		{"no baseline", []string{"-new", baseline}, 0, ""},
		{"a broken floor", []string{"-new", writeRows(t, "r.json", with(speedup, 1.9), simS)}, 1,
			"cluster/TT@100/shards=4/speedup: 1.9 x is on the wrong side of its floor 2"},
		{"a regression", []string{"-new", writeRows(t, "r.json", speedup, with(simS, 0.0043)), "-baseline", baseline}, 1,
			"cluster/TT@100/shards=4/sim_s: 0.0043 s is worse than the baseline's 0.004"},
		{"a vanished row", []string{"-new", writeRows(t, "r.json", simS), "-baseline", baseline}, 1,
			"cluster/TT@100/shards=4/speedup: baseline row is missing"},
		{"a file that is not a row report", []string{"-new", notRows}, 1, "not a row report"},
		{"a baseline that is not a row report", []string{"-new", baseline, "-baseline", notRows}, 1, "not a row report"},
		{"no such file", []string{"-new", filepath.Join(t.TempDir(), "absent.json")}, 1, "absent.json"},
		{"no -new", nil, 1, "-new is required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append([]string{"benchgate"}, tc.args...))
			if got := exitCode(err); got != tc.exit {
				t.Fatalf("exit status %d (%v), want %d", got, err, tc.exit)
			}
			if err != nil && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestBenchJSONRoundTrip: what `bench -json` writes is what `benchgate`
// reads, for an experiment that declares nothing and with no baseline.
func TestBenchJSONRoundTrip(t *testing.T) {
	report := filepath.Join(t.TempDir(), "rows.json")
	if err := run([]string{"bench", "-exp", "table2", "-scale", "0.01", "-datasets", "TT,FS", "-json", report}); err != nil {
		t.Fatal(err)
	}
	rows, err := bench.ReadRows(report)
	if err != nil {
		t.Fatal(err)
	}
	// Two datasets, four measured columns each.
	if len(rows) != 8 || rows[0].Exp != "table2" || !strings.HasSuffix(rows[0].Name, "/V") {
		t.Errorf("rows %+v", rows)
	}
	if err := run([]string{"benchgate", "-new", report}); err != nil {
		t.Error(err)
	}
}

func TestCommandLine(t *testing.T) {
	if err := run([]string{"bench", "-exp", "fig99"}); err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Errorf("bench -exp fig99: %v, want an unknown-experiment error", err)
	}
	for _, args := range [][]string{nil, {"frobnicate"}} {
		if err := run(args); exitCode(err) != 2 {
			t.Errorf("xpgraph %v: exit status %d, want 2", args, exitCode(err))
		}
	}
	if err := run([]string{"list"}); err != nil {
		t.Error(err)
	}
}
