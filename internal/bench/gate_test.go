package bench

import (
	"math"
	"strings"
	"testing"
)

func ptr(v float64) *float64 { return &v }

// declarations is every floor and bound the four gated experiments declare.
// "{ds}" is the dataset key of the run ("TT@14650"); soak rows are keyed by
// mode and virtual horizon.
var declarations = []struct {
	exp, name    string
	floor, bound *float64
}{
	{"wire", "{ds}/bin_speedup", ptr(2), ptr(0.5)},
	{"wire", "{ds}/density_gain", ptr(1.5), ptr(simBound)},
	{"wire", "{ds}/fixed_edges_per_line", nil, ptr(simBound)},
	{"wire", "{ds}/varint_edges_per_line", nil, ptr(simBound)},
	{"wire", "{ds}/fixed_wr_B_edge", nil, ptr(simBound)},
	{"wire", "{ds}/varint_wr_B_edge", nil, ptr(simBound)},
	{"wire", "{ds}/fixed_payload_B_edge", nil, ptr(simBound)},
	{"wire", "{ds}/varint_payload_B_edge", nil, ptr(simBound)},
	{"wire", "{ds}/json_wire_B_edge", nil, ptr(simBound)},
	{"wire", "{ds}/bin_wire_B_edge", nil, ptr(simBound)},

	{"cluster", "{ds}/shards=1/sim_s", nil, ptr(simBound)},
	{"cluster", "{ds}/shards=2/sim_s", nil, ptr(simBound)},
	{"cluster", "{ds}/shards=4/sim_s", nil, ptr(simBound)},
	{"cluster", "{ds}/shards=1/Medges_s", nil, ptr(simBound)},
	{"cluster", "{ds}/shards=2/Medges_s", nil, ptr(simBound)},
	{"cluster", "{ds}/shards=4/Medges_s", nil, ptr(simBound)},
	{"cluster", "{ds}/shards=1/speedup", nil, ptr(simBound)},
	{"cluster", "{ds}/shards=2/speedup", nil, ptr(simBound)},
	{"cluster", "{ds}/shards=4/speedup", ptr(2), ptr(simBound)},

	{"soak", "static@1s/reads", ptr(1), nil},
	{"soak", "adaptive@1s/reads", ptr(1), nil},
	{"soak", "static@1s/violations", ptr(0), nil},
	{"soak", "adaptive@1s/violations", ptr(0), nil},
	{"soak", "adaptive@1s/tuned", ptr(1), nil},
	{"soak", "bursty-ingest@1s/adaptive_advantage", ptr(1.2), ptr(simBound)},
	{"soak", "static@1s/p50_us", nil, ptr(simBound)},
	{"soak", "static@1s/p95_us", nil, ptr(simBound)},
	{"soak", "static@1s/p99_us", nil, ptr(simBound)},
	{"soak", "static@1s/wait_us", nil, ptr(simBound)},
	{"soak", "static@1s/wr_p99_ms", nil, ptr(simBound)},
	{"soak", "adaptive@1s/p50_us", nil, ptr(simBound)},
	{"soak", "adaptive@1s/p95_us", nil, ptr(simBound)},
	{"soak", "adaptive@1s/p99_us", nil, ptr(simBound)},
	{"soak", "adaptive@1s/wait_us", nil, ptr(simBound)},
	{"soak", "adaptive@1s/wr_p99_ms", nil, ptr(simBound)},

	{"prop", "{ds}/filtered_rd_lines", nil, ptr(simBound)},
	{"prop", "{ds}/readall_rd_lines", nil, ptr(simBound)},
	{"prop", "{ds}/rd_savings", ptr(2), ptr(simBound)},
	{"prop", "{ds}/filtered_reached", ptr(1), nil},
	{"prop", "{ds}/plain_Medges_s", nil, ptr(simBound)},
	{"prop", "{ds}/typed_Medges_s", nil, ptr(simBound)},
	{"prop", "{ds}/typed_overhead_ns", ptr(propOverheadCeilNs), ptr(simBound)},
}

// TestDeclaredRowsGate runs the four gated experiments once, small, and for
// every declaration above checks that the experiment makes it, that the row
// passes on the good side of it, and that Gate fails — naming the row — with
// the value doctored past the floor and past the bound.
func TestDeclaredRowsGate(t *testing.T) {
	report, dsKey := map[string]Row{}, map[string]string{}
	declared := 0
	for _, exp := range []string{"wire", "cluster", "soak", "prop"} {
		cfg := Config{EdgeScale: 0.01, Datasets: []string{"TT"}}
		if exp == "soak" {
			cfg = Config{EdgeScale: 0.5} // a 1 s virtual horizon
		}
		tb, err := Run(exp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dsKey[exp] = tb.Rows[0][0].Key
		for _, r := range tb.Report() {
			report[r.id()] = r
			if r.Floor != nil || r.Bound != nil {
				declared++
			}
		}
	}
	if declared != len(declarations) {
		t.Errorf("the experiments declare %d floored or bounded rows, the table lists %d", declared, len(declarations))
	}

	same := func(a, b *float64) bool { return (a == nil) == (b == nil) && (a == nil || *a == *b) }
	for _, d := range declarations {
		t.Run(d.exp+"/"+d.name, func(t *testing.T) {
			r, ok := report[d.exp+"/"+strings.Replace(d.name, "{ds}", dsKey[d.exp], 1)]
			if !ok {
				t.Fatalf("no such row in the %s report", d.exp)
			}
			if !same(r.Floor, d.floor) || !same(r.Bound, d.bound) {
				t.Fatalf("row declares floor %v bound %v, want floor %v bound %v",
					deref(r.Floor), deref(r.Bound), deref(d.floor), deref(d.bound))
			}
			// A good value, ten times clear of the floor, is its own baseline.
			good := r
			good.Value = 10
			if r.Floor != nil && r.Better == Higher {
				good.Value = 10 * *r.Floor
			} else if r.Floor != nil {
				good.Value = *r.Floor / 10
			}
			if fails := Gate([]Row{good}, []Row{good}); len(fails) != 0 {
				t.Fatalf("a good row fails: %v", fails)
			}
			// worse is v moved by the fraction f (of itself, or of 1 from
			// zero) in the row's worse direction.
			worse := func(v, f float64) Row {
				step := f * math.Max(math.Abs(v), 1)
				if r.Better == Higher {
					step = -step
				}
				cur := r
				cur.Value = v + step
				return cur
			}
			check := func(cur Row, baseline []Row, want string) {
				t.Helper()
				fails := Gate([]Row{cur}, baseline)
				if len(fails) != 1 || !strings.HasPrefix(fails[0], r.id()+": ") || !strings.Contains(fails[0], want) {
					t.Errorf("value %g: want one %q failure naming %s, got %q", cur.Value, want, r.id(), fails)
				}
			}
			if r.Floor != nil {
				check(worse(*r.Floor, 0.01), nil, "floor")
			}
			if r.Bound != nil {
				check(worse(good.Value, *r.Bound*1.02), []Row{good}, "baseline")
			}
		})
	}
}

func deref(p *float64) any {
	if p == nil {
		return nil
	}
	return *p
}

// TestGate covers what is the gate's own rather than a declaration's.
func TestGate(t *testing.T) {
	speed := Row{Exp: "e", Name: "speed", Value: 10, Unit: "x", Better: Higher, Floor: ptr(2), Bound: ptr(0.05)}
	cost := Row{Exp: "e", Name: "cost", Value: 10, Unit: "ns", Better: Lower, Bound: ptr(0.05)}
	plain := Row{Exp: "e", Name: "plain", Value: 3, Unit: "s", Better: Lower}
	other := Row{Exp: "other", Name: "speed", Value: 1, Unit: "x", Better: Higher, Floor: ptr(1)}
	with := func(r Row, v float64) Row { r.Value = v; return r }
	baseline := []Row{speed, cost, plain, other}

	for _, tc := range []struct {
		name     string
		cur      []Row
		baseline []Row
		want     []string // one substring per expected failure, in order
	}{
		{"equal to the baseline", []Row{speed, cost, plain}, baseline, nil},
		{"no baseline: floors only", []Row{with(speed, 2), with(cost, 1e9)}, nil, nil},
		{"an improvement", []Row{with(speed, 99), with(cost, 0.1), plain}, baseline, nil},
		{"inside the bound", []Row{with(speed, 9.6), with(cost, 10.4), plain}, baseline, nil},
		{"an unbounded row may move", []Row{speed, cost, with(plain, 300)}, baseline, nil},
		{"past the bound, higher is better", []Row{with(speed, 9.4), cost, plain}, baseline, []string{"e/speed: 9.4 x is worse than the baseline's 10"}},
		{"past the bound, lower is better", []Row{speed, with(cost, 10.6), plain}, baseline, []string{"e/cost: 10.6 ns is worse than the baseline's 10"}},
		{"past the floor with no baseline", []Row{with(speed, 1.9)}, nil, []string{"e/speed: 1.9 x is on the wrong side of its floor 2"}},
		{"a baseline row has vanished", []Row{speed, cost}, baseline, []string{"e/plain: baseline row is missing"}},
		{"a floored row has vanished", []Row{cost, plain}, baseline, []string{"e/speed: baseline row is missing"}},
		{"a bounded row the baseline lacks", []Row{speed, cost, plain}, []Row{speed, plain}, []string{"e/cost: bounded row has no baseline row"}},
		{"another scale: nothing matches", []Row{{Exp: "e", Name: "speed@2", Value: 10, Unit: "x", Better: Higher, Bound: ptr(0.05)}}, []Row{speed},
			[]string{"e/speed@2: bounded row has no baseline row", "e/speed: baseline row is missing"}},
		{"an experiment that did not run is not missing", []Row{other}, baseline, nil},
		{"NaN", []Row{with(speed, math.NaN()), cost, plain}, baseline, []string{"e/speed: not a measurement"}},
		{"infinity", []Row{with(plain, math.Inf(1))}, nil, []string{"e/plain: not a measurement"}},
		{"no direction", []Row{{Exp: "e", Name: "plain", Value: 3, Unit: "s"}}, nil, []string{"e/plain: not a measurement"}},
		{"a bounded row that reads zero", []Row{with(cost, 0)}, nil, []string{"e/cost: bounded row reads 0 ns"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fails := Gate(tc.cur, tc.baseline)
			if len(fails) != len(tc.want) {
				t.Fatalf("failures %q, want %q", fails, tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(fails[i], w) {
					t.Errorf("failure %d is %q, want it to contain %q", i, fails[i], w)
				}
			}
		})
	}
}

// TestReportNamesRows pins the derivation: a measured cell is named by the
// key cells of its table row and its column, an extra row by what the
// experiment called it, and labels, text cells and notes are not rows.
func TestReportNamesRows(t *testing.T) {
	tb := Table{Exp: "figX", Columns: []string{"dataset", "system", "edges", "total_s", "speedup"}}
	tb.add(keyed("TT", "TT@100"), label("XPGraph"), text("100"), secs(1_500_000_000), ratio(3, 2).floor(1))
	tb.add(keyed("TT", "TT@100"), label("GraphOne-P"), text("100"), text("OOM"), text("-"))
	tb.derive("TT@100/reached", count(7, "vertices", Higher))
	tb.shape("speedup_min", num(1.5, "%.2f", "x", Higher).paper(3, 4).deviation(11))

	want := []Row{
		{Exp: "figX", Name: "TT@100/XPGraph/total_s", Value: 1.5, Unit: "s", Better: Lower},
		{Exp: "figX", Name: "TT@100/XPGraph/speedup", Value: 1.5, Unit: "x", Better: Higher, Floor: ptr(1)},
		{Exp: "figX", Name: "TT@100/reached", Value: 7, Unit: "vertices", Better: Higher},
		{Exp: "shape", Name: "figX/speedup_min", Value: 1.5, Unit: "x", Better: Higher, Band: &[2]float64{3, 4}, Deviation: 11},
	}
	got := tb.Report()
	if len(got) != len(want) {
		t.Fatalf("rows %+v, want %+v", got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.id() != w.id() || g.Value != w.Value || g.Unit != w.Unit || g.Better != w.Better ||
			deref(g.Floor) != deref(w.Floor) || g.Deviation != w.Deviation || (g.Band == nil) != (w.Band == nil) {
			t.Errorf("row %d is %+v, want %+v", i, g, w)
		}
	}
	text := tb.String()
	for _, line := range []string{
		"TT       XPGraph     100    1.500    1.50x",
		"figX: TT@100/reached = 7  [ok]",
		"shape: figX/speedup_min = 1.50  [below, paper 3..4, deviation 11]",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("the rendering lacks %q:\n%s", line, text)
		}
	}
}
