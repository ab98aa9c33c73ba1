package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// parsePromLine splits a sample line into name, labels, value, failing the
// test on any deviation from the text-format grammar.
func parsePromLine(t *testing.T, line string) (name string, labels map[string]string, value float64) {
	t.Helper()
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			t.Fatalf("unterminated label set in %q", line)
		}
		for _, pair := range strings.Split(rest[i+1:j], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				t.Fatalf("bad label pair %q in %q", pair, line)
			}
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("label value not quoted in %q", line)
			}
			labels[k] = v[1 : len(v)-1]
		}
		rest = rest[j+1:]
	} else {
		k := strings.IndexByte(rest, ' ')
		if k < 0 {
			t.Fatalf("no value in %q", line)
		}
		name = rest[:k]
		rest = rest[k:]
	}
	rest = strings.TrimSpace(rest)
	if rest == "+Inf" {
		return name, labels, math.Inf(1)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	return name, labels, v
}

// TestPrometheusGrammar validates the whole exposition line by line: every
// line is a well-formed HELP, TYPE, or sample line; HELP/TYPE appear once
// per family and precede its samples.
func TestPrometheusGrammar(t *testing.T) {
	r := NewRegistry()
	c := newCounter("test_ops_total", "Operations.", Label{"shard", "a"})
	c.Add(7)
	g := NewGauge("test_depth", `Queue "depth" with\escapes.`)
	g.Set(3.5)
	h := newHistogram("test_lat_seconds", "Latency.", logBuckets(0.001, 10, 3))
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99)
	r.Register(c)
	r.Register(g)
	r.Register(h)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition must end with a newline")
	}

	typed := map[string]string{}
	helped := map[string]bool{}
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			f := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(f) != 2 || f[1] == "" {
				t.Fatalf("malformed HELP %q", line)
			}
			if helped[f[0]] {
				t.Fatalf("duplicate HELP for %s", f[0])
			}
			helped[f[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line[len("# TYPE "):])
			if len(f) != 2 {
				t.Fatalf("malformed TYPE %q", line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type %q in %q", f[1], line)
			}
			if _, dup := typed[f[0]]; dup {
				t.Fatalf("duplicate TYPE for %s", f[0])
			}
			typed[f[0]] = f[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment %q", line)
		default:
			name, labels, v := parsePromLine(t, line)
			family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if _, ok := typed[family]; !ok {
				if _, ok := typed[name]; !ok {
					t.Fatalf("sample %q precedes its TYPE line", line)
				}
			}
			key := name
			if le, ok := labels["le"]; ok {
				key += "/le=" + le
			}
			values[key] = v
		}
	}

	if values["test_ops_total"] != 7 {
		t.Fatalf("counter = %v, want 7", values["test_ops_total"])
	}
	if values["test_depth"] != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", values["test_depth"])
	}
	if typed["test_lat_seconds"] != "histogram" {
		t.Fatalf("histogram TYPE = %q", typed["test_lat_seconds"])
	}
	// Cumulative buckets: 0.0005 <= 0.001; 0.05 <= 0.1; 99 only in +Inf.
	if values["test_lat_seconds_bucket/le=0.001"] != 1 ||
		values["test_lat_seconds_bucket/le=0.01"] != 1 ||
		values["test_lat_seconds_bucket/le=0.1"] != 2 ||
		values["test_lat_seconds_bucket/le=+Inf"] != 3 {
		t.Fatalf("bucket counts wrong: %v", values)
	}
	if values["test_lat_seconds_count"] != 3 {
		t.Fatalf("_count = %v, want 3", values["test_lat_seconds_count"])
	}
	if got, want := values["test_lat_seconds_sum"], 0.0005+0.05+99; math.Abs(got-want) > 1e-9 {
		t.Fatalf("_sum = %v, want %v", got, want)
	}
}

// TestPrometheusLabelEscaping pins the escaping rules for label values.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := newCounter("esc_total", "h", Label{"p", `a"b\c` + "\n"})
	c.Inc()
	r.Register(c)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{p="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition %q missing %q", b.String(), want)
	}
}

// TestHistogramBucketsCumulative checks monotonicity of the gathered
// cumulative buckets and the +Inf/count identity under many observations.
func TestHistogramBucketsCumulative(t *testing.T) {
	h := newHistogram("h", "", logBuckets(1, 2, 10))
	for i := 0; i < 5000; i++ {
		h.Observe(float64(i % 1500))
	}
	var s Sample
	h.Collect(func(x Sample) { s = x })
	prev := uint64(0)
	for i, b := range s.Buckets {
		if b.Count < prev {
			t.Fatalf("bucket %d (le=%g) count %d < previous %d — not cumulative",
				i, b.UpperBound, b.Count, prev)
		}
		prev = b.Count
	}
	if s.Count < prev {
		t.Fatalf("total count %d < last bucket %d", s.Count, prev)
	}
	if s.Count != 5000 {
		t.Fatalf("count = %d, want 5000", s.Count)
	}
}

// TestJSONExposition round-trips the JSON document through encoding/json
// and checks the histogram shape carries bounds and counts pairwise.
func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	c := newCounter("j_ops_total", "h", Label{"k", "v"})
	c.Add(3)
	h := newHistogram("j_lat", "h", []float64{1, 2, 4})
	h.Observe(1.5)
	h.Observe(100)
	r.Register(c)
	r.Register(h)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name   string            `json:"name"`
			Kind   string            `json:"kind"`
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
			Sum    float64           `json:"sum"`
			Count  uint64            `json:"count"`
			Bounds []float64         `json:"bucket_bounds"`
			Counts []uint64          `json:"bucket_counts"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("JSON exposition does not parse: %v\n%s", err, b.String())
	}
	byName := map[string]int{}
	for i, m := range doc.Metrics {
		byName[m.Name] = i
	}
	cm := doc.Metrics[byName["j_ops_total"]]
	if cm.Kind != "counter" || cm.Value != 3 || cm.Labels["k"] != "v" {
		t.Fatalf("counter sample wrong: %+v", cm)
	}
	hm := doc.Metrics[byName["j_lat"]]
	if hm.Kind != "histogram" || hm.Count != 2 || len(hm.Bounds) != len(hm.Counts) {
		t.Fatalf("histogram sample wrong: %+v", hm)
	}
	if hm.Counts[0] != 0 || hm.Counts[1] != 1 || hm.Counts[2] != 1 {
		t.Fatalf("cumulative counts wrong: %v", hm.Counts)
	}
}

// TestCounterMonotone: negative Add deltas must be ignored.
func TestCounterMonotone(t *testing.T) {
	c := newCounter("c", "")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5 (negative add must be ignored)", c.Value())
	}
}

// TestVecChildren: one child per label value, stable identity.
func TestVecChildren(t *testing.T) {
	hv := NewHistogramVec("v", "", "route", []float64{1})
	if hv.With("/a") != hv.With("/a") {
		t.Fatal("HistogramVec.With not stable")
	}
	hv.With("/a").Observe(0.5)
	hv.With("/b").Observe(2)
	n := 0
	hv.Collect(func(s Sample) {
		n++
		if len(s.Labels) != 1 || s.Labels[0].Key != "route" {
			t.Fatalf("child labels wrong: %+v", s.Labels)
		}
	})
	if n != 2 {
		t.Fatalf("collected %d children, want 2", n)
	}
	cv := NewCounterVec("cv", "", "route")
	cv.With("/a").Inc()
	cv.With("/a").Inc()
	if cv.With("/a").Value() != 2 {
		t.Fatal("CounterVec child not shared")
	}
}
