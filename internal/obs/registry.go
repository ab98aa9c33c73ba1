// Package obs is the observability layer: a metrics registry, a
// device-telemetry collector and a phase tracer on the simulated clock. The
// registry (counters, gauges, histograms with fixed log-scale buckets) has
// Prometheus text-format and JSON exposition; the collector covers the
// simulated Optane machine (device.go); the tracer records spans into a
// bounded ring exportable as Chrome trace-event JSON (trace.go).
//
// Everything paper-relevant — media read/write lines and amplification
// (Fig. 3b, Fig. 13), XPBuffer hit/eviction behaviour, local vs remote
// NUMA traffic (Fig. 4, Fig. 18), and the logging/buffering/flushing
// phase split (Fig. 3a) — becomes an always-on, scrapeable, traceable
// surface instead of ad-hoc calls inside bench code.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric for exposition (# TYPE line).
type Kind int

// Metric kinds, matching the Prometheus type vocabulary.
const (
	KindCounter Kind = iota
	KindGauge
	kindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one name=value pair attached to a sample.
type Label struct {
	Key, Value string
}

// Bucket is one histogram bucket in cumulative form: Count observations
// were <= UpperBound.
type Bucket struct {
	UpperBound float64
	Count      uint64
}

// Sample is one gathered metric value. For histograms, Buckets carries
// the cumulative bucket counts (the +Inf bucket is implicit: it equals
// Count) and Sum/Count the classic summary pair.
type Sample struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label
	Value  float64

	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Collector produces samples at scrape time. Instruments (Counter,
// Histogram) are collectors of themselves; composite collectors
// (the machine collector, store gauges) snapshot live state per scrape.
type Collector interface {
	Collect(emit func(Sample))
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(emit func(Sample))

// Collect implements Collector.
func (f CollectorFunc) Collect(emit func(Sample)) { f(emit) }

// withLabels wraps a collector so every sample it emits carries the
// extra constant labels (prepended, so a sample's own labels stay last).
// This is how one registry hosts N copies of the same metric family —
// e.g. per-shard store gauges in a cluster — without renaming anything.
func withLabels(c Collector, labels ...Label) Collector {
	if len(labels) == 0 {
		return c
	}
	return CollectorFunc(func(emit func(Sample)) {
		c.Collect(func(s Sample) {
			ls := make([]Label, 0, len(labels)+len(s.Labels))
			ls = append(ls, labels...)
			ls = append(ls, s.Labels...)
			s.Labels = ls
			emit(s)
		})
	})
}

// Registry holds collectors and gathers them into one exposition.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector

	// parent/labels implement Sub: a sub-registry holds no collectors of
	// its own, it forwards label-wrapped registrations to the root.
	parent *Registry
	labels []Label
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Sub returns a registry that forwards every Register into r with the
// given constant labels attached (on top of r's own, when r is itself a
// Sub). Code written against a plain registry — core.Store's
// RegisterMetrics, for instance — can then be instantiated N times with
// distinguishing labels: register each instance through its own Sub and
// the shared exposition keeps every series separable.
func (r *Registry) Sub(labels ...Label) *Registry {
	ls := make([]Label, 0, len(r.labels)+len(labels))
	ls = append(ls, r.labels...)
	ls = append(ls, labels...)
	return &Registry{parent: r.root(), labels: ls}
}

func (r *Registry) root() *Registry {
	if r.parent != nil {
		return r.parent
	}
	return r
}

// Register adds a collector. Name collisions are not policed: the
// exposition merges samples by name, so two collectors emitting the same
// family with different labels compose naturally.
func (r *Registry) Register(c Collector) {
	c = withLabels(c, r.labels...)
	root := r.root()
	root.mu.Lock()
	root.collectors = append(root.collectors, c)
	root.mu.Unlock()
}

// gather collects every sample, sorted by name then label signature, so
// expositions are deterministic. Gathering a Sub gathers its root: there
// is exactly one exposition per registry tree.
func (r *Registry) gather() []Sample {
	r = r.root()
	r.mu.Lock()
	cs := make([]Collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.Unlock()
	var out []Sample
	for _, c := range cs {
		c.Collect(func(s Sample) { out = append(out, s) })
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelSig(out[i].Labels) < labelSig(out[j].Labels)
	})
	return out
}

func labelSig(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// ---- Prometheus text exposition ----

// WritePrometheus renders the registry in the Prometheus text format
// (version 0.0.4): # HELP and # TYPE once per family, then one line per
// sample; histograms expand into _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastName := ""
	for _, s := range r.gather() {
		if s.Name != lastName {
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, escapeHelp(s.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Kind)
			lastName = s.Name
		}
		switch s.Kind {
		case kindHistogram:
			for _, bk := range s.Buckets {
				ls := append(append([]Label{}, s.Labels...), Label{"le", formatFloat(bk.UpperBound)})
				writeLine(&b, s.Name+"_bucket", ls, float64(bk.Count))
			}
			ls := append(append([]Label{}, s.Labels...), Label{"le", "+Inf"})
			writeLine(&b, s.Name+"_bucket", ls, float64(s.Count))
			writeLine(&b, s.Name+"_sum", s.Labels, s.Sum)
			writeLine(&b, s.Name+"_count", s.Labels, float64(s.Count))
		default:
			writeLine(&b, s.Name, s.Labels, s.Value)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeLine(b *strings.Builder, name string, labels []Label, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ---- JSON exposition ----

// jsonSample is the wire shape of one sample in the JSON exposition.
type jsonSample struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	Bounds []float64         `json:"bucket_bounds,omitempty"`
	Counts []uint64          `json:"bucket_counts,omitempty"`
}

// jsonSamples converts the gathered samples into the JSON exposition
// shape (used by WriteJSON and by tests).
func (r *Registry) jsonSamples() []jsonSample {
	samples := r.gather()
	out := make([]jsonSample, 0, len(samples))
	for _, s := range samples {
		js := jsonSample{Name: s.Name, Kind: s.Kind.String(), Value: s.Value, Sum: s.Sum, Count: s.Count}
		if len(s.Labels) > 0 {
			js.Labels = make(map[string]string, len(s.Labels))
			for _, l := range s.Labels {
				js.Labels[l.Key] = l.Value
			}
		}
		for _, bk := range s.Buckets {
			js.Bounds = append(js.Bounds, bk.UpperBound)
			js.Counts = append(js.Counts, bk.Count)
		}
		out = append(out, js)
	}
	return out
}

// writeJSONSample hand-rolls the encoding so the registry stays
// dependency-free beyond the stdlib and field order stays deterministic.
func writeJSONSample(b *strings.Builder, s jsonSample) {
	fmt.Fprintf(b, `{"name":%q,"kind":%q`, s.Name, s.Kind)
	if len(s.Labels) > 0 {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(`,"labels":{`)
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%q:%q", k, s.Labels[k])
		}
		b.WriteByte('}')
	}
	if s.Kind == kindHistogram.String() {
		fmt.Fprintf(b, `,"sum":%s,"count":%d`, jsonFloat(s.Sum), s.Count)
		b.WriteString(`,"bucket_bounds":[`)
		for i, v := range s.Bounds {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(jsonFloat(v))
		}
		b.WriteString(`],"bucket_counts":[`)
		for i, v := range s.Counts {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(v, 10))
		}
		b.WriteString(`]`)
	} else {
		fmt.Fprintf(b, `,"value":%s`, jsonFloat(s.Value))
	}
	b.WriteByte('}')
}

func jsonFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- instruments ----

// Counter is a monotonically increasing counter.
type Counter struct {
	name, help string
	labels     []Label
	v          atomic.Int64
}

// newCounter builds a counter; labels are optional name=value pairs.
func newCounter(name, help string, labels ...Label) *Counter {
	return &Counter{name: name, help: help, labels: labels}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Collect implements Collector.
func (c *Counter) Collect(emit func(Sample)) {
	emit(Sample{Name: c.name, Help: c.help, Kind: KindCounter, Labels: c.labels, Value: float64(c.v.Load())})
}

// GaugeFunc evaluates fn at every scrape — the natural shape for
// occupancy gauges over live structures (pool bytes, log cursors).
type GaugeFunc struct {
	name, help string
	labels     []Label
	fn         func() float64
}

// NewGaugeFunc builds a callback gauge.
func NewGaugeFunc(name, help string, fn func() float64, labels ...Label) *GaugeFunc {
	return &GaugeFunc{name: name, help: help, labels: labels, fn: fn}
}

// Collect implements Collector.
func (g *GaugeFunc) Collect(emit func(Sample)) {
	emit(Sample{Name: g.name, Help: g.help, Kind: KindGauge, Labels: g.labels, Value: g.fn()})
}

// Histogram counts observations into fixed buckets. Buckets are chosen
// at construction (log-scale helpers below) and never reallocated, so
// Observe is a binary search plus two atomic adds.
type Histogram struct {
	name, help string
	labels     []Label
	bounds     []float64      // ascending upper bounds
	counts     []atomic.Int64 // one per bound (non-cumulative)
	inf        atomic.Int64   // observations above the last bound
	sumBits    atomic.Uint64  // float64 bits, CAS-accumulated
	count      atomic.Int64
}

// newHistogram builds a histogram over the given ascending bucket upper
// bounds.
func newHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{name: name, help: help, labels: labels}
	h.bounds = append([]float64(nil), bounds...)
	h.counts = make([]atomic.Int64, len(bounds))
	return h
}

// DefBuckets is a log-scale default for request latencies in seconds:
// 100 µs to ~105 s in powers of two.
var DefBuckets = logBuckets(1e-4, 2, 21)

// logBuckets returns n log-scale bucket bounds: start, start*factor,
// start*factor^2, ... — the fixed log-scale buckets the paper-style
// latency and size distributions want.
func logBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: LogBuckets needs start>0, factor>1, n>=1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Collect implements Collector, emitting cumulative bucket counts.
func (h *Histogram) Collect(emit func(Sample)) {
	s := Sample{Name: h.name, Help: h.help, Kind: kindHistogram, Labels: h.labels}
	var cum uint64
	for i, b := range h.bounds {
		cum += uint64(h.counts[i].Load())
		s.Buckets = append(s.Buckets, Bucket{UpperBound: b, Count: cum})
	}
	s.Count = cum + uint64(h.inf.Load())
	s.Sum = math.Float64frombits(h.sumBits.Load())
	emit(s)
}

// HistogramVec is a histogram family keyed by one label's value —
// enough for per-endpoint latency without a full label-tuple machinery.
type HistogramVec struct {
	name, help string
	labelKey   string
	bounds     []float64

	mu   sync.Mutex
	kids map[string]*Histogram
}

// NewHistogramVec builds the family.
func NewHistogramVec(name, help, labelKey string, bounds []float64) *HistogramVec {
	return &HistogramVec{name: name, help: help, labelKey: labelKey, bounds: bounds,
		kids: make(map[string]*Histogram)}
}

// With returns (creating on first use) the child histogram for the label
// value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[value]
	if !ok {
		h = newHistogram(v.name, v.help, v.bounds, Label{v.labelKey, value})
		v.kids[value] = h
	}
	return h
}

// Collect implements Collector.
func (v *HistogramVec) Collect(emit func(Sample)) {
	v.mu.Lock()
	kids := make([]*Histogram, 0, len(v.kids))
	for _, h := range v.kids {
		kids = append(kids, h)
	}
	v.mu.Unlock()
	for _, h := range kids {
		h.Collect(emit)
	}
}

// CounterVec is a counter family keyed by one label's value.
type CounterVec struct {
	name, help string
	labelKey   string

	mu   sync.Mutex
	kids map[string]*Counter
}

// NewCounterVec builds the family.
func NewCounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{name: name, help: help, labelKey: labelKey, kids: make(map[string]*Counter)}
}

// With returns (creating on first use) the child counter.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[value]
	if !ok {
		c = newCounter(v.name, v.help, Label{v.labelKey, value})
		v.kids[value] = c
	}
	return c
}

// Collect implements Collector.
func (v *CounterVec) Collect(emit func(Sample)) {
	v.mu.Lock()
	kids := make([]*Counter, 0, len(v.kids))
	for _, c := range v.kids {
		kids = append(kids, c)
	}
	v.mu.Unlock()
	for _, c := range kids {
		c.Collect(emit)
	}
}
