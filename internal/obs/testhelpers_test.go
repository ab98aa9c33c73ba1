package obs

import (
	"io"
	"math"
	"strings"
	"sync/atomic"
)

// WriteJSON renders the registry as a JSON document:
// {"metrics":[{name, kind, labels, value | sum/count/buckets}, ...]}.
func (r *Registry) WriteJSON(w io.Writer) error {
	samples := r.jsonSamples()
	var b strings.Builder
	b.WriteString(`{"metrics":[`)
	for i, s := range samples {
		if i > 0 {
			b.WriteByte(',')
		}
		writeJSONSample(&b, s)
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Add adds n (must be >= 0; negative deltas are ignored to keep the
// counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// gauge is a settable value.
type gauge struct {
	name, help string
	labels     []Label
	bits       atomic.Uint64
}

// NewGauge builds a gauge.
func NewGauge(name, help string, labels ...Label) *gauge {
	return &gauge{name: name, help: help, labels: labels}
}

// Set stores v.
func (g *gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// value reports the current value.
func (g *gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

// Collect implements Collector.
func (g *gauge) Collect(emit func(Sample)) {
	emit(Sample{Name: g.name, Help: g.help, Kind: KindGauge, Labels: g.labels, Value: g.value()})
}
