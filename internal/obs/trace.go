package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Well-known trace lanes (Chrome tid values). One lane per pipeline
// phase reproduces the Fig. 3a phase split visually; per-worker lanes
// start at LaneWorkerBase.
const (
	LaneLogging    = 1
	LaneBuffering  = 2
	LaneFlushing   = 3
	LaneCompaction = 4
	LaneRecovery   = 5
	LaneArchive    = 6 // GraphOne's combined buffering+flushing archive phase
	LaneWorkerBase = 16
)

// laneNames labels the fixed lanes in trace viewers via thread_name
// metadata events.
var laneNames = map[int64]string{
	LaneLogging:    "logging",
	LaneBuffering:  "buffering",
	LaneFlushing:   "flushing",
	LaneCompaction: "compaction",
	LaneRecovery:   "recovery",
	LaneArchive:    "archive",
}

// Span is one completed phase on the simulated clock. StartNs/DurNs are
// simulated nanoseconds (xpsim.Ctx cost), not host time: the trace
// reconstructs the timeline the cost model computed, which is the
// timeline the paper's figures are drawn in.
type Span struct {
	Name    string `json:"name"`
	Cat     string `json:"cat,omitempty"`
	Lane    int64  `json:"lane"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// Tracer records spans into a bounded ring. The zero value is unusable;
// build one with NewTracer. A nil *Tracer is the disabled fast path:
// every method nil-checks first, so instrumented hot loops pay one
// predictable branch when tracing is off.
type Tracer struct {
	mu      sync.Mutex
	ring    []Span
	next    int   // ring write position
	filled  bool  // ring has wrapped at least once
	dropped int64 // spans overwritten after the ring wrapped
}

// defaultRingSpans bounds the span ring when callers pass cap <= 0.
const defaultRingSpans = 4096

// NewTracer builds a tracer holding the most recent capSpans spans
// (defaultRingSpans if capSpans <= 0).
func NewTracer(capSpans int) *Tracer {
	if capSpans <= 0 {
		capSpans = defaultRingSpans
	}
	return &Tracer{ring: make([]Span, 0, capSpans)}
}

// Emit records one span. Nil-safe no-op when the tracer is disabled.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.filled = true
		t.dropped++
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.mu.Unlock()
}

// EmitPhase is the common-case helper: one span of dur simulated ns
// starting at startNs on the given lane.
func (t *Tracer) EmitPhase(name string, lane int64, startNs, durNs int64) {
	if t == nil {
		return
	}
	t.Emit(Span{Name: name, Cat: "phase", Lane: lane, StartNs: startNs, DurNs: durNs})
}

// Len reports the number of buffered spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Dropped reports how many spans were overwritten because the ring
// wrapped.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns the buffered spans oldest-first without clearing.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.orderedLocked()
}

// Drain returns the buffered spans oldest-first and clears the ring —
// the GET /v1/trace contract: each scrape hands the caller everything
// recorded since the previous one.
func (t *Tracer) Drain() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.orderedLocked()
	t.ring = t.ring[:0]
	t.next = 0
	t.filled = false
	return out
}

func (t *Tracer) orderedLocked() []Span {
	out := make([]Span, 0, len(t.ring))
	if t.filled {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// WriteChromeTrace renders spans as a Chrome trace-event JSON array
// (the "JSON array format" chrome://tracing and Perfetto load
// directly): one complete event (ph "X") per span with ts/dur in
// microseconds, plus thread_name metadata events (ph "M") naming the
// fixed lanes. All events use pid 0 — there is one simulated process.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	var b strings.Builder
	b.WriteString("[")
	first := true
	emit := func(s string) {
		if !first {
			b.WriteString(",\n")
		} else {
			b.WriteString("\n")
			first = false
		}
		b.WriteString(s)
	}
	lanes := map[int64]bool{}
	for _, s := range spans {
		lanes[s.Lane] = true
	}
	for lane, name := range laneNames {
		if lanes[lane] {
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":%d,"args":{"name":%q}}`, lane, name))
		}
	}
	for _, s := range spans {
		cat := s.Cat
		if cat == "" {
			cat = "phase"
		}
		emit(fmt.Sprintf(`{"name":%q,"cat":%q,"ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d}`,
			s.Name, cat, microseconds(s.StartNs), microseconds(s.DurNs), s.Lane))
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// microseconds formats simulated ns as a decimal µs value without
// losing sub-µs precision.
func microseconds(ns int64) string {
	whole := ns / 1000
	frac := ns % 1000
	if frac == 0 {
		return fmt.Sprintf("%d", whole)
	}
	return fmt.Sprintf("%d.%03d", whole, frac)
}
