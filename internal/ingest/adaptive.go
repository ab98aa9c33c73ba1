// Adaptive admission control: an AIMD controller with hysteresis that
// tunes the pipeline's batching and admission knobs from what the writer
// actually observes — applied-batch latency and queue depth — instead of
// trusting the static Config values under every load shape.
//
// The control loop (DESIGN.md §12.3):
//
//   - congestion signal: an applied batch ran longer than the target
//     latency, or the queue sits above the high-water mark. Hold
//     consecutive signals halve BatchEdges, Linger, and the 429
//     admission threshold (multiplicative decrease) — shorter write
//     windows mean readers wait less behind the exclusive lock, and a
//     lower admission threshold sheds load before the queue drowns.
//   - clear signal: a batch finished well under target with the queue
//     near empty. Hold consecutive signals step every knob an additive
//     increment back toward its static configured value.
//   - anything in between is the hysteresis band: both counters reset,
//     nothing moves. The Hold requirement plus the band keep the
//     controller from flapping on a single outlier batch.
//
// The static Config values are the ceiling: under light load the
// controller converges back to them and behaves exactly like a static
// pipeline. It only ever tunes *down* from there, so enabling it cannot
// make an uncongested deployment slower.
package ingest

import (
	"sync"
	"sync/atomic"
	"time"
)

// tuning is the dynamic knob set the controller manages. The pipeline
// reads it before every gather and admission check.
type tuning struct {
	// BatchEdges caps one write window (one Applier.Apply call).
	BatchEdges int
	// Linger is how long a partial batch waits for company.
	Linger time.Duration
	// AdmitEdges is the 429 admission threshold: a write is shed once
	// queued+new exceeds it. At most the queue capacity.
	AdmitEdges int
}

// AdaptiveConfig tunes the controller. Zero fields take the defaults.
type AdaptiveConfig struct {
	// Target is the applied-batch latency the controller steers toward;
	// batches slower than it signal congestion (default 2ms). It is on
	// the pipeline's clock: host latency on the wall clock, the batch's
	// simulated cost on a virtual one.
	Target time.Duration
	// LowWater and HighWater bound the hysteresis band as fractions of
	// the queue capacity: depth above HighWater*cap signals congestion,
	// and a clear signal additionally needs depth below LowWater*cap
	// (defaults 0.25 and 0.75).
	LowWater, HighWater float64
	// MinBatchEdges floors the multiplicative decrease (default 256).
	MinBatchEdges int
	// MinAdmitFrac floors the admission threshold as a fraction of the
	// queue capacity (default 1/8).
	MinAdmitFrac float64
	// Hold is how many consecutive same-direction signals are required
	// before the controller acts (default 3).
	Hold int
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Target <= 0 {
		c.Target = 2 * time.Millisecond
	}
	if c.LowWater <= 0 {
		c.LowWater = 0.25
	}
	if c.HighWater <= 0 {
		c.HighWater = 0.75
	}
	if c.MinBatchEdges <= 0 {
		c.MinBatchEdges = 256
	}
	if c.MinAdmitFrac <= 0 {
		c.MinAdmitFrac = 0.125
	}
	if c.Hold <= 0 {
		c.Hold = 3
	}
	return c
}

// controller is the AIMD admission controller. observe runs on the
// pipeline's single writer; the knob reads are lock-free atomics so
// admission checks on request goroutines never contend with it.
type controller struct {
	cfg      AdaptiveConfig
	queueCap int
	base     tuning // the static configured ceiling

	batchEdges atomic.Int64
	lingerNs   atomic.Int64
	admitEdges atomic.Int64

	mu               sync.Mutex
	congestN, clearN int
	decreases        atomic.Int64
	increases        atomic.Int64
}

// newController builds a controller starting at the static ceiling
// (base), which it never exceeds. queueCap bounds AdmitEdges.
func newController(queueCap int, base tuning, cfg AdaptiveConfig) *controller {
	cfg = cfg.withDefaults()
	if base.AdmitEdges <= 0 || base.AdmitEdges > queueCap {
		base.AdmitEdges = queueCap
	}
	if base.BatchEdges < cfg.MinBatchEdges {
		cfg.MinBatchEdges = base.BatchEdges
	}
	c := &controller{cfg: cfg, queueCap: queueCap, base: base}
	c.batchEdges.Store(int64(base.BatchEdges))
	c.lingerNs.Store(int64(base.Linger))
	c.admitEdges.Store(int64(base.AdmitEdges))
	return c
}

// curBatchEdges reads the current write-window cap.
func (c *controller) curBatchEdges() int { return int(c.batchEdges.Load()) }

// linger reads the current batching linger.
func (c *controller) linger() time.Duration { return time.Duration(c.lingerNs.Load()) }

// curAdmitEdges reads the current 429 admission threshold.
func (c *controller) curAdmitEdges() int { return int(c.admitEdges.Load()) }

// steps reports how many multiplicative decreases and additive
// increases the controller has taken.
func (c *controller) steps() (decreases, increases int64) {
	return c.decreases.Load(), c.increases.Load()
}

// observe feeds one applied batch: the queue depth after it drained and
// its latency on the pipeline's clock. Returns true when the tuning
// moved.
func (c *controller) observe(queued int64, latency time.Duration) bool {
	congested := latency > c.cfg.Target ||
		float64(queued) > c.cfg.HighWater*float64(c.queueCap)
	clear := latency < c.cfg.Target/2 &&
		float64(queued) < c.cfg.LowWater*float64(c.queueCap)

	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case congested:
		c.congestN++
		c.clearN = 0
		if c.congestN >= c.cfg.Hold {
			c.congestN = 0
			return c.decrease()
		}
	case clear:
		c.clearN++
		c.congestN = 0
		if c.clearN >= c.cfg.Hold {
			c.clearN = 0
			return c.increase()
		}
	default:
		// Hysteresis band: hold position.
		c.congestN, c.clearN = 0, 0
	}
	return false
}

// decrease halves every knob toward its floor. Called under mu.
func (c *controller) decrease() bool {
	minAdmit := max(1, int64(c.cfg.MinAdmitFrac*float64(c.queueCap)))
	moved := halve(&c.batchEdges, int64(c.cfg.MinBatchEdges))
	moved = halve(&c.lingerNs, int64(c.base.Linger/8)) || moved
	moved = halve(&c.admitEdges, minAdmit) || moved
	if moved {
		c.decreases.Add(1)
	}
	return moved
}

// increase steps every knob an additive increment — an eighth of its
// configured value — back toward the static ceiling. Called under mu.
func (c *controller) increase() bool {
	moved := raise(&c.batchEdges, int64(c.base.BatchEdges/8), int64(c.base.BatchEdges))
	moved = raise(&c.lingerNs, int64(c.base.Linger/8), int64(c.base.Linger)) || moved
	moved = raise(&c.admitEdges, int64(c.queueCap/8), int64(c.base.AdmitEdges)) || moved
	if moved {
		c.increases.Add(1)
	}
	return moved
}

// halve halves one knob, not below floor; false when it was there already.
func halve(knob *atomic.Int64, floor int64) bool {
	v := knob.Load()
	if v <= floor {
		return false
	}
	knob.Store(max(v/2, floor))
	return true
}

// raise adds step (at least 1) to one knob, not above ceil; false when it
// was there already.
func raise(knob *atomic.Int64, step, ceil int64) bool {
	v := knob.Load()
	if v >= ceil {
		return false
	}
	knob.Store(min(v+max(step, 1), ceil))
	return true
}
