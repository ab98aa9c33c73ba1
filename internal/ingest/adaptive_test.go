package ingest

import (
	"testing"
	"time"
)

// Tuning reads the controller's three knobs as one comparable value.
func (c *controller) Tuning() tuning {
	return tuning{BatchEdges: c.curBatchEdges(), Linger: c.linger(), AdmitEdges: c.curAdmitEdges()}
}

func newTestController() *controller {
	return newController(1<<14, tuning{BatchEdges: 4096, Linger: 2 * time.Millisecond},
		AdaptiveConfig{Target: time.Millisecond})
}

// TestControllerDecreaseCascade pins the multiplicative-decrease rule:
// hold (3) consecutive over-target batches halve every knob, repeated
// congestion walks them down to their floors and no further.
func TestControllerDecreaseCascade(t *testing.T) {
	c := newTestController()
	slow := 5 * time.Millisecond

	// Two over-target batches are not enough (hold = 3).
	for i := 0; i < 2; i++ {
		if c.observe(0, slow) {
			t.Fatal("controller moved before hold consecutive signals")
		}
	}
	if !c.observe(0, slow) {
		t.Fatal("third consecutive congestion signal did not decrease")
	}
	tun := c.Tuning()
	if tun.BatchEdges != 2048 || tun.Linger != time.Millisecond || tun.AdmitEdges != 1<<13 {
		t.Fatalf("first decrease did not halve the knobs: %+v", tun)
	}

	// Sustained congestion bottoms out at the floors: minBatchEdges,
	// base.Linger/8, minAdmitFrac*queueCap.
	for i := 0; i < 60; i++ {
		c.observe(0, slow)
	}
	tun = c.Tuning()
	if tun.BatchEdges != 256 {
		t.Fatalf("BatchEdges floor: got %d, want 256", tun.BatchEdges)
	}
	if tun.Linger != 2*time.Millisecond/8 {
		t.Fatalf("Linger floor: got %v, want %v", tun.Linger, 2*time.Millisecond/8)
	}
	if tun.AdmitEdges != (1<<14)/8 {
		t.Fatalf("AdmitEdges floor: got %d, want %d", tun.AdmitEdges, (1<<14)/8)
	}
	// At the floors, further congestion is a no-op (not counted as a step).
	dec, _ := c.steps()
	for i := 0; i < 3; i++ {
		if c.observe(0, slow) {
			t.Fatal("controller claimed to move while pinned at the floors")
		}
	}
	if d, _ := c.steps(); d != dec {
		t.Fatalf("floored decreases still counted: %d -> %d", dec, d)
	}
}

// TestControllerHysteresisBand pins that batches inside the band — not
// clearly congested, not clearly idle — hold position and reset both
// streak counters.
func TestControllerHysteresisBand(t *testing.T) {
	c := newTestController()
	before := c.Tuning()

	// In-band: latency between Target/2 and Target at moderate depth.
	for i := 0; i < 20; i++ {
		if c.observe(100, 700*time.Microsecond) {
			t.Fatal("in-band batch moved the tuning")
		}
	}
	if c.Tuning() != before {
		t.Fatalf("hysteresis band did not hold position: %+v -> %+v", before, c.Tuning())
	}

	// Streak reset: 2 congestion signals, then an in-band batch, then 2
	// more congestion signals — never hold consecutive, so no movement.
	slow := 5 * time.Millisecond
	c.observe(0, slow)
	c.observe(0, slow)
	c.observe(100, 700*time.Microsecond)
	c.observe(0, slow)
	if c.observe(0, slow) {
		t.Fatal("in-band batch did not reset the congestion streak")
	}
	if c.Tuning() != before {
		t.Fatalf("broken streak still moved the tuning: %+v", c.Tuning())
	}
}

// TestControllerIncreaseToCeiling pins the additive-increase rule: after
// congestion clears, hold consecutive fast-and-shallow batches step the
// knobs back up, converging exactly to the static ceiling and never past
// it.
func TestControllerIncreaseToCeiling(t *testing.T) {
	c := newTestController()
	slow, fast := 5*time.Millisecond, 100*time.Microsecond

	// Drive all the way down...
	for i := 0; i < 60; i++ {
		c.observe(0, slow)
	}
	// ...then feed clear signals until the controller stops moving.
	moved, rounds := true, 0
	for moved && rounds < 1000 {
		moved = false
		for i := 0; i < 3; i++ {
			if c.observe(0, fast) {
				moved = true
			}
		}
		rounds++
	}
	tun := c.Tuning()
	if tun.BatchEdges != 4096 || tun.Linger != 2*time.Millisecond || tun.AdmitEdges != 1<<14 {
		t.Fatalf("recovery did not converge to the static ceiling: %+v", tun)
	}
	// Pinned at the ceiling, further clear signals are a no-op.
	_, inc := c.steps()
	for i := 0; i < 3; i++ {
		if c.observe(0, fast) {
			t.Fatal("controller exceeded or re-reported the static ceiling")
		}
	}
	if _, i2 := c.steps(); i2 != inc {
		t.Fatalf("ceiling increases still counted: %d -> %d", inc, i2)
	}
	dec, _ := c.steps()
	if dec == 0 || inc == 0 {
		t.Fatalf("steps not counted: decreases=%d increases=%d", dec, inc)
	}
}

// TestControllerDepthSignals pins that queue depth alone drives both
// directions: a deep queue is congestion even when batches are fast, and
// a clear signal requires a shallow queue even when batches are fast.
func TestControllerDepthSignals(t *testing.T) {
	c := newTestController()
	fast := 100 * time.Microsecond

	// Depth above highWater*cap (0.75 * 1<<14 = 12288) congests.
	deep := int64(13000)
	c.observe(deep, fast)
	c.observe(deep, fast)
	if !c.observe(deep, fast) {
		t.Fatal("deep queue with fast batches did not signal congestion")
	}

	// Fast batches over a queue between the watermarks are in-band: they
	// must not step back up.
	mid := int64(8000)
	before := c.Tuning()
	for i := 0; i < 10; i++ {
		if c.observe(mid, fast) {
			t.Fatal("mid-depth queue produced a clear signal")
		}
	}
	if c.Tuning() != before {
		t.Fatalf("mid-depth batches moved the tuning: %+v", c.Tuning())
	}
}

// TestNewControllerClamping pins the constructor's sanitation: AdmitEdges
// defaults to (and never exceeds) the queue capacity, and minBatchEdges
// is clamped down to the base batch size so the floor is reachable.
func TestNewControllerClamping(t *testing.T) {
	c := newController(1000, tuning{BatchEdges: 4096, Linger: time.Millisecond, AdmitEdges: 5000},
		AdaptiveConfig{})
	if got := c.curAdmitEdges(); got != 1000 {
		t.Fatalf("AdmitEdges not clamped to queueCap: got %d", got)
	}

	c = newController(1000, tuning{BatchEdges: 64, Linger: time.Millisecond}, AdaptiveConfig{})
	if got := c.curBatchEdges(); got != 64 {
		t.Fatalf("base BatchEdges not honored: got %d", got)
	}
	// With base below the minBatchEdges floor, the floor clamps
	// to base: sustained congestion must leave BatchEdges at base, not
	// try to halve below it.
	for i := 0; i < 30; i++ {
		c.observe(0, time.Minute)
	}
	if got := c.curBatchEdges(); got != 64 {
		t.Fatalf("minBatchEdges floor not clamped to base: got %d", got)
	}
}
