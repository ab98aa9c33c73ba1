package cluster

import (
	"testing"
	"time"
)

// TestBreakerStateMachine pins the per-shard failure-shedding policy:
// breakerThreshold (3) consecutive media failures open the breaker, the cooldown
// admits a half-open probe, a failed probe re-opens immediately, a
// successful one closes and resets the streak.
func TestBreakerStateMachine(t *testing.T) {
	b := breaker{cooldown: time.Second}
	t0 := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		b.recordFailure(t0)
	}
	if ok, _ := b.allow(t0); !ok {
		t.Fatal("breaker opened before the threshold")
	}
	b.recordFailure(t0) // third consecutive failure trips it
	if ok, wait := b.allow(t0); ok || wait <= 0 {
		t.Fatalf("breaker should be open: ok=%v wait=%v", ok, wait)
	}
	if v := b.view(t0); !v.Open || v.Trips != 1 || v.Rejected != 1 {
		t.Fatalf("view = %+v", v)
	}

	// After the cooldown a half-open probe is admitted; its failure
	// re-opens immediately, without a fresh threshold's worth of failures.
	t1 := t0.Add(2 * time.Second)
	if ok, _ := b.allow(t1); !ok {
		t.Fatal("half-open probe refused after cooldown")
	}
	b.noteAdmit() // the probe is past the queue; that is not what media failures wait for
	if v := b.view(t1); v.Closes != 0 {
		t.Fatal("an admitted probe closed a breaker that media failures opened")
	}
	b.recordFailure(t1)
	if ok, _ := b.allow(t1); ok {
		t.Fatal("breaker should re-open on a failed half-open probe")
	}

	// A successful probe closes it fully.
	t2 := t1.Add(2 * time.Second)
	if ok, _ := b.allow(t2); !ok {
		t.Fatal("second probe refused")
	}
	b.recordSuccess()
	if v := b.view(t2); v.Open {
		t.Fatal("breaker still open after a successful probe")
	}
	b.recordFailure(t2)
	b.recordFailure(t2)
	if ok, _ := b.allow(t2); !ok {
		t.Fatal("failure streak should have reset on success")
	}
}
