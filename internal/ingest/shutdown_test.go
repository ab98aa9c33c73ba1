package ingest

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// hookApplier lets a test block inside Apply or Scrub to pin down how
// the writer goroutine interleaves background work with shutdown.
type hookApplier struct {
	fakeApplier
	onApply func()
	onScrub func()
}

func (a *hookApplier) Apply(chunk []graph.Edge) (int64, uint64, error) {
	if a.onApply != nil {
		a.onApply()
	}
	return a.fakeApplier.Apply(chunk)
}

func (a *hookApplier) Scrub() {
	if a.onScrub != nil {
		a.onScrub()
	}
	a.fakeApplier.Scrub()
}

// TestShutdownWaitsForInFlightScrub is the satellite-4 regression test
// at the pipeline layer: a graceful Shutdown that lands while a
// background scrub is mid-flight must wait for the scrub to finish (it
// runs on the writer goroutine, holding the store's exclusive work),
// and the final drain Flush must run after it — never concurrently.
func TestShutdownWaitsForInFlightScrub(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	ap := &hookApplier{onScrub: func() {
		started <- struct{}{}
		<-release
	}}
	p := New(Config{ScrubEvery: time.Millisecond}, ap)
	p.Start()

	// Wait for a background scrub to begin, then ask for a graceful
	// shutdown while it is still blocked.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("background scrub never started")
	}
	done := make(chan struct{})
	go func() {
		p.Shutdown()
		close(done)
	}()

	// Shutdown must not return while the scrub is in flight.
	select {
	case <-done:
		t.Fatal("Shutdown returned while a scrub was still running")
	case <-time.After(20 * time.Millisecond):
	}
	if _, _, flushes := ap.snapshot(); flushes != 0 {
		t.Fatalf("drain Flush ran while the scrub was still in flight (%d flushes)", flushes)
	}

	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the scrub finished")
	}

	ap.mu.Lock()
	scrubs, flushes := ap.scrubs, ap.flushes
	ap.mu.Unlock()
	if scrubs == 0 {
		t.Fatal("scrub count lost")
	}
	if flushes != 1 {
		t.Fatalf("graceful drain ran %d final flushes, want exactly 1", flushes)
	}
	// The pipeline is fully stopped: no late ticks can fire more scrubs.
	time.Sleep(5 * time.Millisecond)
	ap.mu.Lock()
	after := ap.scrubs
	ap.mu.Unlock()
	if after != scrubs {
		t.Fatalf("scrubs kept running after Shutdown returned: %d -> %d", scrubs, after)
	}
}

// TestDrainCancelsPendingScrubTick pins the other half of the fix: a
// scrub tick that becomes runnable only after draining has begun is
// cancelled, not started — the drain must not queue minutes of
// exclusive-lock scrub work behind an already-decided shutdown. Only
// scrubs that start once draining has begun count: a 200 µs tick may come
// due, and rightly run, before the first Enqueue reaches the writer or
// between it and the Apply.
func TestDrainCancelsPendingScrubTick(t *testing.T) {
	applyStarted := make(chan struct{})
	applyRelease := make(chan struct{})
	var p *Pipeline
	var late atomic.Int64 // scrubs started after SetDraining
	ap := &hookApplier{onApply: func() {
		applyStarted <- struct{}{}
		<-applyRelease
	}, onScrub: func() {
		if p.Draining() {
			late.Add(1)
		}
	}}
	p = New(Config{ScrubEvery: 200 * time.Microsecond}, ap)
	p.Start()

	// Occupy the writer goroutine in a long Apply so scrub ticks pile up
	// behind it, then start draining before the writer gets back to the
	// select loop.
	req := NewRequest(edges(8))
	if err := p.Enqueue(req); err != nil {
		t.Fatal(err)
	}
	select {
	case <-applyStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("apply never started")
	}
	time.Sleep(2 * time.Millisecond) // several scrub ticks are now pending
	p.SetDraining()
	close(applyRelease)
	if res := <-req.Done(); res.Err != nil {
		t.Fatalf("drained write failed: %v", res.Err)
	}
	// Give the writer a chance to (incorrectly) pick up the pending tick
	// before the stop channel closes.
	time.Sleep(2 * time.Millisecond)
	p.Shutdown()

	ap.mu.Lock()
	flushes := ap.flushes
	ap.mu.Unlock()
	if n := late.Load(); n != 0 {
		t.Fatalf("%d scrubs started after draining began; want 0", n)
	}
	if flushes != 1 {
		t.Fatalf("graceful drain ran %d final flushes, want exactly 1", flushes)
	}
}
