package ingest

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/graph"
)

// stepApplier is the store side of a stepped pipeline under test: every
// chunk costs 100 simulated ns an edge, call number failAt (1-based)
// fails, and the sizes of the chunks applied since the last take are
// kept.
type stepApplier struct {
	chunks  []int
	calls   int
	failAt  int
	flushes int
}

func (a *stepApplier) Apply(chunk []graph.Edge) (int64, uint64, error) {
	a.calls++
	if a.calls == a.failAt {
		return 0, 0, errors.New("media gone")
	}
	a.chunks = append(a.chunks, len(chunk))
	return int64(len(chunk)) * 100, uint64(a.calls), nil
}

func (a *stepApplier) Flush() { a.flushes++ }
func (a *stepApplier) Scrub() {}

func (a *stepApplier) take() []int {
	c := a.chunks
	a.chunks = nil
	return c
}

// TestStep drives the pipeline's writer by hand on a virtual clock — no
// goroutine, no sleep — and pins, event by event, what one Step applies,
// when it asks to run next, and the queue depth it leaves. A full
// 64-edge chunk costs 6.4 µs; the linger is 1 ms.
func TestStep(t *testing.T) {
	const (
		us    = time.Microsecond
		never = time.Duration(-1)
	)
	type event struct {
		at       time.Duration // virtual time of the event
		enqueue  int           // edges of a request enqueued before stepping; 0 = none
		shutdown bool          // Shutdown() in place of Step()
		applied  []int         // chunk sizes this event must apply
		wake     time.Duration // when Step must ask to run next
		queued   int64         // Stats().Queued afterwards
	}
	type outcome struct {
		batches int64
		failed  bool
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		failAt   int
		events   []event
		requests []outcome // one per enqueue, in order
		flushes  int
		dropped  int64
	}{
		{
			name: "a batch below BatchEdges waits out its linger and not a step less",
			events: []event{
				{at: 0, enqueue: 10, wake: 1000 * us, queued: 10},
				{at: 500 * us, wake: 1000 * us, queued: 10},
				{at: 1000 * us, applied: []int{10}, wake: 1001 * us},
				{at: 1001 * us, wake: never},
			},
			requests: []outcome{{batches: 1}},
		},
		{
			name: "a batch closes the moment it reaches BatchEdges, linger or not",
			events: []event{
				{at: 0, enqueue: 40, wake: 1000 * us, queued: 40},
				{at: 100 * us, enqueue: 30, applied: []int{64}, wake: 100*us + 6400, queued: 6},
				{at: 100*us + 6400, applied: []int{6}, wake: 100*us + 7000},
			},
			// The first chunk ends inside the second request.
			requests: []outcome{{batches: 1}, {batches: 2}},
		},
		{
			name: "two arrivals inside one linger share a batch",
			events: []event{
				{at: 0, enqueue: 10, wake: 1000 * us, queued: 10},
				{at: 300 * us, enqueue: 20, wake: 1000 * us, queued: 30},
				{at: 1000 * us, applied: []int{30}, wake: 1003 * us},
			},
			requests: []outcome{{batches: 1}, {batches: 1}},
		},
		{
			name: "a request of BatchEdges or more never lingers, and Queued falls only as chunks apply",
			events: []event{
				{at: 0, enqueue: 200, applied: []int{64}, wake: 6400, queued: 136},
				{at: 6400, applied: []int{64}, wake: 12800, queued: 72},
				{at: 12800, applied: []int{64}, wake: 19200, queued: 8},
				{at: 19200, applied: []int{8}, wake: 20000},
			},
			requests: []outcome{{batches: 4}},
		},
		{
			name: "BatchEdges is re-read per chunk: a decrease mid-request shortens the next window",
			// Every chunk overruns the 1 µs target, so every third (hold)
			// halves the cap, down to the 256-edge floor.
			cfg: Config{BatchEdges: 1024, Adaptive: &AdaptiveConfig{Target: us}},
			events: []event{
				{at: 0, enqueue: 4864, applied: []int{1024}, wake: 102400, queued: 3840},
				{at: 102400, applied: []int{1024}, wake: 204800, queued: 2816},
				{at: 204800, applied: []int{1024}, wake: 307200, queued: 1792},
				{at: 307200, applied: []int{512}, wake: 358400, queued: 1280},
				{at: 358400, applied: []int{512}, wake: 409600, queued: 768},
				{at: 409600, applied: []int{512}, wake: 460800, queued: 256},
				{at: 460800, applied: []int{256}, wake: 486400},
			},
			requests: []outcome{{batches: 7}},
		},
		{
			name: "a busy writer defers the next batch to the end of the current window",
			events: []event{
				{at: 0, enqueue: 64, applied: []int{64}, wake: 6400},
				{at: 1000, enqueue: 64, wake: 6400, queued: 64},
				{at: 6400, applied: []int{64}, wake: 12800},
			},
			requests: []outcome{{batches: 1}, {batches: 1}},
		},
		{
			name: "the test-only BatchDelay pauses between chunks on the same clock",
			cfg:  Config{BatchDelay: 50 * us},
			events: []event{
				{at: 0, enqueue: 100, applied: []int{64}, wake: 6400 + 50*us, queued: 36},
				{at: 6400, wake: 6400 + 50*us, queued: 36},
				{at: 6400 + 50*us, applied: []int{36}, wake: 10000 + 50*us},
			},
			requests: []outcome{{batches: 2}},
		},
		{
			name: "Shutdown drains through the same step, without lingering, and flushes once",
			events: []event{
				{at: 0, enqueue: 10, wake: 1000 * us, queued: 10},
				{at: 10 * us, enqueue: 100, applied: []int{64}, wake: 16400, queued: 46},
				{at: 12 * us, enqueue: 5, wake: 16400, queued: 51},
				{at: 12 * us, shutdown: true, applied: []int{46, 5}},
			},
			requests: []outcome{{batches: 1}, {batches: 2}, {batches: 1}},
			flushes:  1,
		},
		{
			name:   "an Apply error drops the rest of the batch and answers every waiter in it",
			cfg:    Config{BatchEdges: 128},
			failAt: 2,
			events: []event{
				{at: 0, enqueue: 100, wake: 1000 * us, queued: 100},
				{at: 10 * us, enqueue: 60, applied: []int{128}, wake: 10*us + 12800, queued: 32},
				// Queued behind the batch, not in it: untouched by its failure.
				{at: 20 * us, enqueue: 7, wake: 10*us + 12800, queued: 39},
				{at: 10*us + 12800, wake: 10*us + 12800, queued: 7},
				{at: 10*us + 12800, wake: 1010*us + 12800, queued: 7},
				{at: 1010*us + 12800, applied: []int{7}, wake: 1010*us + 13500},
			},
			requests: []outcome{{batches: 1}, {batches: 1, failed: true}, {batches: 1}},
			dropped:  32,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &clock.Virtual{}
			ap := &stepApplier{failAt: tc.failAt}
			cfg := tc.cfg
			cfg.Clock = clk
			if cfg.BatchEdges == 0 {
				cfg.BatchEdges = 64
			}
			cfg.Linger = time.Millisecond
			p := New(cfg, ap)
			p.Start() // stepped: launches nothing

			var reqs []*Request
			for i, ev := range tc.events {
				clk.Set(int64(ev.at))
				if ev.enqueue > 0 {
					req := NewRequest(edges(ev.enqueue))
					if err := p.Enqueue(req); err != nil {
						t.Fatalf("event %d: enqueue: %v", i, err)
					}
					reqs = append(reqs, req)
				}
				if ev.shutdown {
					p.Shutdown()
				} else {
					wake, want := p.Step(), time.Time{}
					if ev.wake != never {
						want = time.Unix(0, int64(ev.wake))
					}
					if !wake.Equal(want) {
						t.Errorf("event %d at %v: Step asks to run at %v, want %v", i, ev.at,
							time.Duration(wake.UnixNano()), ev.wake)
					}
				}
				if got := ap.take(); !slices.Equal(got, ev.applied) {
					t.Errorf("event %d at %v: applied chunks %v, want %v", i, ev.at, got, ev.applied)
				}
				if got := p.Stats().Queued; got != ev.queued {
					t.Errorf("event %d at %v: %d edges queued, want %d", i, ev.at, got, ev.queued)
				}
			}

			for i, want := range tc.requests {
				select {
				case res := <-reqs[i].Done():
					if (res.Err != nil) != want.failed || res.Batches != want.batches {
						t.Errorf("request %d: %+v, want %d batches, failed=%v", i, res, want.batches, want.failed)
					}
					if !want.failed && res.Accepted != int64(len(reqs[i].edges)) {
						t.Errorf("request %d: accepted %d of %d edges", i, res.Accepted, len(reqs[i].edges))
					}
				default:
					t.Errorf("request %d was never answered", i)
				}
			}
			st := p.Stats()
			if ap.flushes != tc.flushes || st.EdgesDropped != tc.dropped {
				t.Errorf("%d flushes and %d edges dropped, want %d and %d", ap.flushes, st.EdgesDropped, tc.flushes, tc.dropped)
			}
			if st.EdgesAccepted != st.EdgesApplied+st.EdgesDropped+st.Queued {
				t.Errorf("accepted %d != applied %d + dropped %d + queued %d",
					st.EdgesAccepted, st.EdgesApplied, st.EdgesDropped, st.Queued)
			}
			if tc.flushes > 0 {
				if err := p.Enqueue(NewRequest(edges(1))); !errors.Is(err, ErrShuttingDown) {
					t.Errorf("enqueue after Shutdown = %v, want ErrShuttingDown", err)
				}
			}
		})
	}
}
