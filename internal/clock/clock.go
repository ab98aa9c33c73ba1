// Package clock is the one clock policy code reads (DESIGN.md §12.5
// "Clocks"). It answers three questions — what time is it, wake me at t,
// and when is work that cost d of simulated time over — and has two
// implementations: Wall, the host clock every production pipeline runs
// on, and Virtual, a clock that moves only when its owner moves it.
//
// A Virtual clock cannot wake anyone, so it hands out no Timer, and that
// is how code learns it is stepped: whoever advances the clock also
// calls the code that would have slept on it (ingest.Pipeline.Step), on
// the owner's goroutine, at the time it asked to be woken.
//
// This file is the only place outside the allowlist in scripts/check.sh
// that may read the host clock.
package clock

import (
	"sync/atomic"
	"time"
)

// Clock is what policy code may know about time.
type Clock interface {
	// Now is the current time on this clock.
	Now() time.Time
	// Timer returns a stopped, reusable wake-up on this clock, or nil
	// when the clock only moves when its owner moves it: nothing can
	// sleep on such a clock, its owner steps the code instead.
	Timer() *Timer
	// Done reports when work that began at start and cost sim of
	// simulated time is over. On the wall clock the work took what it
	// took and is over now; on a virtual clock it is over at start+sim.
	Done(start time.Time, sim time.Duration) time.Time
}

// Timer is a reusable wake-up on the wall clock.
type Timer struct{ t *time.Timer }

// C fires once after each Reset, at the time it named.
func (t *Timer) C() <-chan time.Time { return t.t.C }

// Reset re-arms the timer to fire at the given time.
func (t *Timer) Reset(at time.Time) { t.t.Reset(time.Until(at)) }

// Stop disarms the timer.
func (t *Timer) Stop() { t.t.Stop() }

type wall struct{}

// Wall is the host clock.
func Wall() Clock { return wall{} }

func (wall) Now() time.Time { return time.Now() }

func (wall) Timer() *Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &Timer{t}
}

func (wall) Done(time.Time, time.Duration) time.Time { return time.Now() }

// Virtual is a clock its owner advances: nanoseconds since the Unix
// epoch, starting at zero. Reads are safe from any goroutine; Set belongs
// to the owner.
type Virtual struct{ ns atomic.Int64 }

// Set moves the clock to ns nanoseconds.
func (v *Virtual) Set(ns int64) { v.ns.Store(ns) }

func (v *Virtual) Now() time.Time { return time.Unix(0, v.ns.Load()) }

func (v *Virtual) Timer() *Timer { return nil }

func (v *Virtual) Done(start time.Time, sim time.Duration) time.Time { return start.Add(sim) }
