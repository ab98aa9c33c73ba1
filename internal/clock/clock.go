// Package clock is the one clock policy code reads (DESIGN.md §12.5
// "Clocks"). It answers three questions — what time is it, wake me at t,
// and when is work that cost d of simulated time over — and has two
// implementations: Wall, the host clock every production pipeline runs
// on, and Virtual, a clock that moves only when its owner moves it.
//
// A Virtual clock cannot wake anyone, so it hands out no Timer, and that
// is how code learns it is stepped: whoever advances the clock also
// calls the code that would have slept on it (ingest.Pipeline.Step,
// cluster.Shard.Step), on the owner's goroutine, at the time it asked to
// be woken. On the wall clock the same step runs under Timer.Drive.
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

// Timer is a wake-up on the wall clock, for one Drive.
type Timer struct{ t *time.Timer }

// Drive is the wall clock's driver of a resumable step: on its own
// goroutine it calls step, sleeps until the wake time step returned (the
// zero time: until a kick) or a kick, and calls it again, until step
// reports done. The returned channel is closed once it has.
func (t *Timer) Drive(kick <-chan struct{}, step func() (wake time.Time, done bool)) <-chan struct{} {
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer t.t.Stop()
		for {
			wake, done := step()
			if done {
				return
			}
			var at <-chan time.Time
			if !wake.IsZero() {
				d := time.Until(wake)
				if d <= 0 {
					continue
				}
				t.t.Reset(d)
				at = t.t.C
			}
			select {
			case <-kick:
			case <-at:
			}
		}
	}()
	return exited
}

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
