// Package chaos is the seeded fault model for the cluster's transport
// boundary (DESIGN.md §14). It decides the fate of every message
// delivery attempt on every link — deliver, drop, duplicate, delay, or
// partition-refuse — from a pure function of (seed, link, seq, attempt),
// the same way xpsim's FaultPlan derives tear geometry from
// (seed, event): no global state, no wall clock, so the injected fault
// sequence for a given seed is identical run to run regardless of
// goroutine interleaving. That is what makes a failing chaostest seed
// replayable.
//
// A Plan combines per-attempt probabilities (drop, duplicate, delay)
// with per-link partition windows expressed in sequence space: while a
// link's seq falls inside a window, every attempt is refused —
// modelling a network partition that heals only when the stream has
// moved past the window. Probabilistic faults are attempt-keyed, so a
// sender's retry of a dropped chunk can succeed; partition windows are
// attempt-independent, so retries during a partition always fail and
// the sender must give up and let the receiver resync.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/splitmix"
)

// Link identifies one directed transport link: a shard leader shipping
// to one of its followers. (Replica < 0 is reserved for router→shard
// links, which share the fate model.)
type Link struct {
	Shard   int
	Replica int
}

func (l Link) String() string { return fmt.Sprintf("s%d→r%d", l.Shard, l.Replica) }

// Verdict is the fate of one delivery attempt.
type Verdict int

const (
	// Deliver: the attempt goes through unharmed.
	Deliver Verdict = iota
	// Drop: the message vanishes; the sender sees a transport error.
	Drop
	// Duplicate: the message is delivered twice (the second copy after
	// a delay), and the sender sees success.
	Duplicate
	// Delay: the message is held for Plan delay duration before
	// delivery. A delay longer than the sender's call timeout surfaces
	// to the sender as an error even though the message later arrives —
	// exactly the ambiguity that forces receiver-side dedupe.
	Delay
	// Partition: the link is partitioned at this seq; every attempt is
	// refused until the stream passes the window.
	Partition
)

func (v Verdict) String() string {
	switch v {
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	case Duplicate:
		return "dup"
	case Delay:
		return "delay"
	case Partition:
		return "partition"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Window is one partition window on a link, in sequence space: attempts
// for seqs in [From, To) are refused.
type Window struct {
	Link Link
	From uint64
	To   uint64
}

// Plan is one seeded chaos schedule. The zero Plan injects nothing
// (every Fate is Deliver). Plans are safe for concurrent use; Heal
// flips the plan into a no-op atomically, which is how a harness closes
// the chaos window before asserting convergence.
type Plan struct {
	// Seed drives every fate decision.
	Seed uint64
	// DropProb, DupProb, DelayProb are per-attempt probabilities in
	// [0,1], evaluated in that order from one seeded draw.
	DropProb  float64
	DupProb   float64
	DelayProb float64
	// DelayMax bounds injected delivery delays (default 2ms). The
	// actual delay is seed-derived in [DelayMax/4, DelayMax).
	DelayMax time.Duration
	// Partitions are the scheduled partition windows.
	Partitions []Window

	healed atomic.Bool

	mu sync.Mutex
	st Stats
}

// Stats counts injected faults by verdict, for metrics and test logs.
type Stats struct {
	Attempts   int64
	Drops      int64
	Dups       int64
	Delays     int64
	Partitions int64
}

// mix folds a link, seq and attempt into one seeded draw.
func (p *Plan) mix(link Link, seq uint64, attempt int) uint64 {
	h := p.Seed
	h = splitmix.Mix(h ^ uint64(uint32(link.Shard))<<32 ^ uint64(uint32(link.Replica)))
	h = splitmix.Mix(h ^ seq)
	h = splitmix.Mix(h ^ uint64(attempt))
	return h
}

// unit maps a draw onto [0,1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Fate decides one delivery attempt (attempt is 1-based) and returns
// the verdict plus the injected delay for Delay/Duplicate verdicts.
// Pure in (plan, link, seq, attempt): the same inputs always yield the
// same verdict, so a seed fully determines the fault schedule.
func (p *Plan) Fate(link Link, seq uint64, attempt int) (Verdict, time.Duration) {
	if p == nil || p.healed.Load() {
		return Deliver, 0
	}
	p.count(func(s *Stats) { s.Attempts++ })
	for _, w := range p.Partitions {
		if w.Link == link && seq >= w.From && seq < w.To {
			p.count(func(s *Stats) { s.Partitions++ })
			return Partition, 0
		}
	}
	r := p.mix(link, seq, attempt)
	u := unit(r)
	switch {
	case u < p.DropProb:
		p.count(func(s *Stats) { s.Drops++ })
		return Drop, 0
	case u < p.DropProb+p.DupProb:
		p.count(func(s *Stats) { s.Dups++ })
		return Duplicate, p.delay(r)
	case u < p.DropProb+p.DupProb+p.DelayProb:
		p.count(func(s *Stats) { s.Delays++ })
		return Delay, p.delay(r)
	}
	return Deliver, 0
}

// delay derives a bounded delay from a fate draw.
func (p *Plan) delay(r uint64) time.Duration {
	max := p.DelayMax
	if max <= 0 {
		max = 2 * time.Millisecond
	}
	lo := max / 4
	return lo + time.Duration(splitmix.Mix(r)%uint64(max-lo))
}

// Heal closes the chaos window: every later Fate is Deliver. Used by
// harnesses to stop injection before asserting convergence.
func (p *Plan) Heal() {
	if p != nil {
		p.healed.Store(true)
	}
}

// Healed reports whether the plan has been closed.
func (p *Plan) Healed() bool { return p != nil && p.healed.Load() }

func (p *Plan) count(fn func(*Stats)) {
	p.mu.Lock()
	fn(&p.st)
	p.mu.Unlock()
}

// Snapshot reads one consistent copy of the injection counters.
func (p *Plan) Snapshot() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// RandomPartitions derives n seq-space partition windows of the given
// length for each of the links, placed deterministically from the
// plan's seed within [1, horizon]. Harnesses use it to schedule full
// partitions without hand-writing windows.
func RandomPartitions(seed uint64, links []Link, n int, length, horizon uint64) []Window {
	if horizon <= length {
		horizon = length + 1
	}
	var out []Window
	for _, l := range links {
		h := splitmix.Mix(seed ^ uint64(uint32(l.Shard))<<32 ^ uint64(uint32(l.Replica)))
		for i := 0; i < n; i++ {
			h = splitmix.Mix(h)
			from := 1 + h%(horizon-length)
			out = append(out, Window{Link: l, From: from, To: from + length})
		}
	}
	return out
}

// Parse builds a Plan from the compact schedule grammar (DESIGN.md
// §14.4):
//
//	spec    = term { "," term }
//	term    = "seed=" uint
//	        | "drop=" prob | "dup=" prob | "delay=" prob [":" duration]
//	        | "part=" count "x" length [ "@" horizon ]
//	prob    = float in [0,1]
//
// Example: "seed=7,drop=0.05,dup=0.02,delay=0.1:2ms,part=2x40@400"
// drops 5% of attempts, duplicates 2%, delays 10% by up to 2ms, and
// cuts 2 partition windows of 40 seqs per link inside the first 400
// seqs. The partition windows are materialized per link by Finish.
func Parse(spec string) (*Plan, *PartitionSpec, error) {
	p := &Plan{}
	var ps *PartitionSpec
	if strings.TrimSpace(spec) == "" {
		return p, nil, nil
	}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return nil, nil, fmt.Errorf("chaos: bad term %q (want key=value)", term)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("chaos: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "drop", "dup", "delay":
			probStr := val
			if key == "delay" {
				if ps, ds, ok := strings.Cut(val, ":"); ok {
					probStr = ps
					d, err := time.ParseDuration(ds)
					if err != nil {
						return nil, nil, fmt.Errorf("chaos: bad delay bound %q: %v", ds, err)
					}
					p.DelayMax = d
				}
			}
			f, err := strconv.ParseFloat(probStr, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, nil, fmt.Errorf("chaos: bad probability %q for %s", probStr, key)
			}
			switch key {
			case "drop":
				p.DropProb = f
			case "dup":
				p.DupProb = f
			case "delay":
				p.DelayProb = f
			}
		case "part":
			spec, horizon := val, uint64(4096)
			if body, hs, ok := strings.Cut(val, "@"); ok {
				spec = body
				h, err := strconv.ParseUint(hs, 10, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("chaos: bad partition horizon %q: %v", hs, err)
				}
				horizon = h
			}
			cs, ls, ok := strings.Cut(spec, "x")
			if !ok {
				return nil, nil, fmt.Errorf("chaos: bad partition spec %q (want COUNTxLENGTH)", val)
			}
			count, err1 := strconv.Atoi(cs)
			length, err2 := strconv.ParseUint(ls, 10, 64)
			if err1 != nil || err2 != nil || count < 0 || length == 0 {
				return nil, nil, fmt.Errorf("chaos: bad partition spec %q", val)
			}
			ps = &PartitionSpec{Count: count, Length: length, Horizon: horizon}
		default:
			return nil, nil, fmt.Errorf("chaos: unknown term %q", key)
		}
	}
	return p, ps, nil
}

// PartitionSpec is a parsed-but-unmaterialized partition schedule: the
// links are only known once the cluster shape is. Finish attaches the
// concrete windows to the plan.
type PartitionSpec struct {
	Count   int
	Length  uint64
	Horizon uint64
}

// Finish materializes the spec's windows over links onto p.
func (s *PartitionSpec) Finish(p *Plan, links []Link) {
	if s == nil || p == nil {
		return
	}
	p.Partitions = append(p.Partitions, RandomPartitions(p.Seed, links, s.Count, s.Length, s.Horizon)...)
}
