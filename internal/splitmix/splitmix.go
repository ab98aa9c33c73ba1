// Package splitmix is the repo's one deterministic PRNG: Steele, Lea and
// Flood's SplitMix64. Every seeded, replayable thing here — workload
// generators, fault plans, chaos fates, soak scenarios, jitter — draws
// from it, so a printed seed replays bit for bit. math/rand is avoided on
// purpose: no global state, and edge generation dominates workload setup.
package splitmix

// Mix is one SplitMix64 step from state x: advance by the golden-ratio
// increment, then run the 64-bit finalizer. As a pure function it doubles
// as the repo's seed-expansion hash (Mix(seed ^ term)).
func Mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Rand is a SplitMix64 stream; seed it by conversion: splitmix.Rand(seed).
type Rand uint64

// Next returns the stream's next 64 bits.
func (r *Rand) Next() uint64 {
	out := Mix(uint64(*r))
	*r += 0x9E3779B97F4A7C15
	return out
}

// Float returns a uniform float64 in [0,1).
func (r *Rand) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }
