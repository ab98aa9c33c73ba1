package xpsim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/splitmix"
)

// This file implements crash-point fault injection for the simulated
// Optane devices. The device model distinguishes two persistence domains:
// the 3D-XPoint media (durable) and the XPBuffer (volatile unless the
// platform has eADR). By default the simulator behaves as eADR — every
// write that reached the backing store survives. With fault tracking
// enabled the machine additionally maintains a *durable image* per device
// that is only updated at media-write events: dirty-line evictions,
// explicit clwb flushes, and drains. XPBuffer-resident lines that were
// never written back are simply absent from the durable image — exactly
// the data an ADR platform loses on power failure.
//
// A FaultPlan then selects a crash point: either the Nth media write
// after arming, or the Kth hit of a named crash-site hook (see
// Machine.CrashPoint). At the crash point the durable image freezes; the
// in-flight XPLine of a media-write kill can additionally be torn at
// 8-byte granularity (powerfail store atomicity), persisting a prefix or
// a pseudo-random interleave of old and new words. The live simulation
// continues unharmed — the harness later snapshots the frozen image
// (pmem.Heap.CrashClone) and recovers from it.

// TearMode selects what happens to the XPLine whose media write triggers
// the crash.
type TearMode int

const (
	// TearNone drops the in-flight line entirely: the crash happens just
	// before the Nth media write completes.
	TearNone TearMode = iota
	// TearPrefix persists only the first k 8-byte words of the line
	// (k derived from the plan seed); the rest keeps its old contents.
	TearPrefix
	// TearWords persists a seed-derived subset of the line's 8-byte
	// words, interleaving new and stale data.
	TearWords
)

func (t TearMode) String() string {
	switch t {
	case TearNone:
		return "none"
	case TearPrefix:
		return "prefix"
	case TearWords:
		return "words"
	}
	return fmt.Sprintf("TearMode(%d)", int(t))
}

// FaultPlan describes one injected crash. The zero plan never crashes
// (useful for probe runs that count media writes and crash-site hits).
type FaultPlan struct {
	// KillAtMediaWrite crashes at the Nth media-write event after the
	// plan is armed (1-based; 0 disables media-write kills). The Nth
	// line itself is dropped or torn per Tear; writes 1..N-1 persist.
	KillAtMediaWrite int64
	// KillAtSite crashes at a named crash-site hook (Machine.CrashPoint).
	// Empty disables site kills.
	KillAtSite string
	// KillAtSiteHit selects which hit of KillAtSite kills (1-based;
	// 0 means the first hit).
	KillAtSiteHit int64
	// Tear selects the in-flight-line behaviour for media-write kills.
	Tear TearMode
	// Seed drives the tear geometry (prefix length, word mask).
	Seed uint64
}

// Faults is the machine-wide fault-injection state shared by all devices.
// It is created by Machine.TrackFaults, which also switches every device
// from eADR to tracked-durability (ADR) semantics.
type Faults struct {
	mu   sync.Mutex
	plan FaultPlan

	armed       bool
	crashed     bool
	mediaWrites int64 // media-write events since arming
	siteHits    map[string]int64
	crashDesc   string

	// Media-error model (media.go). Deliberately NOT reset by Arm: crash
	// sweeps re-arm plans continuously, while media damage persists until
	// a scrubber remaps around it.
	ue           map[int]map[int64]bool    // node -> uncorrectable lines
	slow         map[int]map[int64]float64 // node -> line -> latency multiplier
	dead         map[int]bool              // failed whole-node devices
	decayPerRead float64                   // per-checked-read UE probability
	decaySeed    uint64                    // decay die seed
	readSeq      uint64                    // monotonic decay clock
}

// writeFate is what a media-write event does to the durable image.
type writeFate int

const (
	writeCommit  writeFate = iota // line persists fully
	writeDropped                  // crash already happened: nothing persists
	writeTear                     // crash now: line persists per tear mode
)

// Arm installs a fault plan. Media-write counting restarts from zero, so
// kill indexes are relative to the arming point (typically after store
// creation, so the sweep covers the workload, not the setup). Arming
// clears any previous crash.
func (f *Faults) Arm(plan FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
	f.armed = true
	f.crashed = false
	f.mediaWrites = 0
	f.crashDesc = ""
	f.siteHits = make(map[string]int64)
}

// Crashed reports whether the injected crash point has been reached.
func (f *Faults) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// CrashDescription says where the crash tripped (empty if it has not).
func (f *Faults) CrashDescription() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashDesc
}

// MediaWrites reports media-write events observed since arming.
func (f *Faults) MediaWrites() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mediaWrites
}

// SiteHits returns a copy of the per-site hit counters since arming.
func (f *Faults) SiteHits() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.siteHits))
	for k, v := range f.siteHits {
		out[k] = v
	}
	return out
}

// Sites returns the names of all crash sites hit since arming, sorted.
func (f *Faults) Sites() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.siteHits))
	for k := range f.siteHits {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// onMediaWrite records one media-write event and decides the fate of the
// written line. Called by devices with their own lock held; f.mu is a
// leaf mutex below the device locks.
func (f *Faults) onMediaWrite() (writeFate, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return writeDropped, 0
	}
	if !f.armed {
		return writeCommit, 0
	}
	f.mediaWrites++
	n := f.mediaWrites
	if f.plan.KillAtMediaWrite > 0 && n == f.plan.KillAtMediaWrite {
		f.crashed = true
		f.crashDesc = fmt.Sprintf("media write %d (tear=%s)", n, f.plan.Tear)
		return writeTear, n
	}
	return writeCommit, n
}

// onSite records a hit of the named crash site and crashes if the plan
// says so.
func (f *Faults) onSite(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed || !f.armed {
		return
	}
	if f.siteHits == nil {
		f.siteHits = make(map[string]int64)
	}
	f.siteHits[name]++
	if f.plan.KillAtSite != name {
		return
	}
	want := f.plan.KillAtSiteHit
	if want <= 0 {
		want = 1
	}
	if f.siteHits[name] == want {
		f.crashed = true
		f.crashDesc = fmt.Sprintf("site %q hit %d", name, want)
	}
}

// tearLine merges the in-flight (new) line into the stale (old) durable
// contents per the plan's tear mode, at 8-byte word granularity — the
// powerfail atomicity unit of the platform. eventN varies the geometry
// per crash point so sweeps explore different tears.
func (f *Faults) tearLine(old, new []byte, eventN int64) []byte {
	f.mu.Lock()
	mode := f.plan.Tear
	seed := f.plan.Seed
	f.mu.Unlock()

	words := len(new) / 8
	out := make([]byte, len(new))
	copy(out, old)
	r := splitmix.Mix(seed ^ uint64(eventN)*0x9E3779B97F4A7C15)
	switch mode {
	case TearNone:
		// Dropped entirely: keep old contents.
	case TearPrefix:
		k := int(r % uint64(words+1))
		copy(out[:k*8], new[:k*8])
	case TearWords:
		mask := splitmix.Mix(r)
		for w := 0; w < words; w++ {
			if mask&(1<<uint(w%64)) != 0 {
				copy(out[w*8:w*8+8], new[w*8:w*8+8])
			}
		}
	}
	return out
}
