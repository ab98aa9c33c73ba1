// Package xpsim simulates Intel Optane Persistent Memory (200 series) at
// XPLine granularity, with its XPBuffer, NUMA locality and bandwidth
// limits. Those are the details XPGraph's design depends on: 256-byte media
// lines, an internal write-combining XPBuffer that turns partial-line
// writes into read-modify-write operations, expensive remote accesses, and
// limited multi-threaded store performance.
//
// All simulated traffic is charged to a per-worker Cost (a simulated
// clock). Experiments report simulated time, which makes thread-scaling
// and NUMA experiments deterministic and reproducible on any host.
// Latency constants follow the empirical characterization of Optane in
// Yang et al., "An Empirical Guide to the Behavior and Use of Scalable
// Persistent Memory" (FAST'20), reference [81] of the XPGraph paper.
package xpsim

import (
	"encoding/json"
	"fmt"
	"os"
)

const (
	// XPLineSize is the physical access granularity of the 3D-XPoint
	// media (§II-A of the paper).
	XPLineSize = 256
	// CacheLineSize is the CPU cache line size; cache lines are the
	// granularity at which software traffic reaches the device.
	CacheLineSize = 64
)

// LatencyModel holds the latency and contention constants of the simulated
// machine. All latencies are in nanoseconds of simulated time.
type LatencyModel struct {
	// PMEM, charged per XPLine touched. Hits in the write-combining
	// path (CPU cache + XPBuffer under eADR) cost almost nothing; the
	// real prices are paid when lines move to/from the 3D-XPoint media.
	MediaRead int64 // miss: read one XPLine from the media
	BufRead   int64 // hit: read served from the combining buffers
	LineWrite int64 // miss: fill one XPLine toward the media
	BufWrite  int64 // hit: merge a store into an already-buffered line
	// A partial-line write that misses the XPBuffer additionally pays
	// MediaRead for the read-modify-write (§II-A item 2), unless the
	// write starts at the line boundary (streaming store heuristic:
	// appends/full-line fills do not read the old contents).

	// NUMA: remote (cross-socket) PMEM access multipliers (§II-A item 4).
	RemoteReadMul  float64
	RemoteWriteMul float64

	// Store contention (§II-A item 3): beyond Knee concurrent workers,
	// each access is slowed by 1 + Slope*(workers-Knee). Remote
	// multi-threaded stores degrade much faster, which is what makes
	// GraphOne-P collapse past 8 archiving threads (Fig. 4b) while
	// NUMA-bound XPGraph scales to 95 (Fig. 20).
	WriteKnee        int
	WriteSlope       float64
	RemoteWriteKnee  int
	RemoteWriteSlope float64
	ReadKnee         int
	ReadSlope        float64
	RemoteReadKnee   int
	RemoteReadSlope  float64

	// DRAM, charged per cache line touched.
	DRAMRead     int64 // random read
	DRAMWrite    int64 // random write
	DRAMSeqRead  int64 // sequential read
	DRAMSeqWrite int64 // sequential write
	DRAMCached   int64 // store to a recently-touched line (likely cached)

	// MemoryMode multipliers: Optane in Memory Mode behaves like slow
	// DRAM (the DRAM acts as a direct-mapped cache). Charged on DRAM
	// latencies for memory-mode spaces (Fig. 12).
	MemModeReadMul  float64
	MemModeWriteMul float64

	// CPUOp is the cost of one unit of CPU work (a few instructions:
	// hash, compare, pointer chase already in cache). Software charges
	// this explicitly so that PMEM savings do not produce absurd
	// speedups: compute does not vanish when storage gets faster.
	CPUOp int64

	// VFSOp is the per-system-call overhead of file I/O through a kernel
	// file system (VFS dispatch, metadata, journaling). This is what
	// makes the file-I/O based GraphOne-N an order of magnitude slower
	// than mmap-based designs (Fig. 11 and NOVA-Fortis Fig. 10).
	VFSOp int64
}

// DefaultLatency returns the latency model used by all experiments unless
// overridden. Values are rounded from FAST'20 measurements of Optane.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		MediaRead: 305,
		BufRead:   10,
		LineWrite: 140,
		BufWrite:  12,

		RemoteReadMul:  2.2,
		RemoteWriteMul: 2.2,

		WriteKnee:        16,
		WriteSlope:       0.05,
		RemoteWriteKnee:  8,
		RemoteWriteSlope: 0.21,
		ReadKnee:         24,
		ReadSlope:        0.02,
		RemoteReadKnee:   16,
		RemoteReadSlope:  0.03,

		DRAMRead:     85,
		DRAMWrite:    70,
		DRAMSeqRead:  16,
		DRAMSeqWrite: 14,
		DRAMCached:   30,

		MemModeReadMul:  2.6,
		MemModeWriteMul: 3.4,

		CPUOp: 4,
		VFSOp: 8000,
	}
}

// LoadLatency reads a LatencyModel from a JSON file, starting from the
// calibrated defaults so partial overrides work:
//
//	{"MediaRead": 400, "RemoteWriteMul": 3.0}
//
// This is the recalibration hook for users with different hardware
// measurements (e.g. Optane 100 series numbers from FAST'20).
func LoadLatency(path string) (LatencyModel, error) {
	lat := DefaultLatency()
	data, err := os.ReadFile(path)
	if err != nil {
		return lat, err
	}
	if err := json.Unmarshal(data, &lat); err != nil {
		return lat, fmt.Errorf("xpsim: parse %s: %w", path, err)
	}
	return lat, nil
}

// writeContention returns the multiplier for a store issued while
// `workers` workers are concurrently active, for a local or remote access.
func (l *LatencyModel) writeContention(workers int, remote bool) float64 {
	knee, slope := l.WriteKnee, l.WriteSlope
	if remote {
		knee, slope = l.RemoteWriteKnee, l.RemoteWriteSlope
	}
	if workers <= knee {
		return 1
	}
	return 1 + slope*float64(workers-knee)
}

// readContention returns the multiplier for a load issued while `workers`
// workers are concurrently active. Remote loads degrade much faster with
// concurrency — the cross-NUMA multi-threaded effect of FAST'20 that the
// paper's query binding exists to avoid.
func (l *LatencyModel) readContention(workers int, remote bool) float64 {
	knee, slope := l.ReadKnee, l.ReadSlope
	if remote {
		knee, slope = l.RemoteReadKnee, l.RemoteReadSlope
	}
	if workers <= knee {
		return 1
	}
	return 1 + slope*float64(workers-knee)
}
