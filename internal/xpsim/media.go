package xpsim

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/splitmix"
)

// This file implements the runtime media-error model layered on top of the
// crash-point injection of faults.go. Real Optane deployments must handle
// three classes of media anomaly beyond power failure:
//
//   - uncorrectable errors (UEs): an XPLine whose ECC can no longer
//     reconstruct the stored bits. The DIMM reports a poisoned read; any
//     consumer that ignores the poison gets garbage.
//   - latency spikes: lines in a marginal cell region that read orders of
//     magnitude slower while the controller retries ECC.
//   - whole-device failure: a DIMM (and with it a NUMA node's PMEM) drops
//     off the bus entirely.
//
// UEs are modelled destructively: when a line is marked uncorrectable its
// media bytes are overwritten with a deterministic pseudo-random pattern in
// BOTH the live store and the durable image. A plain Device.Read therefore
// returns silently corrupt data — exactly the hazard checksummed blocks and
// Device.ReadChecked exist to catch. ReadChecked consults the fault state
// per line and returns a typed *MediaError instead of garbage.
//
// UEs arise two ways: explicit injection (Machine.InjectUE, deterministic
// line lists for differential tests) and seeded decay (SetDecay), where
// every checked media read rolls a splitmix64 die and may discover a fresh
// UE on the line it touched. Both are deterministic given the seed.
//
// Media-fault state lives on Faults but is deliberately NOT reset by Arm:
// crash sweeps re-arm plans continuously, while bad lines stay bad: a
// scrubber remaps around them.

// MediaError is the typed error a checked device access returns when it
// touches an uncorrectable line or a failed device. Line is -1 for a
// whole-device (NUMA-node) failure.
type MediaError struct {
	Node int
	Line int64
}

func (e *MediaError) Error() string {
	if e.Line < 0 {
		return fmt.Sprintf("xpsim: media error: device on node %d failed", e.Node)
	}
	return fmt.Sprintf("xpsim: media error: uncorrectable XPLine %d on node %d", e.Line, e.Node)
}

// InjectUE marks one XPLine of a node's device uncorrectable. The caller
// (Machine.InjectUE) also scrambles the media bytes so unchecked readers
// see corruption, not stale-but-plausible data.
func (f *Faults) InjectUE(node int, line int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.markUELocked(node, line)
}

func (f *Faults) markUELocked(node int, line int64) {
	if f.ue == nil {
		f.ue = make(map[int]map[int64]bool)
	}
	if f.ue[node] == nil {
		f.ue[node] = make(map[int64]bool)
	}
	f.ue[node][line] = true
}

// UELines returns the sorted uncorrectable lines of one node.
func (f *Faults) UELines(node int) []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int64, 0, len(f.ue[node]))
	for li := range f.ue[node] {
		out = append(out, li)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UECount reports the total uncorrectable lines across all nodes.
func (f *Faults) UECount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, lines := range f.ue {
		n += len(lines)
	}
	return n
}

// SetDecay enables seeded media decay: every checked media read rolls a
// deterministic die and marks the line it touched uncorrectable with
// probability perRead. Zero disables decay.
func (f *Faults) SetDecay(perRead float64, seed uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.decayPerRead = perRead
	f.decaySeed = seed
}

// MarkSlow gives one line a read-latency multiplier (the ECC-retry spike
// of a marginal cell region). mul <= 1 clears the mark.
func (f *Faults) MarkSlow(node int, line int64, mul float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if mul <= 1 {
		if f.slow[node] != nil {
			delete(f.slow[node], line)
		}
		return
	}
	if f.slow == nil {
		f.slow = make(map[int]map[int64]float64)
	}
	if f.slow[node] == nil {
		f.slow[node] = make(map[int64]float64)
	}
	f.slow[node][line] = mul
}

// FailNode kills a whole node's device: every checked access on it errors
// until ReviveNode.
func (f *Faults) FailNode(node int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead == nil {
		f.dead = make(map[int]bool)
	}
	f.dead[node] = true
}

// ReviveNode brings a failed device back (its data is intact — the model
// is a transient bus/controller failure, not data loss).
func (f *Faults) ReviveNode(node int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.dead, node)
}

// nodeFailed reports whether the node's device is currently failed.
func (f *Faults) nodeFailed(node int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead[node]
}

// DeadNodes returns the sorted list of failed nodes.
func (f *Faults) DeadNodes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, len(f.dead))
	for n := range f.dead {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// checkRead is consulted once per XPLine by Device.ReadChecked (device
// lock held; f.mu is a leaf below it). It reports whether the line reads
// as uncorrectable, the latency multiplier for this line (>= 1), and
// whether this very read is the decay roll that first discovered the UE —
// in which case the caller must scramble the media bytes.
func (f *Faults) checkRead(node int, line int64) (ue bool, mul float64, fresh bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mul = 1
	if m, ok := f.slow[node][line]; ok && m > mul {
		mul = m
	}
	if f.ue[node][line] {
		return true, mul, false
	}
	if f.decayPerRead > 0 {
		f.readSeq++
		h := splitmix.Mix(uint64(node)<<48 ^ uint64(line)*0x9E3779B97F4A7C15 ^ f.readSeq)
		r := splitmix.Mix(f.decaySeed ^ h)
		if float64(r>>11)/(1<<53) < f.decayPerRead {
			f.markUELocked(node, line)
			return true, mul, true
		}
	}
	return false, mul, false
}

// MediaFaultState is the serializable media-error state, carried across
// pmem.Heap.CrashClone: bad lines stay bad across a power cycle (UEs are
// media damage, not DRAM state), as do dead devices and the decay clock.
type MediaFaultState struct {
	UE           map[int][]int64
	Slow         map[int]map[int64]float64
	Dead         []int
	DecayPerRead float64
	DecaySeed    uint64
	ReadSeq      uint64
}

// ExportMediaState snapshots the media-error state.
func (f *Faults) ExportMediaState() MediaFaultState {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := MediaFaultState{DecayPerRead: f.decayPerRead, DecaySeed: f.decaySeed, ReadSeq: f.readSeq}
	if len(f.ue) > 0 {
		st.UE = make(map[int][]int64, len(f.ue))
		for n, lines := range f.ue {
			for li := range lines {
				st.UE[n] = append(st.UE[n], li)
			}
			sort.Slice(st.UE[n], func(i, j int) bool { return st.UE[n][i] < st.UE[n][j] })
		}
	}
	if len(f.slow) > 0 {
		st.Slow = make(map[int]map[int64]float64, len(f.slow))
		for n, m := range f.slow {
			cp := make(map[int64]float64, len(m))
			for li, mul := range m {
				cp[li] = mul
			}
			st.Slow[n] = cp
		}
	}
	for n := range f.dead {
		st.Dead = append(st.Dead, n)
	}
	sort.Ints(st.Dead)
	return st
}

// RestoreMediaState overwrites the media-error state from a snapshot.
func (f *Faults) RestoreMediaState(st MediaFaultState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ue, f.slow, f.dead = nil, nil, nil
	for n, lines := range st.UE {
		for _, li := range lines {
			f.markUELocked(n, li)
		}
	}
	if len(st.Slow) > 0 {
		f.slow = make(map[int]map[int64]float64, len(st.Slow))
		for n, m := range st.Slow {
			cp := make(map[int64]float64, len(m))
			for li, mul := range m {
				cp[li] = mul
			}
			f.slow[n] = cp
		}
	}
	if len(st.Dead) > 0 {
		f.dead = make(map[int]bool, len(st.Dead))
		for _, n := range st.Dead {
			f.dead[n] = true
		}
	}
	f.decayPerRead = st.DecayPerRead
	f.decaySeed = st.DecaySeed
	f.readSeq = st.ReadSeq
}

// InjectUE marks one XPLine uncorrectable and scrambles its media bytes in
// both the live store and the durable image — a plain Read afterwards
// returns deterministic garbage, a ReadChecked returns *MediaError. Fault
// tracking is enabled on first use.
func (m *Machine) InjectUE(node int, line int64) {
	f := m.TrackFaults()
	f.InjectUE(node, line)
	m.Device(node).scrambleLine(line)
}

// scrambleLine overwrites one XPLine with a deterministic pseudo-random
// pattern in the live store and, when fault tracking is on, the durable
// image — modelling the unrecoverable bit rot behind a UE. The XPBuffer is
// metadata-only, so no cached copy can mask the corruption.
func (d *Device) scrambleLine(li int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.scrambleLineLocked(li)
}

func (d *Device) scrambleLineLocked(li int64) {
	d.checkRange(li*XPLineSize, XPLineSize)
	var buf [XPLineSize]byte
	s := splitmix.Mix(uint64(d.node)<<52 ^ uint64(li)*0x9E3779B97F4A7C15)
	for w := 0; w < XPLineSize/8; w++ {
		s = splitmix.Mix(s)
		binary.LittleEndian.PutUint64(buf[w*8:], s)
	}
	d.store.WriteAt(buf[:], li*XPLineSize)
	if d.durable != nil {
		d.durable.WriteAt(buf[:], li*XPLineSize)
	}
}

// ReadChecked is Device.Read with the media-error model applied: it
// charges the same simulated latency and moves the same counters, but
// consults the fault state per XPLine. A read touching an uncorrectable
// line (pre-injected or freshly decayed) fills p with whatever the media
// now holds AND returns a *MediaError naming the first bad line; a read on
// a failed device errors immediately. Slow lines multiply that line's
// latency. Without fault tracking it is exactly Read.
func (d *Device) ReadChecked(ctx *Ctx, off int64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if d.faults != nil && d.faults.nodeFailed(d.node) {
		return &MediaError{Node: d.node, Line: -1}
	}
	d.checkRange(off, int64(len(p)))
	remote := d.remote(ctx)
	rmul := 1.0
	if remote {
		rmul = d.lat.RemoteReadMul
	}
	rmul *= d.lat.readContention(ctx.Workers, remote)

	d.mu.Lock()
	window := d.window(ctx)
	first := off / XPLineSize
	last := (off + int64(len(p)) - 1) / XPLineSize
	var ns float64
	var merr *MediaError
	for li := first; li <= last; li++ {
		hit, wbLine := d.buf.access(li, false, window)
		if hit {
			d.stats.BufHits++
			ns += float64(d.lat.BufRead) * rmul
		} else {
			d.stats.BufMisses++
			d.stats.MediaReadLines++
			ns += float64(d.lat.MediaRead) * rmul
		}
		if wbLine >= 0 {
			d.stats.BufEvictions++
			d.mediaWrite(wbLine)
		}
		d.noteLocality(remote)
		if d.faults != nil {
			ue, mul, fresh := d.faults.checkRead(d.node, li)
			if mul > 1 {
				// ECC-retry latency spike on this line.
				ns += float64(d.lat.MediaRead) * (mul - 1) * rmul
			}
			if fresh {
				d.scrambleLineLocked(li)
			}
			if ue {
				d.stats.ReadUEs++
				if merr == nil {
					merr = &MediaError{Node: d.node, Line: li}
				}
			}
		}
	}
	// Copy after fault handling so a freshly-decayed line's scrambled
	// bytes — not its pre-decay contents — are what the caller sees.
	d.store.ReadAt(p, off)
	d.stats.ReqReadBytes += int64(len(p))
	d.mu.Unlock()
	ctx.Cost.AddF(ns)
	if merr != nil {
		return merr
	}
	return nil
}
