package xpsim

import "fmt"

// Machine is the simulated testbed: a multi-socket NUMA system with one
// Optane device group per socket. The paper's testbed is two sockets with
// 4x128 GB Optane each; the simulated capacity is configurable because the
// reproduction runs scaled-down datasets.
type Machine struct {
	Lat     LatencyModel
	Sockets int
	devices []*Device
	faults  *Faults
}

// NewMachine builds a machine with `sockets` NUMA nodes, each with
// `pmemPerNode` bytes of simulated PMEM.
func NewMachine(sockets int, pmemPerNode int64, lat LatencyModel) *Machine {
	if sockets < 1 {
		panic("xpsim: machine needs at least one socket")
	}
	m := &Machine{Lat: lat, Sockets: sockets}
	for n := 0; n < sockets; n++ {
		m.devices = append(m.devices, NewDevice(n, sockets, pmemPerNode, &m.Lat))
	}
	return m
}

// Device returns the PMEM device of the given NUMA node.
func (m *Machine) Device(node int) *Device {
	if node < 0 || node >= len(m.devices) {
		panic(fmt.Sprintf("xpsim: no device on node %d", node))
	}
	return m.devices[node]
}

// Devices returns all devices, indexed by node.
func (m *Machine) Devices() []*Device { return m.devices }

// TotalStats drains all XPBuffers and returns machine-wide counters.
func (m *Machine) TotalStats() Stats {
	var s Stats
	for _, d := range m.devices {
		s.Add(d.drain())
	}
	return s
}

// SnapshotStats returns machine-wide counters without draining buffers
// (cheap; media write counts may lag by up to one XPBuffer).
func (m *Machine) SnapshotStats() Stats {
	var s Stats
	for _, d := range m.devices {
		s.Add(d.Stats())
	}
	return s
}

// RegionWriteLines reports the media-write lines that landed in the pmem
// region called name, on every device it spans, since the last reset. Like
// SnapshotStats it does not drain the XPBuffers.
func (m *Machine) RegionWriteLines(name string) int64 {
	var n int64
	for _, d := range m.devices {
		n += d.spanWriteLines(name)
	}
	return n
}

// TraceWrites makes every device call fn, under its lock, with each XPLine
// a Write touches, from now until TraceWrites(nil).
func (m *Machine) TraceWrites(fn func(node int, line int64)) {
	for _, d := range m.devices {
		d.mu.Lock()
		d.traceWrite = fn
		d.mu.Unlock()
	}
}

// ResetStats zeroes all device counters.
func (m *Machine) ResetStats() {
	for _, d := range m.devices {
		d.resetStats()
	}
}

// TrackFaults switches every device from eADR to tracked-durability
// semantics and returns the machine's fault-injection state (see
// faults.go). Call it on a fresh machine, before any data is written;
// arm a FaultPlan on the returned Faults to schedule a crash.
func (m *Machine) TrackFaults() *Faults {
	if m.faults == nil {
		m.faults = &Faults{}
		for _, d := range m.devices {
			d.enableTracking(m.faults)
		}
	}
	return m.faults
}

// Faults returns the fault-injection state, or nil if TrackFaults was
// never called.
func (m *Machine) Faults() *Faults { return m.faults }

// CrashPoint marks a named crash site in store code (e.g. "flush:acked").
// With fault tracking enabled it counts the hit and, if the armed plan
// kills at this site, freezes the durable image here. A no-op otherwise,
// so store code can annotate crash sites unconditionally.
func (m *Machine) CrashPoint(name string) {
	if m.faults != nil {
		m.faults.onSite(name)
	}
}
