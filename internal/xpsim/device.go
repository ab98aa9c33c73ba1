package xpsim

import (
	"fmt"
	"sync"
)

// Stats are PCM-style counters of traffic at one simulated DIMM. Media
// counters measure XPLines actually moved at the 3D-XPoint media — the
// quantity Intel PCM reports and the paper plots in Fig. 3b and Fig. 13.
// Req counters measure the bytes software asked for; the ratio of the two
// is the read/write amplification.
type Stats struct {
	MediaReadLines  int64 // XPLines read from media (XPBuffer misses + RMW)
	MediaWriteLines int64 // XPLines written to media (dirty evictions + flushes)
	ReqReadBytes    int64 // bytes software requested to read
	ReqWriteBytes   int64 // bytes software requested to write
	BufHits         int64 // XPBuffer hits
	BufMisses       int64 // XPBuffer misses
	BufEvictions    int64 // dirty XPBuffer lines written back on capacity eviction
	RemoteAccesses  int64 // line accesses issued from a remote socket
	LocalAccesses   int64 // line accesses issued from the local socket
	Flushes         int64 // explicit clwb-style line flushes
	ReadUEs         int64 // checked reads that hit an uncorrectable line
}

// MediaReadBytes reports bytes read from the media.
func (s Stats) MediaReadBytes() int64 { return s.MediaReadLines * XPLineSize }

// MediaWriteBytes reports bytes written to the media.
func (s Stats) MediaWriteBytes() int64 { return s.MediaWriteLines * XPLineSize }

// ReadAmplification is media bytes read per byte requested.
func (s Stats) ReadAmplification() float64 {
	if s.ReqReadBytes == 0 {
		return 0
	}
	return float64(s.MediaReadBytes()) / float64(s.ReqReadBytes)
}

// WriteAmplification is media bytes written per byte requested.
func (s Stats) WriteAmplification() float64 {
	if s.ReqWriteBytes == 0 {
		return 0
	}
	return float64(s.MediaWriteBytes()) / float64(s.ReqWriteBytes)
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.MediaReadLines += o.MediaReadLines
	s.MediaWriteLines += o.MediaWriteLines
	s.ReqReadBytes += o.ReqReadBytes
	s.ReqWriteBytes += o.ReqWriteBytes
	s.BufHits += o.BufHits
	s.BufMisses += o.BufMisses
	s.BufEvictions += o.BufEvictions
	s.RemoteAccesses += o.RemoteAccesses
	s.LocalAccesses += o.LocalAccesses
	s.Flushes += o.Flushes
	s.ReadUEs += o.ReadUEs
}

// Sub returns s minus o (for before/after deltas around a phase).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		MediaReadLines:  s.MediaReadLines - o.MediaReadLines,
		MediaWriteLines: s.MediaWriteLines - o.MediaWriteLines,
		ReqReadBytes:    s.ReqReadBytes - o.ReqReadBytes,
		ReqWriteBytes:   s.ReqWriteBytes - o.ReqWriteBytes,
		BufHits:         s.BufHits - o.BufHits,
		BufMisses:       s.BufMisses - o.BufMisses,
		BufEvictions:    s.BufEvictions - o.BufEvictions,
		RemoteAccesses:  s.RemoteAccesses - o.RemoteAccesses,
		LocalAccesses:   s.LocalAccesses - o.LocalAccesses,
		Flushes:         s.Flushes - o.Flushes,
		ReadUEs:         s.ReadUEs - o.ReadUEs,
	}
}

// Device is one simulated Optane DIMM group attached to a NUMA node. All
// operations are safe for concurrent use; simulated cost is charged to the
// caller's Ctx.
type Device struct {
	node    int
	sockets int
	size    int64
	lat     *LatencyModel

	mu    sync.Mutex
	store *ChunkStore
	buf   *xpBuffer
	stats Stats
	alloc int64 // bump allocation pointer for region placement

	// Fault tracking (nil under eADR semantics): durable mirrors the
	// backing store but is only updated at media-write events, so it
	// holds exactly the bytes an ADR platform keeps across power loss.
	faults  *Faults
	durable *ChunkStore
}

// NewDevice builds a device of `size` bytes on `node` of a machine with
// `sockets` sockets.
func NewDevice(node, sockets int, size int64, lat *LatencyModel) *Device {
	return &Device{
		node:    node,
		sockets: sockets,
		size:    size,
		lat:     lat,
		store:   NewChunkStore(size),
		buf:     newXPBuffer(16, 4), // 64 XPLines = 16 KB, like real Optane
	}
}

// Node reports the NUMA node the device is attached to.
func (d *Device) Node() int { return d.node }

// Size reports the device capacity in bytes.
func (d *Device) Size() int64 { return d.size }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// resetStats zeroes the counters (the XPBuffer keeps its contents).
func (d *Device) resetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// drain writes back every dirty XPBuffer line so media write counters
// account for all data, then returns the updated snapshot.
func (d *Device) drain() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, li := range d.buf.drain(nil) {
		d.mediaWrite(li)
	}
	return d.stats
}

// WritebackAll drains every dirty XPBuffer line to the media, charging
// the caller's clock per line — the sfence-after-clwb persist barrier a
// crash-consistent flush phase issues before advancing durable cursors.
// The XPBuffer holds at most 64 lines, so the barrier is cheap.
func (d *Device) WritebackAll(ctx *Ctx) {
	d.mu.Lock()
	lines := d.buf.drain(nil)
	for _, li := range lines {
		d.mediaWrite(li)
	}
	d.mu.Unlock()
	ctx.Cost.Add(int64(len(lines)) * d.lat.LineWrite)
}

// enableTracking switches the device from eADR to tracked-durability
// semantics: from now on only media-write events reach the durable image.
// The image is seeded from the current backing store — everything written
// before the switch was written under eADR and is durable by definition
// (this matters when tracking is enabled on a crash clone that was
// restored from a durable snapshot).
func (d *Device) enableTracking(f *Faults) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.faults == nil {
		d.faults = f
		d.durable = d.store.clone()
	}
}

// mediaWrite commits one XPLine to the media: the durability event. The
// caller both holds d.mu and has already accounted the line in
// stats.MediaWriteLines or is about to — this helper owns the counter so
// the two can never diverge.
func (d *Device) mediaWrite(li int64) {
	d.stats.MediaWriteLines++
	if d.durable == nil {
		return
	}
	fate, eventN := d.faults.onMediaWrite()
	switch fate {
	case writeDropped:
		return
	case writeCommit:
		var line [XPLineSize]byte
		d.store.ReadAt(line[:], li*XPLineSize)
		d.durable.WriteAt(line[:], li*XPLineSize)
	case writeTear:
		var old, cur [XPLineSize]byte
		d.durable.ReadAt(old[:], li*XPLineSize)
		d.store.ReadAt(cur[:], li*XPLineSize)
		torn := d.faults.tearLine(old[:], cur[:], eventN)
		d.durable.WriteAt(torn, li*XPLineSize)
	}
}

// Reserve carves n bytes (aligned to align) out of the device for a
// region and returns the base offset. Reservations survive simulated
// crashes — they are the moral equivalent of pmem_map_file.
func (d *Device) Reserve(n, align int64) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	base := d.alloc
	if align > 0 {
		base = (base + align - 1) / align * align
	}
	if base+n > d.size {
		return 0, fmt.Errorf("xpsim: device node %d full: need %d bytes, %d free", d.node, n, d.size-base)
	}
	d.alloc = base + n
	return base, nil
}

func (d *Device) remote(ctx *Ctx) bool {
	return effectiveNode(ctx.Node, ctx.Worker, d.sockets) != d.node
}

// window computes the effective XPBuffer reuse window for a context: with
// w concurrent workers each stream owns ~1/w of the buffer.
func (d *Device) window(ctx *Ctx) uint64 {
	w := ctx.Workers
	if w <= 1 {
		return 0 // unlimited: the full LRU applies
	}
	win := d.buf.capacityLines() / w
	if win < 1 {
		win = 1
	}
	return uint64(win)
}

// Read copies len(p) bytes at off into p, charging simulated latency per
// XPLine touched.
func (d *Device) Read(ctx *Ctx, off int64, p []byte) {
	if len(p) == 0 {
		return
	}
	d.checkRange(off, int64(len(p)))
	remote := d.remote(ctx)
	rmul := 1.0
	if remote {
		rmul = d.lat.RemoteReadMul
	}
	rmul *= d.lat.readContention(ctx.Workers, remote)

	d.mu.Lock()
	d.store.ReadAt(p, off)
	window := d.window(ctx)
	first := off / XPLineSize
	last := (off + int64(len(p)) - 1) / XPLineSize
	var ns float64
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
	}
	d.stats.ReqReadBytes += int64(len(p))
	d.mu.Unlock()
	ctx.Cost.AddF(ns)
}

// Write copies p to off, charging simulated latency per XPLine touched.
// Partial-line writes that miss the XPBuffer and do not start on a line
// boundary pay a media read (the read-modify-write of §II-A).
func (d *Device) Write(ctx *Ctx, off int64, p []byte) {
	if len(p) == 0 {
		return
	}
	d.checkRange(off, int64(len(p)))
	remote := d.remote(ctx)
	wmul := 1.0
	if remote {
		wmul = d.lat.RemoteWriteMul
	}
	wmul *= d.lat.writeContention(ctx.Workers, remote)

	d.mu.Lock()
	d.store.WriteAt(p, off)
	window := d.window(ctx)
	end := off + int64(len(p))
	first := off / XPLineSize
	last := (end - 1) / XPLineSize
	var ns float64
	for li := first; li <= last; li++ {
		lineStart := li * XPLineSize
		lineEnd := lineStart + XPLineSize
		covered := off <= lineStart && end >= lineEnd
		startsAtLine := off <= lineStart
		hit, wbLine := d.buf.access(li, true, window)
		if hit {
			d.stats.BufHits++
			ns += float64(d.lat.BufWrite) * wmul
		} else {
			d.stats.BufMisses++
			if !covered && !startsAtLine {
				// Read-modify-write: the old line contents must be
				// fetched to merge the partial update.
				d.stats.MediaReadLines++
				ns += float64(d.lat.MediaRead) * wmul
			}
			ns += float64(d.lat.LineWrite) * wmul
		}
		if wbLine >= 0 {
			d.stats.BufEvictions++
			d.mediaWrite(wbLine)
		}
		d.noteLocality(remote)
	}
	d.stats.ReqWriteBytes += int64(len(p))
	d.mu.Unlock()
	ctx.Cost.AddF(ns)
}

// Flush forces the lines covering [off, off+n) out of the XPBuffer to the
// media (the clwb-based proactive flush of §IV-A).
func (d *Device) Flush(ctx *Ctx, off, n int64) {
	if n <= 0 {
		return
	}
	d.checkRange(off, n)
	d.mu.Lock()
	first := off / XPLineSize
	last := (off + n - 1) / XPLineSize
	var flushed int64
	for li := first; li <= last; li++ {
		if d.buf.flushLine(li) {
			d.mediaWrite(li)
			flushed++
		}
	}
	d.stats.Flushes += last - first + 1
	d.mu.Unlock()
	ctx.Cost.Add(flushed * d.lat.LineWrite)
}

func (d *Device) noteLocality(remote bool) {
	if remote {
		d.stats.RemoteAccesses++
	} else {
		d.stats.LocalAccesses++
	}
}

func (d *Device) checkRange(off, n int64) {
	if off < 0 || off+n > d.size {
		panic(fmt.Sprintf("xpsim: access [%d,%d) out of device bounds %d", off, off+n, d.size))
	}
}

// TouchedBytes reports materialized host memory backing this device.
func (d *Device) TouchedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.touchedBytes()
}

// DeviceState is the serializable content of a device: the media bytes
// that were ever touched plus the reservation pointer. XPBuffer state is
// deliberately not captured — under eADR it is part of the persistence
// domain and every write already reached the backing store.
type DeviceState struct {
	Node   int
	Size   int64
	Alloc  int64
	Chunks map[int][]byte
}

// ExportState snapshots the device after draining the XPBuffer.
func (d *Device) ExportState() DeviceState {
	d.drain()
	d.mu.Lock()
	defer d.mu.Unlock()
	chunks, size := d.store.export()
	return DeviceState{Node: d.node, Size: size, Alloc: d.alloc, Chunks: chunks}
}

// DurableState snapshots the bytes the device model says are durable at
// this instant, without draining the XPBuffer: with fault tracking
// enabled that is the durable image (XPBuffer-resident lines that were
// never written back are absent, and a torn crash line stays torn);
// without tracking the device is eADR and everything written through is
// durable. Chunks are deep-copied — the live device keeps running while
// the snapshot is recovered from.
func (d *Device) DurableState() DeviceState {
	d.mu.Lock()
	defer d.mu.Unlock()
	src := d.store
	if d.durable != nil {
		src = d.durable
	}
	chunks, size := src.export()
	copied := make(map[int][]byte, len(chunks))
	for i, c := range chunks {
		nc := make([]byte, len(c))
		copy(nc, c)
		copied[i] = nc
	}
	return DeviceState{Node: d.node, Size: size, Alloc: d.alloc, Chunks: copied}
}

// RestoreState overwrites the device contents from a snapshot. The
// snapshot must match the device geometry.
func (d *Device) RestoreState(st DeviceState) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st.Size != d.size || st.Node != d.node {
		return fmt.Errorf("xpsim: snapshot geometry (node %d, %d bytes) does not match device (node %d, %d bytes)",
			st.Node, st.Size, d.node, d.size)
	}
	d.store.restore(st.Chunks)
	d.alloc = st.Alloc
	return nil
}
