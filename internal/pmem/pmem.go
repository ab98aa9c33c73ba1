// Package pmem provides app-direct persistent memory regions on the
// simulated Optane devices, pmem_map_file's equivalent (§II-C). Regions are
// named, survive simulated crashes, and may be placed on one NUMA node or
// interleaved across all of them — the placement choices behind the paper's
// NUMA-aware segregated graph storing (§III-D).
package pmem

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mem"
	"repro/internal/xpsim"
)

// PlacementKind selects how a region maps onto the machine's devices.
type PlacementKind int

const (
	// Interleave stripes the region across all nodes' devices — the
	// default system configuration of the paper's testbed (and the
	// placement GraphOne-P runs on).
	Interleave PlacementKind = iota
	// Bind places the region entirely on one node's device — the
	// placement XPGraph uses for per-node sub-graphs.
	Bind
)

// Placement describes where a region lives.
type Placement struct {
	Kind   PlacementKind
	Node   int   // for Bind
	Stripe int64 // interleave stripe; 0 selects the 4 KiB default
}

// DefaultStripe is the interleave granularity of the simulated machine
// (Optane platforms interleave at 4 KiB).
const DefaultStripe = 4096

// regionHeader is the reserved prefix of every region holding the
// persistent allocation pointer, so a recovering process can find out how
// far the arena had grown before the crash.
const regionHeader = 64

// Heap hands out named regions of simulated PMEM.
type Heap struct {
	machine *xpsim.Machine

	mu      sync.Mutex
	regions map[string]*Region
}

// NewHeap builds a heap over the machine's devices.
func NewHeap(m *xpsim.Machine) *Heap {
	return &Heap{machine: m, regions: make(map[string]*Region)}
}

// Machine returns the underlying simulated machine.
func (h *Heap) Machine() *xpsim.Machine { return h.machine }

// Map creates the named region, or re-attaches to it if it already exists
// (which is how recovery finds its data after a crash). Size and placement
// must match on re-attach.
func (h *Heap) Map(name string, size int64, p Placement) (*Region, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r, ok := h.regions[name]; ok {
		if r.size != size || r.place.Kind != p.Kind {
			return nil, fmt.Errorf("pmem: region %q exists with different geometry", name)
		}
		return r, nil
	}
	if p.Stripe == 0 {
		p.Stripe = DefaultStripe
	}
	r := &Region{heap: h, name: name, size: size, place: p}
	switch p.Kind {
	case Bind:
		d := h.machine.Device(p.Node)
		base, err := d.Reserve(size, xpsim.XPLineSize)
		if err != nil {
			return nil, fmt.Errorf("pmem: map %q: %w", name, err)
		}
		r.devs = []*xpsim.Device{d}
		r.bases = []int64{base}
	case Interleave:
		n := int64(h.machine.Sockets)
		per := (size + p.Stripe*n - 1) / n / p.Stripe * p.Stripe
		for _, d := range h.machine.Devices() {
			base, err := d.Reserve(per, xpsim.XPLineSize)
			if err != nil {
				return nil, fmt.Errorf("pmem: map %q: %w", name, err)
			}
			r.devs = append(r.devs, d)
			r.bases = append(r.bases, base)
		}
	default:
		return nil, fmt.Errorf("pmem: unknown placement %d", p.Kind)
	}
	// Initialize the persistent allocation pointer past the header.
	r.allocMirror = regionHeader
	ctx := xpsim.NewCtx(r.NodeOf(0))
	mem.WriteU64(r, ctx, 0, uint64(regionHeader))
	h.regions[name] = r
	return r, nil
}

// CrashClone snapshots the heap exactly as the device model says it was
// durable — the post-power-failure view of the machine. It returns a new
// heap on a fresh machine whose devices hold each device's DurableState:
// with fault tracking enabled that image excludes XPBuffer-resident lines
// never written back and keeps the crash line torn; without tracking it
// equals the eADR write-through contents. Every region is re-registered
// in the clone with its allocation mirror re-read from the durable header
// (what a recovering process would see), so core.Recover can re-attach by
// name. The live heap keeps running unharmed.
func (h *Heap) CrashClone() (*Heap, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	src := h.machine
	if len(src.Devices()) == 0 {
		return nil, fmt.Errorf("pmem: machine has no devices")
	}
	clone := xpsim.NewMachine(src.Sockets, src.Devices()[0].Size(), src.Lat)
	for _, d := range src.Devices() {
		if err := clone.Device(d.Node()).RestoreState(d.DurableState()); err != nil {
			return nil, fmt.Errorf("pmem: crash clone: %w", err)
		}
	}
	// Media damage survives a power cycle: UE-marked lines, slow regions
	// and dead devices are physical device state, not DRAM state, so the
	// clone inherits them (the durable image already holds the scrambled
	// bytes — this carries the poison marks that make checked reads err).
	if f := src.Faults(); f != nil {
		clone.TrackFaults().RestoreMediaState(f.ExportMediaState())
	}
	nh := NewHeap(clone)
	// Deterministic region order: re-reading each region's allocation
	// pointer touches the clone's devices, and map order must not leak
	// into their cache state.
	names := make([]string, 0, len(h.regions))
	for name := range h.regions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := h.regions[name]
		nr := &Region{heap: nh, name: name, size: r.size, place: r.place}
		for i, d := range r.devs {
			nr.devs = append(nr.devs, clone.Device(d.Node()))
			nr.bases = append(nr.bases, r.bases[i])
		}
		// The allocation mirror comes from the durable header — it may
		// lag the live mirror if the crash beat the pointer's writeback.
		ctx := xpsim.NewCtx(nr.NodeOf(0))
		alloc := int64(mem.ReadU64(nr, ctx, 0))
		if alloc < regionHeader || alloc > nr.size {
			// The region was mapped but its header write never reached
			// the media: recover it as empty.
			alloc = regionHeader
			mem.WriteU64(nr, ctx, 0, uint64(alloc))
		}
		nr.allocMirror = alloc
		nh.regions[name] = nr
	}
	return nh, nil
}

// Get returns an existing region by name.
func (h *Heap) Get(name string) (*Region, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.regions[name]
	return r, ok
}

// Region is a named span of persistent memory. It implements mem.Mem.
type Region struct {
	heap  *Heap
	name  string
	size  int64
	place Placement
	devs  []*xpsim.Device
	bases []int64

	mu          sync.Mutex
	allocMirror int64 // DRAM mirror of the persisted allocation pointer
}

var (
	_ mem.Mem        = (*Region)(nil)
	_ mem.CheckedMem = (*Region)(nil)
)

// Size implements mem.Mem.
func (r *Region) Size() int64 { return r.size }

// Persistent implements mem.Mem.
func (r *Region) Persistent() bool { return true }

// NodeOf reports the NUMA node that owns the byte at off.
func (r *Region) NodeOf(off int64) int {
	if len(r.devs) == 1 {
		return r.devs[0].Node()
	}
	stripe := off / r.place.Stripe
	return r.devs[stripe%int64(len(r.devs))].Node()
}

// locate maps a logical offset to (device index, device-local offset,
// bytes remaining in this stripe).
func (r *Region) locate(off int64) (int, int64, int64) {
	if len(r.devs) == 1 {
		return 0, r.bases[0] + off, r.size - off
	}
	n := int64(len(r.devs))
	stripe := off / r.place.Stripe
	within := off % r.place.Stripe
	di := stripe % n
	local := r.bases[di] + (stripe/n)*r.place.Stripe + within
	return int(di), local, r.place.Stripe - within
}

// Read implements mem.Mem.
func (r *Region) Read(ctx *xpsim.Ctx, off int64, p []byte) {
	r.check(off, int64(len(p)))
	for len(p) > 0 {
		di, local, avail := r.locate(off)
		n := int64(len(p))
		if n > avail {
			n = avail
		}
		r.devs[di].Read(ctx, local, p[:n])
		p = p[n:]
		off += n
	}
}

// ReadChecked implements mem.CheckedMem: Read through the devices'
// media-error-aware path, returning the first *xpsim.MediaError hit. p is
// filled either way.
func (r *Region) ReadChecked(ctx *xpsim.Ctx, off int64, p []byte) error {
	r.check(off, int64(len(p)))
	var first error
	for len(p) > 0 {
		di, local, avail := r.locate(off)
		n := int64(len(p))
		if n > avail {
			n = avail
		}
		if err := r.devs[di].ReadChecked(ctx, local, p[:n]); err != nil && first == nil {
			first = err
		}
		p = p[n:]
		off += n
	}
	return first
}

// LineAt maps a region offset to the (NUMA node, device XPLine) that backs
// it — the coordinates a scrubber quarantines.
func (r *Region) LineAt(off int64) (node int, line int64) {
	r.check(off, 1)
	di, local, _ := r.locate(off)
	return r.devs[di].Node(), local / xpsim.XPLineSize
}

// Write implements mem.Mem.
func (r *Region) Write(ctx *xpsim.Ctx, off int64, p []byte) {
	r.check(off, int64(len(p)))
	for len(p) > 0 {
		di, local, avail := r.locate(off)
		n := int64(len(p))
		if n > avail {
			n = avail
		}
		r.devs[di].Write(ctx, local, p[:n])
		p = p[n:]
		off += n
	}
}

// Flush implements mem.Mem: clwb over the covered lines.
func (r *Region) Flush(ctx *xpsim.Ctx, off, n int64) {
	r.check(off, n)
	for n > 0 {
		di, local, avail := r.locate(off)
		c := n
		if c > avail {
			c = avail
		}
		r.devs[di].Flush(ctx, local, c)
		n -= c
		off += c
	}
}

// Alloc implements mem.Mem: a persistent bump allocator. The allocation
// pointer is persisted in the region header so recovery can scan exactly
// the allocated prefix.
func (r *Region) Alloc(ctx *xpsim.Ctx, n, align int64) (int64, error) {
	r.mu.Lock()
	base := r.allocMirror
	if align > 0 {
		base = (base + align - 1) / align * align
	}
	if base+n > r.size {
		r.mu.Unlock()
		return 0, fmt.Errorf("pmem: region %q full: need %d bytes, %d free", r.name, n, r.size-base)
	}
	r.allocMirror = base + n
	r.mu.Unlock()
	// Persist the bump pointer. Its header line is touched by every
	// allocation, so it permanently lives in the CPU caches / XPBuffer;
	// charge a contended cached store rather than media traffic.
	free := &xpsim.Ctx{Cost: &xpsim.Cost{}, Node: ctx.Node, Worker: ctx.Worker, Workers: ctx.Workers}
	mem.WriteU64(r, free, 0, uint64(base+n))
	ctx.Cost.Add(r.heap.machine.Lat.DRAMCached)
	return base, nil
}

// AllocBytes implements mem.Mem.
func (r *Region) AllocBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.allocMirror
}

// PersistedAllocOffset reads the allocation pointer from the device — what
// a recovering process sees before any DRAM state exists.
func (r *Region) PersistedAllocOffset(ctx *xpsim.Ctx) int64 {
	return int64(mem.ReadU64(r, ctx, 0))
}

// UserStart is the first offset usable by clients (past the header).
func (r *Region) UserStart() int64 { return regionHeader }

// RewindAlloc moves the allocation pointer back to off and persists it
// immediately. Recovery uses it after a crash truncated the arena mid-
// allocation: the bump pointer's writeback can land before the allocated
// block's header does, leaving a durable pointer that covers garbage. The
// scan stops at the garbage and rewinds here, so the region re-allocates
// (and overwrites) the unreachable suffix instead of leaking it — and so
// a later scan never trips over it.
func (r *Region) RewindAlloc(ctx *xpsim.Ctx, off int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < regionHeader || off > r.allocMirror {
		panic(fmt.Sprintf("pmem: rewind %q to %d outside [%d,%d]", r.name, off, regionHeader, r.allocMirror))
	}
	r.allocMirror = off
	mem.WriteU64(r, ctx, 0, uint64(off))
	r.Flush(ctx, 0, 8)
}

func (r *Region) check(off, n int64) {
	if off < 0 || off+n > r.size {
		panic(fmt.Sprintf("pmem: region %q access [%d,%d) out of bounds %d", r.name, off, off+n, r.size))
	}
}
