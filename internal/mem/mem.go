// Package mem defines the memory abstraction the graph stores are written
// against. A Mem is a flat byte space with an allocator; the concrete
// implementations are DRAM (this package), Optane Memory-Mode (this
// package) and app-direct PMEM regions (package pmem). Writing the stores
// against Mem is what lets the same code run as XPGraph / XPGraph-D and
// GraphOne-D / GraphOne-P, exactly like the paper's variants (§IV-C).
package mem

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/xpsim"
)

// ErrOOM is returned when a DRAM allocation exceeds the machine's DRAM
// budget — the out-of-memory condition the paper hits on YahooWeb and the
// Kron graphs for DRAM-only systems (Fig. 12, Fig. 16).
var ErrOOM = errors.New("mem: out of DRAM")

// Mem is a byte-addressable memory space with simulated access costs.
type Mem interface {
	// Read copies len(p) bytes at off into p.
	Read(ctx *xpsim.Ctx, off int64, p []byte)
	// Write copies p to off.
	Write(ctx *xpsim.Ctx, off int64, p []byte)
	// Flush forces [off, off+n) toward the persistence domain (no-op for
	// volatile spaces).
	Flush(ctx *xpsim.Ctx, off, n int64)
	// Alloc reserves n bytes aligned to align and returns the offset.
	Alloc(ctx *xpsim.Ctx, n, align int64) (int64, error)
	// AllocBytes reports total bytes allocated so far.
	AllocBytes() int64
	// Size reports the capacity of the space.
	Size() int64
	// NodeOf reports the NUMA home of an offset (-1 when uniform).
	NodeOf(off int64) int
	// Persistent reports whether contents survive a crash.
	Persistent() bool
}

// CheckedMem is implemented by spaces whose reads can fail with a media
// error (app-direct PMEM regions over a fault-injected machine). Mem.Read
// keeps its infallible signature — most call sites run over DRAM or a
// healthy device — and media-aware readers upgrade via this interface.
type CheckedMem interface {
	Mem
	// ReadChecked is Read that reports an *xpsim.MediaError when the
	// access touched an uncorrectable line or a failed device. p is
	// filled either way (with whatever the media holds).
	ReadChecked(ctx *xpsim.Ctx, off int64, p []byte) error
}

// ReadChecked reads through m's checked path when it has one and falls
// back to the infallible Read (volatile spaces cannot take media errors).
func ReadChecked(m Mem, ctx *xpsim.Ctx, off int64, p []byte) error {
	if cm, ok := m.(CheckedMem); ok {
		return cm.ReadChecked(ctx, off, p)
	}
	m.Read(ctx, off, p)
	return nil
}

// Budget tracks a machine-wide DRAM budget shared by every DRAM consumer
// (spaces, vertex-buffer pools, metadata accounting).
type Budget struct {
	mu   sync.Mutex
	cap  int64 // <=0 means unlimited
	used int64
	peak int64
}

// NewBudget returns a budget capped at capBytes (<=0: unlimited).
func NewBudget(capBytes int64) *Budget { return &Budget{cap: capBytes} }

// Charge reserves n bytes, failing with ErrOOM if the cap would be
// exceeded.
func (b *Budget) Charge(n int64) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cap > 0 && b.used+n > b.cap {
		return fmt.Errorf("%w: want %d bytes, %d of %d in use", ErrOOM, n, b.used, b.cap)
	}
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	return nil
}

// Used reports currently charged bytes.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Space is a volatile memory space: plain DRAM, or Optane in Memory Mode
// (slower, but vast). Accesses of at least a cache line are charged at the
// streaming rate; smaller accesses are charged as random.
type Space struct {
	lat        *xpsim.LatencyModel
	mulR, mulW float64
	size       int64
	budget     *Budget

	mu      sync.Mutex
	store   *xpsim.ChunkStore
	alloc   int64
	lastEnd int64 // end offset of the previous access (stream detection)
}

var _ Mem = (*Space)(nil)

// spaceHeader reserves the first bytes of every space so that offset 0 is
// never handed out by Alloc — callers use 0 as a "no block" sentinel.
const spaceHeader = 64

// NewDRAM builds a DRAM space of `size` bytes drawing allocations from
// `budget` (nil: unaccounted).
func NewDRAM(lat *xpsim.LatencyModel, size int64, budget *Budget) *Space {
	return &Space{lat: lat, mulR: 1, mulW: 1, size: size, budget: budget,
		store: xpsim.NewChunkStore(size), alloc: spaceHeader}
}

// NewMemoryMode builds a space modelling Optane configured in Memory Mode:
// DRAM semantics (volatile, uniform) at Optane-ish latency (Fig. 12 "MM").
func NewMemoryMode(lat *xpsim.LatencyModel, size int64) *Space {
	return &Space{lat: lat, mulR: lat.MemModeReadMul, mulW: lat.MemModeWriteMul,
		size: size, store: xpsim.NewChunkStore(size), alloc: spaceHeader}
}

// Read implements Mem.
func (s *Space) Read(ctx *xpsim.Ctx, off int64, p []byte) {
	s.check(off, int64(len(p)))
	s.mu.Lock()
	s.store.ReadAt(p, off)
	seq := off == s.lastEnd
	s.lastEnd = off + int64(len(p))
	s.mu.Unlock()
	s.charge(ctx, off, int64(len(p)), false, seq)
}

// Write implements Mem.
func (s *Space) Write(ctx *xpsim.Ctx, off int64, p []byte) {
	s.check(off, int64(len(p)))
	s.mu.Lock()
	s.store.WriteAt(p, off)
	seq := off == s.lastEnd
	s.lastEnd = off + int64(len(p))
	s.mu.Unlock()
	s.charge(ctx, off, int64(len(p)), true, seq)
}

// charge prices an access. Streaming continuations (the access starts
// exactly where the previous one ended, e.g. edge-log appends or batch
// scans) pay the sequential rate per newly-entered cache line; everything
// else pays the random rate per touched line.
func (s *Space) charge(ctx *xpsim.Ctx, off, n int64, write, seq bool) {
	mul := s.mulR
	if write {
		mul = s.mulW
	}
	const cl = xpsim.CacheLineSize
	if seq || n >= cl {
		per := s.lat.DRAMSeqRead
		if write {
			per = s.lat.DRAMSeqWrite
		}
		newLines := (off+n+cl-1)/cl - (off+cl-1)/cl
		if off%cl == 0 {
			newLines++
		}
		cost := float64(newLines*per) * mul
		if cost < 2 {
			cost = 2 // in-line continuation: a cached store/load
		}
		ctx.Cost.AddF(cost)
		return
	}
	lines := (n + cl - 1) / cl
	per := s.lat.DRAMRead
	if write {
		per = s.lat.DRAMWrite
	}
	ctx.Cost.AddF(float64(lines*per) * mul)
}

// Flush implements Mem; volatile spaces have nothing to flush.
func (s *Space) Flush(*xpsim.Ctx, int64, int64) {}

// Alloc implements Mem.
func (s *Space) Alloc(_ *xpsim.Ctx, n, align int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.alloc
	if align > 0 {
		base = (base + align - 1) / align * align
	}
	if base+n > s.size {
		return 0, fmt.Errorf("%w: space full: need %d, have %d", ErrOOM, n, s.size-base)
	}
	if s.budget != nil {
		if err := s.budget.Charge(base + n - s.alloc); err != nil {
			return 0, err
		}
	}
	s.alloc = base + n
	return base, nil
}

// AllocBytes implements Mem.
func (s *Space) AllocBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc
}

// Size implements Mem.
func (s *Space) Size() int64 { return s.size }

// NodeOf implements Mem; volatile spaces are modelled as uniform.
func (s *Space) NodeOf(int64) int { return -1 }

func (s *Space) check(off, n int64) {
	if off < 0 || off+n > s.size {
		panic(fmt.Sprintf("mem: access [%d,%d) out of space bounds %d", off, off+n, s.size))
	}
}

// Persistent implements Mem.
func (s *Space) Persistent() bool { return false }
