// Package ssd simulates an NVMe SSD as a byte space with page-granular
// access costs. It is the substrate for the paper's stated future-work
// extension (§V-F): "For larger graphs that can not fit in PMEM, we will
// consider extending the SSD-supported XPGraph". Cold adjacency blocks
// overflow onto this tier through mem.Tiered once the PMEM arena fills.
package ssd

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/xpsim"
)

// pageSize is the device access granularity.
const pageSize = 4096

// Latencies of one 4 KiB page operation, loosely matching a datacenter
// NVMe drive (the testbed's 3.84 TB Intel NVMe SSD). Roughly 30-50x the
// cost of the equivalent PMEM traffic — which is the point of the tier.
const (
	readPageNs  = 18_000
	writePageNs = 11_000
)

// Space is one simulated SSD namespace. It implements mem.Mem.
type Space struct {
	lat  *xpsim.LatencyModel
	size int64

	mu    sync.Mutex
	store *xpsim.ChunkStore
	alloc int64

	pagesRead    int64
	pagesWritten int64
}

var _ mem.Mem = (*Space)(nil)

// spaceHeader keeps offset 0 out of Alloc's reach ("no block" sentinel).
const spaceHeader = 64

// New builds an SSD space of `size` bytes.
func New(lat *xpsim.LatencyModel, size int64) *Space {
	return &Space{lat: lat, size: size, store: xpsim.NewChunkStore(size), alloc: spaceHeader}
}

func (s *Space) pages(off, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (off+n-1)/pageSize - off/pageSize + 1
}

// Read implements mem.Mem: one page read per touched page.
func (s *Space) Read(ctx *xpsim.Ctx, off int64, p []byte) {
	s.check(off, int64(len(p)))
	s.mu.Lock()
	s.store.ReadAt(p, off)
	n := s.pages(off, int64(len(p)))
	s.pagesRead += n
	s.mu.Unlock()
	ctx.Cost.Add(n * readPageNs)
}

// Write implements mem.Mem: one page write per touched page (the FTL
// absorbs sub-page writes, but they still cost a page program).
func (s *Space) Write(ctx *xpsim.Ctx, off int64, p []byte) {
	s.check(off, int64(len(p)))
	s.mu.Lock()
	s.store.WriteAt(p, off)
	n := s.pages(off, int64(len(p)))
	s.pagesWritten += n
	s.mu.Unlock()
	ctx.Cost.Add(n * writePageNs)
}

// Flush implements mem.Mem: writes are durable once acknowledged here.
func (s *Space) Flush(*xpsim.Ctx, int64, int64) {}

// Alloc implements mem.Mem.
func (s *Space) Alloc(_ *xpsim.Ctx, n, align int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.alloc
	if align > 0 {
		base = (base + align - 1) / align * align
	}
	if base+n > s.size {
		return 0, fmt.Errorf("ssd: namespace full: need %d bytes, %d free", n, s.size-base)
	}
	s.alloc = base + n
	return base, nil
}

// AllocBytes implements mem.Mem.
func (s *Space) AllocBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc
}

// Size implements mem.Mem.
func (s *Space) Size() int64 { return s.size }

// NodeOf implements mem.Mem: the SSD hangs off the PCIe fabric, not a
// memory controller; access cost dwarfs any NUMA asymmetry.
func (s *Space) NodeOf(int64) int { return -1 }

// Persistent implements mem.Mem.
func (s *Space) Persistent() bool { return true }

func (s *Space) check(off, n int64) {
	if off < 0 || off+n > s.size {
		panic(fmt.Sprintf("ssd: access [%d,%d) out of bounds %d", off, off+n, s.size))
	}
}
