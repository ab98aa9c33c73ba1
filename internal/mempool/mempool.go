// Package mempool implements the buddy-liked vertex-buffer memory pool of
// XPGraph (§III-C, Fig. 9). The pool hands out large memory bulks, one in
// use per buffering thread to avoid allocation contention, and manages
// power-of-two vertex buffers (8 B … 512 B) with per-size free lists and
// buddy splitting, so the frequent allocate/free churn of hierarchical
// vertex buffers never reaches the system allocator.
//
// A bulk is a reservation. The DRAM budget, the pool limit and Footprint
// count it whole from the moment a thread takes it, but host memory backs
// it only as carving reaches it, in segments that double from a 64th of
// the bulk (FirstSegment): a thread that buffers a few hundred KiB between
// flushes costs a few hundred KiB of heap, not its whole bulk. The free
// lists are threaded through the free buffers themselves, so freeing never
// allocates either.
package mempool

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/mem"
)

// MinClassSize is the smallest vertex buffer (4-byte header + one
// neighbor, the paper's 8-byte configuration in Fig. 16). It is also the
// size of the free-list link a free buffer holds.
const MinClassSize = 8

// NumClasses covers sizes 8, 16, 32, 64, 128, 256, 512.
const NumClasses = 7

// superClass is the largest class; bulks are carved in superblocks of
// this size and split downward (buddy style).
const superClass = NumClasses - 1

// ClassSize returns the byte size of class c.
func ClassSize(c int) int64 { return MinClassSize << c }

// ClassFor returns the smallest class holding size bytes.
func ClassFor(size int64) int {
	for c := 0; c < NumClasses; c++ {
		if ClassSize(c) >= size {
			return c
		}
	}
	return NumClasses - 1
}

// Handle identifies an allocated buffer: (bulk+1)<<32 | offset. The zero
// Handle is "no buffer".
type Handle uint64

// None is the nil Handle.
const None Handle = 0

func makeHandle(bulk int, off int64) Handle {
	return Handle(uint64(bulk+1)<<32 | uint64(uint32(off)))
}

func (h Handle) bulk() int  { return int(uint64(h)>>32) - 1 }
func (h Handle) off() int64 { return int64(uint32(uint64(h))) }

// Config sizes a Pool.
type Config struct {
	BulkSize int64       // per-thread memory bulk (paper default 16 MiB)
	MaxBytes int64       // pool size limit; <=0 means unlimited (Fig. 19 sweep)
	Threads  int         // number of buffering threads sharing the pool
	Budget   *mem.Budget // machine DRAM budget (nil: unaccounted)
}

// DefaultBulkSize matches the paper's 16 MB bulks.
const DefaultBulkSize = 16 << 20

// FirstSegment is the host memory behind the start of a bulk of the given
// size, allocated when its first superblock is carved: the largest power of
// two not above a 64th of the bulk, at least one superblock (256 KiB of a
// default bulk). It scales with the bulk because the bulk size is the
// caller's estimate of one thread's demand. Segment k ≥ 1 covers
// [first<<(k-1), first<<k) of the bulk, so a bulk carved up to byte n > first
// is backed by less than 2n bytes in 1 + ⌈log2(n/first)⌉ allocations, and a
// bulk carved whole by exactly its size, in at most eight.
func FirstSegment(bulk int64) int64 {
	return 1 << firstSegmentShift(bulk)
}

func firstSegmentShift(bulk int64) int {
	return bits.Len64(uint64(max(bulk/64, ClassSize(superClass)))) - 1
}

// Pool is the vertex-buffer memory pool.
type Pool struct {
	cfg Config

	mu        sync.Mutex
	bulks     [][][]byte // each bulk's backing segments, in offset order
	freeBulks []int      // recycled whole bulks after Reset

	threads []threadState

	used      int64 // live allocated bytes
	peak      int64
	footprint int64 // bytes of bulks reserved from the budget
	backed    int64 // bytes of the bulks' segments
	segShift  int   // log2 of FirstSegment(cfg.BulkSize)
}

type threadState struct {
	// free heads the per-class free lists. A free buffer's first 8 bytes
	// hold the handle of the next one (None ends the list).
	free    [NumClasses]Handle
	curBulk int   // index into pool.bulks, -1 if none
	bump    int64 // next unused byte in curBulk
}

// New builds a pool. It reserves and backs nothing: a thread takes a bulk
// on its first carve.
func New(cfg Config) *Pool {
	if cfg.BulkSize <= 0 {
		cfg.BulkSize = DefaultBulkSize
	}
	// Bulks are carved in superblocks; keep them aligned.
	cfg.BulkSize = cfg.BulkSize / ClassSize(superClass) * ClassSize(superClass)
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	p := &Pool{cfg: cfg, threads: make([]threadState, cfg.Threads), segShift: firstSegmentShift(cfg.BulkSize)}
	for i := range p.threads {
		p.threads[i].curBulk = -1
	}
	return p
}

// Alloc returns a buffer of class c for worker `thread`. The returned
// memory is zeroed.
func (p *Pool) Alloc(thread, c int) (Handle, error) {
	st := &p.threads[thread]
	// The exact-size free list first, else the smallest larger free block,
	// split down (buddy split).
	for d := c; d < NumClasses; d++ {
		if h := st.free[d]; h != None {
			st.free[d] = Handle(binary.LittleEndian.Uint64(p.bytes(h, d)))
			return p.take(st, h, d, c), nil
		}
	}
	// A fresh superblock from the thread's bulk.
	h, err := p.carve(st)
	if err != nil {
		return None, err
	}
	return p.take(st, h, superClass, c), nil
}

// take splits the free block h of class d down to class c, pushing the
// upper buddies onto the free lists, and hands out the lower block, zeroed.
func (p *Pool) take(st *threadState, h Handle, d, c int) Handle {
	for lvl := d - 1; lvl >= c; lvl-- {
		p.push(st, makeHandle(h.bulk(), h.off()+ClassSize(lvl)), lvl)
	}
	p.account(ClassSize(c))
	clear(p.bytes(h, c))
	return h
}

// push links the free block h of class c in at the head of its list.
func (p *Pool) push(st *threadState, h Handle, c int) {
	binary.LittleEndian.PutUint64(p.bytes(h, c), uint64(st.free[c]))
	st.free[c] = h
}

func (p *Pool) carve(st *threadState) (Handle, error) {
	super := ClassSize(superClass)
	if st.curBulk < 0 || st.bump+super > p.cfg.BulkSize {
		if err := p.newBulk(st); err != nil {
			return None, err
		}
	}
	if k, _ := p.segment(st.bump); k == len(p.bulks[st.curBulk]) {
		p.back(st.curBulk, st.bump)
	}
	h := makeHandle(st.curBulk, st.bump)
	st.bump += super
	return h, nil
}

// back allocates the segment of bulk b that starts at byte start, for the
// first carve to reach it. A recycled bulk keeps its segments.
func (p *Pool) back(b int, start int64) {
	end := min(max(2*start, 1<<p.segShift), p.cfg.BulkSize)
	seg := make([]byte, end-start)
	p.mu.Lock()
	p.bulks[b] = append(p.bulks[b], seg)
	p.backed += end - start
	p.mu.Unlock()
}

// segment locates byte off of a bulk: the index of its segment and the
// offset inside it.
func (p *Pool) segment(off int64) (k int, at int64) {
	k = bits.Len64(uint64(off) >> p.segShift)
	if k == 0 {
		return 0, off
	}
	return k, off - 1<<(p.segShift+k-1)
}

func (p *Pool) newBulk(st *threadState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.freeBulks); n > 0 {
		st.curBulk = p.freeBulks[n-1]
		p.freeBulks = p.freeBulks[:n-1]
		st.bump = 0
		return nil
	}
	if p.cfg.MaxBytes > 0 && p.footprint+p.cfg.BulkSize > p.cfg.MaxBytes {
		return fmt.Errorf("mempool: pool limit %d bytes reached", p.cfg.MaxBytes)
	}
	if err := p.cfg.Budget.Charge(p.cfg.BulkSize); err != nil {
		return err
	}
	p.bulks = append(p.bulks, nil)
	p.footprint += p.cfg.BulkSize
	st.curBulk = len(p.bulks) - 1
	st.bump = 0
	return nil
}

// Free recycles the buffer h of class c onto worker `thread`'s free list.
func (p *Pool) Free(thread int, h Handle, c int) {
	if h == None {
		return
	}
	p.push(&p.threads[thread], h, c)
	p.account(-ClassSize(c))
}

// Bytes returns the backing memory of h (class c).
func (p *Pool) Bytes(h Handle, c int) []byte { return p.bytes(h, c) }

func (p *Pool) bytes(h Handle, c int) []byte {
	k, at := p.segment(h.off())
	return p.bulks[h.bulk()][k][at : at+ClassSize(c)]
}

func (p *Pool) account(delta int64) {
	p.mu.Lock()
	p.used += delta
	if p.used > p.peak {
		p.peak = p.used
	}
	p.mu.Unlock()
}

// Used reports live allocated bytes.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Peak reports the high-water mark of live bytes — the paper's "DRAM
// space requirement for vertex buffers" (Fig. 16b, Fig. 17b).
func (p *Pool) Peak() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Footprint reports bytes of bulks reserved from the DRAM budget.
func (p *Pool) Footprint() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.footprint
}

// Backed reports host bytes allocated behind the reserved bulks: what
// carving has reached, rounded up to whole segments.
func (p *Pool) Backed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backed
}

// NeedsFlush reports whether pool usage has crossed 7/8 of the limit, the
// signal for the store to flush all vertex buffers and recycle the pool
// (§IV-A flushing phase trigger).
func (p *Pool) NeedsFlush() bool {
	if p.cfg.MaxBytes <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.footprint >= p.cfg.MaxBytes || p.used >= p.cfg.MaxBytes*7/8
}

// Reset drops every allocation and recycles all bulks, with their
// reservations and segments. All outstanding handles become invalid;
// callers must have flushed their buffers first.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.threads {
		st := &p.threads[i]
		st.free = [NumClasses]Handle{}
		st.curBulk = -1
		st.bump = 0
	}
	p.freeBulks = p.freeBulks[:0]
	for i := range p.bulks {
		p.freeBulks = append(p.freeBulks, i)
	}
	p.used = 0
}
