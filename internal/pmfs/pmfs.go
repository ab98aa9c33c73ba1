// Package pmfs is a minimal simulated PMEM file system, the substrate of
// the GraphOne-N baseline (§V-A). GraphOne-N does its adjacency I/O through
// file system calls on a NOVA-style PMEM file system. Data still lands on
// the simulated Optane devices; what the file system adds is the
// per-operation cost of going through the kernel — VFS dispatch, metadata
// and log management — which is exactly why the paper finds file-I/O based
// graph stores an order of magnitude slower than mmap-based ones (Fig. 11;
// NOVA-Fortis, Fig. 10 of [79]).
package pmfs

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/xpsim"
)

// extentSize is the allocation granularity of the file system.
const extentSize = 1 << 20

// journalRecordBytes is the metadata a log-structured PMEM file system
// persists per mutating operation (NOVA: a log entry with inode update,
// allocation info and checksums). This is what makes GraphOne-N's media
// traffic an order of magnitude above the mmap-based GraphOne-P in the
// paper's Fig. 13 — every 4-byte neighbor write drags file-system
// metadata with it.
const journalRecordBytes = 512

// FS is the simulated file system over a PMEM region.
type FS struct {
	m   mem.Mem
	lat *xpsim.LatencyModel

	mu         sync.Mutex
	files      map[string]*file
	journalOff int64 // bump cursor inside the journal area
	journalLen int64
}

// NewFS builds a file system backed by m.
func NewFS(m mem.Mem, lat *xpsim.LatencyModel) *FS {
	fs := &FS{m: m, lat: lat, files: make(map[string]*file)}
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	// Reserve a circular journal area up front.
	fs.journalLen = 16 << 20
	off, err := m.Alloc(ctx, fs.journalLen, xpsim.XPLineSize)
	if err != nil {
		// Degenerate backing store: journal traffic is skipped.
		fs.journalLen = 0
	}
	fs.journalOff = off
	return fs
}

// journal appends one metadata record for a mutating operation.
func (fs *FS) journal(ctx *xpsim.Ctx) {
	if fs.journalLen == 0 {
		return
	}
	fs.mu.Lock()
	pos := fs.journalOff
	fs.journalOff += journalRecordBytes
	if fs.journalOff+journalRecordBytes > fs.journalLen {
		fs.journalOff = 0
	}
	fs.mu.Unlock()
	rec := make([]byte, journalRecordBytes)
	fs.m.Write(ctx, pos, rec)
}

// file is a byte stream mapped onto region extents.
type file struct {
	fs   *FS
	name string

	mu      sync.Mutex
	extents []int64 // region offset of each extent
	size    int64
}

// create makes (or truncates) a file. One VFS operation.
func (fs *FS) create(ctx *xpsim.Ctx, name string) (*file, error) {
	ctx.Cost.Add(fs.lat.VFSOp)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &file{fs: fs, name: name}
	fs.files[name] = f
	return f, nil
}

func (f *file) ensure(ctx *xpsim.Ctx, size int64) error {
	for int64(len(f.extents))*extentSize < size {
		off, err := f.fs.m.Alloc(ctx, extentSize, xpsim.XPLineSize)
		if err != nil {
			return fmt.Errorf("pmfs: grow %s: %w", f.name, err)
		}
		f.extents = append(f.extents, off)
	}
	if size > f.size {
		f.size = size
	}
	return nil
}

// writeAt is a pwrite(2): one VFS operation, one journal record, plus the
// data traffic.
func (f *file) writeAt(ctx *xpsim.Ctx, off int64, p []byte) error {
	ctx.Cost.Add(f.fs.lat.VFSOp)
	f.fs.journal(ctx)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.ensure(ctx, off+int64(len(p))); err != nil {
		return err
	}
	for len(p) > 0 {
		e := off / extentSize
		within := off % extentSize
		n := int64(len(p))
		if n > extentSize-within {
			n = extentSize - within
		}
		f.fs.m.Write(ctx, f.extents[e]+within, p[:n])
		p = p[n:]
		off += n
	}
	return nil
}

// readAt is a pread(2): one VFS operation plus the data traffic.
func (f *file) readAt(ctx *xpsim.Ctx, off int64, p []byte) error {
	ctx.Cost.Add(f.fs.lat.VFSOp)
	f.mu.Lock()
	defer f.mu.Unlock()
	if off+int64(len(p)) > f.size {
		return fmt.Errorf("pmfs: read past EOF of %s", f.name)
	}
	for len(p) > 0 {
		e := off / extentSize
		within := off % extentSize
		n := int64(len(p))
		if n > extentSize-within {
			n = extentSize - within
		}
		f.fs.m.Read(ctx, f.extents[e]+within, p[:n])
		p = p[n:]
		off += n
	}
	return nil
}

// FileMem adapts a file to the mem.Mem interface, so a graph store
// written against flat memory can be rebased onto file I/O — which is
// precisely how the paper builds GraphOne-N ("only changes the adjacency
// list related memory interfaces based operations to file-I/O based
// operations", §V-A).
type FileMem struct {
	f    *file
	size int64

	mu    sync.Mutex
	alloc int64
}

var _ mem.Mem = (*FileMem)(nil)

// NewFileMem creates a file-backed memory of `size` bytes.
func NewFileMem(ctx *xpsim.Ctx, fs *FS, name string, size int64) (*FileMem, error) {
	f, err := fs.create(ctx, name)
	if err != nil {
		return nil, err
	}
	return &FileMem{f: f, size: size}, nil
}

// Read implements mem.Mem (a pread per call).
func (fm *FileMem) Read(ctx *xpsim.Ctx, off int64, p []byte) {
	if err := fm.f.readAt(ctx, off, p); err != nil {
		panic(err)
	}
}

// Write implements mem.Mem (a pwrite per call).
func (fm *FileMem) Write(ctx *xpsim.Ctx, off int64, p []byte) {
	if err := fm.f.writeAt(ctx, off, p); err != nil {
		panic(err)
	}
}

// Flush implements mem.Mem: an fsync-like VFS call.
func (fm *FileMem) Flush(ctx *xpsim.Ctx, off, n int64) {
	ctx.Cost.Add(fm.f.fs.lat.VFSOp)
}

// Alloc implements mem.Mem: file offsets are handed out bump-style; the
// file grows lazily on write.
func (fm *FileMem) Alloc(ctx *xpsim.Ctx, n, align int64) (int64, error) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	base := fm.alloc
	if align > 0 {
		base = (base + align - 1) / align * align
	}
	if base+n > fm.size {
		return 0, fmt.Errorf("pmfs: file memory %s full", fm.f.name)
	}
	// Ensure backing extents exist so later reads in [0,alloc) succeed.
	fm.f.mu.Lock()
	err := fm.f.ensure(ctx, base+n)
	fm.f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	fm.alloc = base + n
	return base, nil
}

// AllocBytes implements mem.Mem.
func (fm *FileMem) AllocBytes() int64 {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	return fm.alloc
}

// Size implements mem.Mem.
func (fm *FileMem) Size() int64 { return fm.size }

// NodeOf implements mem.Mem: locality is hidden behind the kernel.
func (fm *FileMem) NodeOf(int64) int { return -1 }

// Persistent implements mem.Mem.
func (fm *FileMem) Persistent() bool { return true }
