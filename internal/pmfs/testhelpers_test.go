package pmfs

import (
	"fmt"

	"repro/internal/xpsim"
)

// Open returns an existing file. One VFS operation.
func (fs *FS) Open(ctx *xpsim.Ctx, name string) (*file, error) {
	ctx.Cost.Add(fs.lat.VFSOp)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("pmfs: %s: no such file", name)
	}
	return f, nil
}

// Size reports the file length.
func (f *file) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}
