package elog

import (
	"repro/internal/mem"
	"repro/internal/xpsim"
)

// Attach reopens a log previously created at hdr/base in m — the recovery
// path: cursors are read back from persistent memory. Every invariant a
// later Read or Mark relies on is validated here, so a corrupt or torn
// header surfaces as an error instead of a panic or an out-of-window
// replay: cursors must be ordered, the unflushed window must still be
// resident (head-flushed <= cap), and the ring must fit the memory.
func Attach(ctx *xpsim.Ctx, m mem.Mem, hdr, base int64, battery bool) (*Log, error) {
	return AttachWith(ctx, m, hdr, base, Config{Battery: battery})
}
