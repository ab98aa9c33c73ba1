package graphone

import (
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// Rebuild measures GraphOne's crash recovery. The paper notes GraphOne
// recovers by "re-building the data structure, by just running the
// archiving process worked on bulk of data" with a large archiving
// threshold (2^27 edges in the paper; pass the scaled equivalent). The
// durable edge data already exists before the crash, so loading it into
// the log costs nothing here; what recovery pays for is re-reading the
// bulk and redoing all archiving work — which is why XPGraph, which only
// reloads block headers and replays a small log window, recovers 5-9x
// faster (Fig. 15).
//
// Rebuild returns the recovered store and the simulated recovery time in
// nanoseconds.
func Rebuild(machine *xpsim.Machine, heap *pmem.Heap, opts Options, edges []graph.Edge, threshold int64) (*Store, int64, error) {
	opts = opts.withDefaults()
	opts.LogCapacity = int64(len(edges)) + 1024 // the durable bulk
	if threshold > 0 {
		opts.ArchiveThreshold = threshold
	}
	s, err := New(machine, heap, nil, opts)
	if err != nil {
		return nil, 0, err
	}
	// Stage the pre-crash durable data without charging simulated time:
	// it was written before the crash being recovered from.
	setup := xpsim.NewCtx(xpsim.NodeUnbound)
	if _, err := s.log.Append(setup, edges); err != nil {
		return nil, 0, err
	}
	s.resetReport()
	if err := s.ArchiveAll(); err != nil {
		return nil, 0, err
	}
	return s, s.report.ArchiveNs, nil
}
