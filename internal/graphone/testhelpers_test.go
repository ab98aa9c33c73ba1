package graphone

import "repro/internal/graph"

// AddEdge logs one edge.
func (s *Store) AddEdge(src, dst graph.VID) error {
	_, err := s.Ingest([]graph.Edge{{Src: src, Dst: dst}})
	return err
}

// DelEdge logs one deletion.
func (s *Store) DelEdge(src, dst graph.VID) error {
	_, err := s.Ingest([]graph.Edge{graph.Del(src, dst)})
	return err
}

// MemUsage reports the breakdown.
func (s *Store) MemUsage() memUsage {
	return memUsage{
		MetaDRAM: s.metaBytes,
		ElogPMEM: s.log.Bytes(),
		PblkPMEM: s.adjs[0].Bytes() + s.adjs[1].Bytes(),
	}
}

// NumPartitions reports 1: GraphOne has no NUMA-aware partitioning.
func (s *Store) NumPartitions() int { return 1 }

// Variant reports the configured variant.
func (s *Store) Variant() Variant { return s.opts.Variant }

// memUsage mirrors core.MemUsage fields for the benches.
type memUsage struct {
	MetaDRAM int64
	ElogPMEM int64
	PblkPMEM int64
}
