package prop

// Empty reports a filter that accepts everything.
func (f Filter) Empty() bool { return len(f.Types) == 0 && f.Op == opNone }

// LabelID resolves a registered label name.
func (s *Store) LabelID(name string) (uint16, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, n := range s.names {
		if id > 0 && n == name {
			return uint16(id), true
		}
	}
	return 0, false
}

// LabelName resolves a label id ("" for the default label or unknown).
func (s *Store) LabelName(id uint16) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(id) < len(s.names) {
		return s.names[id]
	}
	return ""
}

// LabelChecked is Label, failing with ErrDamaged once an unrecoverable
// column block means the answer could be silently wrong.
func (s *Store) LabelChecked(src, dst uint32) (uint16, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.damaged {
		return 0, ErrDamaged
	}
	return s.labels[uint64(src)<<32|uint64(dst)], nil
}

// VProp reads vertex v's property key.
func (s *Store) VProp(v uint32, key uint16) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	val, ok := s.vprops[uint64(v)<<32|uint64(key)]
	return val, ok
}
