package ssd

// Pages reports (read, written) page counts.
func (s *Space) Pages() (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pagesRead, s.pagesWritten
}
