package mem

// Peak reports the high-water mark of charged bytes.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// Release returns n bytes to the budget.
func (b *Budget) Release(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.used -= n
	b.mu.Unlock()
}
