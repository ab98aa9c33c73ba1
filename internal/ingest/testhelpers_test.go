package ingest

// Shutdown drains gracefully: new writes are fenced off, every accepted
// write is applied, then the Applier's Flush runs one last time.
func (p *Pipeline) Shutdown() {
	p.SetDraining()
	p.Close()
}
