package crashtest

import "testing"

// TestPropScrubRepair: UEs under every column block, scrub rebuilds all
// of them as patch blocks, and the patched image survives recovery with
// the full typed state.
func TestPropScrubRepair(t *testing.T) {
	if err := runPropScrubRepair(); err != nil {
		t.Fatal(err)
	}
}

// TestPropUnrecoverable: unscrubbed mid-log column damage fails typed
// reads closed after recovery while the adjacency surface keeps serving.
func TestPropUnrecoverable(t *testing.T) {
	if err := runPropUnrecoverable(); err != nil {
		t.Fatal(err)
	}
}
