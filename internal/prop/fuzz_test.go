package prop

import (
	"bytes"
	"testing"
)

// FuzzPropColumnDecode throws arbitrary bytes at the column-block
// decoder: it must never panic, never accept a corrupted block, and
// round-trip every block it does accept.
func FuzzPropColumnDecode(f *testing.F) {
	var seed [BlockBytes]byte
	encodeBlock(seed[:], block{Recs: []record{
		edgeLabelRecord(1, 2, 3),
		vPropRecord(4, 5, 6),
		labelDefRecord(7, "knows"),
	}})
	f.Add(seed[:])
	encodeBlock(seed[:], block{Recs: []record{edgeLabelRecord(1, 2, 3)}, Open: 9})
	f.Add(seed[:])
	f.Add(make([]byte, BlockBytes))
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBlock(data)
		if err != nil {
			return
		}
		if b.Recs == nil {
			return // zero block: clean end-of-log
		}
		if len(b.Recs) == 0 || len(b.Recs) > RecordsPerBlock {
			t.Fatalf("accepted impossible record count %d", len(b.Recs))
		}
		// Whatever decoded must re-encode to the identical block (the
		// spare bytes are zero by construction).
		var re [BlockBytes]byte
		encodeBlock(re[:], b)
		if !bytes.Equal(re[:], data[:BlockBytes]) {
			t.Fatalf("decode/encode round-trip mismatch")
		}
	})
}
