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
	EncodeBlock(seed[:], Block{Recs: []Record{
		EdgeLabelRecord(1, 2, 3),
		VPropRecord(4, 5, 6),
		LabelDefRecord(7, "knows"),
	}})
	f.Add(seed[:])
	EncodeBlock(seed[:], Block{Recs: []Record{EdgeLabelRecord(1, 2, 3)}, Open: 9})
	f.Add(seed[:])
	f.Add(make([]byte, BlockBytes))
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
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
		EncodeBlock(re[:], b)
		if !bytes.Equal(re[:], data[:BlockBytes]) {
			t.Fatalf("decode/encode round-trip mismatch")
		}
	})
}
