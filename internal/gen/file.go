package gen

import (
	"bufio"
	"os"

	"repro/internal/graph"
)

// WriteEdgeFile saves edges in the binary edge-list format (8 bytes per
// edge), the input format of the paper's artifact.
func WriteEdgeFile(path string, edges []graph.Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var rec [graph.EdgeBytes]byte
	for _, e := range edges {
		e.Encode(rec[:])
		if _, err := w.Write(rec[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
