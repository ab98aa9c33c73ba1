package gen

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// ReadEdgeFile loads a binary edge list.
func ReadEdgeFile(path string) ([]graph.Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size()%graph.EdgeBytes != 0 {
		return nil, fmt.Errorf("gen: %s: size %d not a multiple of %d", path, st.Size(), graph.EdgeBytes)
	}
	edges := make([]graph.Edge, 0, st.Size()/graph.EdgeBytes)
	r := bufio.NewReaderSize(f, 1<<20)
	var rec [graph.EdgeBytes]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err == io.EOF {
				return edges, nil
			}
			return nil, err
		}
		edges = append(edges, graph.DecodeEdge(rec[:]))
	}
}
