package gen

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// ReadTextEdges parses the whitespace-separated edge-list text format used
// by SNAP and KONECT dataset dumps (the paper's real-world graphs ship in
// it): one "src dst" pair per line, with '#' and '%' comment lines
// ignored. Extra columns (weights, timestamps) are ignored.
func ReadTextEdges(r io.Reader) ([]graph.Edge, error) {
	var edges []graph.Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gen: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gen: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gen: line %d: bad destination %q: %v", lineNo, fields[1], err)
		}
		edges = append(edges, graph.Edge{Src: graph.VID(src), Dst: graph.VID(dst)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edges, nil
}

// WriteTextEdges writes edges in the same text format (deletions are
// written as "src dst -1" since the format has no deletion notion).
func WriteTextEdges(w io.Writer, edges []graph.Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		var err error
		if e.IsDelete() {
			_, err = fmt.Fprintf(bw, "%d %d -1\n", e.Src, e.Target())
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
