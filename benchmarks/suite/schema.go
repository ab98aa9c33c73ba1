package suite

import (
	"encoding/json"
	"io"
)

// Command is how the driver starts the benchmark, from the root of a
// checkout; RunSeconds how long one run measures. 22 runs per workload
// plus 4, with two cold builds, have to fit the driver's 3420 s.
var (
	Command    = []string{"bash", "benchmarks/run.sh"}
	Paths      = []string{"benchmarks"}
	RunSeconds = 26
)

// WriteSchema renders BENCHMARK.json from the tables in this package, so
// the file at the repository root cannot drift from what the command
// prints: regenerate it with `xpbench schema > BENCHMARK.json`.
func WriteSchema(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endToEnd struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type perLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []endToEnd `json:"end_to_end"`
		PerLayer   []perLayer `json:"per_layer"`
	}{Command: Command, Paths: Paths, RunSeconds: RunSeconds}
	for _, wl := range Workloads {
		doc.Workloads = append(doc.Workloads, workload{wl.Name, wl.Why})
	}
	for _, m := range EndToEnd {
		doc.EndToEnd = append(doc.EndToEnd, endToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range PerLayer {
		doc.PerLayer = append(doc.PerLayer, perLayer{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
