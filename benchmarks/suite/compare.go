package suite

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// readResults loads one benchmark result per line, as the command prints
// them (lines that are not JSON objects, such as the report, are skipped).
func readResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var res Result
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// quartiles are the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method), which is what the benchmark driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-1)
		hi := min(lo+1, len(s)-1)
		if pos < 0 {
			return s[0]
		}
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// Compare prints, for every metric two sets of runs share, each set's
// median and quartile spread, the relative difference of the medians in
// the metric's worse direction, and its bound. It is the table NOISE.md
// records and the one a later change's before/after claim must show.
func Compare(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	meta := map[string]Metric{}
	for _, m := range EndToEnd {
		meta[m.Name] = m
	}
	for _, m := range PerLayer {
		meta[m.Name] = m
	}
	collect := func(rs []Result) map[string][]float64 {
		out := map[string][]float64{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				out[name] = append(out[name], v.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	var names []string
	for name := range va {
		if _, ok := vb[name]; ok {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return metricOrder(names[i]) < metricOrder(names[j]) })

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "metric\tunit\tA median\tA iqr\tB median\tB iqr\tB worse by\tbound\t\n")
	for _, name := range names {
		m := meta[name]
		a1, a2, a3 := quartiles(va[name])
		b1, b2, b3 := quartiles(vb[name])
		worse := ratio(b2-a2, a2)
		if m.Better == "higher" {
			worse = -worse
		}
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.1f%%", m.Bound*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.2f%%\t%.6g\t%.2f%%\t%+.2f%%\t%s\t\n",
			name, m.Unit, a2, 100*ratio(a3-a1, a2), b2, 100*ratio(b3-b1, b2), 100*worse, bound)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %d runs (%s), B: %d runs (%s); iqr = (Q3 - Q1) / median, quartiles as Python's statistics.quantiles(n=4)\n",
		len(a), pathA, len(b), pathB)
	return nil
}

// metricOrder sorts metrics in the order the tables declare them.
func metricOrder(name string) int {
	for i, m := range EndToEnd {
		if m.Name == name {
			return i
		}
	}
	for i, m := range PerLayer {
		if m.Name == name {
			return len(EndToEnd) + i
		}
	}
	return len(EndToEnd) + len(PerLayer)
}
