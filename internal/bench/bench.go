// Package bench is the experiment harness: one function per table and
// figure of the paper's evaluation (§II-C and §V). Each builds the
// workload, runs the systems under comparison and returns a printable
// table. The regenerated quantity is simulated time / simulated device
// traffic; the reproduction target is the paper's shape (who wins, by what
// factor, where crossovers fall), not absolute numbers.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphone"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// Config tunes a run.
type Config struct {
	// EdgeScale scales the catalog edge counts (1.0 = the full ~1/1024
	// scale of DESIGN.md; benches use smaller values for quick runs).
	EdgeScale float64
	// Datasets restricts the experiment to these catalog names (nil:
	// per-experiment defaults).
	Datasets []string
	// ArchiveThreads is the unified archiving parallelism (§V-B: 16).
	ArchiveThreads int
	// QueryThreads is the query parallelism (§V-C: 96).
	QueryThreads int
	// Latency overrides the calibrated machine model (nil: defaults).
	Latency *xpsim.LatencyModel
	// Tracer, when non-nil, is attached to every store an experiment
	// builds, recording logging/buffering/flushing phase spans on the
	// simulated clock (export with obs.WriteChromeTrace).
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.EdgeScale <= 0 {
		c.EdgeScale = 1
	}
	if c.ArchiveThreads <= 0 {
		c.ArchiveThreads = 16
	}
	if c.QueryThreads <= 0 {
		c.QueryThreads = 96
	}
	return c
}

// scaledDRAMBytes is the machine DRAM capacity used by the volatile-system
// experiments. The paper's testbed has 128 GB; the scaled value is chosen
// so the paper's OOM boundary (YahooWeb, Kron29 and Kron30 fail on
// DRAM-only systems; Kron28 and smaller fit — §II-C, Fig. 12) falls in
// the same place against this implementation's memory layout constants.
const scaledDRAMBytes = 120 << 20

// Cell is one table cell: the text the table prints and, for a measured
// cell, the number behind it — a number leaves the harness once, here, and
// nothing parses it back out of Text.
type Cell struct {
	Text string
	// Key is set on a label cell that names its row; the labels of a row,
	// joined, are the row key of every measurement beside them.
	Key string
	// Row is the measurement: value, unit, direction and what is declared
	// about it. Unit is empty on a label.
	Row
}

// label is a key cell printed as its key; keyed prints text but names the
// row by key (a dataset prints "TT" and is keyed "TT@732500", so a run at
// another scale is another row); text is a cell that is neither key nor
// measurement ("OOM", an echoed parameter).
func label(s string) Cell         { return Cell{Text: s, Key: s} }
func keyed(text, key string) Cell { return Cell{Text: text, Key: key} }
func text(s string) Cell          { return Cell{Text: s} }

// num is a measured cell: v printed with format.
func num(v float64, format, unit, better string) Cell {
	return Cell{Text: fmt.Sprintf(format, v), Row: Row{Value: v, Unit: unit, Better: better}}
}

// count is a measured integer.
func count(n int64, unit, better string) Cell { return num(float64(n), "%.0f", unit, better) }

func secs(ns int64) Cell  { return num(float64(ns)/1e9, "%.3f", "s", Lower) }
func gb(bytes int64) Cell { return num(float64(bytes)/1e9, "%.3f", "GB", Lower) }
func mb(bytes int64) Cell { return num(float64(bytes)/1e6, "%.1f", "MB", Lower) }
func ratio(a, b int64) Cell {
	if b == 0 {
		return text("-")
	}
	return num(float64(a)/float64(b), "%.2fx", "x", Higher)
}

// dsCell labels a row with its dataset, keyed by the edge count it ran at.
func dsCell(ds gen.Dataset, edges int) Cell {
	return keyed(ds.Name, fmt.Sprintf("%s@%d", ds.Name, edges))
}

// floor, bound, paper and deviation declare what the gate and the
// EXPERIMENTS verdict hold the cell's row to (see Row); about is the band of
// a point claim ("~6.4x", "up to 23%"): a quarter either side.
func (c Cell) floor(f float64) Cell { c.Floor = &f; return c }
func (c Cell) bound(b float64) Cell { c.Bound = &b; return c }
func (c Cell) paper(lo, hi float64) Cell {
	c.Band = &[2]float64{lo, hi}
	return c
}
func (c Cell) about(x float64) Cell { return c.paper(0.75*x, 1.25*x) }
func (c Cell) deviation(n int) Cell { c.Deviation = n; return c }

// printed replaces the text of a measured cell whose number alone does not
// say it ("5 of 7", "none").
func (c Cell) printed(s string) Cell { c.Text = s; return c }

// simBound is how far a simulated or counted row may fall behind its
// baseline. Such rows repeat to the digit; the slack is for a change that
// trades a little of one for a lot of another. Host-clock rows are reported
// unbounded, or (a ratio of two) bounded loosely.
const simBound = 0.05

// Table is one regenerated table/figure.
type Table struct {
	Exp     string
	Title   string
	Columns []string
	Rows    [][]Cell
	Notes   []string
	// Extra are the rows the experiment computes beside its table: the
	// numbers EXPERIMENTS.md quotes for a figure (Exp "shape", held against
	// the paper's band) and measurements the table has no column for.
	Extra []Cell
}

// add appends one table row.
func (t *Table) add(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// derive records a measurement the table has no column for.
func (t *Table) derive(name string, c Cell) {
	c.Exp, c.Name = t.Exp, name
	t.Extra = append(t.Extra, c)
}

// shape records a number the figure's EXPERIMENTS summary quotes.
func (t *Table) shape(name string, c Cell) {
	c.Exp, c.Name = "shape", t.Exp+"/"+name
	t.Extra = append(t.Extra, c)
}

// Report flattens the table into rows: every measured cell as
// "<row key>/<column>", then the extra rows.
func (t Table) Report() []Row {
	var out []Row
	for _, cells := range t.Rows {
		key := ""
		for _, c := range cells {
			if c.Key != "" {
				key += c.Key + "/"
			}
		}
		for i, c := range cells {
			if c.Unit == "" {
				continue
			}
			r := c.Row
			r.Exp, r.Name = t.Exp, key+t.Columns[i]
			out = append(out, r)
		}
	}
	for _, c := range t.Extra {
		out = append(out, c.Row)
	}
	return out
}

// String renders the table as aligned text, the extra rows below it one a
// line: "<exp>: <name> = <text>  [<what the row declares>]".
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.Exp, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, r := range t.Rows {
		texts := make([]string, len(r))
		for i, c := range r {
			texts[i] = c.Text
		}
		line(texts)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range t.Extra {
		fmt.Fprintf(&b, "%s: %s = %s  [%s]\n", c.Exp, c.Name, c.Text, c.Row.declared())
	}
	return b.String()
}

// Experiment describes a runnable experiment.
type Experiment struct {
	Name  string
	Title string
	Run   func(Config) (Table, error)
}

var registry []Experiment

func register(name, title string, run func(Config) (Table, error)) {
	registry = append(registry, Experiment{Name: name, Title: title, Run: run})
}

// Experiments lists all registered experiments in registration order.
func Experiments() []Experiment { return registry }

// Run executes one experiment by name.
func Run(name string, cfg Config) (Table, error) {
	latOverride = cfg.Latency
	for _, e := range registry {
		if e.Name == name {
			return e.Run(cfg.withDefaults())
		}
	}
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	sort.Strings(names)
	return Table{}, fmt.Errorf("bench: unknown experiment %q (have: %s)", name, strings.Join(names, ", "))
}

// ---- workload cache ----

var (
	edgeCacheMu sync.Mutex
	edgeCache   = map[string][]graph.Edge{}
)

// edgesFor materializes (and caches) a dataset's edge stream at the
// configured scale.
func edgesFor(ds gen.Dataset, cfg Config) []graph.Edge {
	n := int64(float64(ds.Edges) * cfg.EdgeScale)
	if n < 1024 {
		n = 1024
	}
	key := fmt.Sprintf("%s/%d", ds.Name, n)
	edgeCacheMu.Lock()
	defer edgeCacheMu.Unlock()
	if e, ok := edgeCache[key]; ok {
		return e
	}
	e := gen.RMAT(ds.Scale, n, ds.Seed)
	edgeCache[key] = e
	return e
}

// datasets resolves the experiment's dataset list.
func datasets(cfg Config, defaults ...string) ([]gen.Dataset, error) {
	names := cfg.Datasets
	if len(names) == 0 {
		names = defaults
	}
	var out []gen.Dataset
	for _, n := range names {
		ds, err := gen.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}

// allNames is the full Table II list.
var allNames = []string{"TT", "FS", "UK", "YW", "K28", "K29", "K30"}

// ---- machine and store builders ----

// latOverride holds the CLI's latency override for machine construction.
// It is set once by Run before dispatching (experiments build machines
// deep inside helpers; threading it everywhere would add noise).
var latOverride *xpsim.LatencyModel

// newMachine sizes a simulated two-socket testbed for the workload.
func newMachine(edges int64) *xpsim.Machine {
	lat := xpsim.DefaultLatency()
	if latOverride != nil {
		lat = *latOverride
	}
	per := edges*48 + (256 << 20)
	return xpsim.NewMachine(2, per, lat)
}

// adjBytesFor sizes adjacency regions generously for the edge count.
func adjBytesFor(edges int64, parts int) int64 {
	return edges*32/int64(parts) + (32 << 20)
}

type xpOpt func(*core.Options)

// newXPGraph builds an XPGraph (or variant) over a fresh machine.
func newXPGraph(edges []graph.Edge, numV uint32, cfg Config, opts ...xpOpt) (*core.Store, *xpsim.Machine, error) {
	o := core.Options{
		Name:           "xp",
		NumVertices:    numV,
		ArchiveThreads: cfg.ArchiveThreads,
		NUMA:           core.NUMASubgraph,
	}
	for _, f := range opts {
		f(&o)
	}
	m := newMachine(int64(len(edges)))
	parts := 1
	if o.NUMA == core.NUMASubgraph {
		parts = m.Sockets
	}
	if o.AdjBytes == 0 {
		o.AdjBytes = adjBytesFor(int64(len(edges)), parts)
	}
	var h *pmem.Heap
	var budget *mem.Budget
	if o.Medium == core.MediumPMEM {
		h = pmem.NewHeap(m)
	}
	if o.Medium == core.MediumDRAM {
		budget = mem.NewBudget(scaledDRAMBytes)
	}
	s, err := core.New(m, h, budget, o)
	if err == nil {
		s.SetTracer(cfg.Tracer)
	}
	return s, m, err
}

// ingestXP builds an XPGraph (or variant) over a fresh machine and ingests
// the stream into it; the machine's counters then hold the ingest's traffic
// alone.
func ingestXP(edges []graph.Edge, numV uint32, cfg Config, opts ...xpOpt) (*core.Store, *xpsim.Machine, core.IngestReport, error) {
	s, m, err := newXPGraph(edges, numV, cfg, opts...)
	if err != nil {
		return nil, nil, core.IngestReport{}, err
	}
	m.ResetStats()
	rep, err := s.Ingest(edges)
	return s, m, rep, err
}

// newGraphOne builds a GraphOne variant over a fresh machine.
func newGraphOne(edges []graph.Edge, numV uint32, cfg Config, variant graphone.Variant, bind bool, threads int) (*graphone.Store, *xpsim.Machine, error) {
	m := newMachine(int64(len(edges)))
	var h *pmem.Heap
	var budget *mem.Budget
	switch variant {
	case graphone.VariantP, graphone.VariantN:
		h = pmem.NewHeap(m)
	case graphone.VariantD:
		budget = mem.NewBudget(scaledDRAMBytes)
	}
	if threads <= 0 {
		threads = cfg.ArchiveThreads
	}
	s, err := graphone.New(m, h, budget, graphone.Options{
		Name:           "go",
		NumVertices:    numV,
		ArchiveThreads: threads,
		AdjBytes:       adjBytesFor(int64(len(edges)), 1),
		Variant:        variant,
		BindSingleNode: bind,
	})
	if err == nil {
		s.SetTracer(cfg.Tracer)
	}
	return s, m, err
}

// ingestGraphOne is ingestXP for a GraphOne variant.
func ingestGraphOne(edges []graph.Edge, numV uint32, cfg Config, variant graphone.Variant, bind bool, threads int) (*graphone.Store, *xpsim.Machine, graphone.IngestReport, error) {
	s, m, err := newGraphOne(edges, numV, cfg, variant, bind, threads)
	if err != nil {
		return nil, nil, graphone.IngestReport{}, err
	}
	m.ResetStats()
	rep, err := s.Ingest(edges)
	return s, m, rep, err
}
