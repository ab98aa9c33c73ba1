// Package scrubtest is the differential media-error verifier: it runs a
// deterministic workload on a MediaGuard store, injects uncorrectable
// errors (xpsim.Faults.InjectUE) under live adjacency chains, and checks
// the store's checked read path vertex-for-vertex against an in-memory
// oracle.
//
// The contract under test is the media-tolerance invariant: a checked
// read either returns exactly what the oracle holds or fails with a
// typed error (*xpsim.MediaError, *adj.CorruptError,
// *core.UnrecoverableError) — it never returns silently wrong edges. On
// top of that the harness drives the repair loop: after core.Scrub the
// damaged vertices must be rebuilt from the SSD archive or the resident
// edge-log window, the store must report HealthOK again, and every read
// must match the oracle with no errors left. Separate scenarios cover
// the unrecoverable path (no rebuild source → typed failure, degraded
// health), whole-NUMA-node failure (readonly health, healthy partitions
// keep serving), and quarantine persistence across crash + recovery.
package scrubtest

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/adj"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/xpsim"
)

// Config describes one deterministic scrub workload.
type Config struct {
	Name     string  // store/region name prefix
	Scale    int     // vertex-ID space is 1<<Scale
	Edges    int64   // workload length
	DelRatio float64 // fraction of deletions (gen.Evolving); 0 = adds only
	Seed     uint64  // workload generator seed

	LogCapacity      int64
	ArchiveThreshold int64
	ArchiveThreads   int
	NUMA             core.NUMAMode
	ArchiveSSDBytes  int64 // SSD edge archive size (0 = log-window rebuilds only)

	Chunk     int // edges per Ingest call (0 = all at once)
	UETargets int // vertices whose chains get UE-injected (default 4)

	// Varint runs the workload on delta-varint adjacency blocks, so UE
	// damage and scrub rebuilds land on variable-length payloads.
	Varint bool
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "scrub"
	}
	if c.Scale == 0 {
		c.Scale = 6
	}
	if c.Edges == 0 {
		c.Edges = 600
	}
	if c.LogCapacity == 0 {
		c.LogCapacity = 1 << 10
	}
	if c.ArchiveThreshold == 0 {
		c.ArchiveThreshold = 1 << 6
	}
	if c.ArchiveThreads == 0 {
		c.ArchiveThreads = 2
	}
	if c.Chunk == 0 {
		c.Chunk = int(c.Edges)
	}
	if c.UETargets == 0 {
		c.UETargets = 4
	}
	return c
}

func (c Config) workload() []graph.Edge {
	if c.DelRatio > 0 {
		return gen.Evolving(c.Scale, c.Edges, c.DelRatio, c.Seed)
	}
	return gen.RMAT(c.Scale, c.Edges, c.Seed)
}

func (c Config) storeOptions() core.Options {
	return core.Options{
		Name:             c.Name,
		NumVertices:      1 << c.Scale,
		LogCapacity:      c.LogCapacity,
		ArchiveThreshold: c.ArchiveThreshold,
		ArchiveThreads:   c.ArchiveThreads,
		NUMA:             c.NUMA,
		MediaGuard:       true,
		ArchiveSSDBytes:  c.ArchiveSSDBytes,
		CompressedAdj:    c.Varint,
	}
}

// build constructs the fault-tracked machine, heap, and MediaGuard store,
// ingests the workload, and flushes everything into PMEM chains so UE
// injection hits data the checked read path must cover.
func build(cfg Config) (*core.Store, *xpsim.Faults, []graph.Edge, error) {
	machine := xpsim.NewMachine(2, 256<<20, xpsim.DefaultLatency())
	faults := machine.TrackFaults()
	st, err := core.New(machine, pmem.NewHeap(machine), nil, cfg.storeOptions())
	if err != nil {
		return nil, nil, nil, err
	}
	edges := cfg.workload()
	for i := 0; i < len(edges); i += cfg.Chunk {
		end := i + cfg.Chunk
		if end > len(edges) {
			end = len(edges)
		}
		if _, err := st.Ingest(edges[i:end]); err != nil {
			return nil, nil, nil, fmt.Errorf("ingest: %w", err)
		}
	}
	if err := st.BufferAllEdges(); err != nil {
		return nil, nil, nil, err
	}
	if err := st.FlushAllVbufs(); err != nil {
		return nil, nil, nil, err
	}
	return st, faults, edges, nil
}

// ---- oracle (crashtest's reference semantics, duplicated locally) ----

type oracle struct {
	out, in map[graph.VID][]uint32
}

func buildOracle(edges []graph.Edge) *oracle {
	o := &oracle{out: map[graph.VID][]uint32{}, in: map[graph.VID][]uint32{}}
	for _, e := range edges {
		if e.IsDelete() {
			o.out[e.Src] = removeOne(o.out[e.Src], e.Target())
			o.in[e.Target()] = removeOne(o.in[e.Target()], e.Src)
			continue
		}
		o.out[e.Src] = append(o.out[e.Src], e.Dst)
		o.in[e.Dst] = append(o.in[e.Dst], e.Src)
	}
	return o
}

func removeOne(s []uint32, v uint32) []uint32 {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func diffMultiset(got, want []uint32) string {
	g := append([]uint32(nil), got...)
	w := append([]uint32(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	if len(g) == len(w) {
		same := true
		for i := range g {
			if g[i] != w[i] {
				same = false
				break
			}
		}
		if same {
			return ""
		}
	}
	return fmt.Sprintf("got %d nbrs %v, want %d nbrs %v", len(g), g, len(w), w)
}

func (o *oracle) want(d core.Direction, v graph.VID) []uint32 {
	if d == core.Out {
		return o.out[v]
	}
	return o.in[v]
}

// typedMediaError reports whether err is one of the typed failures the
// media-tolerance contract allows a checked read to return.
func typedMediaError(err error) bool {
	var me *xpsim.MediaError
	var ce *adj.CorruptError
	var ue *core.UnrecoverableError
	return errors.As(err, &me) || errors.As(err, &ce) || errors.As(err, &ue)
}

// diffReport summarizes one differential pass over every vertex and both
// directions through the checked read path.
type diffReport struct {
	Clean  int // reads that matched the oracle
	Failed int // reads that returned a typed media error
}

// differential checks every vertex in both directions: a checked read
// must either match the oracle exactly or fail with a typed media error.
// Any silently wrong neighbor list is fatal — it is the one outcome the
// media-tolerance layer exists to prevent.
func differential(st *core.Store, o *oracle) (diffReport, error) {
	var rep diffReport
	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	for d := 0; d < 2; d++ {
		for v := graph.VID(0); v < st.NumVertices(); v++ {
			got, err := st.NbrsChecked(ctx, core.Direction(d), v, nil)
			if err != nil {
				if !typedMediaError(err) {
					return rep, fmt.Errorf("vertex %d dir %d: untyped error %v", v, d, err)
				}
				rep.Failed++
				continue
			}
			if diff := diffMultiset(got, o.want(core.Direction(d), v)); diff != "" {
				return rep, fmt.Errorf("SILENT WRONG DATA vertex %d dir %d: %s", v, d, diff)
			}
			rep.Clean++
		}
	}
	return rep, nil
}

// injectChains marks every XPLine backing the Out-chains of n vertices
// as uncorrectable, scrambling the stored bytes. Returns the vertices
// hit. Blocks are denser than lines, so collateral damage to neighbors
// sharing a line is expected — the differential check covers everyone.
func injectChains(st *core.Store, faults *xpsim.Faults, n int) []graph.VID {
	var targets []graph.VID
	for v := graph.VID(0); v < st.NumVertices() && len(targets) < n; v++ {
		lines := st.VertexMediaLines(core.Out, v)
		if len(lines) == 0 {
			continue
		}
		for _, ln := range lines {
			faults.InjectUE(ln.Node, ln.Line)
		}
		targets = append(targets, v)
	}
	return targets
}

// ---- scenarios ----

// RunUEDetection pins the detection half of the contract: after UEs land
// under live chains, no checked read returns silently wrong data — every
// read either matches the oracle or fails typed — and at least the
// injected vertices do fail.
func RunUEDetection(cfg Config) error {
	cfg = cfg.withDefaults()
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	o := buildOracle(edges)

	before, err := differential(st, o)
	if err != nil {
		return fmt.Errorf("pre-damage differential: %w", err)
	}
	if before.Failed != 0 {
		return fmt.Errorf("pre-damage reads failed: %+v", before)
	}

	targets := injectChains(st, faults, cfg.UETargets)
	if len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	after, err := differential(st, o)
	if err != nil {
		return fmt.Errorf("post-damage differential: %w", err)
	}
	if after.Failed < len(targets) {
		return fmt.Errorf("only %d reads failed for %d damaged vertices", after.Failed, len(targets))
	}
	return nil
}

// RunScrubRepair drives the full detect → scrub → repair loop: after the
// scrub every read matches the oracle with no errors left and the store
// reports HealthOK. With cfg.ArchiveSSDBytes set the rebuild comes from
// the SSD archive; otherwise every record must still be resident in the
// edge-log window (size cfg.Edges <= cfg.LogCapacity accordingly).
func RunScrubRepair(cfg Config) error {
	cfg = cfg.withDefaults()
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	o := buildOracle(edges)
	targets := injectChains(st, faults, cfg.UETargets)
	if len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}

	rep, err := st.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.Damaged < int64(len(targets)) {
		return fmt.Errorf("scrub found %d damaged, injected %d", rep.Damaged, len(targets))
	}
	if rep.Unrecoverable != 0 || rep.Repaired != rep.Damaged {
		return fmt.Errorf("scrub did not repair everything: %+v", rep)
	}
	if rep.SpansQuarantined == 0 {
		return fmt.Errorf("repair quarantined nothing: %+v", rep)
	}
	if h := st.Health(); h.State != core.HealthOK {
		return fmt.Errorf("health after scrub = %v (%+v)", h.State, h)
	}

	after, err := differential(st, o)
	if err != nil {
		return fmt.Errorf("post-scrub differential: %w", err)
	}
	if after.Failed != 0 {
		return fmt.Errorf("reads still failing after repair: %+v", after)
	}
	return nil
}

// RunUnrecoverable pins the honest-failure path: with no SSD archive and
// a workload long enough that early records rotated out of the edge-log
// window, a damaged early vertex has no rebuild source. The scrub must
// report it unrecoverable (never fabricate a partial chain), the store
// must go degraded, and reads of it must fail with *UnrecoverableError
// while every other read still matches the oracle.
func RunUnrecoverable(cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.ArchiveSSDBytes != 0 {
		return fmt.Errorf("RunUnrecoverable requires no archive")
	}
	if cfg.Edges <= cfg.LogCapacity {
		return fmt.Errorf("workload (%d edges) must overflow the log window (%d)", cfg.Edges, cfg.LogCapacity)
	}
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	o := buildOracle(edges)

	// Target a vertex whose record stream is no longer fully resident:
	// count its out-records in the log window and compare to the store.
	lo := st.Log().Head() - st.Log().Cap()
	if lo < 0 {
		lo = 0
	}
	windowCount := map[graph.VID]int{}
	for _, e := range edges[lo:st.Log().Head()] {
		if !e.IsDelete() {
			windowCount[e.Src]++
		}
	}
	var rotated []graph.VID
	for v := graph.VID(0); v < st.NumVertices() && len(rotated) < cfg.UETargets; v++ {
		if st.OutDegree(v) > windowCount[v] && len(st.VertexMediaLines(core.Out, v)) > 0 {
			rotated = append(rotated, v)
		}
	}
	if len(rotated) == 0 {
		return fmt.Errorf("no vertex lost records to log rotation; grow cfg.Edges")
	}
	for _, v := range rotated {
		for _, ln := range st.VertexMediaLines(core.Out, v) {
			faults.InjectUE(ln.Node, ln.Line)
		}
	}

	rep, err := st.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.Unrecoverable == 0 {
		return fmt.Errorf("scrub recovered everything despite rotation: %+v", rep)
	}
	if h := st.Health(); h.State != core.HealthDegraded {
		return fmt.Errorf("health = %v, want degraded (%+v)", h.State, h)
	}

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	var sawUnrec bool
	for _, v := range rotated {
		_, rerr := st.NbrsChecked(ctx, core.Out, v, nil)
		var ue *core.UnrecoverableError
		if errors.As(rerr, &ue) {
			sawUnrec = true
		}
	}
	if !sawUnrec {
		return fmt.Errorf("no rotated target failed with UnrecoverableError")
	}
	// The rest of the graph keeps serving, oracle-exact.
	if _, err := differential(st, o); err != nil {
		return fmt.Errorf("post-scrub differential: %w", err)
	}
	return nil
}

// RunMixedFormatScrub pins media tolerance over mixed-format chains: a
// fixed-block store crashes cleanly, the recovered store enables the
// varint encoding and ingests a continuation (varint tails on fixed
// chains), then UEs land under the mixed chains. Checked reads must stay
// oracle-or-typed-error, and the scrub must rebuild every damaged vertex
// from the resident log window — regardless of which encodings its chain
// mixed. cfg.Edges + contEdges must fit in LogCapacity.
func RunMixedFormatScrub(cfg Config, contEdges int64) error {
	cfg = cfg.withDefaults()
	if cfg.Varint {
		return fmt.Errorf("RunMixedFormatScrub builds the first phase on fixed blocks; leave Varint unset")
	}
	if cfg.Edges+contEdges > cfg.LogCapacity {
		return fmt.Errorf("workload (%d+%d edges) must fit the log window (%d) for rebuilds",
			cfg.Edges, contEdges, cfg.LogCapacity)
	}
	st, _, edges, err := build(cfg)
	if err != nil {
		return err
	}

	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	faults := clone.Machine().TrackFaults()
	opts := cfg.storeOptions()
	opts.CompressedAdj = true
	rs, _, err := core.Recover(clone.Machine(), clone, nil, opts)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	cont := gen.RMAT(cfg.Scale, contEdges, cfg.Seed^0x717)
	if _, err := rs.Ingest(cont); err != nil {
		return fmt.Errorf("continuation ingest: %w", err)
	}
	if err := rs.BufferAllEdges(); err != nil {
		return err
	}
	if err := rs.FlushAllVbufs(); err != nil {
		return err
	}
	if es := rs.AdjEncoding(); es.VarintRecords == 0 {
		return fmt.Errorf("continuation wrote no varint records; chains are not mixed")
	}

	o := buildOracle(append(append([]graph.Edge(nil), edges...), cont...))
	if rep, err := differential(rs, o); err != nil {
		return fmt.Errorf("pre-damage differential: %w", err)
	} else if rep.Failed != 0 {
		return fmt.Errorf("pre-damage reads failed: %+v", rep)
	}

	targets := injectChains(rs, faults, cfg.UETargets)
	if len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	after, err := differential(rs, o)
	if err != nil {
		return fmt.Errorf("post-damage differential: %w", err)
	}
	if after.Failed < len(targets) {
		return fmt.Errorf("only %d reads failed for %d damaged vertices", after.Failed, len(targets))
	}

	rep, err := rs.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.Unrecoverable != 0 || rep.Repaired != rep.Damaged {
		return fmt.Errorf("scrub did not repair everything: %+v", rep)
	}
	if h := rs.Health(); h.State != core.HealthOK {
		return fmt.Errorf("health after scrub = %v (%+v)", h.State, h)
	}
	final, err := differential(rs, o)
	if err != nil {
		return fmt.Errorf("post-scrub differential: %w", err)
	}
	if final.Failed != 0 {
		return fmt.Errorf("reads still failing after repair: %+v", final)
	}
	return nil
}

// RunNodeFailure pins whole-device failure: kill one NUMA node of a
// NUMASubgraph store and the store answers reads for partitions on the
// healthy node oracle-exactly, fails reads on the dead node typed,
// refuses ingestion with a media error, and recovers to HealthOK when
// the node revives.
func RunNodeFailure(cfg Config) error {
	cfg = cfg.withDefaults()
	cfg.NUMA = core.NUMASubgraph
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	o := buildOracle(edges)

	const dead = 1
	faults.FailNode(dead)
	if h := st.Health(); h.State != core.HealthReadonly {
		return fmt.Errorf("health with dead node = %v", h.State)
	}
	if _, ierr := st.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); ierr == nil {
		return fmt.Errorf("ingest succeeded on a store with a dead node")
	} else if !typedMediaError(ierr) {
		return fmt.Errorf("ingest refusal is untyped: %v", ierr)
	}

	ctx := xpsim.NewCtx(xpsim.NodeUnbound)
	var healthy, failed int
	for d := 0; d < 2; d++ {
		for v := graph.VID(0); v < st.NumVertices(); v++ {
			got, rerr := st.NbrsChecked(ctx, core.Direction(d), v, nil)
			onDead := st.Node(core.Direction(d), v) == dead
			switch {
			case rerr == nil:
				if diff := diffMultiset(got, o.want(core.Direction(d), v)); diff != "" {
					return fmt.Errorf("SILENT WRONG DATA vertex %d dir %d: %s", v, d, diff)
				}
				if !onDead {
					healthy++
				}
			case !typedMediaError(rerr):
				return fmt.Errorf("vertex %d dir %d: untyped error %v", v, d, rerr)
			case !onDead:
				return fmt.Errorf("vertex %d dir %d on healthy node failed: %v", v, d, rerr)
			default:
				failed++
			}
		}
	}
	if healthy == 0 || failed == 0 {
		return fmt.Errorf("partition split not exercised: healthy=%d failed=%d", healthy, failed)
	}

	faults.ReviveNode(dead)
	if h := st.Health(); h.State != core.HealthOK {
		return fmt.Errorf("health after revive = %v", h.State)
	}
	if _, err := differential(st, o); err != nil {
		return fmt.Errorf("post-revive differential: %w", err)
	}
	return nil
}

// RunQuarantinePersistence pins recovery: damage, scrub (repair +
// quarantine), crash, recover with the SSD archive re-attached — the
// quarantine must survive (same spans, no bad block recycled), the fault
// state must propagate to the clone, the recovered store must serve the
// full oracle view, and a fresh scrub must find nothing new.
func RunQuarantinePersistence(cfg Config) error {
	cfg = cfg.withDefaults()
	st, faults, edges, err := build(cfg)
	if err != nil {
		return err
	}
	o := buildOracle(edges)
	if targets := injectChains(st, faults, cfg.UETargets); len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	rep, err := st.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.Repaired == 0 || rep.SpansQuarantined == 0 {
		return fmt.Errorf("scrub did not repair+quarantine: %+v", rep)
	}
	want := st.Health()

	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	if f := clone.Machine().Faults(); f == nil || f.UECount() == 0 {
		return fmt.Errorf("media fault state did not propagate to the crash clone")
	}
	opts := cfg.storeOptions()
	opts.ArchiveSSDBytes = 0
	opts.Archive = st.Archive()
	rs, _, err := core.Recover(clone.Machine(), clone, nil, opts)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	got := rs.Health()
	if got.QuarantinedSpans != want.QuarantinedSpans || got.QuarantinedBytes != want.QuarantinedBytes {
		return fmt.Errorf("quarantine lost across recovery: got %+v, want %+v", got, want)
	}
	if got.State != want.State {
		return fmt.Errorf("health state changed across recovery: got %v, want %v", got.State, want.State)
	}
	if _, err := differential(rs, o); err != nil {
		return fmt.Errorf("recovered differential: %w", err)
	}
	rep2, err := rs.Scrub()
	if err != nil {
		return fmt.Errorf("post-recovery scrub: %w", err)
	}
	if rep2.Damaged != 0 {
		return fmt.Errorf("post-recovery scrub found new damage: %+v", rep2)
	}
	return nil
}

// ScrubCrash is a store stopped inside a scrub: the first composition of
// two fault harnesses (crash × scrub). A first scrub has repaired one small
// vertex and persisted its quarantine; then every payload line under the
// out-chain of the graph's hub went uncorrectable, and the machine was
// killed by plan inside the second scrub — the one that repairs the hub. The live run went
// on unharmed, so any number of recoveries can be tried on clones of the
// frozen durable image.
type ScrubCrash struct {
	MediaWrites int64  // media writes of the interrupted scrub (probe: all of them)
	CrashDesc   string // where the plan fired; empty if it did not

	cfg    Config
	st     *core.Store
	oracle *oracle
	quar   core.Health // after the first scrub: what must survive
}

// CrashInScrub builds the workload, runs the first scrub, damages the hub
// and runs the second scrub under plan. A zero plan is the probe that
// counts the sweep space.
func CrashInScrub(cfg Config, plan xpsim.FaultPlan) (*ScrubCrash, error) {
	cfg = cfg.withDefaults()
	st, faults, edges, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if targets := injectChains(st, faults, 1); len(targets) == 0 {
		return nil, fmt.Errorf("workload left no PMEM chains to damage")
	}
	if rep, err := st.Scrub(); err != nil || rep.Repaired == 0 || rep.SpansQuarantined == 0 {
		return nil, fmt.Errorf("first scrub did not repair+quarantine: %+v, %v", rep, err)
	}
	c := &ScrubCrash{cfg: cfg, st: st, oracle: buildOracle(edges), quar: st.Health()}

	hub, lines := graph.VID(0), []core.MediaLine(nil)
	for v := graph.VID(0); v < st.NumVertices(); v++ {
		if l := st.VertexPayloadLines(core.Out, v); len(l) > len(lines) {
			hub, lines = v, l
		}
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("hub vertex %d has no payload-only XPLine", hub)
	}
	for _, ln := range lines {
		st.Machine().InjectUE(ln.Node, ln.Line)
	}
	faults.Arm(plan)
	if rep, err := st.Scrub(); err != nil || rep.Repaired == 0 {
		return nil, fmt.Errorf("second scrub did not repair the hub: %+v, %v", rep, err)
	}
	c.MediaWrites, c.CrashDesc = faults.MediaWrites(), faults.CrashDescription()
	return c, nil
}

// Verify recovers a clone of the crashed machine and checks the
// composition's contract: every checked read is exact against the oracle
// or fails typed, the quarantine the first scrub persisted survives, and a
// further scrub completes the repair — after it every read is exact, none
// fails, and the store is healthy.
func (c *ScrubCrash) Verify() error {
	clone, err := c.st.Heap().CrashClone()
	if err != nil {
		return err
	}
	rs, _, err := core.Recover(clone.Machine(), clone, nil, c.cfg.storeOptions())
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if _, err := differential(rs, c.oracle); err != nil {
		return fmt.Errorf("recovered differential: %w", err)
	}
	if h := rs.Health(); h.QuarantinedSpans < c.quar.QuarantinedSpans || h.QuarantinedBytes < c.quar.QuarantinedBytes {
		return fmt.Errorf("quarantine lost across the crash: got %+v, want at least %+v", h, c.quar)
	}
	if rep, err := rs.Scrub(); err != nil || rep.Unrecoverable != 0 {
		return fmt.Errorf("scrub after recovery: %+v, %v", rep, err)
	}
	after, err := differential(rs, c.oracle)
	if err != nil {
		return fmt.Errorf("differential after the completing scrub: %w", err)
	}
	if h := rs.Health(); after.Failed != 0 || h.State != core.HealthOK {
		return fmt.Errorf("repair not completed: %d reads still fail, health %v (%+v)", after.Failed, h.State, h)
	}
	return nil
}

// RunHeaderUECrash pins what recovery makes of a block header it cannot
// read. UEs land under whole chains — headers included — and the machine
// crashes before any scrub has rewritten them. Blocks are self-describing:
// the arena scan cannot size, and so cannot step over, a block whose header
// is scrambled, and taking it for the never-durable frontier would silently
// drop every acknowledged block behind it. core.Recover must refuse with a
// typed media error instead. (Once a scrub has rewritten and quarantined
// the damaged blocks, recovery parses straight over them:
// RunQuarantinePersistence.)
func RunHeaderUECrash(cfg Config) error {
	cfg = cfg.withDefaults()
	st, faults, _, err := build(cfg)
	if err != nil {
		return err
	}
	if targets := injectChains(st, faults, cfg.UETargets); len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	_, _, err = core.Recover(clone.Machine(), clone, nil, cfg.storeOptions())
	if err == nil {
		return fmt.Errorf("recovery scanned over uncorrectable block headers without a word")
	}
	if !typedMediaError(err) {
		return fmt.Errorf("recovery over uncorrectable block headers failed untyped: %v", err)
	}
	return nil
}
