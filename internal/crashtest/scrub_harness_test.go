// The differential media-error verifier: it runs a deterministic workload
// on a MediaGuard store (config and newStore), injects uncorrectable errors
// (xpsim.Faults.InjectUE) under live adjacency chains, and holds the store's checked read path to difftest's
// checked mode against the workload's model.
//
// The contract under test is the media-tolerance invariant: a checked
// read either returns exactly what the model holds or fails with a typed
// error (*xpsim.MediaError, *adj.CorruptError, *core.UnrecoverableError) —
// it never returns silently wrong edges. On top of that the harness drives
// the repair loop: after core.Scrub the damaged vertices must be rebuilt
// from the SSD archive or the resident edge-log window, the store must
// report HealthOK again, and every read must match with no errors left.
// Separate scenarios cover the unrecoverable path (no rebuild source →
// typed failure, degraded health), whole-NUMA-node failure (readonly
// health, healthy partitions keep serving), quarantine persistence across
// crash + recovery, and the compositions of a crash with a scrub, with
// damage in the log window a recovery replays, and with damage in the log
// span a recovery re-tees into the SSD archive.

package crashtest

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/adj"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pmem"
	"repro/internal/ssd"
	"repro/internal/xpsim"
)

// ueTargets is how many vertices' chains a scenario damages.
const ueTargets = 4

// build constructs the fault-tracked MediaGuard store cfg describes,
// ingests the workload, and flushes everything into PMEM chains so UE
// injection hits data the checked read path must cover. It returns cfg
// with its defaults filled and the workload's model.
func build(cfg config) (config, *core.Store, *xpsim.Faults, *difftest.Model, error) {
	cfg = cfg.WithDefaults()
	cfg.MediaGuard = true
	st, faults, err := newStore(cfg.Options())
	if err != nil {
		return cfg, nil, nil, nil, err
	}
	edges := cfg.Workload()
	if err := ingest(st, cfg, edges); err != nil {
		return cfg, nil, nil, nil, fmt.Errorf("ingest: %w", err)
	}
	if err := errors.Join(st.BufferAllEdges(), st.FlushAllVbufs()); err != nil {
		return cfg, nil, nil, nil, err
	}
	return cfg, st, faults, difftest.Of(edges), nil
}

// typedMediaError reports whether err is one of the typed failures the
// media-tolerance contract allows a checked read to return.
func typedMediaError(err error) bool {
	var me *xpsim.MediaError
	var ce *adj.CorruptError
	var ue *core.UnrecoverableError
	return errors.As(err, &me) || errors.As(err, &ce) || errors.As(err, &ue)
}

// checked is the comparator every scenario reads through: each checked
// read exact or failed typed.
var checked = difftest.Compare{Typed: typedMediaError}

// clean is checked.Run requiring that no read fail.
func clean(m *difftest.Model, st *core.Store) error {
	rep, err := checked.Run(m, st)
	if err == nil && len(rep.Failed) > 0 {
		err = fmt.Errorf("%d reads fail, the first %v", len(rep.Failed), rep.Failed[0])
	}
	return err
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
// read either matches the model or fails typed — and at least the
// injected vertices do fail.
func runUEDetection(cfg config) error {
	_, st, faults, m, err := build(cfg)
	if err != nil {
		return err
	}
	if err := clean(m, st); err != nil {
		return fmt.Errorf("pre-damage: %w", err)
	}
	targets := injectChains(st, faults, ueTargets)
	if len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	after, err := checked.Run(m, st)
	if err != nil {
		return fmt.Errorf("post-damage: %w", err)
	}
	if len(after.Failed) < len(targets) {
		return fmt.Errorf("only %d reads failed for %d damaged vertices", len(after.Failed), len(targets))
	}
	return nil
}

// repair runs a scrub that must repair everything it finds, quarantine
// something, and leave the store healthy with every read exact.
func repair(st *core.Store, m *difftest.Model, damaged int) error {
	rep, err := st.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.Damaged < int64(damaged) || rep.Unrecoverable != 0 || rep.Repaired != rep.Damaged || rep.SpansQuarantined == 0 {
		return fmt.Errorf("scrub did not repair and quarantine all %d damaged vertices: %+v", damaged, rep)
	}
	if h := st.Health(); h.State != core.HealthOK {
		return fmt.Errorf("health after scrub = %v (%+v)", h.State, h)
	}
	if err := clean(m, st); err != nil {
		return fmt.Errorf("post-scrub: %w", err)
	}
	return nil
}

// RunScrubRepair drives the full detect → scrub → repair loop. With
// cfg.ArchiveSSDBytes set the rebuild comes from the SSD archive;
// otherwise every record must still be resident in the edge-log window
// (size cfg.Edges <= cfg.LogCapacity accordingly).
func runScrubRepair(cfg config) error {
	_, st, faults, m, err := build(cfg)
	if err != nil {
		return err
	}
	targets := injectChains(st, faults, ueTargets)
	if len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	return repair(st, m, len(targets))
}

// RunUnrecoverable pins the honest-failure path: with no SSD archive and
// a workload long enough that early records rotated out of the edge-log
// window, a damaged early vertex has no rebuild source. The scrub must
// report it unrecoverable (never fabricate a partial chain), the store
// must go degraded, and reads of it must fail with *UnrecoverableError
// while every other read still matches the model.
func runUnrecoverable(cfg config) error {
	cfg, st, faults, m, err := build(cfg)
	if err != nil {
		return err
	}
	if cfg.ArchiveSSDBytes != 0 || cfg.Edges <= cfg.LogCapacity {
		return fmt.Errorf("the workload (%d edges) must overflow the log window (%d) with no archive", cfg.Edges, cfg.LogCapacity)
	}
	// Target a vertex whose record stream is no longer fully resident:
	// count its out-records in the log window and compare to the store.
	windowCount := map[graph.VID]int{}
	for _, e := range cfg.Workload()[max(0, st.Log().Head()-st.Log().Cap()):st.Log().Head()] {
		if !e.IsDelete() {
			windowCount[e.Src]++
		}
	}
	var rotated []graph.VID
	for v := graph.VID(0); v < st.NumVertices() && len(rotated) < ueTargets; v++ {
		if lines := st.VertexMediaLines(core.Out, v); st.OutDegree(v) > windowCount[v] && len(lines) > 0 {
			for _, ln := range lines {
				faults.InjectUE(ln.Node, ln.Line)
			}
			rotated = append(rotated, v)
		}
	}
	if len(rotated) == 0 {
		return fmt.Errorf("no vertex lost records to log rotation; grow cfg.Edges")
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
	// The rest of the graph keeps serving, model-exact.
	after, err := checked.Run(m, st)
	if err != nil {
		return fmt.Errorf("post-scrub: %w", err)
	}
	for _, r := range after.Failed {
		var ue *core.UnrecoverableError
		if errors.As(r.Err, &ue) {
			return nil
		}
	}
	return fmt.Errorf("no rotated target failed with UnrecoverableError")
}

// RunMixedFormatScrub pins media tolerance over mixed-format chains: a
// fixed-block store crashes cleanly, the recovered store enables the
// varint encoding and ingests a continuation (varint tails on fixed
// chains), then UEs land under the mixed chains. Checked reads must stay
// exact-or-typed, and the scrub must rebuild every damaged vertex
// from the resident log window — regardless of which encodings its chain
// mixed. cfg.Edges + contEdges must fit in LogCapacity.
func runMixedFormatScrub(cfg config, contEdges int64) error {
	cfg, st, _, m, err := build(cfg)
	if err != nil {
		return err
	}
	if cfg.Varint || cfg.Edges+contEdges > cfg.LogCapacity {
		return fmt.Errorf("the first phase runs on fixed blocks, and the workload (%d+%d edges) must fit the log window (%d) for rebuilds",
			cfg.Edges, contEdges, cfg.LogCapacity)
	}
	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	faults := clone.Machine().TrackFaults()
	opts := cfg.Options()
	opts.CompressedAdj = true
	rs, _, err := core.Recover(clone.Machine(), clone, nil, opts)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	cont := gen.RMAT(cfg.Scale, contEdges, cfg.Seed^0x717)
	if _, err := rs.Ingest(cont); err != nil {
		return fmt.Errorf("continuation ingest: %w", err)
	}
	if err := errors.Join(rs.BufferAllEdges(), rs.FlushAllVbufs()); err != nil {
		return err
	}
	if es := rs.AdjEncoding(); es.VarintRecords == 0 {
		return fmt.Errorf("continuation wrote no varint records; chains are not mixed")
	}
	m.Ingest(cont)
	if err := clean(m, rs); err != nil {
		return fmt.Errorf("pre-damage: %w", err)
	}
	targets := injectChains(rs, faults, ueTargets)
	if len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	after, err := checked.Run(m, rs)
	if err != nil {
		return fmt.Errorf("post-damage: %w", err)
	}
	if len(after.Failed) < len(targets) {
		return fmt.Errorf("only %d reads failed for %d damaged vertices", len(after.Failed), len(targets))
	}
	return repair(rs, m, len(targets))
}

// RunNodeFailure pins whole-device failure: kill one NUMA node of a
// NUMASubgraph store and the store answers reads for partitions on the
// healthy node model-exactly, fails reads on the dead node typed,
// refuses ingestion with a media error, and recovers to HealthOK when
// the node revives.
func runNodeFailure(cfg config) error {
	cfg.NUMA = core.NUMASubgraph
	_, st, faults, m, err := build(cfg)
	if err != nil {
		return err
	}
	const dead = 1
	faults.FailNode(dead)
	if h := st.Health(); h.State != core.HealthReadonly {
		return fmt.Errorf("health with dead node = %v", h.State)
	}
	if _, ierr := st.Ingest([]graph.Edge{{Src: 1, Dst: 2}}); !typedMediaError(ierr) {
		return fmt.Errorf("ingest on a store with a dead node: %v, want a typed refusal", ierr)
	}
	rep, err := checked.Run(m, st)
	if err != nil {
		return err
	}
	for _, r := range rep.Failed {
		if st.Node(r.Dir, r.V) != dead {
			return fmt.Errorf("a read on the healthy node failed: %v", r)
		}
	}
	if len(rep.Failed) == 0 || rep.Clean == 0 {
		return fmt.Errorf("partition split not exercised: %d clean reads, %d failed", rep.Clean, len(rep.Failed))
	}
	faults.ReviveNode(dead)
	if h := st.Health(); h.State != core.HealthOK {
		return fmt.Errorf("health after revive = %v", h.State)
	}
	if err := clean(m, st); err != nil {
		return fmt.Errorf("post-revive: %w", err)
	}
	return nil
}

// RunQuarantinePersistence pins recovery: damage, scrub (repair +
// quarantine), crash, recover with the SSD archive re-attached — the
// quarantine must survive (same spans, no bad block recycled), the fault
// state must propagate to the clone, the recovered store must serve the
// full model, and a fresh scrub must find nothing new.
func runQuarantinePersistence(cfg config) error {
	cfg, st, faults, m, err := build(cfg)
	if err != nil {
		return err
	}
	if targets := injectChains(st, faults, ueTargets); len(targets) == 0 {
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
	opts := cfg.Options()
	opts.ArchiveSSDBytes = 0
	opts.Archive = st.Archive()
	rs, _, err := core.Recover(clone.Machine(), clone, nil, opts)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	got := rs.Health()
	if got.QuarantinedSpans != want.QuarantinedSpans || got.QuarantinedBytes != want.QuarantinedBytes || got.State != want.State {
		return fmt.Errorf("quarantine or health changed across recovery: got %+v, want %+v", got, want)
	}
	if err := clean(m, rs); err != nil {
		return fmt.Errorf("recovered: %w", err)
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

// scrubCrash is a store stopped inside a scrub: the first composition of
// two fault harnesses (crash × scrub). A first scrub has repaired one small
// vertex and persisted its quarantine; then every payload line under the
// out-chain of the graph's hub went uncorrectable, and the machine was
// killed by plan inside the second scrub — the one that repairs the hub.
// The live run went on unharmed, so any number of recoveries can be tried
// on clones of the frozen durable image.
type scrubCrash struct {
	MediaWrites int64  // media writes of the interrupted scrub (probe: all of them)
	CrashDesc   string // where the plan fired; empty if it did not

	cfg   config
	st    *core.Store
	model *difftest.Model
	quar  core.Health // after the first scrub: what must survive
}

// crashInScrub builds the workload, runs the first scrub, damages the hub
// and runs the second scrub under plan. A zero plan is the probe that
// counts the sweep space.
func crashInScrub(cfg config, plan xpsim.FaultPlan) (*scrubCrash, error) {
	cfg, st, faults, m, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if targets := injectChains(st, faults, 1); len(targets) == 0 {
		return nil, fmt.Errorf("workload left no PMEM chains to damage")
	}
	if rep, err := st.Scrub(); err != nil || rep.Repaired == 0 || rep.SpansQuarantined == 0 {
		return nil, fmt.Errorf("first scrub did not repair+quarantine: %+v, %v", rep, err)
	}
	c := &scrubCrash{cfg: cfg, st: st, model: m, quar: st.Health()}

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
// composition's contract: every checked read is exact or fails typed, the
// quarantine the first scrub persisted survives, and a further scrub
// completes the repair — after it every read is exact, none fails, and the
// store is healthy.
func (c *scrubCrash) Verify() error {
	clone, err := c.st.Heap().CrashClone()
	if err != nil {
		return err
	}
	rs, _, err := core.Recover(clone.Machine(), clone, nil, c.cfg.Options())
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if _, err := checked.Run(c.model, rs); err != nil {
		return fmt.Errorf("recovered: %w", err)
	}
	if h := rs.Health(); h.QuarantinedSpans < c.quar.QuarantinedSpans || h.QuarantinedBytes < c.quar.QuarantinedBytes {
		return fmt.Errorf("quarantine lost across the crash: got %+v, want at least %+v", h, c.quar)
	}
	if rep, err := rs.Scrub(); err != nil || rep.Unrecoverable != 0 {
		return fmt.Errorf("scrub after recovery: %+v, %v", rep, err)
	}
	if err := clean(c.model, rs); err != nil {
		return fmt.Errorf("after the completing scrub: %w", err)
	}
	if h := rs.Health(); h.State != core.HealthOK {
		return fmt.Errorf("repair not completed: health %v (%+v)", h.State, h)
	}
	return nil
}

// refusesTyped recovers a clone of st's durable image and requires a typed
// media error — a refusal, neither a recovered store nor a panic.
func refusesTyped(st *core.Store, opts core.Options) error {
	clone, err := st.Heap().CrashClone()
	if err != nil {
		return err
	}
	_, _, err = core.Recover(clone.Machine(), clone, nil, opts)
	if err == nil {
		return fmt.Errorf("recovery read uncorrectable media without a word")
	}
	if !typedMediaError(err) {
		return fmt.Errorf("recovery over uncorrectable media failed untyped: %v", err)
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
func runHeaderUECrash(cfg config) error {
	cfg, st, faults, _, err := build(cfg)
	if err != nil {
		return err
	}
	if targets := injectChains(st, faults, ueTargets); len(targets) == 0 {
		return fmt.Errorf("workload left no PMEM chains to damage")
	}
	return refusesTyped(st, cfg.Options())
}

// RunReplayWindowUECrash pins what recovery makes of an edge-log record
// it cannot read back. The workload's first two thirds are flushed, the
// last third only logged, so a recovery replays [flushed, head); the
// XPLine holding record `record` of that window goes uncorrectable and
// the machine crashes. The replay would take the record for whatever the
// line now holds — a scrambled vertex ID, or a silently wrong edge given a
// fresh, valid checksum by the replay's own writes — so core.Recover must
// refuse with a typed media error.
func runReplayWindowUECrash(cfg config, record int64) error {
	cfg = cfg.WithDefaults()
	cfg.MediaGuard = true
	st, _, err := newStore(cfg.Options())
	if err != nil {
		return err
	}
	edges := cfg.Workload()
	flushed := int64(len(edges)) * 2 / 3
	if _, err := st.Ingest(edges[:flushed]); err != nil {
		return err
	}
	if err := errors.Join(st.BufferAllEdges(), st.FlushAllVbufs()); err != nil {
		return err
	}
	if _, err := st.Ingest(edges[flushed:]); err != nil {
		return err
	}
	if l := st.Log(); l.Flushed() != flushed || l.Head() != int64(len(edges)) || record < flushed || record >= l.Head() {
		return fmt.Errorf("record %d is outside the replay window [%d,%d)", record, l.Flushed(), l.Head())
	}
	injectLogUE(st, cfg, record)
	return refusesTyped(st, cfg.Options())
}

// injectLogUE marks the XPLine of st's edge-log ring that holds record
// uncorrectable.
func injectLogUE(st *core.Store, cfg config, record int64) {
	l := st.Log()
	ring, _ := st.Heap().Get(cfg.Name + "-elog") // core.New mapped it
	st.Machine().InjectUE(ring.LineAt(l.BaseOffset() + record%l.Cap()*graph.EdgeBytes))
}

// appendCrash is a MediaGuard store with an SSD archive, killed inside an
// edge-log append whose records never reached the archive: Ingest tees a
// chunk into the archive only once the log has taken it, so a crash between
// the two leaves the archive trailing the log, and the recovery's catch-up
// re-tees the trailing span from the log. The workload is ingested, flushed
// and archived; then one more chunk goes to the log alone, under the plan;
// then the XPLine holding the chunk's first record goes uncorrectable.
type appendCrash struct {
	MediaWrites int64  // media writes of the append (probe: all of them)
	CrashDesc   string // where the plan fired; empty if it did not

	cfg      config
	st       *core.Store
	image    *pmem.Heap      // the durable image, before the UE landed
	model    *difftest.Model // the workload, then the chunk
	archived int64           // the archive's count: the workload's length
}

// crashInAppend builds the workload and appends chunk more edges to the log
// under plan. A zero plan is the probe that counts the sweep space.
func crashInAppend(cfg config, chunk int64, plan xpsim.FaultPlan) (*appendCrash, error) {
	cfg, st, faults, m, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.ArchiveSSDBytes == 0 {
		return nil, fmt.Errorf("the store needs an SSD archive to trail the log")
	}
	c := &appendCrash{cfg: cfg, st: st, model: m, archived: st.Log().Head()}
	tail := gen.RMAT(cfg.Scale, chunk, cfg.Seed^0xA9C)
	faults.Arm(plan)
	if n, err := st.Log().Append(xpsim.NewCtx(xpsim.NodeUnbound), tail); err != nil || n != len(tail) {
		return nil, fmt.Errorf("the log took %d of the %d-edge chunk: %v", n, len(tail), err)
	}
	c.MediaWrites, c.CrashDesc = faults.MediaWrites(), faults.CrashDescription()
	m.Ingest(tail)
	if c.image, err = st.Heap().CrashClone(); err != nil {
		return nil, err
	}
	injectLogUE(st, cfg, c.archived)
	return c, nil
}

// Verify learns the durable head from a recovery of the image without the
// UE, holding it to the prefix mode, then recovers the damaged image with the
// archive attached. Where the head covers the chunk's first record, the
// archive trails it over an uncorrectable line and recovery must refuse,
// typed (refused); elsewhere it must recover the same prefix. Either way the
// archive must end as it began: a refused recovery that had already teed the
// span would leave scrambled records, under a valid count, in the scrub's
// rebuild source.
func (c *appendCrash) Verify() (refused bool, err error) {
	clean, err := c.image.CrashClone()
	if err != nil {
		return false, err
	}
	opts := c.cfg.Options()
	opts.ArchiveSSDBytes = 0
	rs, _, err := core.Recover(clean.Machine(), clean, nil, opts)
	if err != nil {
		return false, fmt.Errorf("recover without the UE: %w", err)
	}
	head := rs.Log().Head()
	if err := (difftest.Compare{}).Prefix(c.model, int(head), rs); err != nil {
		return false, fmt.Errorf("recovered without the UE: %w", err)
	}

	arch := c.st.Archive()
	before := archiveBytes(arch)
	damaged, err := c.st.Heap().CrashClone()
	if err != nil {
		return false, err
	}
	opts.Archive = arch
	rs, _, err = core.Recover(damaged.Machine(), damaged, nil, opts)
	refused = head > c.archived
	switch {
	case refused && err == nil:
		return refused, fmt.Errorf("recovery re-teed [%d,%d) over an uncorrectable line without a word", c.archived, head)
	case refused && !typedMediaError(err):
		return refused, fmt.Errorf("recovery over an uncorrectable catch-up span failed untyped: %v", err)
	case !refused && err != nil:
		return refused, fmt.Errorf("recover with nothing to catch up: %w", err)
	case !refused:
		if err := (difftest.Compare{}).Prefix(c.model, int(head), rs); err != nil {
			return refused, fmt.Errorf("recovered with the archive: %w", err)
		}
	}
	if !bytes.Equal(archiveBytes(arch), before) {
		return refused, fmt.Errorf("the recovery attempt rewrote the archive (durable head %d, archived %d)", head, c.archived)
	}
	return refused, nil
}

// archiveBytes is a copy of the whole archive namespace: its count and its
// records.
func archiveBytes(sp *ssd.Space) []byte {
	b := make([]byte, sp.Size())
	sp.Read(xpsim.NewCtx(xpsim.NodeUnbound), 0, b)
	return b
}
