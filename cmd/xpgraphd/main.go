// Command xpgraphd runs an XPGraph store as an HTTP graph service on the
// simulated Optane machine — the application-server deployment a
// downstream adopter would build on the library.
//
//	xpgraphd -addr :7611 -vertices 1048576
//
//	curl -X POST localhost:7611/v1/edges -d '{"edges":[{"src":1,"dst":2}]}'
//	curl localhost:7611/v1/vertices/1/out
//	curl -X POST localhost:7611/v1/query/bfs -d '{"root":1}'
//	curl localhost:7611/v1/stats
//	curl localhost:7611/v1/metrics
//
// Bulk loaders should prefer the binary batch endpoint (the wire format
// is in DESIGN.md §10.1; ingest.EncodeBatch produces it):
//
//	curl -X POST localhost:7611/v1/ingest/bin \
//	     -H 'Content-Type: application/x-xpgraph-batch' \
//	     --data-binary @edges.xpb
//
// Writes are batched through a bounded ingest queue and reads serve from
// the latest published snapshot (see package server). Only /v1 routes are
// served: the pre-/v1 unversioned aliases were removed and answer 404
// with a Link header pointing at the successor. With -varint-adj new
// adjacency blocks use the delta-varint encoding (more edges per 256 B
// XPLine; see DESIGN.md §10.2).
//
// With -shards N the daemon runs the partitioned cluster layer
// (DESIGN.md §11): vertices hash-partition across N shard stores, each
// on its own simulated machine, and -replicas M adds M log-shipping read
// replicas per shard (again one machine each) that serve a partition's
// reads if its leader dies. Responses carry the epoch vector (one epoch
// per shard; length 1 on a single-shard deployment):
//
//	xpgraphd -shards 4 -replicas 1 -preload TT
//
// The leader→replica shipping path is a fallible RPC (DESIGN.md §14):
// -chaos arms seeded fault injection on every shipping link so operators
// can watch the retry/dedupe/resync machinery work under /v1/metrics and
// /v1/healthz (replica_states):
//
//	xpgraphd -shards 2 -replicas 1 -chaos "seed=7,drop=0.05,dup=0.02,delay=0.1:2ms"
//
// Optionally pre-loads a catalog dataset (-preload FS -scale 0.1) so the
// service starts with a realistic graph.
//
// The property graph layer (DESIGN.md §13) is on by default: register
// edge labels via POST /v1/labels, ingest typed batches over the binary
// endpoint (frame ops 0x04/0x05), and run filtered traversals
// (POST /v1/query/khop with types/filter, POST /v1/query/path). Disable
// with -props=false; -prop-log-mb sizes the per-shard column log.
//
// With -media-guard the store runs checksummed adjacency blocks and log
// records, a scrubber (-scrub-every, or POST /v1/scrub), and degraded-mode
// serving: GET /v1/healthz reports the ok/degraded/readonly health state
// and reads of media-damaged data answer 503 instead of wrong edges. An
// optional -archive-ssd-mb SSD archive gives the scrubber a complete
// rebuild source. See DESIGN.md §9.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting
// new work, drains the ingest queue (every accepted edge is applied), runs
// a final vertex-buffer flush so the graph is durable in PMEM adjacency
// lists, writes the -trace file if one was requested, and exits 0. The
// drain is bounded by -shutdown-timeout: if the deadline fires first the
// daemon logs it and exits 1 with the remaining queued writes unapplied.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/xpsim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the daemon: it serves until SIGINT/SIGTERM or a listener error and
// returns the process's exit status — 0 after a clean drain, 1 for a fatal
// error or an expired -shutdown-timeout, 2 for a bad command line.
func run(args []string, _, stderr io.Writer) int {
	logger := log.New(stderr, "", log.LstdFlags)
	fatal := func(v ...any) int {
		logger.Print(v...)
		return 1
	}
	fs := flag.NewFlagSet("xpgraphd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":7611", "listen address")
	vertices := fs.Uint("vertices", 1<<20, "initial vertex-ID space")
	shards := fs.Int("shards", 1, "partition count: vertices hash across this many shard stores, each on its own simulated machine (DESIGN.md §11)")
	replicas := fs.Int("replicas", 0, "log-shipping read replicas per shard, each on its own simulated machine")
	pmemGB := fs.Int64("pmem-gb", 4, "simulated PMEM per NUMA node (GiB)")
	threads := fs.Int("threads", 16, "archive threads")
	qthreads := fs.Int("qthreads", 32, "query threads")
	queueCap := fs.Int("queue-cap", 1<<16, "ingest queue capacity (edges)")
	batchEdges := fs.Int("batch-edges", 4096, "edges applied per ingest batch")
	linger := fs.Duration("linger", 2*time.Millisecond, "batching linger time")
	adaptive := fs.Bool("adaptive", false, "AIMD adaptive admission: auto-tune batch size, linger and the 429 threshold from observed queue depth and batch latency (DESIGN.md §12.3)")
	adaptiveTarget := fs.Duration("adaptive-target", 0, "applied-batch latency target for -adaptive (default 2ms)")
	flushEvery := fs.Duration("flush-every", 5*time.Second, "periodic vertex-buffer flush (0 disables)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline; requests past it answer 503 deadline_exceeded (0 disables)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "bound on graceful shutdown: HTTP drain plus ingest-queue drain share this budget (0 waits forever)")
	mediaGuard := fs.Bool("media-guard", false, "checksummed media-error detection, scrubbing, and quarantine (see DESIGN.md §9)")
	varintAdj := fs.Bool("varint-adj", false, "delta-varint compressed adjacency blocks (see DESIGN.md §10.2)")
	props := fs.Bool("props", true, "property graph layer: typed edges, vertex properties, filtered traversals (DESIGN.md §13)")
	propLogMB := fs.Int64("prop-log-mb", 16, "property column log per shard, in MiB (requires -props)")
	archiveSSDMB := fs.Int64("archive-ssd-mb", 0, "SSD edge archive for scrub rebuilds, in MiB (requires -media-guard)")
	scrubEvery := fs.Duration("scrub-every", 0, "periodic media scrub pass (requires -media-guard; 0 disables)")
	ueDecay := fs.Float64("ue-decay", 0, "per-read probability a media line decays uncorrectable — demo/chaos knob (requires -media-guard)")
	chaosSpec := fs.String("chaos", "", `seeded fault injection on the leader→replica shipping links, e.g. "seed=7,drop=0.05,dup=0.02,delay=0.1:2ms,part=2x40@400" (requires -replicas; DESIGN.md §14.4)`)
	preload := fs.String("preload", "", "catalog dataset to pre-load (TT, FS, ...)")
	scale := fs.Float64("scale", 0.1, "pre-load edge scale")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the phase timeline on shutdown")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *ueDecay > 0 && !*mediaGuard {
		return fatal("xpgraphd: -ue-decay requires -media-guard")
	}
	if *shards < 1 {
		return fatal("xpgraphd: -shards must be >= 1")
	}
	// Every shard leader and every replica is its own simulated machine —
	// its own failure domain, DIMMs and telemetry.
	newNode := func(name string) (*core.Store, error) {
		m := xpsim.NewMachine(2, *pmemGB<<30, xpsim.DefaultLatency())
		if *mediaGuard {
			// Arm the fault model so operators can exercise UE injection and
			// the health endpoint reports live UE-line counts.
			faults := m.TrackFaults()
			if *ueDecay > 0 {
				faults.SetDecay(*ueDecay, 0x5EED_DECA)
			}
		}
		return core.New(m, pmem.NewHeap(m), nil, core.Options{
			Name:            name,
			NumVertices:     uint32(*vertices),
			ArchiveThreads:  *threads,
			NUMA:            core.NUMASubgraph,
			AdjBytes:        (*pmemGB << 30) / 4,
			MediaGuard:      *mediaGuard,
			CompressedAdj:   *varintAdj,
			ArchiveSSDBytes: *archiveSSDMB << 20,
			Props:           *props,
			PropLogBytes:    *propLogMB << 20,
		})
	}

	stores := make([]*core.Store, *shards)
	for i := range stores {
		var err error
		stores[i], err = newNode(fmt.Sprintf("xpgraphd-s%d", i))
		if err != nil {
			return fatal(err)
		}
	}
	ccfg := cluster.Config{
		Replicas:       *replicas,
		QueueCap:       *queueCap,
		BatchEdges:     *batchEdges,
		Linger:         *linger,
		FlushEvery:     *flushEvery,
		ScrubEvery:     *scrubEvery,
		Adaptive:       *adaptive,
		AdaptiveTarget: *adaptiveTarget,
	}
	if *replicas > 0 {
		ccfg.ReplicaFactory = func(shardID, replica int) (*core.Store, error) {
			return newNode(fmt.Sprintf("xpgraphd-s%d-r%d", shardID, replica))
		}
	}
	if *chaosSpec != "" {
		if *replicas < 1 {
			return fatal("xpgraphd: -chaos requires -replicas (it injects faults on the shipping links)")
		}
		links := chaos.Links(*shards, *replicas)
		plan, err := chaos.Parse(*chaosSpec, links)
		if err != nil {
			return fatal(err)
		}
		ccfg.Transport = cluster.NewChaosTransport(plan)
		fmt.Fprintf(stderr, "xpgraphd: chaos armed on %d shipping link(s): %s\n", len(links), *chaosSpec)
	}
	cl, err := cluster.New(stores, ccfg)
	if err != nil {
		return fatal(err)
	}
	// Start before pre-loading so the followers exist and the bulk load
	// ships to them too (Start is idempotent; the server calls it again).
	if err := cl.Start(); err != nil {
		return fatal(err)
	}

	if *preload != "" {
		ds, err := gen.ByName(*preload)
		if err != nil {
			return fatal(err)
		}
		n := int64(float64(ds.Edges) * *scale)
		fmt.Fprintf(stderr, "pre-loading %d edges of %s across %d shard(s)...\n", n, ds.Full, *shards)
		simNs, err := cl.IngestLocal(gen.RMAT(ds.Scale, n, ds.Seed))
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stderr, "loaded in %.3fs simulated\n", float64(simNs)/1e9)
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(1 << 16)
	}
	srv := server.NewCluster(cl, server.Config{
		QueryThreads:   *qthreads,
		QueueCap:       *queueCap,
		BatchEdges:     *batchEdges,
		Linger:         *linger,
		FlushEvery:     *flushEvery,
		Tracer:         tracer,
		RequestTimeout: *requestTimeout,
		ScrubEvery:     *scrubEvery,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errC := make(chan error, 1)
	go func() { errC <- httpSrv.ListenAndServe() }()

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigC)
	fmt.Fprintf(stderr, "xpgraphd listening on %s\n", *addr)

	select {
	case err := <-errC:
		srv.Close()
		return fatal(err)
	case sig := <-sigC:
		fmt.Fprintf(stderr, "xpgraphd: %s — draining...\n", sig)
	}

	// The HTTP drain and the ingest-queue drain share one shutdown budget
	// so a wedged drain cannot hold the process hostage forever.
	var deadline <-chan struct{}
	ctx := context.Background()
	if *shutdownTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *shutdownTimeout)
		defer cancel()
		deadline = ctx.Done()
	}

	// Stop accepting connections, let in-flight requests finish.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "xpgraphd: http shutdown: %v\n", err)
	}
	// Apply every queued write and flush vertex buffers to PMEM — but
	// give up when the shutdown deadline fires rather than drain forever.
	drained := make(chan struct{})
	go func() { srv.Shutdown(); close(drained) }()
	select {
	case <-drained:
	case <-deadline:
		fmt.Fprintf(stderr,
			"xpgraphd: shutdown deadline (%v) fired before the ingest drain finished; exiting with queued writes unapplied\n",
			*shutdownTimeout)
		return 1
	}

	if *tracePath != "" {
		if err := writeTrace(*tracePath, srv.Tracer(), stderr); err != nil {
			return fatal(err)
		}
	}
	fmt.Fprintln(stderr, "xpgraphd: drained and flushed; bye")
	return 0
}

// writeTrace dumps the tracer ring as Chrome trace-event JSON.
func writeTrace(path string, t *obs.Tracer, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := t.Snapshot()
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "xpgraphd: wrote %d phase spans to %s\n", len(spans), path)
	return nil
}
