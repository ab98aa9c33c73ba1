// Package core implements XPGraph: an XPLine-friendly persistent-memory
// graph store for large-scale evolving graphs (§III-§IV of the paper).
//
// A Store manages graph data through three phases: edge updates are
// logged to a PMEM circular edge log, buffered into DRAM vertex buffers
// (vertex-centric graph buffering, §III-B), and flushed to PMEM adjacency
// lists in XPLine-sized writes. Vertex buffers grow hierarchically with
// vertex degree (§III-C) out of a buddy-liked memory pool, and graph data
// is segregated across NUMA nodes with buffering/query threads bound to
// the owning node (§III-D).
//
// Store methods are not safe for concurrent use: the simulation executes
// parallel phases as deterministic sequential worker loops over simulated
// clocks (see xpsim.ParallelN), so real host-side concurrency would only
// race the bookkeeping without modelling anything. Wrap a Store in a
// mutex if an application drives it from several goroutines.
package core

import (
	"repro/internal/adj"
	"repro/internal/mempool"
	"repro/internal/obs"
	"repro/internal/ssd"
	"repro/internal/vbuf"
)

// Medium selects where the graph lives.
type Medium int

const (
	// MediumPMEM is app-direct persistent memory: the standard XPGraph.
	MediumPMEM Medium = iota
	// MediumDRAM stores everything in DRAM: the XPGraph-D variant for
	// volatile systems (§IV-C).
	MediumDRAM
	// MediumMemoryMode stores everything in Optane Memory Mode: the
	// XPGraph-D variant on a PMEM machine without app-direct (Fig. 12).
	MediumMemoryMode
)

// NUMAMode selects the NUMA-friendly graph accessing strategy (§III-D).
type NUMAMode int

const (
	// NUMANone interleaves graph data across sockets and leaves threads
	// unbound (the no-binding baseline of Fig. 18).
	NUMANone NUMAMode = iota
	// NUMAOutIn stores the out-graph on node 0 and the in-graph on
	// node 1, binding threads accordingly.
	NUMAOutIn
	// NUMASubgraph hash-partitions vertices (shard.PartOf) into P sub-graphs,
	// one per node — the paper's default.
	NUMASubgraph
)

// BufferMode selects the vertex buffering strategy.
type BufferMode int

const (
	// BufferHierarchical grows per-vertex buffers with degree — the
	// paper's default (§III-C).
	BufferHierarchical BufferMode = iota
	// BufferFixed gives every buffered vertex a fixed-size buffer
	// (the Fig. 16 ablation).
	BufferFixed
	// BufferNone writes every edge straight to the adjacency lists
	// (the "0-byte buffer" point of Fig. 16 — GraphOne-like behaviour).
	BufferNone
)

// Options configure a Store. The zero value is completed by
// (*Options).withDefaults; New applies it automatically.
type Options struct {
	// Name prefixes the store's PMEM region names, so multiple stores
	// can share one heap and a recovering process can find its data.
	Name string

	// NumVertices is the initial vertex-ID space; it grows on demand.
	NumVertices uint32

	// LogCapacity is the circular edge log size in edges. The paper's
	// default log is 8 GB (1 G edges); at the catalog's 1/1024 scale the
	// default here is 1 M edges (8 MB).
	LogCapacity int64

	// ArchiveThreshold triggers a buffering phase once this many logged
	// edges are unbuffered (default 2^16, as in the paper and GraphOne).
	ArchiveThreshold int64

	// ArchiveThreads is the buffering/flushing parallelism (default 16,
	// the unified setting of §V-B).
	ArchiveThreads int

	// AdjBytes sizes each adjacency region (per direction, per
	// partition). Default: 8x the log bytes.
	AdjBytes int64

	NUMA   NUMAMode
	Buffer BufferMode

	// MinBufBytes/MaxBufBytes bound the hierarchical buffer sizes
	// (defaults 16 and 256: L0..L4 of Fig. 8). For BufferFixed,
	// MaxBufBytes is the fixed size.
	MinBufBytes int64
	MaxBufBytes int64

	// PoolBulk is the per-thread memory bulk size (default 16 MB).
	// PoolMax caps the vertex-buffer pool (<=0: unlimited, Fig. 19).
	PoolBulk int64
	PoolMax  int64

	Medium Medium

	// SSDOverflow enables the SSD-supported XPGraph extension (future
	// work in §V-F): each adjacency arena gets this many bytes of
	// simulated NVMe SSD behind its PMEM region, and blocks that no
	// longer fit in PMEM spill there. Crash recovery is not implemented
	// for tiered stores (extension prototype).
	SSDOverflow int64

	// Battery marks DRAM as battery-backed: the XPGraph-B variant whose
	// edge log may overwrite buffered-but-unflushed edges (§IV-C).
	Battery bool

	// DisableProactiveFlush turns off the clwb flush of XPLine-sized
	// adjacency writes (§IV-A), on for PMEM stores otherwise: an ablation.
	DisableProactiveFlush bool

	// CompressedAdj encodes new adjacency blocks as delta-varint runs
	// instead of fixed 4-byte records (adj.Options.VarintBlocks): more
	// edges per 256 B XPLine at the cost of sequential decode. Existing
	// fixed blocks keep working — formats negotiate per block, so a
	// store recovered from a fixed-format heap simply grows varint
	// tails. Compaction sorts live neighbors to maximize delta density.
	CompressedAdj bool

	// Tracer, when non-nil, records pipeline phase spans on the
	// simulated clock (see internal/obs). Nil disables tracing; phase
	// boundaries then pay a single branch. SetTracer can attach one
	// after construction as well.
	Tracer *obs.Tracer

	// relaxedDurability opts out of the crash-safe ordering protocol
	// (acknowledged counts, journaled compaction, flush-before-publish log
	// appends): the legacy write path, slightly cheaper, but a crash can
	// lose or duplicate edges, so core.Recover refuses it. It is not a
	// knob: only core's tests set it, as the reference the crash-safe
	// flush is priced against (TestCrashSafeFlushCostNearRelaxed, the
	// golden access sequence's relaxed row).
	relaxedDurability bool

	// MediaGuard enables media-error tolerance (see media.go): CRC32-C
	// checksummed adjacency blocks and edge-log records, a scrubber that
	// verifies and repairs them (Store.Scrub), a persisted bad-block
	// quarantine, and checked read variants that return a typed error
	// instead of silently wrong data when an uncorrectable media error
	// is hit. Requires the crash-safe protocol (the checksum lifecycle
	// rides the count-acknowledgment slots); New rejects MediaGuard on
	// relaxed, battery-backed, volatile, or SSD-tiered stores. Default
	// off: guarded stores pay extra PMEM space and checksum writes.
	MediaGuard bool

	// ArchiveSSDBytes, when positive, creates a simulated-SSD edge
	// archive of this many bytes: every edge accepted by Ingest is teed
	// to it, giving the scrubber a rebuild source for damaged vertices
	// whose records have already rotated out of the edge log window.
	// MediaGuard only.
	ArchiveSSDBytes int64

	// Archive re-attaches an existing SSD edge archive — the recovery
	// path: pass Store.Archive() of the crashed store (the SSD survives
	// a machine crash). New accepts a fresh (empty) Space as well.
	Archive *ssd.Space

	// Props enables the property-graph layer (internal/prop, DESIGN.md
	// §13): typed edges and vertex-property columns in a PMEM-resident,
	// CRC-guarded column log under region "{Name}-prop", recovered by
	// core.Recover and scrubbed by Store.Scrub. PMEM stores only (the
	// columns ride the persistent heap).
	Props bool

	// PropLogBytes sizes the property column log (default 1 MiB — 4096
	// blocks, ~61 k property records).
	PropLogBytes int64
}

// counts derives the adjacency count policy (DESIGN.md §7 "The count slots
// and the stamp"). Every store but the default PMEM one gets a policy
// recovery refuses; why names the option that decided it.
func (o Options) counts() (p adj.CountPolicy, why string) {
	switch {
	case o.Medium != MediumPMEM:
		return adj.CountsAtAppend, "volatile media (DRAM, Memory Mode) lose the graph on power loss"
	case o.Battery:
		// XPGraph-B's persistence domain includes DRAM: a power failure
		// does not lose the vertex buffers, so there is nothing to replay —
		// and the edge log may legitimately have overwritten
		// buffered-but-unflushed edges, so replay would be wrong (§IV-C).
		return adj.CountsDeferred, "battery-backed stores (XPGraph-B) keep DRAM across power loss"
	case o.SSDOverflow > 0:
		return adj.CountsAtAppend, "SSD-tiered stores are an extension prototype"
	case o.relaxedDurability:
		return adj.CountsAtAppend, "relaxed-durability stores skip the ordering protocol recovery depends on"
	}
	return adj.CountsAcked, ""
}

// adjOptions derives the arenas' configuration.
func (o Options) adjOptions() adj.Options {
	counts, _ := o.counts()
	return adj.Options{
		Counts:         counts,
		ProactiveFlush: o.Medium == MediumPMEM && !o.DisableProactiveFlush,
		Checksums:      o.MediaGuard,
		VarintBlocks:   o.CompressedAdj,
	}
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "xpgraph"
	}
	if o.NumVertices == 0 {
		o.NumVertices = 1024
	}
	if o.LogCapacity <= 0 {
		o.LogCapacity = 1 << 20
	}
	if o.ArchiveThreshold <= 0 {
		o.ArchiveThreshold = 1 << 16
	}
	if o.ArchiveThreads <= 0 {
		o.ArchiveThreads = 16
	}
	if o.AdjBytes <= 0 {
		o.AdjBytes = 64 << 20
	}
	if o.MinBufBytes <= 0 {
		o.MinBufBytes = 16
	}
	if o.MaxBufBytes <= 0 {
		o.MaxBufBytes = 256
	}
	if o.MaxBufBytes < o.MinBufBytes {
		o.MaxBufBytes = o.MinBufBytes
	}
	if o.PoolBulk <= 0 {
		o.PoolBulk = mempool.DefaultBulkSize
	}
	if o.PropLogBytes <= 0 {
		o.PropLogBytes = 1 << 20
	}
	if o.Medium != MediumPMEM {
		// Volatile variants: XPGraph-D uses fixed 64-byte buffers to
		// avoid data movement (§IV-C) and needs no proactive flushing.
		if o.Buffer == BufferHierarchical && o.MaxBufBytes == 256 && o.MinBufBytes == 16 {
			o.Buffer = BufferFixed
			o.MaxBufBytes = 64
		}
	}
	return o
}

func (o Options) minClass() int { return mempool.ClassFor(o.MinBufBytes) }
func (o Options) maxClass() int { return mempool.ClassFor(o.MaxBufBytes) }

// maxBufNeighbors reports the capacity of the largest configured buffer.
func (o Options) maxBufNeighbors() int { return vbuf.Cap(o.maxClass()) }
