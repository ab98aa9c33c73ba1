// Scenario and SLO specs for the soak harness (DESIGN.md §12.1–§12.2).
//
// A Scenario is a complete, JSON-serializable description of one soak
// run: the cluster shape, the open-loop load mix (zipfian reads,
// bursty batched ingest, tenant skew), the ingest-pipeline and breaker
// knobs the cluster is built with, a fault schedule, and the SLO the run
// is judged against. Everything is derived from one seed, so a failing run's
// dump replays bit-identically with `xpgraph soak -scenario X -seed N`.
package soak

import (
	"fmt"
	"strings"
	"time"
)

// FaultOp is one scheduled fault-injection step (DESIGN.md §12.1).
type FaultOp struct {
	// At is the virtual time the fault fires.
	At time.Duration `json:"at"`
	// Kind selects the fault: "ue" injects uncorrectable media errors
	// under the Vertices hottest vertices' adjacency lines, "slow"
	// marks the same lines latency-degraded by Mult, "kill" kills
	// shard leader Shard, "scrub" runs a cluster-wide media scrub.
	Kind string `json:"kind"`
	// Shard is the target leader for "kill", and the shard whose
	// follower Replica targets.
	Shard int `json:"shard,omitempty"`
	// Replica, when set, aims "ue" and "slow" at follower Replica-1 of
	// shard Shard — the lines under the hottest vertices it holds —
	// instead of at every owner shard's leader.
	Replica int `json:"replica,omitempty"`
	// Vertices is how many of the hottest vertices "ue"/"slow" damage.
	Vertices int `json:"vertices,omitempty"`
	// Mult is the latency multiplier for "slow".
	Mult float64 `json:"mult,omitempty"`
}

// SLO is the per-scenario service-level objective (DESIGN.md §12.2).
// A negative field is unchecked; zero is a real (strict) budget.
type SLO struct {
	// ReadP99Us bounds the p99 read latency in simulated microseconds
	// (lock wait + media cost).
	ReadP99Us float64 `json:"read_p99_us"`
	// WriteP99Ms bounds the p99 write (arrival → applied) latency in
	// simulated milliseconds.
	WriteP99Ms float64 `json:"write_p99_ms"`
	// Max429Frac bounds shed write parts / offered write parts.
	Max429Frac float64 `json:"max_429_frac"`
	// MaxErrorFrac bounds error-envelope read responses / read attempts.
	MaxErrorFrac float64 `json:"max_error_frac"`
	// MaxReplicaLag bounds the worst leader−follower epoch gap seen at
	// any scrape.
	MaxReplicaLag int64 `json:"max_replica_lag"`
	// TailReadP99Us bounds the p99 read latency over the post-overload
	// tail only (reads arriving after OverloadAt+OverloadFor): the
	// recovery-to-SLO assertion for overload scenarios. Zero is
	// normalized to unchecked by withDefaults so pre-overload scenario
	// literals keep their meaning.
	TailReadP99Us float64 `json:"tail_read_p99_us"`
}

// Scenario fully describes one soak run. The zero value is not usable;
// start from a builtin (ByName) or fill every field.
type Scenario struct {
	Name string `json:"name"`
	// Seed drives every random choice in the run; same seed, same
	// scenario ⇒ bit-identical Report.
	Seed uint64 `json:"seed"`

	// Cluster shape.
	Shards        int    `json:"shards"`
	Replicas      int    `json:"replicas"`
	Vertices      uint32 `json:"vertices"`
	PMEMPerNodeMB int64  `json:"pmem_per_node_mb"`
	MediaGuard    bool   `json:"media_guard"`

	// Horizon is the virtual run length; WarmEdges are bulk-loaded
	// before the clock starts.
	Horizon   time.Duration `json:"horizon"`
	WarmEdges int           `json:"warm_edges"`

	// Open-loop load mix. Rates are arrivals per virtual second with
	// ±50% deterministic jitter; each write arrival carries WriteBatch
	// edges. KHopFrac of reads run a 2-hop exploration instead of a
	// neighbor lookup; DeleteFrac of write arrivals are deletions.
	ReadsPerSec  int     `json:"reads_per_sec"`
	WritesPerSec int     `json:"writes_per_sec"`
	WriteBatch   int     `json:"write_batch"`
	KHopFrac     float64 `json:"khop_frac"`
	// FilteredKHopFrac of reads run a typed 2-hop exploration through
	// the property layer (types=["hot"], pushed down; DESIGN.md §13).
	// Setting it attaches property columns to every store and warm-loads
	// a typed edge set alongside the plain warm edges.
	FilteredKHopFrac float64 `json:"filtered_khop_frac"`
	DeleteFrac       float64 `json:"delete_frac"`
	// TypedFrac of write arrivals are typed batches, posted synchronously
	// (typed batches bypass the pipeline): edges under two labels plus a
	// property write per source vertex. Setting it attaches property
	// columns to every store and registers the two labels at warm-up.
	TypedFrac float64 `json:"typed_frac,omitempty"`

	// ZipfSkew skews vertex popularity inside a tenant's range (0 =
	// uniform; larger = hotter head). Tenants partitions the vertex
	// space; TenantSkew skews which tenant each request hits.
	ZipfSkew   float64 `json:"zipf_skew"`
	Tenants    int     `json:"tenants"`
	TenantSkew float64 `json:"tenant_skew"`

	// Bursts: every BurstEvery the write arrival rate multiplies by
	// BurstMult for BurstLen (0 disables).
	BurstEvery time.Duration `json:"burst_every"`
	BurstLen   time.Duration `json:"burst_len"`
	BurstMult  int           `json:"burst_mult"`

	// Sustained overload: one long over-capacity window (unlike the
	// periodic bursts) — from OverloadAt the write arrival rate
	// multiplies by OverloadMult for OverloadFor (0 disables). The SLO's
	// TailReadP99Us judges the reads after the window ends.
	OverloadAt   time.Duration `json:"overload_at,omitempty"`
	OverloadFor  time.Duration `json:"overload_for,omitempty"`
	OverloadMult int           `json:"overload_mult,omitempty"`

	// BreakerSheds arms the overload side of every shard's circuit
	// breaker (cluster.Config.BreakerSheds): that many consecutive
	// queue-full sheds open it, converting the 429 storm into typed
	// circuit_open 503s until a half-open probe after BreakerCooldown is
	// admitted. 0 leaves the arm off.
	BreakerSheds    int           `json:"breaker_sheds,omitempty"`
	BreakerCooldown time.Duration `json:"breaker_cooldown,omitempty"`

	// Ingest-pipeline knobs under test: every shard's pipeline is built
	// with them (cluster.Config; DESIGN.md §12.3). With Adaptive they are
	// the AIMD controller's ceiling.
	QueueCap   int           `json:"queue_cap"`
	BatchEdges int           `json:"batch_edges"`
	Linger     time.Duration `json:"linger"`
	Adaptive   bool          `json:"adaptive"`
	// Target is the AIMD applied-batch latency target, in simulated time:
	// on the driver's clock a batch takes its simulated cost (only with
	// Adaptive).
	Target time.Duration `json:"target"`

	// ScrapeEvery is the metrics/health scrape cadence.
	ScrapeEvery time.Duration `json:"scrape_every"`

	// Chaos is a seeded fault schedule on every leader→follower shipping
	// link, in chaos.Parse's grammar (DESIGN.md §14.4). A chaos run keeps
	// a journal of what the cluster applied, in the order it applied it,
	// for the differential its tests end in.
	Chaos string `json:"chaos,omitempty"`

	Faults []FaultOp `json:"faults,omitempty"`
	SLO    SLO       `json:"slo"`
}

// withDefaults fills the knobs a hand-built scenario may omit.
func (sc Scenario) withDefaults() Scenario {
	if sc.Shards <= 0 {
		sc.Shards = 1
	}
	if sc.Vertices == 0 {
		sc.Vertices = 1 << 16
	}
	if sc.PMEMPerNodeMB <= 0 {
		sc.PMEMPerNodeMB = 256
	}
	if sc.Horizon <= 0 {
		sc.Horizon = time.Second
	}
	if sc.WriteBatch <= 0 {
		sc.WriteBatch = 256
	}
	if sc.Tenants <= 0 {
		sc.Tenants = 1
	}
	if sc.QueueCap <= 0 {
		sc.QueueCap = 1 << 14
	}
	if sc.BatchEdges <= 0 {
		sc.BatchEdges = 4096
	}
	if sc.Linger <= 0 {
		sc.Linger = 2 * time.Millisecond
	}
	if sc.Target <= 0 {
		sc.Target = 200 * time.Microsecond
	}
	if sc.ScrapeEvery <= 0 {
		sc.ScrapeEvery = 500 * time.Millisecond
	}
	if sc.BreakerSheds > 0 && sc.BreakerCooldown <= 0 {
		sc.BreakerCooldown = 100 * time.Millisecond
	}
	if sc.SLO.TailReadP99Us == 0 {
		sc.SLO.TailReadP99Us = -1
	}
	return sc
}

// Builtin scenario names.
const (
	// ShortMix is the deterministic CI scenario: a small cluster under
	// a mixed read/write load with mild bursts and no faults. Fixed
	// seed ⇒ identical Report across runs; its SLO passes.
	ShortMix = "short-mix"
	// BurstyIngest is the adaptive-admission benchmark scenario: one
	// shard under heavy periodic ingest bursts with a zipfian read
	// load. Run static vs adaptive to measure the p99 read-latency win
	// (`xpgraph bench -exp soak`).
	BurstyIngest = "bursty-ingest"
	// faultStorm schedules media UEs under the hottest vertices, a
	// shard-leader kill, and a late scrub. Its strict SLO fails by
	// design: the run demonstrates violation reporting and dumps
	// seed + scenario + Chrome trace for replay.
	faultStorm = "fault-storm"
	// sustainedOverload drives one long over-capacity ingest window into
	// a small admission queue: queue-full 429 sheds trip the overload
	// circuit breaker, refused writes become typed circuit_open 503s,
	// half-open probes re-test the queue each cooldown, and once the
	// window ends the breaker closes and the post-overload read tail
	// must recover to its TailReadP99Us budget (ROADMAP item 2).
	sustainedOverload = "sustained-overload"
)

// ByName returns a builtin scenario, seeded with its default seed.
func ByName(name string) (Scenario, error) {
	switch name {
	case ShortMix:
		return Scenario{
			Name:             ShortMix,
			Seed:             0x50A6_0001,
			Shards:           2,
			Vertices:         1 << 16,
			PMEMPerNodeMB:    256,
			Horizon:          2 * time.Second,
			WarmEdges:        30_000,
			ReadsPerSec:      2000,
			WritesPerSec:     40,
			WriteBatch:       512,
			KHopFrac:         0.02,
			FilteredKHopFrac: 0.02,
			DeleteFrac:       0.05,
			ZipfSkew:         0.8,
			Tenants:          4,
			TenantSkew:       0.6,
			BurstEvery:       500 * time.Millisecond,
			BurstLen:         150 * time.Millisecond,
			BurstMult:        6,
			QueueCap:         1 << 14,
			BatchEdges:       4096,
			Linger:           2 * time.Millisecond,
			ScrapeEvery:      250 * time.Millisecond,
			SLO: SLO{
				ReadP99Us:     2000,
				WriteP99Ms:    50,
				Max429Frac:    0.05,
				MaxErrorFrac:  0,
				MaxReplicaLag: -1,
			},
		}, nil
	case BurstyIngest:
		// WarmEdges deliberately overshoots the store's first big
		// elog-archive event (~1.05M edges) so the measured window is
		// spike-free: the read tail is then driven by routine apply
		// windows, whose length the live BatchEdges knob controls —
		// the effect the static-vs-adaptive comparison measures.
		// WritesPerSec was derived from that window (DESIGN.md §12.3) as 8
		// x BurstMult writes/s of 133 us in a burst; the generator delivers
		// 154 writes in 2 s, 1 % of reads meet a window, and the
		// static-vs-adaptive comparison is therefore made on the mean read
		// wait, not on p99.
		return Scenario{
			Name:          BurstyIngest,
			Seed:          0x50A6_0002,
			Shards:        1,
			Vertices:      1 << 18,
			PMEMPerNodeMB: 384,
			Horizon:       2 * time.Second,
			WarmEdges:     1_200_000,
			ReadsPerSec:   2500,
			WritesPerSec:  8,
			WriteBatch:    4096,
			ZipfSkew:      0.3,
			Tenants:       1,
			BurstEvery:    500 * time.Millisecond,
			BurstLen:      200 * time.Millisecond,
			BurstMult:     50,
			QueueCap:      1 << 15,
			BatchEdges:    4096,
			Linger:        2 * time.Millisecond,
			Target:        100 * time.Microsecond,
			ScrapeEvery:   250 * time.Millisecond,
			SLO: SLO{
				ReadP99Us:     1000,
				WriteP99Ms:    50,
				Max429Frac:    0.05,
				MaxErrorFrac:  0,
				MaxReplicaLag: -1,
			},
		}, nil
	case faultStorm:
		return Scenario{
			Name:          faultStorm,
			Seed:          0x50A6_0003,
			Shards:        2,
			Replicas:      1,
			Vertices:      1 << 15,
			PMEMPerNodeMB: 256,
			MediaGuard:    true,
			Horizon:       3 * time.Second,
			WarmEdges:     40_000,
			ReadsPerSec:   1500,
			WritesPerSec:  20,
			WriteBatch:    512,
			KHopFrac:      0.01,
			ZipfSkew:      0.9,
			Tenants:       2,
			TenantSkew:    0.5,
			QueueCap:      1 << 14,
			BatchEdges:    4096,
			Linger:        2 * time.Millisecond,
			ScrapeEvery:   250 * time.Millisecond,
			Faults: []FaultOp{
				{At: 500 * time.Millisecond, Kind: "ue", Vertices: 64},
				{At: 1200 * time.Millisecond, Kind: "slow", Vertices: 32, Mult: 8},
				{At: 1500 * time.Millisecond, Kind: "kill", Shard: 1},
				{At: 2 * time.Second, Kind: "scrub"},
			},
			SLO: SLO{
				ReadP99Us:     2000,
				WriteP99Ms:    50,
				Max429Frac:    0.05,
				MaxErrorFrac:  0.002,
				MaxReplicaLag: -1,
			},
		}, nil
	case sustainedOverload:
		return Scenario{
			Name:          sustainedOverload,
			Seed:          0x50A6_0004,
			Shards:        1,
			Vertices:      1 << 16,
			PMEMPerNodeMB: 256,
			Horizon:       2 * time.Second,
			WarmEdges:     30_000,
			ReadsPerSec:   1500,
			WritesPerSec:  40,
			WriteBatch:    512,
			ZipfSkew:      0.8,
			Tenants:       1,
			// Overload: 40x the offered write rate for 600ms against a
			// queue that holds only two write batches — a 512-edge write
			// lingers 2 ms for a 4096-edge batch it never fills, arrivals
			// come every 625 us, so refusals come in streaks.
			OverloadAt:   500 * time.Millisecond,
			OverloadFor:  600 * time.Millisecond,
			OverloadMult: 40,
			QueueCap:     1 << 10,
			BatchEdges:   4096,
			Linger:       2 * time.Millisecond,
			// Two consecutive queue-full sheds trip the breaker; a probe
			// re-tests the queue every 100ms.
			BreakerSheds:    2,
			BreakerCooldown: 100 * time.Millisecond,
			ScrapeEvery:     250 * time.Millisecond,
			SLO: SLO{
				// The window is over capacity by design: the overall shed
				// rate and write tail are unchecked. The assertion is the
				// recovery — the post-overload read tail back inside 2ms.
				ReadP99Us:     -1,
				WriteP99Ms:    -1,
				Max429Frac:    -1,
				MaxErrorFrac:  0,
				MaxReplicaLag: -1,
				TailReadP99Us: 2000,
			},
		}, nil
	}
	return Scenario{}, fmt.Errorf("soak: unknown scenario %q (builtins: %s)", name, strings.Join(Names(), ", "))
}

// Names lists the builtin scenarios.
func Names() []string {
	return []string{ShortMix, BurstyIngest, faultStorm, sustainedOverload}
}
