#!/usr/bin/env bash
# Pre-PR gate, one section per check: a section is a function defined at
# the start of a line below, and this file is the one list of named test
# runs (ci.yml runs each section as its own step). From the repo root:
#
#   bash scripts/check.sh                  # every section, in file order
#   bash scripts/check.sh crash scrub      # only the sections named
#
# A test runs in one section per flag set (the module-wide `race` run
# aside); a section whose tests run in another says where.
set -euo pipefail
cd "$(dirname "$0")/.."

static() {
    echo "== go vet ./..."
    go vet ./...
    echo "== staticcheck"
    # Pinned so local runs and CI agree on the finding set. Installed in CI
    # (see .github/workflows/ci.yml); locally the step is skipped with a
    # warning when the tool is absent, since offline sandboxes cannot fetch
    # it and vet/gofmt still gate above.
    STATICCHECK_VERSION="2025.1.1"
    if command -v staticcheck >/dev/null 2>&1; then
        have=$(staticcheck -version 2>/dev/null || true)
        if [[ "$have" != *"$STATICCHECK_VERSION"* ]]; then
            echo "warning: staticcheck is $have, CI pins $STATICCHECK_VERSION" >&2
        fi
        staticcheck ./...
    else
        echo "warning: staticcheck not installed; skipping (CI enforces it at $STATICCHECK_VERSION)" >&2
    fi
    echo "== gofmt"
    # Only files tracked by git: stray worktrees/vendored copies don't gate.
    unformatted=$(git ls-files '*.go' | xargs gofmt -l)
    if [[ -n "$unformatted" ]]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
    echo "== go build ./..."
    go build ./...
}

api-budget() {
    echo "== exported-API budget"
    # Every exported function, method, type, const and var of internal/ has a
    # caller in a non-test file of another package (either module), or a line
    # in scripts/apibudget/allow.txt with a reason from a closed set; a stale
    # line fails too. The same package holds README.md's internal/ tree to the
    # package comments. -v logs the rule-(h) line count and the API counts.
    go test -count=1 -v ./scripts/apibudget/
}

checknames() {
    echo "== named test runs name tests, ci.yml runs every section once"
    # Every -run alternative and -fuzz target of this file and the two
    # workflows names a test of its line's packages (go test passes a pattern
    # that selects nothing), ci.yml has no -run of its own, and its steps
    # name every section of this file exactly once.
    go test -count=1 -v ./scripts/checknames/
}

benchmarks() {
    echo "== benchmarks/ module (vet + tests)"
    # The repo's benchmark is its own module (replace repro => ../), outside
    # ./..., and it calls internal/ APIs by name: an internal/ change that
    # breaks it would otherwise pass everything above.
    (cd benchmarks && go vet ./... && go test ./...)
}

race() {
    echo "== go test -race -short ./..."
    # Short mode caps the exhaustive crash-point sweeps to deterministic
    # subsamples; the full sweeps run under plain `go test ./...` (and in CI).
    go test -race -short ./...
}

crash() {
    echo "== crash-point sweeps, crash × scrub, UE crashes (capped, native)"
    # Every test named *Crash* of these packages: the crash-point sweeps (the
    # wide one over several segments per arena, the column one attaching over
    # two rounds on two workers), crash × scrub (exhaustive under plain `go
    # test`, × 4 tear seeds nightly), and a crash with a UE under a block
    # header or under a record of the log window a recovery replays or of the
    # span it re-tees into the SSD archive, all refused typed.
    go test -run Crash -short ./internal/crashtest/ ./internal/core/ ./internal/elog/
}

difftest() {
    echo "== differential-test kit: one model, one comparator, one sweep"
    # internal/difftest is what every fault harness compares and sweeps with
    # (DESIGN.md §9 "Verification"). Each comparator mode — exact, checked,
    # source against source, prefix — must pass a correct store and kill a
    # table of mutant sources by name; the sweep's kill space is pinned. A
    # failing sweep case — each kill is its own subtest — prints one line that
    # is also its replay command
    # (`go test <pkg> -run '<Test>/<case>' -difftest.tearseeds=<k> [-difftest.seed=<s>]`).
    go test -count=1 -run 'TestComparatorKillsMutants|TestSweepCases' ./internal/difftest/
}

adj-format() {
    echo "== adjacency block format: one codec, pinned accesses, the torn swap"
    # internal/adj/header.go is the only non-test file of the package that may
    # name a header offset (DESIGN.md §7 "Block format — who may touch it").
    if grep -nE 'off(VID|Cap|Prev|Stamp|Cnt[01]|CRC[01])' \
        $(git ls-files 'internal/adj/*.go' | grep -v -e '_test\.go$' -e '/header\.go$'); then
        echo "a header offset is named outside internal/adj/header.go" >&2
        exit 1
    fi
    # The global slot parity and its two-cycle re-acknowledgment are gone, and
    # so are the text loader, the APIs the exported-API budget found nothing
    # calling and the oldest-first read (every read walks newest first through
    # one resolver): none of them may come back.
    if git ls-files '*.go' | xargs grep -nE '\b(MarkFlushedSlot|AckSlot|slotBit|pendPrev|nextSlot|ReadTextEdgeFile|ReadTextEdges|WriteTextEdges|ClearUE|ClearAllUEs|IsUE|WriteChecked|BinBytes|PendingRecords|DegreeHistogramResult|ResetReport|ScrubStats|OldestFirst)\b|cnt\[0\] != [a-z.]*cnt\[1\]'; then
        echo "the global count-slot parity, the text loader, the oldest-first read or an API the budget deleted came back" >&2
        exit 1
    fi
    # The device's view of the adjacency store — every write, flush, miss and
    # media byte — against the table captured before the package had one codec,
    # one walker and one swap; and the torn kill inside a scrub repair.
    # Crash × scrub and the UE crashes (header, replay window, catch-up) run -short in `crash`.
    go test -count=1 -run 'TestGoldenAccessSequence' ./internal/core/
    go test -count=1 -short -run 'TestReplaceChainTornKillKeepsArena' ./internal/adj/
}

count-policy() {
    echo "== one count policy: header.go's table at the device"
    # One count policy (DESIGN.md §7 "The count slots and the stamp"): adj branches
    # on the normalized Options.Counts, whose rules are header.go's table, and
    # reads the CrashSafe spelling only where New folds it in
    # (Options.normalized); core derives the policy in options.go alone.
    if git ls-files 'internal/adj/*.go' | grep -v '_test\.go$' | xargs awk '
        /^func \(o Options\) normalized\(/ { fold = 1 }
        !fold && /\.CrashSafe([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        fold && /^}/ { fold = 0 }
        END { exit !bad }'; then
        echo "CrashSafe is read outside the fold into adj.Options.Counts" >&2
        exit 1
    fi
    if grep -nE 'adj\.Counts(AtAppend|Volatile|Deferred|Acked)' \
        $(git ls-files 'internal/core/*.go' | grep -v -e '_test\.go$' -e '/options\.go$'); then
        echo "a count-policy constant is named outside internal/core/options.go" >&2
        exit 1
    fi
    # Each count policy's row at the device, the scan refusing every policy but
    # the acked one with an error, core.Recover naming the option that refused
    # a store, and DisableProactiveFlush holding.
    go test -count=1 -run 'TestCountPolicies|TestRecoverWithRefusesUnrecoverablePolicies' ./internal/adj/
    go test -count=1 -run 'TestRecoverRejects|TestDisableProactiveFlushIssuesNoAdjacencyFlush' ./internal/core/
}

commit() {
    echo "== the single-word commit"
    # The single-word commit (DESIGN.md §7 "The count slots and the stamp"): the
    # small-scope explorer — every sequence of appends, flush cycles,
    # compactions and deletions on a two-vertex arena, killed at every media
    # write, recovered, committed again and crashed again (depth 3 here, 5 under
    # plain `go test`, deeper with -explore.depth) — the stamps at the device,
    # the torn kill and torn reuse pinned by hand, the epoch word surviving
    # every tear of its commit, and a snapshot's short read typed.
    go test -count=1 -short -run 'TestExploreCommitProtocol|TestCountsRideTheRecordsWrite|TestRecoverTornKillKeepsBlocksBehind|TestRecoverTornReuseKeepsBlocksBehind|TestBoundsAreTypedRefusals|TestRunTagsWrapWithoutAStaleStamp' ./internal/adj/
    go test -count=1 -run 'TestCommitEpochSurvivesEveryTear|TestCommitRefusesPastMaxEpoch' ./internal/elog/
    go test -count=1 -run 'TestSnapshotShortReadIsTyped' ./internal/core/
}

delete-semantics() {
    echo "== one delete semantics: one newest-first resolver behind every read"
    # A delete cancels an earlier matching insert and an unmatched one cancels
    # nothing, whenever a compaction runs (DESIGN.md §5): the resolver at every
    # cut and under a snapshot's skip; every read surface over deletes of
    # absent edges and re-inserts around a compaction; a stepped cluster's
    # leader, snapshots, follower and recovered store through compactions,
    # scrub rebuilds and resyncs; and the scrub refusing a log window that a
    # compaction outran.
    go test -count=1 -run 'TestResolveAtEveryCut|TestResolverTakesRunsNewestFirst' ./internal/adj/
    go test -count=1 -run 'TestConformance' ./internal/view/
    go test -count=1 -run 'TestDeleteSemanticsDifferential' ./internal/cluster/
    go test -count=1 -run 'TestScrubLogWindowAfterCompaction' ./internal/crashtest/
}

clock() {
    echo "== one clock: no wall-clock read in a policy path; the stepped pipeline; soak on the real one"
    # Policy code reads time through internal/clock (DESIGN.md §12.5 "Clocks"),
    # so that what it decides can be stepped on virtual time. A host-clock call
    # in a non-test file under internal/, cmd/ or client/ fails here unless its
    # file is on this list, one reason a line.
    wall_clock_ok='
internal/clock/clock.go          the wall clock itself
internal/bench/wire.go           the one gated host-clock row (decode rates)
internal/server/server.go        the HTTP latency histogram times the host
client/client.go                 retry timer of a real network client
'
    echo "$wall_clock_ok" | sed '/^$/d; s/^/  allowed: /'
    if git ls-files 'internal/*.go' 'cmd/*.go' 'client/*.go' | grep -v '_test\.go$' |
        grep -vxF -f <(echo "$wall_clock_ok" | awk 'NF {print $1}') |
        xargs grep -nE 'time\.(Now|Since|Until|Sleep|After|AfterFunc|Tick|NewTimer|NewTicker)\('; then
        echo "a wall-clock read outside the allowlist above: take the time from a clock.Clock" >&2
        exit 1
    fi
    # Replication is stepped too (DESIGN.md §12.5): no goroutine of its own in
    # internal/cluster or internal/chaos — the wall driver is clock.Timer.Drive.
    if git ls-files 'internal/cluster/*.go' 'internal/chaos/*.go' | grep -v '_test\.go$' |
        xargs grep -nE '^\s*go [a-zA-Z_(]|\bgo func'; then
        echo "a go statement in internal/cluster or internal/chaos: step it on the clock instead" >&2
        exit 1
    fi
    # The writer as a step — gather, linger, chunking, busy windows, drain,
    # apply failure — on a virtual clock with no goroutine and no sleep; and the
    # soak reports, bit-identical per seed and equal to the cluster's own
    # counters, bursty-ingest (bench-scale warm load, skipped by -short in
    # `race`) and fault-storm (followers, ship retries and replica lag on the
    # driver's clock) included, twice under -race. The nightly repeats the
    # determinism test under -race -count=3.
    go test -count=1 -run 'TestStep' ./internal/ingest/
    go test -count=1 -run 'TestDeterministicReport|TestCountersAreTheClusters' ./internal/soak/
    go test -count=2 -race -run 'TestDeterministicReport/fault-storm' ./internal/soak/
}

archiving() {
    echo "== archiving path: full-width shard stage, log read in XPLines, allocation budgets, sub-graph and list balance"
    # The shard stage cuts a batch across every archive thread of a node —
    # whole stripes when there are enough, else XPLine runs at most a line
    # apart — and the log is read one access per XPLine, not per record. A
    # warmed shard stage, a warmed log read and a warmed store's flush-all
    # allocate nothing, and a warmed store, traced or not, at most 6 times per
    # 2048-edge Ingest (budgets checked without -race, under which sync.Pool
    # drops buffers). shard.PartOf gives every
    # sub-graph its share of an RMAT stream's out- and in-entries, inside each
    # cluster shard too and whether or not the IDs are scrambled. XPGraph's
    # ranged lists come from the same hash — each lies inside its vertex's
    # partition, and they balance a group's drain workers on RMAT IDs — while
    # GraphOne's stay its contiguous ranges.
    go test -count=1 -run 'TestStageCutsFullWidth|TestReadInLines|TestReadAllocatesNothing|TestSteadyStateIngestAllocations|TestWarmFlushAllocatesNothing|TestStageSteadyStateAllocatesNothing|TestPartOf|TestHashedLists|TestContiguousIsGraphOnesRanges' ./internal/core/ ./internal/shard/ ./internal/elog/
}

sweep-order() {
    echo "== one sweep order, one media write per XPLine per flush: the flush drain and the analytics kernels on one xpsim loop, each frontier level in ID order"
    # A whole-graph sweep is one xpsim.Sweep, dealt in weighted chunks to the
    # least busy worker (DESIGN.md §4 "One sweep order"). A flush's drain is
    # two: the tails that have room in offset order, then new blocks in ID
    # order, so it writes each XPLine to the media once and lays its new
    # blocks out in ID order, and an analytics iteration reads them back in
    # that order. No strided or rank deal of vertices to workers remains in
    # non-test code under internal/.
    if git ls-files 'internal/*.go' | grep -v '_test\.go$' |
        xargs grep -nE '[a-z]+ \+= workers\b|rank ?% ?n\b|for [a-z]+ := w; [^;]*; [a-z]+ \+= '; then
        echo "a strided or rank deal of items to workers: run the sweep on xpsim.Sweep" >&2
        exit 1
    fi
    # The loop: every item once in index order, chunk limits, the idlest
    # worker grabs, the slowest clock, grabs charged only on several workers,
    # no allocation, a small frontier no slower than round-robin; a hub's
    # reads and edge work in equal shares to its node's workers, never to one
    # the share would leave later than the hub kept whole, and the end-of-level
    # pass moving edge shares, never read time, to the idlest worker of either
    # node (a grab off the reader, a DRAM read of the records across sockets),
    # never raising the level, allocating nothing. The flush: drain shares
    # comparable, blocks ascending with their IDs in every arena, each
    # adjacency line written to the media once, bulk-ingest's media writes by
    # region (log 8.07, adjacency 55.6 B/edge), no scrub started once draining
    # began. The kernels: every BFS / k-hop / typed k-hop / path level in
    # ascending ID order (orderFrontier's sort and scan paths agreeing), BFS
    # and k-hop time repeating to the ns, a 2-hop through a hub within its read
    # plus a quarter of its edge work. The walks (trusting, checked, mirror):
    # one device access per XPLine of a block at every header offset (the
    # recovery scan one per header line), a cyclic chain failing typed within
    # the vertex's record count, the header's window dropped around every
    # visit and clamped to the arena's end, and one bulk-ingest PageRank
    # iteration reading 84.2k media lines in 175.6k accesses.
    go test -count=1 -run 'TestSweep|ExampleSweep' ./internal/xpsim/
    go test -count=1 -run 'TestFlushDrainUsesEveryWorker|TestFlushLaysBlocksOutInIDOrder|TestFlushWritesEachLineOnce|TestMediaWritesByRegion|TestPageRankReadsEachLineOnce' ./internal/core/
    go test -count=1 -run 'TestChainReadsFetchEachLineOnce|TestWindowDroppedAcrossVisits|TestHeaderLineClampedToTheArena|TestCyclicChainFailsTyped' ./internal/adj/
    go test -count=1 -run 'TestFrontierSweepsUpward|TestKernelsRepeatExactly|TestHubLevelSharesWorkers' ./internal/analytics/
    go test -count=20 -run 'TestDrainCancelsPendingScrubTick' ./internal/ingest/
}

recovery-scan() {
    echo "== one recovery scan: each arena's header walk split over its node's workers"
    # The walk runs as segments on the group's workers and a serial join makes
    # their walks the serial walk's block list (DESIGN.md §4 "the arena scan is
    # split"): at
    # any walker count over arenas with payload that passes for headers, a hub
    # spanning segments, dead, recycled and quarantined blocks, an armed
    # journal, varint tails and a frontier with blocks behind it; the scan step
    # bound to the arenas' nodes and at 16 threads 0.3 of 4's or less; the
    # report's attach + scan + replay + props the recover span. Pass 3's varint
    # tail decodes and CRC walks run as one sweep of the same workers (the
    # split-scan test's varint arenas, a corrupt tail among them), and the
    # column log's attach reads rounds of stripes on every archive worker, each
    # on its stripe's node, joined in block order (DESIGN.md §13.3).
    # The wide and the column crash sweeps run -short in `crash`.
    go test -count=1 -run 'TestSplitScanIsTheSerialScan' ./internal/adj/
    go test -count=1 -run 'TestSplitAttachIsTheSerialAttach' ./internal/prop/
    go test -count=1 -run 'TestRecoveryScanIsBoundAndParallel|TestRecoverySpans|TestRecoveryReportSplitsTheClock|TestPropAttachReadsNoBlockAcrossSockets' ./internal/core/
}

publication() {
    echo "== publication: one count base per store, patched from the vertices a buffer phase touched"
    # A capture patches the store's shared count base from the dirty log, copies
    # it whole once the log passed its cap or another writer marked it stale,
    # or allocates a fresh one while an open snapshot shares it (DESIGN.md §6
    # "Snapshot publication"). The seeded differential holds every snapshot to
    # a difftest.Model at its capture point, record counts included, across
    # ingest with deletes, closes, held snapshots, compaction, a scrub repair,
    # recovery and growth; it kills four mutants (compaction not staling the
    # base, a shared base patched, the log dropping an entry at its cap, a
    # second Close releasing again). Close runs once however retire and unref
    # race, under -race; and a patched capture allocates the Snapshot alone (the
    # fewest of five captures, so a stray allocation elsewhere cannot fail it), a
    # published chunk with one follower under |V| bytes (without -race).
    go test -count=1 -race -short -run 'TestPublicationDifferential' ./internal/core/
    go test -count=1 -race -run 'TestPinnedReadersNeverSeeClosedSnapshots|TestRetireAndUnrefCloseOnce' ./internal/cluster/
    go test -count=1 -run 'TestSnapshotPatchesOnlyTouchedCounts' ./internal/core/
    go test -count=1 -run 'TestPublicationAllocatesUnderV' ./internal/cluster/
}

mempool() {
    echo "== vertex-buffer pool: a bulk is a reservation, backed on first carve"
    # A buffering thread's bulk counts whole against the DRAM budget, the pool
    # limit and the footprint from the moment it is taken, and host memory
    # backs it in segments that double from a 64th of the bulk as carving
    # reaches them (DESIGN.md §4 "A pool bulk is a reservation"). Buffers keep
    # their bytes across segments, a bulk carved whole is backed by exactly its
    # size, a recycled bulk and the alloc/free churn allocate nothing, and a
    # fresh store's first 2048-edge Ingest reserves 16 bulks and backs one
    # segment of each (the last without -race: it reads MemStats).
    go test -count=1 ./internal/mempool/
    go test -count=1 -run 'TestFirstIngestBacksOnlyWhatItCarves' ./internal/core/
}

member-windows() {
    echo "== one commit per partition: every write window is the member's"
    # A partition write is one ship entry that the leader commits and its
    # followers replay with the same apply (DESIGN.md §11.2): the exclusive lock
    # of a member (a Shard or a Replica), publishLocked and recordShipLocked
    # appear in non-test code of internal/cluster only inside member's methods,
    # Shard.commit and Shard.mutate (the breaker's mutex is its own). Every
    # other window is on this list, one reason a line.
    member_window_ok='
Replica.resyncRound   the caught-up flip: no seq may be assigned between the check and running
'
    echo "$member_window_ok" | sed '/^$/d; s/^/  allowed: /'
    windows=$(git ls-files 'internal/cluster/*.go' | grep -v '_test\.go$' |
        xargs awk -v ok="$(echo "$member_window_ok" | awk 'NF {printf "%s,", $1}')" '
        BEGIN { n = split(ok, a, ","); for (i = 1; i <= n; i++) allowed[a[i]] = 1 }
        /^func / {
            fn = $0
            sub(/^func /, "", fn)
            if (fn ~ /^\(/) {
                sub(/^\([a-z]+ \*?/, "", fn)
                sub(/\) /, ".", fn)
            }
            sub(/\(.*/, "", fn)
            next
        }
        /^[ \t]*\/\// { next }
        /\.mu\.Lock\(\)|publishLocked\(|recordShipLocked\(/ {
            if (fn ~ /^(member|breaker)\./ || fn == "Shard.commit" || fn == "Shard.mutate" || fn in allowed) next
            print FILENAME ":" FNR ": " fn ": " $0
        }')
    if [[ -n "$windows" ]]; then
        echo "$windows" >&2
        echo "a hand-rolled write window: commit an entry, mutate, or give the window a reasoned line above" >&2
        exit 1
    fi
}

cluster() {
    echo "== cluster router + failover (-race)"
    # The partitioned-cluster suite under the race detector: the 4-shard
    # differential vs a single store, replica log-shipping convergence, the
    # wall driver waking on a delayed arrival's due time, leader-kill failover
    # (replica serving / typed degradation, a leader killed while its follower
    # resyncs), and the partition-map stability properties (DESIGN.md §11).
    # The follower's allocation budget runs without -race (sync.Pool drops
    # buffers under it).
    go test -race -run 'TestCluster|TestFailover|TestReplica|TestShutdown|TestEpochVector|TestBreaker|TestLeaderKilled' ./internal/cluster/
    go test -count=1 -run 'TestFollowerApplyAllocatesOnlyItsIngest' ./internal/cluster/
    go test -race -run 'TestHash64|TestOwner|TestSlot|TestSplit|TestNewSlotMap' ./internal/shard/
}

chaos() {
    echo "== chaos differential sweep (capped, -race)"
    # Seeded chaos schedules (drops, dups, delays, reorders, partitions) on the
    # shipping links of a soak run over a 4-shard, 2-replica cluster, stepped on
    # the driver's clock, must quiesce to a cluster that equals the model
    # edge-, label- and property-for-property, every follower its leader in
    # both directions, and the view after a leader kill; and a UE on a
    # follower inside its partition window leaves it damaged and never served
    # (DESIGN.md §9 "Verification"). Short mode caps the sweep at 2 schedules
    # of a third of the workload; a failure prints difftest's replay line for
    # its schedule. The nightly widens the sweep and the workload.
    go test -race -short -run 'TestChaos|TestFollowerUEInsidePartition' ./internal/soak/
}

bench-gate() {
    echo "== bench rows + gate (DESIGN.md §3.1)"
    # The four gated experiments into one row report — wire, cluster and prop
    # at the scale the committed trajectory file records, soak at its builtin
    # horizon — held to every floor the experiments declare and, against the
    # newest BENCH_<pr>.json, to every bound; a row either side has and the
    # other lacks fails by name. Simulated and counted rows repeat to the
    # digit; the one gated host-clock row (binary over JSON decode rate) has a
    # loose bound. CI uploads the report.
    report=bench-report.json
    : >"$report"
    for exp in wire cluster prop soak; do
        scale=0.5
        [[ $exp == soak ]] && scale=1
        go run ./cmd/xpgraph bench -exp "$exp" -scale "$scale" -json "$report.part" >/dev/null
        cat "$report.part" >>"$report"
    done
    rm "$report.part"
    go run ./cmd/xpgraph benchgate -new "$report" -baseline "$(ls BENCH_*.json | sort -V | tail -n 1)"
}

experiments() {
    echo "== EXPERIMENTS.md is what its template renders from results_full.txt"
    # Template, results and output cannot drift apart: an edit to one without
    # the others, a placeholder that resolves to nothing and a shape row outside
    # its paper band with no recorded deviation all fail here.
    python3 scripts/mkexperiments.py /dev/stdout | diff -u EXPERIMENTS.md -
}

design-tables() {
    echo "== DESIGN.md §8's metric catalog and span taxonomy are the live registry and tracer"
    # Every series a live server exports — store, device collector, pipeline,
    # breaker, shipping, a follower, the server's own — is in the catalog's
    # tables and every catalog name is exported ({a,b} expands).
    go test -count=1 -run 'TestMetricCatalogMatchesDesign' ./internal/server/
    # Its span taxonomy is the tracer's: every span a traced store, its scrub
    # and recovery and a traced GraphOne store record is in the table, and
    # every name in the table is recorded.
    go test -count=1 -run 'TestSpanTaxonomyMatchesDesign' ./internal/core/
}

scrub() {
    echo "== media-scrub differentials (short)"
    # The UE-injection differential harness (DESIGN.md §9): every read under
    # injected media errors matches the model or fails typed, scrubs repair
    # or honestly refuse, quarantine survives recovery. Fast and
    # deterministic, so all of it gates here (the crashtest tests not named
    # TestCrash*); the nightly workflow repeats it under -race -count=5.
    # TestScrubCrashSweep and the three UE crashes run -short in `crash`.
    go test -short -run 'TestUE|TestScrubRepair|TestScrubLogWindowAfterCompaction|TestUnrecoverable|TestNodeFailure|TestQuarantine|TestMixedFormatScrub|TestProp' ./internal/crashtest/
}

sections=$(sed -n 's/^\([a-z][a-z0-9-]*\)() {$/\1/p' scripts/check.sh)
(($# > 0)) || set -- $sections
for s in "$@"; do
    if ! grep -qxF -- "$s" <<<"$sections"; then
        echo "check.sh: no section \"$s\"; the sections are:" $sections >&2
        exit 2
    fi
done
for s in "$@"; do "$s"; done
echo "check.sh: all green"
