#!/usr/bin/env bash
# Pre-PR gate: static checks, formatting, build, and race-detector tests
# over the concurrency-sensitive packages. Run from the repo root:
#
#   bash scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "== benchmarks/ module (vet + tests)"
# The repo's benchmark is its own module (replace repro => ../), outside
# ./..., and it calls internal/ APIs by name: an internal/ change that
# breaks it would otherwise pass everything above.
(cd benchmarks && go vet ./... && go test ./...)

echo "== go test -race -short ./..."
# Short mode caps the exhaustive crash-point sweeps to deterministic
# subsamples; the full sweeps run under plain `go test ./...` (and in CI).
go test -race -short ./...

echo "== crash-point sweeps (capped, native)"
go test -run Crash -short ./internal/crashtest/ ./internal/core/ ./internal/elog/

echo "== adjacency block format: one codec, pinned accesses, crash × scrub"
# internal/adj/header.go is the only non-test file of the package that may
# name a header offset (DESIGN.md §7 "Block format — who may touch it").
if grep -nE 'off(VID|Cap|Prev|Fmt|Cnt[01]|CRC[01])' \
    $(git ls-files 'internal/adj/*.go' | grep -v -e '_test\.go$' -e '/header\.go$'); then
    echo "a header offset is named outside internal/adj/header.go" >&2
    exit 1
fi
# The device's view of the adjacency store — every write, flush, miss and
# media byte — against the table captured before the package had one codec,
# one walker and one swap; the torn kill inside a scrub repair; and the
# capped crash × scrub sweep (exhaustive under plain `go test`, × 4 tear
# seeds nightly). They ran above under -race as well; this stanza names them.
go test -count=1 -run 'TestGoldenAccessSequence' ./internal/core/
go test -count=1 -short -run 'TestReplaceChainTornKillKeepsArena|TestScrubCrashSweep|TestHeaderUECrash' ./internal/adj/ ./internal/scrubtest/

echo "== one clock: no wall-clock read in a policy path; the stepped pipeline; soak on the real one"
# Policy code reads time through internal/clock (DESIGN.md §12.5 "Clocks"),
# so that what it decides can be stepped on virtual time. A host-clock call
# in a non-test file under internal/, cmd/ or client/ fails here unless its
# file is on this list, one reason a line.
wall_clock_ok='
internal/clock/clock.go          the wall clock itself
internal/bench/wire.go           the one gated host-clock row (decode rates)
internal/server/server.go        the HTTP latency histogram times the host
internal/cluster/transport.go    chaos transport delays: goroutines, not stepped
internal/cluster/replica.go      follower GapWait: goroutines, not stepped
internal/cluster/shard.go        ship retry backoff: goroutines, not stepped
internal/chaostest/chaostest.go  convergence wait on those goroutines
client/client.go                 retry timer of a real network client
'
echo "$wall_clock_ok" | sed '/^$/d; s/^/  allowed: /'
if git ls-files 'internal/*.go' 'cmd/*.go' 'client/*.go' | grep -v '_test\.go$' |
    grep -vxF -f <(echo "$wall_clock_ok" | awk 'NF {print $1}') |
    xargs grep -nE 'time\.(Now|Since|Until|Sleep|After|AfterFunc|Tick|NewTimer|NewTicker)\('; then
    echo "a wall-clock read outside the allowlist above: take the time from a clock.Clock" >&2
    exit 1
fi
# The writer as a step — gather, linger, chunking, busy windows, drain,
# apply failure — on a virtual clock with no goroutine and no sleep; and the
# soak reports, bit-identical per seed and equal to the cluster's own
# counters, bursty-ingest (bench-scale warm load, skipped by -short above)
# included. The nightly repeats the determinism test under -race -count=3.
go test -count=1 -run 'TestStep' ./internal/ingest/
go test -count=1 -run 'TestDeterministicReport|TestCountersAreTheClusters' ./internal/soak/

echo "== archiving path: full-width shard stage, log read in XPLines, allocation budgets, sub-graph balance"
# The shard stage cuts a batch across every archive thread of a node —
# whole stripes when there are enough, else XPLine runs at most a line
# apart — and the log is read one access per XPLine, not per record. A
# warmed shard stage and a warmed log read allocate nothing and a warmed
# store at most 19 times per 2048-edge Ingest (budgets checked without
# -race, under which sync.Pool drops buffers). shard.PartOf gives every
# sub-graph its share of an RMAT stream's out- and in-entries, inside each
# cluster shard too and whether or not the IDs are scrambled. They ran
# above under -race as well; this stanza names them.
go test -count=1 -run 'TestStageCutsFullWidth|TestReadInLines|TestReadAllocatesNothing|TestSteadyStateIngestAllocations|TestStageSteadyStateAllocatesNothing|TestPartOf' ./internal/core/ ./internal/shard/ ./internal/elog/

echo "== cluster router + failover (-race)"
# The partitioned-cluster suite under the race detector: the 4-shard
# differential vs a single store, replica log-shipping convergence,
# leader-kill failover (replica serving / typed degradation), and the
# partition-map stability properties (DESIGN.md §11).
go test -race -run 'TestCluster|TestFailover|TestReplica|TestShutdown|TestEpochVector|TestBreaker' ./internal/cluster/
go test -race -run 'TestHash64|TestOwner|TestSlot|TestSplit|TestNewSlotMap' ./internal/shard/

echo "== chaos differential sweep (capped, -race)"
# Seeded chaos schedules (drops, dups, delays, reorders, partitions) over
# a 4-shard+replicas cluster must converge edge-for-edge and
# label/prop-for-prop with a reference store once the chaos heals
# (DESIGN.md §14.5). Short mode caps the sweep at 2 schedules; a failure
# prints the exact -chaostest.seed replay command. The nightly widens the
# sweep and the workload.
go test -race -short ./internal/chaostest/

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

echo "== EXPERIMENTS.md is what its template renders from results_full.txt"
# Template, results and output cannot drift apart: an edit to one without
# the others, a placeholder that resolves to nothing and a shape row outside
# its paper band with no recorded deviation all fail here.
python3 scripts/mkexperiments.py /dev/stdout | diff -u EXPERIMENTS.md -

echo "== media-scrub differentials (short)"
# The UE-injection differential harness (DESIGN.md §9): every read under
# injected media errors matches the oracle or fails typed, scrubs repair
# or honestly refuse, quarantine survives recovery. Fast and
# deterministic, so the whole suite gates here; the nightly workflow
# repeats it under -race -count=5.
go test -short ./internal/scrubtest/

echo "check.sh: all green"
