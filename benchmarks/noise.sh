#!/usr/bin/env bash
# Two interleaved sets of untraced runs per workload, then the comparison
# table of benchmarks/NOISE.md:
#
#   bash benchmarks/noise.sh [runs-per-set] [seconds]
#
# Both sets use seeds 101, 102, ...: run i of set A and run i of set B get
# the same inputs, so every simulated and counted metric must agree to the
# last digit between the sets (the "B worse by" column reads 0 for them)
# and the column shows the machine alone for the host-clock ones. The
# spread column is over the seeds, which is what the driver measures. Runs
# alternate A B A B so slow drift of the machine lands on both sets.
# Results go to .bench_build/noise/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-10}"
seconds="${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")}"
out="$root/.bench_build/noise"
mkdir -p "$out"
cd "$root"

for w in bulk-ingest serve-mixed query-readonly cluster-4s1r; do
  : >"$out/$w.A.jsonl"
  : >"$out/$w.B.jsonl"
  for i in $(seq 1 "$runs"); do
    for set in A B; do
      # The whole report is kept, so a failed run can be read afterwards.
      bash "$here/run.sh" --workload "$w" --seed $((100 + i)) --seconds "$seconds" --trace 0 >"$out/$w.$set.$i.log" 2>&1 ||
        { echo "run failed: see $out/$w.$set.$i.log" >&2; exit 1; }
      tail -n 1 "$out/$w.$set.$i.log" >>"$out/$w.$set.jsonl"
    done
  done
  echo "== $w ($runs runs per set, $seconds s each)"
  "$root/.bench_build/xpbench" compare "$out/$w.A.jsonl" "$out/$w.B.jsonl"
done
