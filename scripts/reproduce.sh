#!/usr/bin/env bash
# Reproduce the full evaluation, mirroring the paper artifact's run.sh:
# unit/property tests, every table and figure at full (1/1024) scale, and
# the quick-scale benchmark suite. Results land in results/.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results

echo "== tests ==" | tee results/progress.txt
go test ./... 2>&1 | tee results/test_output.txt

echo "== full-scale evaluation (fig3..fig20, tables, extensions) ==" | tee -a results/progress.txt
go run ./cmd/xpgraph bench -exp all -scale 1 -json results/rows_full.json | tee results/results_full.txt

echo "== quick-scale benchmarks ==" | tee -a results/progress.txt
go test -bench=. -benchmem ./... 2>&1 | tee results/bench_output.txt

echo "done; see results/" | tee -a results/progress.txt
