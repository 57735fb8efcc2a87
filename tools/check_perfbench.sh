#!/usr/bin/env bash
# Builds the end-to-end benchmark (perfbench/) and its self-tests, runs the
# tests, then runs each workload once for a 1 s window and fails unless the
# run's result line (the last stdout line of perfbench/run.py, which exits 0
# even when a check fails) reports `"correct": true` and `"failed": 0`.
# It sets no timing bound.
#
# usage: tools/check_perfbench.sh
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build -j "$(nproc)" \
  --target tabsketch_cli perfbench perfbench_tests
./.bench_build/perfbench_tests

for workload in mine serve-knn serve-stream; do
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
             --seconds 1 --trace 0 | tail -n 1)
  echo "$workload: $result"
  python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' "$result" || { echo "perfbench $workload: run failed its checks" >&2; exit 1; }
done

echo "perfbench: every workload correct, 0 failed"
