#!/usr/bin/env bash
# exec_bench.sh — measure the predecoded execution core against the
# classical decode loop and publish BENCH_exec.json.
#
# Three layers, old path vs. new path:
#   - Executor.Run instruction throughput (BenchmarkRunDirect/Predecode);
#     gated: a predecode speedup over direct below MIN_SPEEDUP fails.
#   - fuzzer executions/second (BenchmarkFuzzerThroughput[NoPredecode])
#   - compliance cases/second (BenchmarkTableIParallel1 / NoPredecode)
#
# Each number is the best of COUNT runs (min ns/op is robust against
# scheduling noise).
#
# Usage: scripts/exec_bench.sh [out.json]
set -euo pipefail

OUT="${1:-BENCH_exec.json}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-1s}"
FUZZ_COUNT="${FUZZ_COUNT:-3}"
FUZZ_BENCHTIME="${FUZZ_BENCHTIME:-30000x}"
TABLE_COUNT="${TABLE_COUNT:-3}"
MIN_SPEEDUP="${MIN_SPEEDUP:-1.5}"

cd "$(dirname "$0")/.."

run_raw=$(go test -run '^$' -bench 'BenchmarkRun(Direct|Predecode)$' \
  -benchtime "$BENCHTIME" -count "$COUNT" ./internal/exec/)
echo "$run_raw"

fuzz_raw=$(go test -run '^$' -bench 'BenchmarkFuzzerThroughput(NoPredecode)?$' \
  -benchtime "$FUZZ_BENCHTIME" -count "$FUZZ_COUNT" .)
echo "$fuzz_raw"

table_raw=$(go test -run '^$' -bench 'BenchmarkTableI(Parallel1|NoPredecode)$' \
  -benchtime 1x -count "$TABLE_COUNT" .)
echo "$table_raw"

# Benchmark names carry a -GOMAXPROCS suffix on multi-CPU machines
# ("BenchmarkRunPredecode-2"); the helpers match the name without it.
# min_ns NAME_REGEX <<< raw: the best ns/op of all matching lines.
min_ns() {
  awk -v re="$1" '{ name = $1; sub(/-[0-9]+$/, "", name) }
    name ~ re { if (best == 0 || $3 < best) best = $3 } END { print best+0 }'
}
# max_metric NAME_REGEX UNIT <<< raw: the best value of the named
# per-benchmark metric (the field preceding its unit column).
max_metric() {
  awk -v re="$1" -v unit="$2" '{ name = $1; sub(/-[0-9]+$/, "", name) }
    name ~ re {
    for (i = 2; i <= NF; i++) if ($i == unit && $(i-1) > best) best = $(i-1)
  } END { print best+0 }'
}

run_direct=$(min_ns '^BenchmarkRunDirect$' <<< "$run_raw")
run_pre=$(min_ns '^BenchmarkRunPredecode$' <<< "$run_raw")
minst_direct=$(max_metric '^BenchmarkRunDirect$' 'Minst/s' <<< "$run_raw")
minst_pre=$(max_metric '^BenchmarkRunPredecode$' 'Minst/s' <<< "$run_raw")
fuzz_pre=$(max_metric '^BenchmarkFuzzerThroughput$' 'execs/s' <<< "$fuzz_raw")
fuzz_direct=$(max_metric '^BenchmarkFuzzerThroughputNoPredecode$' 'execs/s' <<< "$fuzz_raw")
table_pre=$(max_metric '^BenchmarkTableIParallel1$' 'cases/s' <<< "$table_raw")
table_direct=$(max_metric '^BenchmarkTableINoPredecode$' 'cases/s' <<< "$table_raw")

awk -v d="$run_direct" -v p="$run_pre" -v md="$minst_direct" -v mp="$minst_pre" \
    -v fd="$fuzz_direct" -v fp="$fuzz_pre" -v td="$table_direct" -v tp="$table_pre" \
    -v gate="$MIN_SPEEDUP" -v out="$OUT" 'BEGIN {
  if (d == 0 || p == 0 || fd == 0 || fp == 0 || td == 0 || tp == 0) {
    print "error: benchmark output missing" > "/dev/stderr"; exit 1
  }
  speedup = d / p
  printf "{\n" \
         "  \"run_ns_direct\": %.1f,\n  \"run_ns_predecode\": %.1f,\n" \
         "  \"run_minst_per_sec_direct\": %.2f,\n  \"run_minst_per_sec_predecode\": %.2f,\n" \
         "  \"run_speedup\": %.3f,\n  \"min_speedup\": %.2f,\n" \
         "  \"fuzz_execs_per_sec_direct\": %.0f,\n  \"fuzz_execs_per_sec_predecode\": %.0f,\n" \
         "  \"compliance_cases_per_sec_direct\": %.0f,\n  \"compliance_cases_per_sec_predecode\": %.0f\n" \
         "}\n", d, p, md, mp, speedup, gate, fd, fp, td, tp > out
  printf "Executor.Run speedup: %.2fx (direct %.0fns/op -> predecoded %.0fns/op, gate %.2fx)\n", speedup, d, p, gate
  printf "fuzz: %.0f -> %.0f execs/s; compliance: %.0f -> %.0f cases/s\n", fd, fp, td, tp
  if (speedup < gate) { print "error: Executor.Run speedup below gate" > "/dev/stderr"; exit 1 }
}'

echo "written: $OUT"
