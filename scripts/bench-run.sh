#!/usr/bin/env bash
# bench-run: measure the hot-kernel benchmarks with fixed iteration
# counts and emit raw `go test -bench` output on stdout.
#
# Fixed -benchtime=Nx (not wall-clock auto-tuning) keeps the measured
# work identical across machines and commits, and -count=3 gives the
# min-of-runs aggregation in benchtool something to minimize over.
# bench-record.sh and bench-check.sh consume this output.
set -euo pipefail
cd "$(dirname "$0")/.."

run() { # bench-regex iterations
  go test -run='^$' -bench="$1" -benchtime="$2" -count=3 -benchmem .
}

run '^BenchmarkRateEncode$' 20x
run '^BenchmarkDriveAccumulation$' 2000x
run '^BenchmarkLIFStep$' 2000x
run '^BenchmarkEvaluate$' 20x
run '^BenchmarkSweepScenario$' 20x
run '^BenchmarkSweepScenarioMultiAxis$' 20x
run '^BenchmarkInject(Wordline)?$' 200x
run '^BenchmarkTrainEpoch$' 20x
run '^BenchmarkImproveTolerance$' 3x
