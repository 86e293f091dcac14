#!/usr/bin/env bash
# sweep-smoke: run a tiny multi-axis scenario grid through the CLI and
# cross-check that workers=2 and workers=1 produce byte-identical JSON
# (the determinism contract of DESIGN.md §7, extended to the bitwidth,
# pruning, and encoder axes of §12).
#
# The grid is 3 voltages x 2 BERs x 2 error models x 2 policies
# x 2 bitwidths x 2 prune levels x 2 encoders = 192 scenarios, kept
# cheap with a 40-neuron network and a 60/30 sample budget. Nominal
# 1.35 V flips no bit, so the comparison always covers groups of
# zero-flip scenarios that share one evaluation.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${TMPDIR:-/tmp}"
grid=(
  -neurons 40 -train 60 -test 30 -epochs 1
  -voltages 1.35,1.1,1.025 -bers 1e-5,1e-4
  -models uniform,data-dependent -policies baseline,sparkxd
  -bitwidths 32,16 -prune 0,0.5 -encoders rate,ttfs
  -json
)

go run ./cmd/sparkxd sweep "${grid[@]}" -workers 2 > "$out/sparkxd-sweep-w2.json"
go run ./cmd/sparkxd sweep "${grid[@]}" -workers 1 > "$out/sparkxd-sweep-w1.json"
cmp "$out/sparkxd-sweep-w1.json" "$out/sparkxd-sweep-w2.json"
echo "sweep-smoke: multi-axis grid deterministic across workers"
