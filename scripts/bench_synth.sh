#!/usr/bin/env bash
# Benchmarks the synthesis lane (dense-array FlowMap mapper at jobs
# 1/2/4/8 vs the retained HashMap reference labeler) on the nine kernels'
# elaborated gate netlists, leaving BENCH_synth.json behind (per-kernel
# wall clocks, speedups, LUT/cut statistics and the bit-identity
# verdicts). Usage:
#
#   ./scripts/bench_synth.sh [--repeats N] [--jobs N] [--out FILE] [--baseline FILE]
#
# Defaults: 3 repeats per lane (min reported), headline jobs 4,
# BENCH_synth.json in the repo root. With --baseline (typically the
# committed BENCH_synth.json), the run fails if any kernel's LUT count
# or total cut-input count drifts by more than 10% from the baseline, or
# if its flow_visits (the labeler's residual-search work counter) rises
# by more than 10% — the baseline is read before --out is overwritten,
# so both may name the same file.
set -euo pipefail

cd "$(dirname "$0")/.."

repeats=""
jobs=""
out="BENCH_synth.json"
baseline=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --repeats)  repeats="$2";  shift 2 ;;
    --jobs)     jobs="$2";     shift 2 ;;
    --out)      out="$2";      shift 2 ;;
    --baseline) baseline="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

args=(--out "$out")
if [[ -n "$repeats" ]]; then
  args+=(--repeats "$repeats")
fi
if [[ -n "$jobs" ]]; then
  args+=(--jobs "$jobs")
fi
if [[ -n "$baseline" ]]; then
  args+=(--baseline "$baseline")
fi

cargo run -p frequenz-bench --release --bin bench_synth -- "${args[@]}"
echo "wrote $out" >&2

# Surface the headline numbers recorded in the JSON.
layout=$(grep -o '"dense_layout_speedup": [0-9.]*' "$out" | head -1 | awk '{print $2}')
headline=$(grep -o '"headline_speedup": [0-9.]*' "$out" | head -1 | awk '{print $2}')
ident=$(grep -o '"lanes_bit_identical": \(true\|false\)' "$out" | head -1 | awk '{print $2}')
echo "dense layout speedup: ${layout}x, headline (parallel) speedup: ${headline}x, lanes bit-identical: ${ident}" >&2
