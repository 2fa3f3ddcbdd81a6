#!/usr/bin/env bash
# Regenerates Table I in release mode and leaves BENCH_table1.json behind
# (per-kernel wall-clock, synthesis-cache hit rates, MILP and simulation
# work counters, and the Table I metrics). Usage:
#
#   ./scripts/bench_table1.sh [--jobs N] [--out FILE]
#
# Defaults: all cores, BENCH_table1.json in the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=""
out="BENCH_table1.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs|-j) jobs="$2"; shift 2 ;;
    --out)     out="$2";  shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

args=(--json "$out")
if [[ -n "$jobs" ]]; then
  args+=(--jobs "$jobs")
fi

cargo run -p frequenz-bench --release --bin table1 -- "${args[@]}"
echo "wrote $out" >&2
