#!/usr/bin/env bash
# Table I regression gate: runs `table1` and diffs its deterministic parts
# against the committed table1_output.txt. Usage:
#
#   ./scripts/check_table1.sh
#
# It runs `table1 --jobs 2`; the committed file is a `--jobs 1` run. Two
# blocks are compared, both independent of the job count:
#
#   * the Table I block (CP, cycles, ET, LUTs, FFs, levels, iterations);
#   * the MILP table with its wall-clock `milp(s)` column removed
#     (pivots, nodes, refactorizations, rows dropped, pruned nodes,
#     tightened bounds, warm hits/misses, truncated/solves of both flows).
#
# Whitespace runs are collapsed before the diff. No wall time is gated.
# A change that moves either block on purpose regenerates table1_output.txt
# (`table1 --jobs 1`) and explains the change.
set -euo pipefail

cd "$(dirname "$0")/.."

expected="table1_output.txt"

# Prints the table whose header line matches $1, up to its closing blank
# line; with $2 = drop-milp-s, the first column after the name is removed.
block() {
  awk -v head="$1" -v mode="${2:-}" '
    !on && $1 == "Benchmark" && index($0, head) { on = 1 }
    on && NF == 0 { exit }
    on {
      if (mode == "drop-milp-s") { $3 = "" }
      $1 = $1
      print
    }
  '
}

actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
cargo run -p frequenz-bench --release --bin table1 -- --jobs 2 > "$actual"

status=0
for spec in "CP(P)|" "milp(s)|drop-milp-s"; do
  head="${spec%%|*}"
  mode="${spec#*|}"
  want=$(block "$head" "$mode" < "$expected")
  got=$(block "$head" "$mode" < "$actual")
  if [[ -z "$want" ]]; then
    echo "check_table1: no '$head' table in $expected" >&2
    status=1
  elif [[ "$want" != "$got" ]]; then
    echo "check_table1: the '$head' table differs from $expected:" >&2
    diff <(echo "$want") <(echo "$got") >&2 || true
    status=1
  fi
done
if [[ "$status" -eq 0 ]]; then
  echo "check_table1: Table I and MILP counters match $expected" >&2
fi
exit "$status"
