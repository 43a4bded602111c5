#!/usr/bin/env bash
# Wall-clock gate for a CI step: runs a command, fails when it takes
# longer than the budget, and optionally requires that a checked-in file
# the command rewrites comes out unchanged. Build whatever the command
# needs before calling this, so compile time stays outside the budget.
#
# Usage: scripts/timed_gate.sh <budget_s> [--diff <file>] -- <cmd...>
#
# <cmd...> is one command line; pass several as `bash -c 'a && b'`.
set -euo pipefail

usage="usage: timed_gate.sh <budget_s> [--diff <file>] -- <cmd...>"
budget="${1:?$usage}"
shift
diff_file=""
if [ "${1:-}" = "--diff" ]; then
  diff_file="${2:?$usage}"
  shift 2
fi
[ "${1:-}" = "--" ] || { echo "$usage" >&2; exit 2; }
shift
[ "$#" -gt 0 ] || { echo "$usage" >&2; exit 2; }

start=$(date +%s)
"$@"
elapsed=$(( $(date +%s) - start ))
echo "took ${elapsed}s (budget ${budget}s): $*"
test "$elapsed" -le "$budget"
if [ -n "$diff_file" ]; then
  git diff --exit-code -- "$diff_file"
fi
