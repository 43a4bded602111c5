#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds? Runs the full benchmark (untraced + traced) twice on seed 1 and
# once each on seeds 2 and 3, compares the two seed-1 outputs, and prints
# the observed spread of every end-to-end metric — the numbers the bounds
# in BENCHMARK.json were set from. Widen a bound only with the spread it
# was measured at recorded beside it (README.md, "Bounds").
#
# Usage (from the repo root): benchmark/agree.sh [seconds]   # default 30
set -euo pipefail

seconds="${1:-30}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="benchmark/out/agree"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"
bench="$target/release/flexwan-benchmark"

run() { # <label> <seed>
  "$bench" run --seed "$2" --seconds "$seconds" --traced --out-dir "$out/$1"
}

run a 1
run b 1
run c 2
run d 3

echo
echo "== compare: seed 1, first run vs second run =="
status=0
"$bench" compare "$out/a/1.json" "$out/b/1.json" || status=$?

echo
echo "== run-to-run spread of every end-to-end metric (4 runs, 3 seeds) =="
python3 - "$out" <<'EOF'
import json, sys, statistics
out = sys.argv[1]
files = [f"{out}/a/1.json", f"{out}/b/1.json", f"{out}/c/2.json", f"{out}/d/3.json"]
runs = [json.load(open(f)) for f in files]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
print(f'{"workload":18s} {"metric":14s} {"median":>12s} {"spread":>8s} {"bound":>7s}   values')
for w in runs[0]["workloads"]:
    for name, bound in bounds.items():
        vals = [r["workloads"][w]["end_to_end"][name] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        flag = "" if name == "setup_s" or spread <= bound else "  > bound"
        print(f"{w:18s} {name:14s} {med:12.5g} {spread*100:7.2f}% {bound*100:6.1f}%   "
              + " ".join(f"{v:.5g}" for v in vals) + flag)
EOF
exit "$status"
