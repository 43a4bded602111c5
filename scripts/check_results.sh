#!/usr/bin/env bash
# Results gate: regenerates every results/<name>.txt from the release
# binary of the same name (crates/bench/src/bin/<name>.rs) and fails on
# any byte difference. The files are the behavioural contract of the
# paper's figures and tables (ROADMAP aim 2): a change that claims "same
# optima" passes this, a change that moves one digit names the file.
#
# Most binaries print their file on stdout; the three in `self_writing`
# write results/<name>.txt themselves. Either way the checked-in file is
# left as committed, so a failing run does not dirty the tree.
#
# About 2 min in release on 2 cores; ablation_defrag (~75 s) and
# fig16_flexwan_plus (~25 s) dominate.
#
# Usage: scripts/check_results.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

self_writing=" colgen_report fig_availability fig_continental "

names=()
for f in results/*.txt; do
    names+=("$(basename "$f" .txt)")
done

bin_flags=()
for name in "${names[@]}"; do
    bin_flags+=(--bin "$name")
done
cargo build --release --quiet -p flexwan-bench "${bin_flags[@]}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

bad=0
for name in "${names[@]}"; do
    committed="results/$name.txt"
    start=$(date +%s)
    status=0
    case "$self_writing" in
    *" $name "*)
        cp "$committed" "$tmp/committed"
        "./target/release/$name" >/dev/null || status=$?
        mv "$committed" "$tmp/$name.txt"
        mv "$tmp/committed" "$committed"
        ;;
    *)
        "./target/release/$name" >"$tmp/$name.txt" || status=$?
        ;;
    esac
    if [ "$status" -ne 0 ]; then
        echo "FAILED   $committed ($name exited $status)"
        bad=1
    elif cmp -s "$committed" "$tmp/$name.txt"; then
        echo "ok       $committed ($(($(date +%s) - start)) s)"
    else
        echo "DIFFERS  $committed"
        diff "$committed" "$tmp/$name.txt" | head -20 || true
        bad=1
    fi
done

[ "$bad" -eq 0 ] && echo "all ${#names[@]} results files byte-identical"
exit "$bad"
