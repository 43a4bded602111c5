#!/usr/bin/env bash
# Fails unless every FILTER names at least one test of the release suite
# `cargo test --release ARGS` builds. A gate that picks its tests by name
# filter would otherwise lose a renamed test silently: the filter matches
# nothing, cargo runs 0 tests, and the gate passes.
#
# Usage: scripts/require_tests.sh "CARGO TEST ARGS" FILTER...
#   e.g. scripts/require_tests.sh "-p flexwan-optical --lib" a_patched_fit_starts
set -euo pipefail
cd "$(dirname "$0")/.."

args=$1
shift
# shellcheck disable=SC2086 # ARGS is a list of cargo flags
tests=$(cargo test --release -q $args -- --list | sed -n 's/: test$//p')
missing=0
for f in "$@"; do
    if ! grep -qF -- "$f" <<<"$tests"; then
        echo "no test of \`cargo test $args\` matches the filter $f"
        missing=1
    fi
done
exit "$missing"
