#!/usr/bin/env bash
# Panic ratchet: counts the lines of non-test library and binary code
# that can panic by themselves — `unwrap(`, `expect(`, `panic!`,
# `unreachable!` — over every `.rs` file under crates/*/src and src.
# "Non-test" is everything above a file's first top-level
# `#[cfg(test)]`, the same cut scripts/check_surface.sh makes.
#
# The count may only go down. CEILING is the committed count: lower it
# in the change that removes a site; a change that adds one converts a
# site to a typed error elsewhere, or it fails.
#
# Usage: scripts/count_panics.sh           print the count
#        scripts/count_panics.sh --check   fail when it exceeds CEILING
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=93

count=$(find crates/*/src src -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f"
done | grep -cE 'unwrap\(|expect\(|panic!|unreachable!' || true)

if [ "${1:-}" != "--check" ]; then
    echo "$count"
    exit 0
fi
if [ "$count" -gt "$CEILING" ]; then
    echo "non-test panic sites: $count, above the ceiling of $CEILING"
    exit 1
fi
echo "non-test panic sites: $count (ceiling $CEILING)"
