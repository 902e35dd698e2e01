#!/usr/bin/env bash
# Registry-driven bench smoke sweep (CI): every experiment that
# `capo-bench --list` reports runs once in quick mode with artifacts
# enabled, and two structural checks make bypassing the registry a
# build failure:
#
#  1. bench/ sources must not write files directly (std::ofstream) —
#     all artifact I/O goes through report::ArtifactSink;
#  2. capo-bench is the only experiment binary: anything else under
#     build/bench (micro_* excepted) is a hand-rolled main that would
#     dodge the sweep.
#
# Usage: scripts/bench_smoke.sh [build-dir] [artifact-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
ART_DIR="${2:-$(mktemp -d)}"
BENCH="$BUILD_DIR/bench/capo-bench"

if [ ! -x "$BENCH" ]; then
    echo "bench_smoke: missing $BENCH — build the tree first" >&2
    exit 1
fi
mkdir -p "$ART_DIR"

echo "== structural: no direct file I/O in bench/"
if git grep -n "std::ofstream" -- bench/ >/dev/null 2>&1; then
    echo "FAIL: bench/ writes files directly; route it through" \
         "report::ArtifactSink:" >&2
    git grep -n "std::ofstream" -- bench/ >&2
    exit 1
fi

list="$("$BENCH" --list)"
if [ -z "$list" ]; then
    echo "FAIL: capo-bench --list reported no experiments" >&2
    exit 1
fi

echo "== structural: capo-bench is the only experiment binary"
for exe in "$BUILD_DIR"/bench/*; do
    [ -f "$exe" ] && [ -x "$exe" ] || continue
    name="$(basename "$exe")"
    case "$name" in
        capo-bench|micro_*) continue ;;
    esac
    echo "FAIL: bench binary '$name' bypasses the experiment" \
         "registry; register it and run it as capo-bench run <name>" >&2
    exit 1
done

echo "== running $(printf '%s\n' "$list" | wc -l) experiments (quick mode)"
while IFS= read -r name; do
    printf '   %-28s' "$name"
    start=$(date +%s)
    if ! "$BENCH" run "$name" --invocations 1 --iterations 1 \
            --artifacts "$ART_DIR" >"$ART_DIR/$name.log" 2>&1; then
        echo "FAIL (log tail follows)"
        tail -n 40 "$ART_DIR/$name.log" >&2
        exit 1
    fi
    # Every experiment must land at least one typed result table.
    if ! find "$ART_DIR/$name" -name '*.csv' 2>/dev/null | grep -q .; then
        echo "FAIL: no result-table artifacts under $ART_DIR/$name" >&2
        exit 1
    fi
    echo "ok ($(( $(date +%s) - start ))s)"
done <<<"$list"

echo "OK: all experiments ran and landed artifacts under $ART_DIR"
