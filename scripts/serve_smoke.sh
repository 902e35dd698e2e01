#!/usr/bin/env bash
# End-to-end smoke test of the experiment server (CI):
#
#  1. start capo-serve with an on-disk result cache;
#  2. hammer it with 8 concurrent capo-client loops (distinct fault
#     streams, a mix of repeated and fresh configurations);
#  3. health must report HEALTHY throughout, and after one served
#     simulation its metrics table (the hot tier) must show nonzero
#     sim.engine.events and harness.invocations;
#  4. kill -9 the daemon mid-load — completed results must survive on
#     disk;
#  5. restart over the same artifact root: the cache warm-loads and a
#     repeated configuration answers "(cached)" without re-running;
#  6. graceful client-requested shutdown exits 0 with cache hits > 0.
#
# This is the shell-level proof of what tests/serve/serve_test.cc
# shows in-process: serving is crash-safe, cached replay is real, and
# the daemon drains cleanly.
#
# Usage: scripts/serve_smoke.sh [build-dir]
set -euo pipefail

build_dir="${1:-build}"
serve="$build_dir/examples/capo-serve"
client="$build_dir/examples/capo-client"
for exe in "$serve" "$client"; do
    if [[ ! -x "$exe" ]]; then
        echo "serve_smoke: $exe not found (build first)" >&2
        exit 1
    fi
done

work="$(mktemp -d)"
server_pid=""
cleanup() {
    [[ -n "$server_pid" ]] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

sock="$work/capo.sock"
art="$work/artifacts"
experiment="tab01_metric_catalog"

wait_for_socket() {
    for _ in $(seq 1 100); do
        [[ -S "$sock" ]] && return 0
        sleep 0.1
    done
    echo "serve_smoke: server never bound $sock" >&2
    return 1
}

run_once() { # stream seed
    "$client" --socket "$sock" --stream "$1" run "$experiment" \
        -- --invocations 1 --iterations 1 --seed "$2"
}

echo "== start capo-serve (on-disk cache)"
"$serve" --socket "$sock" --workers 2 --queue 32 \
    --artifacts "$art" > "$work/serve1.log" 2>&1 &
server_pid=$!
wait_for_socket

echo "== 8 concurrent client loops (mixed cached/uncached)"
pids=()
for i in $(seq 1 8); do
    (
        for r in 1 2 3 4; do
            # Seeds 1 and 2 repeat across every client (cache hits);
            # the others are client-unique (fresh runs).
            if ((r <= 2)); then seed=$r; else seed=$((10 * i + r)); fi
            run_once "$i" "$seed" > "$work/client_${i}_${r}.log"
        done
    ) &
    pids+=($!)
done
status=0
for pid in "${pids[@]}"; do
    wait "$pid" || status=1
done
if ((status != 0)); then
    echo "serve_smoke: a client loop failed; last logs:" >&2
    tail -n 5 "$work"/client_*.log >&2
    exit 1
fi
if ! grep -l "(cached)" "$work"/client_*.log >/dev/null; then
    echo "serve_smoke: no client ever saw a cached response" >&2
    exit 1
fi

echo "== health stays HEALTHY under load and scrapes the hot tier"
# tab01 computes no simulation; one small served sweep feeds the
# simulator's hot counters.
"$client" --socket "$sock" --stream 90 run fig05_lbo_cases \
    -- --invocations 1 --iterations 1 > "$work/sim.log"
"$client" --socket "$sock" health > "$work/health.log"
grep -q "message: HEALTHY" "$work/health.log" || {
    echo "serve_smoke: server not HEALTHY:" >&2
    cat "$work/health.log" >&2
    exit 1
}
for counter in sim.engine.events harness.invocations; do
    value="$(awk -v n="$counter" '$1 == n && $2 == "counter" {print $4}' \
        "$work/health.log")"
    echo "   $counter = ${value:-missing}"
    if ! awk -v v="${value:-0}" 'BEGIN { exit !(v + 0 > 0) }'; then
        echo "serve_smoke: metrics row $counter is not > 0:" >&2
        cat "$work/health.log" >&2
        exit 1
    fi
done

echo "== kill -9 mid-load"
( while run_once 91 1 >/dev/null 2>&1; do :; done ) &
load_pid=$!
sleep 0.3
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
kill "$load_pid" 2>/dev/null || true
wait "$load_pid" 2>/dev/null || true

count="$(find "$art/cache" -name '*.capores' | wc -l)"
echo "   $count result file(s) survived the kill"
if ((count == 0)); then
    echo "serve_smoke: no cache files persisted before the kill" >&2
    exit 1
fi

echo "== restart: warm cache serves completed work"
"$serve" --socket "$sock" --workers 2 \
    --artifacts "$art" > "$work/serve2.log" 2>&1 &
server_pid=$!
wait_for_socket
warm="$(grep -o 'warm-loaded [0-9]*' "$work/serve2.log" | awk '{print $2}')"
warm="${warm:-0}"
echo "   warm-loaded $warm entries"
if ((warm == 0)); then
    echo "serve_smoke: restarted server loaded nothing from disk" >&2
    exit 1
fi
run_once 99 1 > "$work/warm.log"
grep -q "status: OK (cached)" "$work/warm.log" || {
    echo "serve_smoke: repeated config not served from warm cache:" >&2
    cat "$work/warm.log" >&2
    exit 1
}

echo "== graceful shutdown"
"$client" --socket "$sock" shutdown > /dev/null
code=0
wait "$server_pid" || code=$?
server_pid=""
if ((code != 0)); then
    echo "serve_smoke: capo-serve exited $code after drain" >&2
    tail -n 10 "$work/serve2.log" >&2
    exit 1
fi
hits="$(grep -o 'cache hits [0-9]*' "$work/serve2.log" | awk '{print $3}')"
if [[ -z "$hits" || "$hits" == "0" ]]; then
    echo "serve_smoke: restarted server reported no cache hits" >&2
    tail -n 5 "$work/serve2.log" >&2
    exit 1
fi

echo "OK: crash-safe serving, warm-cache replay, graceful drain"
