#!/usr/bin/env bash
# End-to-end smoke test of the fleet tier (CI):
#
#  1. run a 12-cell sweep through capo-fleet against ONE clean
#     backend — the merged CSVs are the reference bytes;
#  2. start three capo-serve backends and run the same sweep under
#     every strategy (round-robin, least-connections,
#     consistent-hash) — each merged CSV must be byte-identical to
#     the reference;
#  3. restart the fleet cold, kill -9 one backend right as a sweep
#     starts — capo-fleet must still exit 0 and the merged CSVs must
#     still be byte-identical: failover never changes result bytes,
#     and the fleet's stats print a fleet.failovers row;
#  4. `capo-fleet health` renders a per-backend stats table.
#
# This is the real-process proof of what tests/serve/fleet_test.cc
# shows in-process: a sweep's results do not depend on placement,
# strategy, or which backends died along the way.
#
# Usage: scripts/fleet_smoke.sh [build-dir]
set -euo pipefail

build_dir="${1:-build}"
serve="$build_dir/examples/capo-serve"
fleet="$build_dir/src/capo-fleet"
for exe in "$serve" "$fleet"; do
    if [[ ! -x "$exe" ]]; then
        echo "fleet_smoke: $exe not found (build first)" >&2
        exit 1
    fi
done

work="$(mktemp -d)"
backend_pids=()
cleanup() {
    for pid in "${backend_pids[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT

experiment="tab01_metric_catalog"

wait_for_socket() { # path
    for _ in $(seq 1 100); do
        [[ -S "$1" ]] && return 0
        sleep 0.1
    done
    echo "fleet_smoke: server never bound $1" >&2
    return 1
}

start_backend() { # name
    local name="$1"
    "$serve" --socket "$work/$name.sock" --workers 2 \
        --artifacts "$work/$name" > "$work/$name.log" 2>&1 &
    backend_pids+=($!)
    disown $!    # no job-control "Killed" noise when we kill -9 it
    wait_for_socket "$work/$name.sock"
}

stop_backends() {
    for pid in "${backend_pids[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
        while kill -0 "$pid" 2>/dev/null; do sleep 0.05; done
    done
    backend_pids=()
}

run_sweep() { # backends-spec strategy out-dir (stdout to out-dir.log)
    "$fleet" --backends "$1" --strategy "$2" \
        --artifacts "$3" \
        run "$experiment" --vary seed=1:12 \
        -- --invocations 1 --iterations 1 > "$3.log"
}

echo "== reference: one clean backend"
start_backend ref
run_sweep "$work/ref.sock" round-robin "$work/out_ref"
stop_backends
if ! ls "$work/out_ref"/fleet_*.csv >/dev/null 2>&1; then
    echo "fleet_smoke: reference run wrote no CSVs" >&2
    exit 1
fi

echo "== three backends, every strategy, bitwise vs reference"
start_backend b0
start_backend b1
start_backend b2
backends="$work/b0.sock,$work/b1.sock,$work/b2.sock"
for strategy in round-robin least-connections consistent-hash; do
    run_sweep "$backends" "$strategy" "$work/out_$strategy"
    if ! diff -r "$work/out_ref" "$work/out_$strategy" >/dev/null; then
        echo "fleet_smoke: $strategy merged CSVs differ from the" \
             "single-backend reference" >&2
        exit 1
    fi
    echo "   $strategy: byte-identical"
done

echo "== health table"
"$fleet" --backends "$backends" health > "$work/health.log"
grep -q "b1" "$work/health.log" || {
    echo "fleet_smoke: health table missing backend rows:" >&2
    cat "$work/health.log" >&2
    exit 1
}
stop_backends

echo "== kill -9 one backend mid-sweep (cold caches)"
start_backend c0
start_backend c1
start_backend c2
victim_pid="${backend_pids[1]}"
cold="$work/c0.sock,$work/c1.sock,$work/c2.sock"
run_sweep "$cold" round-robin "$work/out_kill" &
fleet_pid=$!
sleep 0.2
kill -9 "$victim_pid"
code=0
wait "$fleet_pid" || code=$?
if ((code != 0)); then
    echo "fleet_smoke: capo-fleet exited $code after backend kill" >&2
    exit 1
fi
if ! diff -r "$work/out_ref" "$work/out_kill" >/dev/null; then
    echo "fleet_smoke: post-kill merged CSVs differ from the" \
         "reference" >&2
    exit 1
fi
echo "   failover run: exit 0, byte-identical"
# The row must be there; its value may be 0, because the sweep is
# short enough to finish before the kill lands.
failovers="$(awk '$1 == "fleet.failovers" { print $2 }' \
    "$work/out_kill.log")"
if [[ -z "$failovers" ]]; then
    echo "fleet_smoke: stats table lacks the fleet.failovers row:" >&2
    cat "$work/out_kill.log" >&2
    exit 1
fi
echo "   fleet.failovers = $failovers"

echo "OK: strategy-independent, failover-independent result bytes"
