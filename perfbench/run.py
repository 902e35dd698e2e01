#!/usr/bin/env python3
"""perfbench: capo's end-to-end and per-layer benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lbo_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 10        # every workload, a table

The first run builds perfbench_driver (perfbench/CMakeLists.txt) under
.bench_build/perfbench. A run then launches the driver once per pass, a
fresh process each time, until --seconds have passed, and reports the
median of each metric over its passes. With --trace 0 those are the
end-to-end metrics; with --trace 1 untraced and traced passes alternate
and the per-layer metrics of the traced passes are reported.

Every pass checks its simulated outputs: invariants inside the driver,
and here the digest of every output record against digests.json (where
the seed is recorded) and against the run's first pass. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted and failed count output records over all passes.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
OUT = BUILD / "out"
DIGESTS = HERE / "digests.json"
LAYERS = HERE / "layers.json"

WORKLOADS = ["lbo_sweep", "pause_mmu", "openloop"]
DEFAULT_SEED = 1

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Counts of simulated work: identical in every traced pass of one seed.
EXACT_COUNTS = [
    "sim.events", "sim.timer_ops", "gc.pauses", "runtime.alloc_stalls",
    "harness.cells", "harness.cells_dnf", "harness.invocations",
    "load.shed", "metrics.pause_intervals", "metrics.latency_samples",
    "report.rows", "report.bytes",
]

MIN_PASSES = 3
# Extra set-up-only processes after each pass: set-up takes a few ms and
# its spread is the spawn's, so setup_s needs more samples than passes.
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 120


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def layer_units():
    return {m["name"]: m["unit"]
            for m in json.loads(LAYERS.read_text())["layers"]}


def check_layout():
    """The driver builds the capo library from the checkout's sources."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no capo sources under {ROOT}; run from the root "
            "of a full checkout")
        sys.exit(2)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_pass(workload, seed, traced, run_id, reduced=False,
             corrupt_record=None):
    """One driver process; its JSON plus the spawn-relative setup time.
    None when the process fails."""
    (OUT / workload).mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--traced", "1" if traced else "0", "--run-id", str(run_id),
           "--out-dir", str(OUT), "--reduced", "1" if reduced else "0"]
    if traced:
        cmd += ["--trace-out", str(OUT / f"{workload}-seed{seed}")]
    if corrupt_record is not None:
        cmd += ["--corrupt-record", str(corrupt_record)]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: pass timed out after {PASS_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(proc.stderr.strip())
        log(f"perfbench: driver exited {proc.returncode}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_call_mono"] - spawn
    return result


def sample_setup(workload, seed, reduced):
    """Seconds from spawn to the first harness call, in a process that
    stops there."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--reduced", "1" if reduced else "0", "--setup-only", "1"]
    spawn = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)["first_call_mono"] - spawn


def pass_digest(records):
    """One digest over every record's key and digest, in order."""
    h = hashlib.sha256()
    for key, digest, _dnf, _violations in records:
        h.update(f"{key}={digest}\n".encode())
    return h.hexdigest()[:16]


def recorded(digests_path, workload, seed, reduced):
    if not digests_path.is_file():
        return None
    table = json.loads(digests_path.read_text())
    size = "reduced" if reduced else "full"
    return table.get(size, {}).get(workload, {}).get(str(seed))


class Checker:
    """Counts output records checked and failed over a run's passes."""

    def __init__(self, expect):
        self.expect = expect  # recorded {"digest", "records"?} or None
        self.first = None     # the run's first pass, {key: digest}
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def _fail(self, key, why):
        self.failed += 1
        self.reasons.setdefault(why, key)

    def lost(self):
        """A pass that produced nothing: every expected record fails."""
        n = len(self.first) if self.first else max(
            1, len((self.expect or {}).get("records", {})))
        self.attempted += n
        self.failed += n
        self.reasons.setdefault("driver failed", "-")

    def check(self, result):
        records = result["records"]
        digests = {key: digest for key, digest, _, _ in records}
        if self.first is None:
            self.first = digests
        whole_ok = self.expect is None or \
            pass_digest(records) == self.expect["digest"]
        by_key = (self.expect or {}).get("records")
        self.attempted += max(len(records), len(self.first))
        for key, digest, _dnf, violations in records:
            if violations:
                self._fail(key, violations[0])
            elif by_key is not None and by_key.get(key) != digest:
                self._fail(key, "digest differs from the recorded one")
            elif by_key is None and not whole_ok:
                self._fail(key, "pass digest differs from the recorded one")
            elif self.first.get(key) != digest:
                self._fail(key, "digest differs from the run's first pass")
        for key in set(self.first) - set(digests):
            self._fail(key, "record missing")


def median(values):
    return statistics.median(values) if values else 0.0


def provenance(result, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    build = result["build"] if result else {}
    comparable = build.get("type") == "Release" and \
        not build.get("asserts", True)
    return {
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "compiler": build.get("compiler"), "build_type": build.get("type"),
        "lto": build.get("lto"), "capo_asserts": build.get("asserts"),
        "git_commit": commit, "seed": seed,
        "jobs": result["jobs"] if result else None,
        "pool_workers": result["pool_workers"] if result else None,
        "comparable": comparable,
    }


def run_workload(workload, seed, seconds, trace, reduced=False,
                 corrupt_record=None, digests_path=DIGESTS):
    """Run passes for `seconds`; returns (summary, per-pass results)."""
    checker = Checker(recorded(digests_path, workload, seed, reduced))
    plain, traced, setups = [], [], []
    start = time.monotonic()
    run_id = 0
    while True:
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_PASSES and \
            (not trace or len(traced) >= MIN_PASSES)
        if elapsed >= seconds and enough:
            break
        with_trace = bool(trace) and run_id % 2 == 1
        result = run_pass(workload, seed, with_trace, run_id, reduced,
                          corrupt_record)
        run_id += 1
        if result is None:
            checker.lost()
            if run_id >= 2 * MIN_PASSES:
                break
            continue
        checker.check(result)
        (traced if with_trace else plain).append(result)
        if not with_trace:
            setups.append(result["setup_s"])
            setups += [sample_setup(workload, seed, reduced)
                       for _ in range(SETUP_SAMPLES)]

    metrics = {}
    if plain:
        metrics = {
            "wall_s": median([r["wall_s"] for r in plain]),
            "cpu_s": median([r["cpu_s"] for r in plain]),
            "sim_events_per_s": median(
                [r["dispatches"] / r["wall_s"] for r in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
    layers, unsteady = {}, {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = median([r["layers"][name] for r in traced])
        if plain:
            layers["trace.overhead_frac"] = (
                median([r["wall_s"] for r in traced]) /
                median([r["wall_s"] for r in plain]) - 1.0)
        # Counts of simulated work should repeat exactly, and the hot
        # tier's event count should equal the summed dispatches. These
        # check the measurement, not the outputs: they are reported, not
        # counted as failed records (the hot tier flushes some counts
        # late; see perfbench/README.md).
        for name in EXACT_COUNTS:
            seen = sorted({r["layers"][name] for r in traced})
            if len(seen) > 1:
                unsteady[name] = [seen[0], seen[-1]]
        if any(r["layers"]["sim.events"] != r["dispatches"] for r in traced):
            unsteady["sim.events != dispatches"] = [
                traced[0]["layers"]["sim.events"], traced[0]["dispatches"]]

    first = (plain or traced or [None])[0]
    summary = {
        "workload": workload,
        "passes": len(plain), "traced_passes": len(traced),
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "failures": checker.reasons,
        "unsteady_counts": unsteady,
        "digest": pass_digest(first["records"]) if first else None,
        "metrics": metrics, "layers": layers,
        "provenance": provenance(first, seed),
    }
    return summary, plain + traced


def record_digests(seeds, reduced_seeds):
    """Regenerate digests.json: one pass per workload and seed."""
    table = {"default_seed": DEFAULT_SEED, "full": {}, "reduced": {}}
    for size, size_seeds in (("full", seeds), ("reduced", reduced_seeds)):
        for workload in WORKLOADS:
            for seed in size_seeds:
                result = run_pass(workload, seed, False, 0,
                                  reduced=size == "reduced")
                if result is None:
                    sys.exit(f"perfbench: {workload} seed {seed} failed")
                bad = [r for r in result["records"] if r[3]]
                if bad:
                    sys.exit(f"perfbench: {workload} seed {seed}: {bad[0]}")
                entry = {"digest": pass_digest(result["records"])}
                if seed == DEFAULT_SEED:
                    entry["records"] = {k: d for k, d, _, _ in
                                        result["records"]}
                table[size].setdefault(workload, {})[str(seed)] = entry
                log(f"recorded {size} {workload} seed {seed}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload; print a table")
    parser.add_argument("--reduced", action="store_true",
                        help="shrink every grid axis (tests)")
    parser.add_argument("--corrupt-record", type=int,
                        help="flip one bit of this output record")
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="recorded digests to check against")
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="rewrite digests.json for SEEDS (e.g. 0-32)")
    args = parser.parse_args()
    if not (args.workload or args.all or args.record_digests):
        parser.error("give --workload, --all or --record-digests")

    check_layout()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        sys.exit(3)

    if args.record_digests:
        record_digests(seed_list(args.record_digests), [DEFAULT_SEED])
        return

    units = dict(END_TO_END)
    units.update(layer_units())
    workloads = WORKLOADS if args.all else [args.workload]
    summaries = []
    for workload in workloads:
        summary, passes = run_workload(
            workload, args.seed, args.seconds, args.trace, args.reduced,
            args.corrupt_record, args.digests)
        summaries.append(summary)
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{workload}-seed{args.seed}-trace{args.trace}.json") \
            .write_text(json.dumps({"summary": summary, "passes": passes},
                                   indent=1))
        prov = summary["provenance"]
        print(f"# {workload}: provenance " + json.dumps(prov))
        if not prov["comparable"]:
            print(f"# {workload}: WARNING non-Release or assert-enabled "
                  "build; never compare with Release numbers")
        for why, key in summary["failures"].items():
            print(f"# {workload}: FAILED {why} (first: {key})")
        for name, (lo, hi) in summary["unsteady_counts"].items():
            print(f"# {workload}: NOTE {name} differs across traced "
                  f"passes: {lo:.17g} .. {hi:.17g}")

    if args.all:
        print(f"{'workload':<10} " + " ".join(
            f"{name + ' [' + unit + ']':>22}"
            for name, unit in END_TO_END + [("error_rate", "frac")]))
        for s in summaries:
            values = [s["metrics"].get(name, float("nan"))
                      for name, _ in END_TO_END]
            values.append(s["failed"] / s["attempted"])
            print(f"{s['workload']:<10} " +
                  " ".join(f"{v:>22.6g}" for v in values))
        metrics = {f"{x['workload']}.{name}": {"value": v,
                                               "unit": units[name]}
                   for x in summaries for name, v in x["metrics"].items()}
    else:
        s = summaries[0]
        chosen = s["layers"] if args.trace else s["metrics"]
        for name, value in chosen.items():
            print(f"{s['workload']} {name} = {value:.6g} {units[name]}")
        print(f"{s['workload']} error_rate = "
              f"{s['failed'] / s['attempted']:.6g} "
              f"({s['failed']}/{s['attempted']} output records)")
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in chosen.items()}
    failed = sum(x["failed"] for x in summaries)
    attempted = sum(x["attempted"] for x in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
