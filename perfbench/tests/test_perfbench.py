"""Tests of the benchmark itself, on reduced-size passes.

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the driver (see perfbench/run.py).
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args):
    """Run perfbench/run.py; returns (exit code, stdout lines)."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def last_json(lines):
    return json.loads(lines[-1])


class BenchmarkFile(unittest.TestCase):
    def test_contract_shape(self):
        self.assertEqual(set(CONTRACT), {"command", "paths", "run_seconds",
                                         "workloads", "end_to_end",
                                         "per_layer"})
        self.assertEqual(CONTRACT["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in CONTRACT["workloads"]],
                         run.WORKLOADS)
        names = [m["name"] for m in CONTRACT["end_to_end"]] + \
            [m["name"] for m in CONTRACT["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in CONTRACT["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in CONTRACT["end_to_end"]))

    def test_layer_map_matches_contract(self):
        layers = json.loads(run.LAYERS.read_text())["layers"]
        self.assertEqual(
            [{k: m[k] for k in ("name", "unit", "better")} for m in layers],
            CONTRACT["per_layer"])
        workloads = set(run.WORKLOADS)
        ends = {m["name"] for m in CONTRACT["end_to_end"]}
        for m in layers:
            self.assertLessEqual(set(m["on"]) | set(m["not_on"]), workloads)
            self.assertFalse(set(m["on"]) & set(m["not_on"]), m["name"])
            self.assertLessEqual(set(m["moves"]), ends)
        self.assertEqual([(m["name"], m["unit"])
                          for m in CONTRACT["end_to_end"]], run.END_TO_END)


class ReducedPasses(unittest.TestCase):
    def test_every_metric_printed_and_no_errors(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench("--workload", workload, "--seed",
                                        "1", "--seconds", "0", "--trace",
                                        str(trace), "--reduced")
                    self.assertEqual(code, 0)
                    result = last_json(lines)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in CONTRACT[key]}
                    got = {name: v["unit"]
                           for name, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in want:
                        self.assertTrue(any(line.startswith(
                            f"{workload} {name} = ") for line in lines))

    def test_two_passes_give_identical_digests_and_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = run.run_pass(workload, 7, True, 0, reduced=True)
                b = run.run_pass(workload, 7, True, 1, reduced=True)
                self.assertEqual(a["records"], b["records"])
                self.assertEqual(run.pass_digest(a["records"]),
                                 run.pass_digest(b["records"]))
                for name in run.EXACT_COUNTS:
                    self.assertEqual(a["layers"][name], b["layers"][name],
                                     name)
                self.assertEqual(a["layers"]["sim.events"], a["dispatches"])

    def test_traced_digest_equals_untraced(self):
        plain = run.run_pass("pause_mmu", 3, False, 0, reduced=True)
        traced = run.run_pass("pause_mmu", 3, True, 1, reduced=True)
        self.assertEqual(run.pass_digest(plain["records"]),
                         run.pass_digest(traced["records"]))

    def test_recorded_digests_match_default_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                expect = run.recorded(run.DIGESTS, workload,
                                      run.DEFAULT_SEED, True)
                self.assertIsNotNone(expect)
                result = run.run_pass(workload, run.DEFAULT_SEED, False, 0,
                                      reduced=True)
                self.assertEqual(run.pass_digest(result["records"]),
                                 expect["digest"])


class ChecksCanFail(unittest.TestCase):
    def test_flipped_output_bit_is_a_failure(self):
        code, lines = bench("--workload", "openloop", "--seconds", "0",
                            "--reduced", "--corrupt-record", "2")
        self.assertEqual(code, 0)
        result = last_json(lines)
        self.assertFalse(result["correct"])
        # One record per pass, every pass.
        self.assertEqual(result["failed"], run.MIN_PASSES)

    def test_flipped_recorded_digest_bit_is_a_failure(self):
        table = json.loads(run.DIGESTS.read_text())
        records = table["reduced"]["lbo_sweep"][str(run.DEFAULT_SEED)][
            "records"]
        key = sorted(records)[0]
        records[key] = f"{int(records[key], 16) ^ 1:016x}"
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         dir=run.BUILD) as f:
            json.dump(table, f)
            f.flush()
            code, lines = bench("--workload", "lbo_sweep", "--seconds", "0",
                                "--reduced", "--digests", f.name)
        self.assertEqual(code, 0)
        result = last_json(lines)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], run.MIN_PASSES)

    def test_refuses_without_sources(self):
        run.BUILD.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "lbo_sweep", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
