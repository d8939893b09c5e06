"""Self-tests of the benchmark itself (not of anomtax):

    python3 perfbench/selftest.py

Runs every workload shrunken, traced and untraced, and checks the tracer's
bookkeeping and the point-anomaly oracle.  Takes about a minute.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from unittest import mock
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
WORK = ROOT / ".bench_work"

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _scratch_dir(test: unittest.TestCase) -> Path:
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    test.addCleanup(shutil.rmtree, path)
    return path


def _anomtax_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "anomtax" or name.startswith("anomtax.")
            for attr, value in vars(module).items()}


class ShrunkWorkloads(unittest.TestCase):
    def test_every_workload_runs_clean_and_reports_every_metric(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = run.run(name, seed=0, seconds=0.1, trace=trace,
                                     root=ROOT, shrink=True)
                    self.assertEqual(result["errors"], [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        {m: v["unit"] for m, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec[listed]})


class Calibration(unittest.TestCase):
    def test_times_are_scaled_by_the_calibration(self):
        slow = mock.patch.object(calibrate, "calibration_s",
                                 return_value=2 * calibrate.NOMINAL_S)
        slow_start = mock.patch.object(
            run.Bench, "setup_sample",
            return_value=(0.4, 2 * calibrate.STARTUP_NOMINAL_S))
        with slow, slow_start:
            result = run.run("ref_compare", seed=0, seconds=0.1, trace=False,
                             root=ROOT, shrink=True)
        self.assertTrue(result["correct"])
        for name in ("setup_s", "wall_s", "cpu_s"):
            self.assertAlmostEqual(result["metrics"][name]["value"],
                                   result["info"][f"{name} (unscaled)"] / 2)
        self.assertEqual(result["info"]["setup_s (unscaled)"], 0.4)

    def test_calibration_takes_measurable_time(self):
        self.assertGreater(calibrate.calibration_s(), 0.01)


class Tracing(unittest.TestCase):
    def setUp(self):
        import anomtax.cli  # noqa: F401
        self.tmp = _scratch_dir(self)
        ini = self.tmp / "w.ini"
        ini.write_text(workloads.make_ini(150, shrink=True), encoding="utf-8")
        self.argvs = [workloads.step_args(step, str(ini), 0, str(self.tmp))
                      for step in ("synth", "label", "compare")]

    def test_self_times_add_up_to_traced_wall_time(self):
        cli = sys.modules["anomtax.cli"]
        t = tracer.Tracer()
        t.install()
        try:
            start = time.perf_counter()
            for argv in self.argvs:
                self.assertEqual(cli.main(argv), 0)
            wall = time.perf_counter() - start
        finally:
            t.uninstall()
        summary = tracer.summarize([t.dump()])
        self.assertEqual(summary["calls"]["cli.main"], 3)
        self.assertAlmostEqual(sum(summary["self_s"].values()),
                               summary["root_s"], delta=1e-6)
        self.assertLessEqual(summary["root_s"], wall)
        self.assertGreater(summary["root_s"], 0.95 * wall - 1e-3)
        self.assertGreater(summary["counts"]["epochs"], 0)
        self.assertEqual(summary["absent"], [])

    def test_shared_binding_wrapped_once_and_all_restored(self):
        from anomtax import ga, mlp
        before = _anomtax_bindings()
        original = mlp.train_scg
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(mlp.train_scg, original)
            self.assertIs(ga.train_scg, mlp.train_scg)
        finally:
            t.uninstall()
        after = _anomtax_bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_absent_names_are_skipped_and_reported(self):
        t = tracer.Tracer(tracer.TRACED + ("_kernels.no_such_kernel",
                                           "no_such_module.f"))
        t.install()
        t.uninstall()
        self.assertEqual(t.absent, ["_kernels.no_such_kernel",
                                    "no_such_module.f"])


class Oracle(unittest.TestCase):
    def test_catches_a_corrupted_label(self):
        tmp = _scratch_dir(self)
        ini = tmp / "w.ini"
        ini.write_text(workloads.make_ini(300), encoding="utf-8")
        cli = [sys.executable, "-c", run.CLI_CODE]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for step in ("synth", "label"):
            subprocess.run(cli + workloads.step_args(step, str(ini), 0,
                                                     str(tmp)),
                           env=env, check=True)
        with open(tmp / "label" / "labeled.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        points = [[float(r[0]), float(r[1])] for r in rows]
        labels = [r[2] for r in rows]
        k, c = workloads.KNN_K, workloads.SCORE_MULTIPLIER
        points = np.array(points)
        self.assertEqual(
            checks.point_anomaly_errors(points, np.array(labels), k, c), [])
        anomaly = next(i for i, t in enumerate(labels) if t in ("PA", "CPA"))
        for victim, token in ((labels.index("ND"), "PA"), (anomaly, "CNA")):
            corrupted = np.array(labels)
            corrupted[victim] = token
            self.assertEqual(
                len(checks.point_anomaly_errors(points, corrupted, k, c)), 1)


class Contract(unittest.TestCase):
    def test_fails_without_source_tree(self):
        tmp = _scratch_dir(self)
        shutil.copytree(HERE, tmp / "perfbench")
        proc = subprocess.run(
            [sys.executable, str(tmp / "perfbench" / "run.py"), "--workload",
             "ref_compare", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
