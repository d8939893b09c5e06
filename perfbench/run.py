"""Benchmark of the anomtax command line, end to end and per layer.

    python3 perfbench/run.py --workload ref_compare --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout with the package under ``src/``; the
benchmark runs the CLI from that source tree, one child process at a time,
closed loop.  It prints every metric as ``name value unit`` and, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` gives the end-to-end metrics.  Each timed pass runs the
workload's steps (synth, label, compare) on the next dataset of the seed's
pool.  Datasets differ in how much work they make (SCG stops early on
validation patience), so the pass times are not repeated samples of one
quantity: the run reports their mean, the expected cost of one dataset,
over as many datasets as fit in ``--seconds``.  A warm-up pass on dataset
0 comes first; the first timed pass repeats it, so the out-tree digests of
the two must agree.  Before every timed pass one fresh interpreter imports
the CLI, for ``setup_s``.

``--trace 1`` gives the per-layer metrics.  It alternates an untraced and
a traced pass on dataset 0 of the seed.  A traced pass runs each step
under ``tracer.py``, which wraps the package's public functions from
outside; every exact count must repeat in every traced pass, and the
outputs must be byte-identical to the untraced ones.

Every invocation is checked (see ``checks.py``); a failed check counts the
invocation as failed and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    KNN_K,
    SCORE_MULTIPLIER,
    SHRUNK_N,
    WORKLOADS,
    cli_seed,
    dataset_size,
    make_ini,
    step_args,
    step_output,
)

CHILD_TIMEOUT_S = 30
SETUP_CODE = ("from anomtax import cli; "
              "from anomtax.config import load_config; load_config(None, 0)")
CLI_CODE = "import sys; from anomtax.cli import main; sys.exit(main())"
SELF_TIME_REL_TOL = 1e-6
MAX_ERRORS_SHOWN = 20


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


@dataclass
class Pass:
    ok: bool = True
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    dumps: list = field(default_factory=list)


class Bench:
    """One benchmark run: spawns the children and keeps the tallies."""

    def __init__(self, root: Path, workdir: Path, workload, seed: int,
                 shrink: bool = False):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.workload = workload
        size = min(workload.n, SHRUNK_N) if shrink else workload.n
        self.n = dataset_size(size)
        self.ini = str(workdir / "workload.ini")
        Path(self.ini).write_text(make_ini(size, shrink), encoding="utf-8")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        # Children cache bytecode as an installed package would, whatever
        # the caller's environment says; the warm-ups fill the cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["TMPDIR"] = str(workdir)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self.oracle_done = set()
        self.test_errors = {}
        self._spawned = 0

    def spawn(self, argv) -> Child:
        self._spawned += 1
        err_path = self.workdir / f"stderr-{self._spawned}.txt"
        with open(err_path, "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        err_path.unlink()
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, stderr)

    def record(self, what: str, errors) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{what}: {e}" for e in errors]
        return not errors

    def setup_sample(self):
        """Wall times of a fresh interpreter importing the CLI and loading
        the default config, and of one running ``calibrate.STARTUP_CODE``
        just before it; None if either failed."""
        ref = self.spawn([sys.executable, "-c", calibrate.STARTUP_CODE])
        child = self.spawn([sys.executable, "-c", SETUP_CODE])
        ok = self.record("setup",
                         checks.check_process(ref.code, ref.stderr)
                         + checks.check_process(child.code, child.stderr))
        return (child.wall_s, ref.wall_s) if ok else None

    def run_pass(self, dataset: int, traced: bool) -> Pass:
        seed = cli_seed(self.seed, dataset)
        passdir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.workdir))
        result = Pass()
        try:
            for step in self.workload.steps:
                args = step_args(step, self.ini, seed, str(passdir))
                if traced:
                    spans = passdir / f"spans-{step}.json"
                    argv = [sys.executable, str(HERE / "tracer.py"),
                            str(spans)] + args
                else:
                    argv = [sys.executable, "-c", CLI_CODE] + args
                child = self.spawn(argv)
                result.wall_s += child.wall_s
                result.cpu_s += child.cpu_s
                result.rss_mb = max(result.rss_mb, child.rss_mb)
                errors = checks.check_process(child.code, child.stderr)
                if not errors:
                    errors = self._check_step(step, seed, passdir)
                if not errors and traced:
                    errors = self._check_spans(spans, result)
                what = (f"{self.workload.name} seed {seed} {step}"
                        + (" (traced)" if traced else ""))
                if not self.record(what, errors):
                    result.ok = False
                    break
        finally:
            shutil.rmtree(passdir)
        return result

    def _check_step(self, step: str, seed: int, passdir: Path):
        out = step_output(step, str(passdir))
        if step == "synth":
            errors = checks.check_synth(out, self.n)
        elif step == "label":
            errors = checks.check_label(out, self.n, KNN_K, SCORE_MULTIPLIER,
                                        oracle=seed not in self.oracle_done)
            self.oracle_done.add(seed)
        else:
            errors, rates = checks.check_compare(out)
            if rates is not None:
                self.test_errors.setdefault(seed, rates)
        digest = checks.tree_digest(out)
        if self.digests.setdefault((seed, step), digest) != digest:
            errors.append("out tree differs from an earlier repetition")
        return errors

    def _check_spans(self, path: Path, result: Pass):
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        result.dumps.append(dump)
        summary = tracer.summarize([dump])
        total_self = sum(summary["self_s"].values())
        if abs(total_self - summary["root_s"]) > (
                SELF_TIME_REL_TOL * summary["root_s"]):
            return [f"self times add up to {total_self!r} s, root spans "
                    f"to {summary['root_s']!r} s"]
        return []


def measure(seconds: float, iteration) -> None:
    """Calls iteration(0), iteration(1), ... until the next call would
    likely end past ``seconds``; at least twice."""
    start = time.perf_counter()
    spent = []
    while True:
        t0 = time.perf_counter()
        iteration(len(spent))
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(spent) >= 2 and elapsed + statistics.median(spent) > seconds:
            return


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def end_to_end(bench: Bench, seconds: float):
    """Per iteration one setup sample, one pass and one calibration, so
    the setup samples span the whole run; pass i runs dataset i.  A pass's
    times are scaled by the mean of the calibrations just before and after
    it, a setup sample by the start-up reference spawned with it (see
    ``calibrate.py``)."""
    setups, passes, cals = [], [], []

    def iteration(i):
        setups.append(bench.setup_sample())
        passes.append(bench.run_pass(i, traced=False))
        cals.append(calibrate.calibration_s())

    bench.run_pass(0, traced=False)  # warm-up; its digests are compared
    cals.append(calibrate.calibration_s())
    measure(seconds, iteration)
    scales = [2 * calibrate.NOMINAL_S / (before + after)
              for before, after in zip(cals, cals[1:])]
    ok = [(p, scale) for p, scale in zip(passes, scales) if p.ok]
    setup = [s for s in setups if s is not None]
    return {
        "setup_s": (_median([s * calibrate.STARTUP_NOMINAL_S / ref
                             for s, ref in setup]), "s"),
        "wall_s": (_mean([p.wall_s * scale for p, scale in ok]), "s"),
        "cpu_s": (_mean([p.cpu_s * scale for p, scale in ok]), "s"),
        "peak_rss_mb": (max((p.rss_mb for p in passes), default=0.0), "MB"),
    }, {
        "passes": len(ok),
        "calibration_s (median)": _median(cals),
        "startup reference s (median)": _median([ref for _, ref in setup]),
        "setup_s (unscaled)": _median([s for s, _ in setup]),
        "wall_s (unscaled)": _mean([p.wall_s for p, _ in ok]),
        "cpu_s (unscaled)": _mean([p.cpu_s for p, _ in ok]),
    }


def per_layer(bench: Bench, seconds: float):
    """Pairs of an untraced and a traced pass, all on dataset 0."""
    plain, traced = [], []

    def iteration(i):
        plain.append(bench.run_pass(0, traced=False))
        traced.append(bench.run_pass(0, traced=True))

    bench.run_pass(0, traced=False)  # warm-up
    measure(seconds, iteration)
    pairs = [(p, t) for p, t in zip(plain, traced) if p.ok and t.ok]
    summaries = [tracer.summarize(t.dumps) for _, t in pairs]
    if not summaries:
        return {}, {"passes": 0}
    first = summaries[0]
    exact = ("calls", "counts", "stops", "absent")
    for i, summary in enumerate(summaries[1:], start=2):
        bench.record(f"traced pass {i} exact counts",
                     [f"{key} differ from traced pass 1" for key in exact
                      if summary[key] != first[key]])

    metrics = {}
    for qualname in tracer.TRACED:
        prefix = tracer.metric_prefix(qualname)
        metrics[f"{prefix}.calls"] = (first["calls"].get(qualname, 0),
                                      "count")
        metrics[f"{prefix}.self_s"] = (
            _median([s["self_s"].get(qualname, 0.0) for s in summaries]),
            "s")
    for qualname in tracer.MEMORY_TRACED:
        metrics[f"{tracer.metric_prefix(qualname)}.peak_alloc_mb"] = (
            _median([s["peak_alloc"].get(qualname, 0) / 2**20
                     for s in summaries]), "MB")
    counts = first["counts"]
    epochs = counts["epochs"]
    metrics["mlp.train_scg.epochs"] = (epochs, "count")
    for reason in tracer.STOP_REASONS:
        metrics[f"mlp.train_scg.stop.{reason}"] = (
            first["stops"].get(reason, 0), "count")
    grads = first["calls"].get("mlp.mse_and_gradient", 0)
    metrics["mlp.mse_and_gradient.per_epoch"] = (
        grads / epochs if epochs else 0.0, "calls/epoch")
    metrics["ga.run_ga.evaluations"] = (counts["evaluations"], "count")
    metrics["ga.run_ga.eval_ratio"] = (
        counts["evaluations"] / counts["slots"] if counts["slots"] else 0.0,
        "ratio")
    metrics["labeling.kmeans.iters"] = (counts["kmeans_iters"], "count")
    metrics["trace.overhead_frac"] = (
        _median([t.wall_s for _, t in pairs])
        / _median([p.wall_s for p, _ in pairs]) - 1.0, "ratio")
    metrics["trace.absent_functions"] = (len(first["absent"]), "count")
    info = {"passes": len(summaries)}
    info.update({f"absent {name}": "" for name in first["absent"]})
    info.update({f"mlp.train_scg.stop.{reason} (unlisted)": n
                 for reason, n in first["stops"].items()
                 if reason not in tracer.STOP_REASONS})
    return metrics, info


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path = HERE.parent, shrink: bool = False) -> dict:
    """One benchmark run; returns the result object that is printed."""
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=work) as tmp:
        bench = Bench(root, Path(tmp), WORKLOADS[workload_name], seed,
                      shrink)
        if trace:
            metrics, info = per_layer(bench, seconds)
        else:
            metrics, info = end_to_end(bench, seconds)
    if cli_seed(seed, 0) in bench.test_errors:
        nn, ga = bench.test_errors[cli_seed(seed, 0)]
        info["nn_test_error (dataset 0)"] = nn
        info["ga_test_error (dataset 0)"] = ga
    info["fail_frac"] = bench.failed / max(1, bench.attempted)
    return {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "info": info,
        "errors": bench.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "anomtax" / "cli.py").is_file():
        print(f"perfbench: no anomtax source at {root / 'src'}",
              file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 root)
    for error in result.pop("errors")[:MAX_ERRORS_SHOWN]:
        print(f"FAILED {error}", file=sys.stderr)
    for name, value in result.pop("info").items():
        print(f"{name} {value}".rstrip())
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
