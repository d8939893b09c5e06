"""Span tracer for the anomtax CLI, applied from outside the package.

``Tracer.install`` replaces every module-level binding of each traced
function across the loaded ``anomtax.*`` modules with a wrapper that
records a span: which function, which span called it, start and end.
Bindings are matched by object identity, so ``ga.train_scg`` and
``mlp.train_scg`` (one function object) share one wrapper.  A traced name
the package no longer has is skipped and listed in ``absent``.
``Tracer.uninstall`` puts the original objects back.  Spans stay in memory
and are written once, when the traced invocation ends.

Run as a script, it traces one CLI invocation and writes its spans:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json --seed 0 synth a.csv
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

PACKAGE = "anomtax"

# Every public function a layer metric is taken from, as module.function.
# cli.main is the root span of each invocation.
TRACED = (
    "cli.main",
    "data.generate_synthetic",
    "data.load_csv",
    "data.save_csv",
    "data.stratified_split",
    "labeling.label_dataset",
    "labeling.detect_point_anomalies",
    "labeling.build_radius_table",
    "labeling.kmeans",
    "labeling.cluster_density_stats",
    "_kernels.knn_mean_dists",
    "_kernels.pairwise_distances",
    "_kernels.nearest_centroids",
    "_kernels.mlp_loss_grad",
    "_kernels.mlp_forward",
    "mlp.mse_and_gradient",
    "mlp.forward_batch",
    "mlp.train_scg",
    "ga.evaluate_fitness",
    "ga.run_ga",
    "ga.compare",
    "evaluation.roc_curve",
    "svgchart.unit_line_chart",
)

# Functions whose tracemalloc peak is recorded; numpy reports its array
# allocations to tracemalloc, so the quadratic distance temporaries show.
MEMORY_TRACED = tuple(n for n in TRACED if n.startswith("labeling."))

STOP_REASONS = ("patience", "goal", "scg_converged", "max_epochs")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Counters read from a traced call's arguments and result.
HOOKS = {
    "mlp.train_scg": lambda args, kwargs, model: {
        "epochs": model.epochs, "stop": model.stop_reason},
    "ga.run_ga": lambda args, kwargs, run: {
        "evaluations": run.evaluations,
        "slots": len(run.cycles)
        * _arg(args, kwargs, 0, "cfg").population_size},
    "labeling.kmeans": lambda args, kwargs, model: {
        "iters": len(model.objective_history) - 1},
}


def metric_prefix(qualname: str) -> str:
    """Metric names start with a letter, so ``_kernels`` reads ``kernels``."""
    return qualname.lstrip("_")


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.spans = []    # [name index, parent span id or -1, start, end]
        self.attrs = {}    # span id -> counters of that call
        self.absent = []
        self._stack = [-1]
        self._memory = []  # per open memory span: [current at entry, peak]
        self._restore = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for idx, qualname in enumerate(self.names):
            module_name, func_name = qualname.rsplit(".", 1)
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            func = getattr(module, func_name, None)
            if not callable(func):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(func, idx, qualname)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, func))

    def uninstall(self) -> None:
        for mod, attr, func in reversed(self._restore):
            setattr(mod, attr, func)
        self._restore.clear()

    def _wrap(self, func, idx, qualname):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(qualname)
        memory = qualname in MEMORY_TRACED
        if hook is None and not memory:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                span = [idx, stack[-1], 0.0, 0.0]
                stack.append(len(spans))
                spans.append(span)
                span[2] = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    span[3] = clock()
                    stack.pop()
            return wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [idx, stack[-1], 0.0, 0.0]
            stack.append(sid)
            spans.append(span)
            if memory:
                self._memory_enter()
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if memory:
                    self.attrs.setdefault(sid, {})["peak_alloc"] = (
                        self._memory_exit())
            if hook is not None:
                self.attrs.setdefault(sid, {}).update(
                    hook(args, kwargs, result))
            return result
        return wrapper

    def _memory_enter(self) -> None:
        if self._memory:
            outer = self._memory[-1]
            outer[1] = max(outer[1], tracemalloc.get_traced_memory()[1])
        else:
            tracemalloc.start()
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self._memory.append([current, current])

    def _memory_exit(self) -> int:
        entry, peak = self._memory.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        if self._memory:
            self._memory[-1][1] = max(self._memory[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - entry

    def dump(self) -> dict:
        return {"names": list(self.names), "absent": self.absent,
                "spans": self.spans,
                "attrs": {str(k): v for k, v in self.attrs.items()}}


def summarize(dumps) -> dict:
    """Per-function calls, self time and memory peak, plus the counters,
    summed over the given span dumps (one per traced invocation).

    A span's self time is its duration minus the durations of the spans it
    called directly; one thread runs them one after another, so they do
    not overlap.  ``root_s`` is the total duration of the root spans, which
    the self times must add up to.
    """
    calls, self_s, peak = {}, {}, {}
    counts = {"epochs": 0, "evaluations": 0, "slots": 0, "kmeans_iters": 0}
    stops = {}
    absent = set()
    root_s = 0.0
    for dump in dumps:
        names = dump["names"]
        absent.update(dump["absent"])
        spans = dump["spans"]
        child_s = [0.0] * len(spans)
        for idx, parent, start, end in spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                root_s += end - start
        for sid, (idx, parent, start, end) in enumerate(spans):
            name = names[idx]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[sid]
        for sid, attrs in dump["attrs"].items():
            name = names[spans[int(sid)][0]]
            if "peak_alloc" in attrs:
                peak[name] = max(peak.get(name, 0), attrs["peak_alloc"])
            if "stop" in attrs:
                counts["epochs"] += attrs["epochs"]
                stops[attrs["stop"]] = stops.get(attrs["stop"], 0) + 1
            if "evaluations" in attrs:
                counts["evaluations"] += attrs["evaluations"]
                counts["slots"] += attrs["slots"]
            if "iters" in attrs:
                counts["kmeans_iters"] += attrs["iters"]
    return {"calls": calls, "self_s": self_s, "peak_alloc": peak,
            "counts": counts, "stops": stops, "absent": sorted(absent),
            "root_s": root_s}


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import anomtax.cli  # noqa: F401  (loads every anomtax module)

    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules[f"{PACKAGE}.cli"].main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
