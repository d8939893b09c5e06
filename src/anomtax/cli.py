"""Command-line front end.

Subcommands: synth, label, compare, eval.  Every command is
deterministic for a fixed config and seed, and every failure names the
stage it happened in and exits nonzero.
"""

from __future__ import annotations

import argparse
import csv
import gc
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

# Every matrix product here is far below OpenBLAS's threading threshold,
# so its helper threads never run; starting them cost each process
# up to ~65 ms of numpy import on a 2-vCPU VM.  Set before numpy is first
# imported; a caller's own OPENBLAS_NUM_THREADS wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import evaluation, ga, labeling, mlp
from .config import RunConfig, load_config
from .data import (
    LABEL_TOKENS,
    Dataset,
    generate_synthetic,
    load_csv,
    minmax_normalize,
    save_csv,
    stratified_split,
)
from .svgchart import unit_line_chart

__all__ = ["main", "StageError"]


class StageError(Exception):
    """Command failure carrying the name of the pipeline stage."""

    def __init__(self, stage_name: str, message: str):
        super().__init__(message)
        self.stage_name = stage_name


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message)


def _outdir(args: argparse.Namespace) -> Path:
    out = Path("out" if args.out is None else args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_input(path) -> Dataset:
    with _stage("load"):
        return load_csv(path)


def _labeled_input(path) -> Dataset:
    """The labeled CSV that compare and eval read.  Its features must lie
    in [0, 1], the range label writes; the first that does not is named
    by row (the header is row 1) and column."""
    ds = _load_input(path)
    if ds.labels is None:
        raise StageError("load", "dataset has no label column; run "
                                 "'anomtax label' first")
    outside = np.flatnonzero((ds.features < 0.0) | (ds.features > 1.0))
    if outside.size:
        row, col = divmod(int(outside[0]), ds.dim)
        raise StageError(
            "load",
            f"{path}: row {row + 2}, column {ds.feature_names[col]!r}: "
            f"{float(ds.features[row, col])!r} is outside [0, 1], the "
            f"feature range 'anomtax label' writes")
    return ds


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    with _stage("synth"):
        ds = generate_synthetic(cfg.synthetic, cfg.synth_seed)
    with _stage("write"):
        Path(args.out_csv).parent.mkdir(parents=True, exist_ok=True)
        save_csv(ds, args.out_csv)
    _say(args, f"wrote {args.out_csv}: n={ds.n} d={ds.dim}")
    return 0


def _write_csv(path: Path, header, rows) -> None:
    """Write a run file: ``header``, then ``rows`` of Python values (csv
    writes a float as its repr, so it reads back bit for bit)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_reports(reports, out: Path, args: argparse.Namespace):
    """Write the ``(class id, report)`` pairs as CSV and text; the class id
    of a dataset without classes is ""."""
    header = ["#Point", "#Cluster", "#ND", "#CNA", "#CPA", "#PA"]
    _write_csv(out / "labeling_report.csv", ["class", *header],
               [[class_id, *report] for class_id, report in reports])
    lines = []
    for class_id, report in reports:
        lines.append(f"sub-dataset (class {class_id})" if class_id != ""
                     else "dataset")
        lines += [f"  {name:<9} {value}"
                  for name, value in zip(header, report)]
    text = "\n".join(lines) + "\n"
    (out / "labeling_report.txt").write_text(text, encoding="utf-8")
    _say(args, text.rstrip())


def cmd_label(cfg: RunConfig, args: argparse.Namespace) -> int:
    ds = _load_input(args.input)
    if ds.labels is not None and not args.relabel:
        raise StageError("label", "input is already labeled; pass --relabel "
                                  "to overwrite its labels")
    # load_config checked the [data] lists; these rules need the header
    if ds.class_ids is None and cfg.retained:
        raise StageError("label", "[data] retained and discarded apply only "
                                  "to a CSV with a 'class' column, and this "
                                  "input has none")
    params = None
    if ds.class_ids is not None:
        if not cfg.retained:
            raise StageError("label", "a CSV with a 'class' column needs "
                                      "[data] retained and discarded")
        unknown = [n for n in cfg.retained + cfg.discarded
                   if n not in ds.feature_names]
        if unknown:
            raise StageError("label", "[data] names not in the CSV header: "
                                      f"{', '.join(unknown)}")
        with _stage("label"):
            labeled, reports = labeling.label_supervised(
                ds, cfg.labeling, cfg.retained, cfg.discarded)
    else:
        with _stage("normalize"):
            normalized, params = minmax_normalize(ds)
        with _stage("label"):
            labeled, report = labeling.label_dataset(normalized, cfg.labeling)
        reports = [("", report)]
    with _stage("write"):
        out = _outdir(args)
        if params is not None:
            _write_csv(out / "norm_params.csv", ["feature", "min", "max"],
                       zip(ds.feature_names, *(p.tolist() for p in params)))
        save_csv(labeled, out / "labeled.csv")
        _write_reports(reports, out, args)
    _say(args, f"wrote {out / 'labeled.csv'}")
    return 0


def _split_and_prepare(cfg: RunConfig, ds: Dataset) -> ga.PreparedSplits:
    with _stage("split"):
        train, val, test = stratified_split(ds, cfg.ratios, cfg.split_seed)
        if test.n == 0:
            raise ValueError("empty test split")
        if train.n == 0:
            raise ValueError("empty training split")
        return ga.prepare_splits(train, val, test, len(LABEL_TOKENS))


def _write_model_eval(tag: str, scores, counts, y, out: Path) -> None:
    """Write a model's confusion counts (text and CSV), its metrics and
    its ROC set, all named by ``tag``."""
    (out / f"{tag}_confusion.txt").write_text(
        evaluation.format_confusion(counts, LABEL_TOKENS), encoding="utf-8")
    _write_csv(out / f"{tag}_confusion.csv",
               ["predicted\\target", *LABEL_TOKENS],
               [[name, *row] for name, row in zip(LABEL_TOKENS,
                                                  counts.tolist())])
    rates = np.column_stack(evaluation.class_rates(counts)).tolist()
    _write_csv(out / f"{tag}_metrics.csv",
               ["class", "precision", "recall", "fpr"],
               [[name, *r] for name, r in zip(LABEL_TOKENS, rates)])
    for c, name in enumerate(LABEL_TOKENS):
        positives = np.asarray(y) == c
        if positives.all() or not positives.any():
            continue  # ROC undefined with one class absent
        curve = evaluation.roc_curve(scores[:, c], positives)
        _write_csv(out / f"roc_{tag}_{name}.csv", ["threshold", "fpr", "tpr"],
                   np.column_stack([curve.thresholds, curve.points]).tolist())
        svg = unit_line_chart(f"{tag} {name} (AUC {curve.auc:.3f})",
                              curve.points, f"ROC {tag} class {name}")
        (out / f"roc_{tag}_{name}.svg").write_text(svg, encoding="utf-8")


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
    ds = _labeled_input(args.input)
    prepared = _split_and_prepare(cfg, ds)
    topology = mlp.Topology(ds.dim, cfg.hidden, len(LABEL_TOKENS))
    with _stage("compare"):
        nn = ga.conventional(prepared, topology, cfg.training, cfg.ga.seed)
        ga_run = ga.run_ga(cfg.ga, topology, prepared, cfg.training)
    with _stage("write"):
        out = _outdir(args)
        mlp.save_model(nn.model, out / "nn_model.txt")
        mlp.save_model(ga_run.best.model, out / "ga_best_model.txt")
        for tag, ind in (("nn", nn), ("ga", ga_run.best)):
            _write_model_eval(tag, ind.scores, ind.matrix, prepared.y_test,
                              out)
        _write_csv(out / "ga_cycles.csv", ga.CycleStats._fields,
                   ga_run.cycles)
        summary = (f"NN test error {evaluation.fmt_pct(nn.fitness)}, "
                   f"GA test error {evaluation.fmt_pct(ga_run.best.fitness)}")
        (out / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    _say(args, summary)
    return 0


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    ds = _labeled_input(args.input)
    with _stage("load"):
        model = mlp.load_model(args.model)
    topo = model.topology
    if (topo.input_size, topo.output_size) != (ds.dim, len(LABEL_TOKENS)):
        raise StageError(
            "load",
            f"model is {topo.input_size}-{topo.hidden_size}-"
            f"{topo.output_size}, but the dataset needs {ds.dim} inputs and "
            f"one output per taxonomy label ({', '.join(LABEL_TOKENS)})",
        )
    with _stage("eval"):
        scores, counts = ga.score(model, ds.features, ds.labels)
        error = evaluation.test_error(counts)
    with _stage("write"):
        _write_model_eval("eval", scores, counts, ds.labels, _outdir(args))
    _say(args, f"test error {evaluation.fmt_pct(error)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomtax",
        description="Label datasets with the four-way anomaly taxonomy "
                    "(ND/CNA/CPA/PA) and train GA-enhanced MLP classifiers.",
    )
    parser.add_argument("--config", help="path to an INI config file")
    parser.add_argument("--seed", type=int, help="run seed (mandatory here "
                                                 "or in the config)")
    parser.add_argument("--out", help="output directory of label, compare "
                                      "and eval (default: out)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic 2-D dataset")
    p.add_argument("out_csv", help="CSV file to write")
    p.set_defaults(run=cmd_synth)

    p = sub.add_parser("label", help="label a dataset with the taxonomy")
    p.add_argument("input", help="input CSV")
    p.add_argument("--relabel", action="store_true",
                   help="overwrite existing labels")
    p.set_defaults(run=cmd_label)

    p = sub.add_parser("compare",
                       help="conventional vs GA-enhanced MLP comparison")
    p.add_argument("input", help="labeled input CSV")
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("eval", help="evaluate a saved model on a labeled CSV")
    p.add_argument("model")
    p.add_argument("input")
    p.set_defaults(run=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        with _stage("config"):
            cfg = load_config(args.config, args.seed)
            if args.out is not None:
                if args.run is cmd_synth:
                    raise ValueError("--out does not apply to synth, "
                                     "which writes the CSV file it is given")
                # Path("") would silently be the working directory
                if not args.out.strip():
                    raise ValueError(f"--out must name a directory, "
                                     f"got {args.out!r}")
        if argv is None:
            # This process runs one command and ends.  Freezing what numpy
            # and anomtax built on import (numpy.random included, which
            # load_config's seed derivation imports) keeps the collector from
            # traversing it again and spares the interpreter's exit from
            # tearing it down object by object: ~15-25 ms per process on
            # a 2-vCPU VM.  A caller that passes argv goes on running, so
            # its objects stay collectable.
            gc.freeze()
        return args.run(cfg, args)
    except StageError as exc:
        print(f"error in stage '{exc.stage_name}': {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
