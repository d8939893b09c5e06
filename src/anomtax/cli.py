"""Command-line front end.

Subcommands: synth, label, compare, eval.  Every command is
deterministic for a fixed config and seed, and every failure names the
stage it happened in and exits nonzero.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import evaluation, ga, labeling, mlp
from .config import STREAM_SPLIT, STREAM_SYNTH, RunConfig, load_config
from .data import (
    LABEL_TOKENS,
    Dataset,
    derive_seed,
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
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _say(cfg: RunConfig, message: str) -> None:
    if not cfg.quiet:
        print(message)


def _outdir(cfg: RunConfig) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out


def _load_input(cfg: RunConfig, arg_path) -> Dataset:
    path = arg_path or cfg.input
    if not path:
        raise StageError("load", "no input CSV: pass a path or set "
                                 "[data] input in the config")
    with _stage("load"):
        return load_csv(path)


def _require_labels(ds: Dataset) -> None:
    if ds.labels is None:
        raise StageError("load", "dataset has no label column; run "
                                 "'anomtax label' first")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig, out_csv) -> int:
    with _stage("synth"):
        ds = generate_synthetic(cfg.synthetic, derive_seed(cfg.seed,
                                                           STREAM_SYNTH))
    with _stage("write"):
        Path(out_csv).parent.mkdir(parents=True, exist_ok=True)
        save_csv(ds, out_csv)
    _say(cfg, f"wrote {out_csv}: n={ds.n} d={ds.dim}")
    return 0


def _write_reports(reports, out: Path, cfg: RunConfig):
    """Write the ``(class id, report)`` pairs as CSV and text; the class id
    of a dataset without classes is ""."""
    header = ["#Point", "#Cluster", "#ND", "#CNA", "#CPA", "#PA"]
    rows = ["class," + ",".join(header)]
    lines = []
    for class_id, r in reports:
        values = [r.points, r.clusters, r.nd, r.cna, r.cpa, r.pa]
        rows.append(f"{class_id}," + ",".join(map(str, values)))
        lines.append(f"sub-dataset (class {class_id})" if class_id != ""
                     else "dataset")
        lines += [f"  {name:<9} {value}"
                  for name, value in zip(header, values)]
    (out / "labeling_report.csv").write_text("\n".join(rows) + "\n",
                                             encoding="utf-8")
    text = "\n".join(lines) + "\n"
    (out / "labeling_report.txt").write_text(text, encoding="utf-8")
    _say(cfg, text.rstrip())


def cmd_label(cfg: RunConfig, input_path, relabel: bool) -> int:
    ds = _load_input(cfg, input_path)
    if ds.labels is not None and not relabel:
        raise StageError("label", "input is already labeled; pass --relabel "
                                  "to overwrite its labels")
    if ds.class_ids is None and (cfg.retained or cfg.discarded):
        raise StageError("label", "[data] retained and discarded apply only "
                                  "to a CSV with a 'class' column, and this "
                                  "input has none")
    params = None
    if ds.class_ids is not None:
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
        out = _outdir(cfg)
        if params is not None:
            with open(out / "norm_params.txt", "w", encoding="utf-8") as fh:
                for name, lo, hi in zip(ds.feature_names, *params):
                    fh.write(f"{name} = {float(lo)!r},{float(hi)!r}\n")
        save_csv(labeled, out / "labeled.csv")
        _write_reports(reports, out, cfg)
    _say(cfg, f"wrote {out / 'labeled.csv'}")
    return 0


def _split_and_prepare(cfg: RunConfig, ds: Dataset) -> ga.PreparedSplits:
    with _stage("split"):
        train, val, test = stratified_split(
            ds, cfg.ratios, derive_seed(cfg.seed, STREAM_SPLIT))
        if test.n == 0:
            raise ValueError("empty test split")
        if train.n == 0:
            raise ValueError("empty training split")
        return ga.prepare_splits(train, val, test, LABEL_TOKENS)


def _write_model_eval(tag: str, scores, matrix, y, out: Path) -> None:
    """Write a model's confusion matrix (text and CSV), its metrics and
    its ROC set, all named by ``tag``."""
    (out / f"{tag}_confusion.txt").write_text(
        evaluation.format_confusion(matrix), encoding="utf-8")
    evaluation.write_confusion_csv(matrix, out / f"{tag}_confusion.csv")
    evaluation.write_metrics_csv(matrix, out / f"{tag}_metrics.csv")
    for c, name in enumerate(LABEL_TOKENS):
        positives = np.asarray(y) == c
        if positives.all() or not positives.any():
            continue  # ROC undefined with one class absent
        curve = evaluation.roc_curve(scores[:, c], positives)
        evaluation.write_roc_csv(curve, out / f"roc_{tag}_{name}.csv")
        svg = unit_line_chart(
            (f"{tag} {name} (AUC {curve.auc:.3f})",
             [(p[0], p[1]) for p in curve.points]),
            f"ROC {tag} class {name}", "False positive rate",
            "True positive rate")
        (out / f"roc_{tag}_{name}.svg").write_text(svg, encoding="utf-8")


def cmd_compare(cfg: RunConfig, input_path) -> int:
    ds = _load_input(cfg, input_path)
    _require_labels(ds)
    prepared = _split_and_prepare(cfg, ds)
    topology = mlp.Topology(ds.dim, cfg.hidden, len(LABEL_TOKENS))
    with _stage("compare"):
        nn = ga.conventional(prepared, topology, cfg.training, cfg.ga)
        ga_run = ga.run_ga(cfg.ga, topology, prepared, cfg.training)
    with _stage("write"):
        out = _outdir(cfg)
        mlp.save_model(nn.model, out / "nn_model.txt")
        mlp.save_model(ga_run.best.model, out / "ga_best_model.txt")
        for tag, ind in (("nn", nn), ("ga", ga_run.best)):
            _write_model_eval(tag, ind.scores, ind.matrix, prepared.y_test,
                              out)
        with open(out / "ga_cycles.csv", "w", encoding="utf-8") as fh:
            fh.write("cycle,best_fitness,mean_fitness\n")
            for st in ga_run.cycles:
                fh.write(f"{st.cycle},{st.best_fitness!r},"
                         f"{st.mean_fitness!r}\n")
        summary = (f"NN test error {evaluation.fmt_pct(nn.fitness)}, "
                   f"GA test error {evaluation.fmt_pct(ga_run.best.fitness)}")
        (out / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    _say(cfg, summary)
    return 0


def cmd_eval(cfg: RunConfig, model_path, input_path) -> int:
    ds = _load_input(cfg, input_path)
    _require_labels(ds)
    with _stage("load"):
        model = mlp.load_model(model_path)
    topo = model.topology
    if (topo.input_size, topo.output_size) != (ds.dim, len(LABEL_TOKENS)):
        raise StageError(
            "load",
            f"model is {topo.input_size}-{topo.hidden_size}-"
            f"{topo.output_size}, but the dataset needs {ds.dim} inputs and "
            f"one output per taxonomy label ({', '.join(LABEL_TOKENS)})",
        )
    with _stage("eval"):
        scores, matrix = ga.score(model, ds.features, ds.labels,
                                  LABEL_TOKENS)
        error = evaluation.test_error(matrix)
    with _stage("write"):
        _write_model_eval("eval", scores, matrix, ds.labels, _outdir(cfg))
    _say(cfg, f"test error {evaluation.fmt_pct(error)}")
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
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic 2-D dataset")
    p.add_argument("out_csv", help="CSV file to write")

    p = sub.add_parser("label", help="label a dataset with the taxonomy")
    p.add_argument("input", nargs="?", help="input CSV (default from config)")
    p.add_argument("--relabel", action="store_true",
                   help="overwrite existing labels")

    p = sub.add_parser("compare",
                       help="conventional vs GA-enhanced MLP comparison")
    p.add_argument("input", nargs="?")

    p = sub.add_parser("eval", help="evaluate a saved model on a labeled CSV")
    p.add_argument("model")
    p.add_argument("input")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        with _stage("config"):
            cfg = load_config(args.config, args.seed, args.out, args.quiet)
        if args.command == "synth":
            return cmd_synth(cfg, args.out_csv)
        if args.command == "label":
            return cmd_label(cfg, args.input, args.relabel)
        if args.command == "compare":
            return cmd_compare(cfg, args.input)
        return cmd_eval(cfg, args.model, args.input)
    except StageError as exc:
        print(f"error in stage '{exc.stage_name}': {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
