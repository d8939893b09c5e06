"""Confusion matrices, per-class precision/recall, test error, one-vs-rest
TPR/FPR, and ROC curves with trapezoidal AUC.

Matrix orientation: rows are the predicted (output) class, columns the
target class, so printed matrices read like familiar test-confusion
printouts.  Metrics with a 0/0 denominator carry NaN as an explicit
"undefined" marker and print as ``NaN%`` - never silently 0.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "RocCurve",
    "confusion",
    "precision_recall",
    "test_error",
    "tpr_fpr",
    "roc_curve",
    "fmt_pct",
    "format_confusion",
    "write_confusion_csv",
    "write_metrics_csv",
    "write_roc_csv",
]


class ConfusionMatrix:
    """counts[p][t] = number of samples of target class t predicted as p."""

    __slots__ = ("counts", "class_names")

    def __init__(self, counts: np.ndarray, class_names: tuple):
        if (counts.ndim != 2 or counts.shape[0] != counts.shape[1]
                or counts.shape[0] < 1):
            raise ValueError(f"confusion matrix must be square, "
                             f"got {counts.shape}")
        if counts.min(initial=0) < 0:
            raise ValueError("confusion counts must be nonnegative")
        if len(class_names) != counts.shape[0]:
            raise ValueError("one class name per row required")
        self.counts = counts
        self.class_names = class_names

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(targets, predictions, num_classes: int,
              class_names=None) -> ConfusionMatrix:
    """Count (target, predicted) pairs into a matrix."""
    t = np.asarray(targets, dtype=np.int64)
    p = np.asarray(predictions, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(
            f"targets and predictions must be equal-length vectors, "
            f"got {t.shape} and {p.shape}"
        )
    if t.size and not (min(t.min(), p.min()) >= 0
                       and max(t.max(), p.max()) < num_classes):
        raise ValueError(f"class values outside [0, {num_classes})")
    counts = np.bincount(p * num_classes + t,
                         minlength=num_classes * num_classes)
    counts = counts.reshape(num_classes, num_classes)
    if class_names is None:
        class_names = tuple(str(i + 1) for i in range(num_classes))
    return ConfusionMatrix(counts, tuple(class_names))


def precision_recall(matrix: ConfusionMatrix):
    """Per-class (precision, recall); 0/0 yields NaN."""
    counts = matrix.counts.astype(np.float64)
    diag = np.diag(counts)
    row = counts.sum(axis=1)   # everything predicted as c
    col = counts.sum(axis=0)   # everything actually c
    with np.errstate(invalid="ignore"):
        precision = np.where(row > 0, diag / np.where(row > 0, row, 1), np.nan)
        recall = np.where(col > 0, diag / np.where(col > 0, col, 1), np.nan)
    return precision, recall


def test_error(matrix: ConfusionMatrix) -> float:
    """Fraction misclassified: 1 - trace/total."""
    total = matrix.total
    if total == 0:
        raise ValueError("empty confusion matrix")
    trace = int(np.trace(matrix.counts))
    return (total - trace) / total


def tpr_fpr(matrix: ConfusionMatrix, c: int):
    """One-vs-rest (TPR, FPR) for class c.

    TP is the diagonal cell, FN the rest of target-column c, FP the rest of
    predicted-row c, TN everything else; FPR = 1 - TN/(TN+FP).  Undefined
    ratios (no positives, or no negatives) come back as NaN.
    """
    counts = matrix.counts
    tp = int(counts[c, c])
    fn = int(counts[:, c].sum()) - tp
    fp = int(counts[c, :].sum()) - tp
    tn = matrix.total - tp - fn - fp
    tpr = tp / (tp + fn) if tp + fn > 0 else math.nan
    fpr = 1.0 - tn / (tn + fp) if tn + fp > 0 else math.nan
    return tpr, fpr


class RocCurve(NamedTuple):
    """Threshold sweep over one class's scores, plus trapezoidal AUC.

    ``points`` is an (m, 2) array of (FPR, TPR) running from (0, 0) to
    (1, 1); ``thresholds[i]`` is the smallest score still predicted
    positive at point i (+inf for the empty prediction set).
    """

    points: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_curve(scores, positives) -> RocCurve:
    """One-vs-rest ROC by sweeping a threshold over every distinct score.

    ``positives`` flags class membership.  Tied scores collapse into a
    single point.  Needs at least one positive and one negative sample.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise ValueError("scores and membership flags must match")
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"ROC needs both classes present, got {n_pos} positives and "
            f"{n_neg} negatives"
        )
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # one point per run of equal scores, taken after the run's last sample
    new_run = sorted_scores[1:] != sorted_scores[:-1]
    first = np.flatnonzero(np.concatenate(([True], new_run)))
    last = np.flatnonzero(np.concatenate((new_run, [True])))
    tp = np.cumsum(positives[order])[last]
    fprs = np.concatenate(([0.0], (last + 1 - tp) / n_neg))
    tprs = np.concatenate(([0.0], tp / n_pos))
    thresholds = np.concatenate(([math.inf], sorted_scores[first]))

    points = np.column_stack([fprs, tprs])
    auc = float(np.trapezoid(points[:, 1], points[:, 0]))
    return RocCurve(points, thresholds, auc)


# ---------------------------------------------------------------------------
# formatting and export
# ---------------------------------------------------------------------------

def fmt_pct(value: float, decimals: int = 1) -> str:
    if math.isnan(value):
        return "NaN%"
    return f"{100.0 * value:.{decimals}f}%"


def format_confusion(matrix: ConfusionMatrix) -> str:
    """Plain-text layout: count and percent-of-total per cell, a precision
    column, a recall row, and the test error in the corner."""
    counts = matrix.counts
    total = matrix.total
    precision, recall = precision_recall(matrix)
    err = test_error(matrix) if total else math.nan

    def cell(p, t):
        frac = counts[p, t] / total if total else math.nan
        return f"{counts[p, t]} ({fmt_pct(frac)})"

    names = matrix.class_names
    header = ["predicted \\ target"] + list(names) + ["precision"]
    rows = [header]
    for p in range(matrix.num_classes):
        rows.append([names[p]]
                    + [cell(p, t) for t in range(matrix.num_classes)]
                    + [fmt_pct(precision[p])])
    rows.append(["recall"] + [fmt_pct(r) for r in recall]
                + [f"test error {fmt_pct(err)}"])

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cellv.ljust(widths[i])
                       for i, cellv in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def write_confusion_csv(matrix: ConfusionMatrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["predicted\\target"] + list(matrix.class_names))
        for p in range(matrix.num_classes):
            writer.writerow([matrix.class_names[p]]
                            + [int(v) for v in matrix.counts[p]])


def write_metrics_csv(matrix: ConfusionMatrix, path) -> None:
    precision, recall = precision_recall(matrix)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "precision", "recall", "fpr"])
        for c in range(matrix.num_classes):
            _, fpr = tpr_fpr(matrix, c)
            writer.writerow([matrix.class_names[c], repr(float(precision[c])),
                             repr(float(recall[c])), repr(fpr)])


def write_roc_csv(curve: RocCurve, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for th, (fpr, tpr) in zip(curve.thresholds, curve.points):
            writer.writerow([repr(float(th)), repr(float(fpr)),
                             repr(float(tpr))])
