"""Confusion counts, per-class rates, test error, and ROC curves with
trapezoidal AUC.

A network's test outcome is one ``(k, k)`` int count array,
``counts[p, t]`` = number of samples of target class t predicted as p:
rows are the predicted (output) class, columns the target class, so
printed matrices read like familiar test-confusion printouts.  Rates
with a 0/0 denominator carry NaN as an explicit "undefined" marker and
print as ``NaN%`` - never silently 0.
"""

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "RocCurve",
    "confusion",
    "class_rates",
    "test_error",
    "roc_curve",
    "fmt_pct",
    "format_confusion",
]


def confusion(targets, predictions, num_classes: int) -> np.ndarray:
    """Count (target, predicted) pairs, each a class in
    ``[0, num_classes)``, into ``counts[p, t]``."""
    t = np.asarray(targets, dtype=np.int64)
    p = np.asarray(predictions, dtype=np.int64)
    counts = np.bincount(p * num_classes + t,
                         minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def class_rates(counts):
    """Per-class (precision, recall, fpr) arrays, each class against the
    rest; recall is the class's TPR.

    TP is the diagonal cell, FP the rest of predicted-row c, FN the rest
    of target-column c, TN everything else; FPR = 1 - TN/(TN+FP).  A 0/0
    ratio (class never predicted, never a target, or no negatives) is NaN.
    """
    counts = np.asarray(counts, dtype=np.float64)
    tp = np.diag(counts)
    predicted = counts.sum(axis=1)
    actual = counts.sum(axis=0)
    negatives = counts.sum() - actual      # TN + FP
    tn = negatives - (predicted - tp)
    with np.errstate(invalid="ignore"):
        return tp / predicted, tp / actual, 1.0 - tn / negatives


def test_error(counts) -> float:
    """Fraction misclassified: 1 - trace/total."""
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    trace = int(np.trace(counts))
    return (total - trace) / total


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
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
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
# formatting
# ---------------------------------------------------------------------------

def fmt_pct(value: float) -> str:
    if math.isnan(value):
        return "NaN%"
    return f"{100.0 * value:.1f}%"


def format_confusion(counts, names) -> str:
    """Plain-text layout: count and percent-of-total per cell, a precision
    column, a recall row, and the test error in the corner."""
    total = int(counts.sum())
    precision, recall, _ = class_rates(counts)
    header = ["predicted \\ target"] + list(names) + ["precision"]
    rows = [header]
    for p, name in enumerate(names):
        rows.append([name] + [f"{n} ({fmt_pct(n / total)})" for n in counts[p]]
                    + [fmt_pct(precision[p])])
    rows.append(["recall"] + [fmt_pct(r) for r in recall]
                + [f"test error {fmt_pct(test_error(counts))}"])

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cellv.ljust(widths[i])
                       for i, cellv in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"
