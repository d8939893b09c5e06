"""Output checks for one CLI invocation.

Each check returns a list of error strings; an invocation with any error
counts as failed.  The point-anomaly oracle recomputes mean-kNN-distance
scores by row-blocked brute force, independently of the program's code.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re

import numpy as np

ORACLE_BLOCK_ROWS = 256
# Scores this close to the cutoff (relative) may sit on either side of it
# after a different summation order, so the oracle does not judge them.
ORACLE_REL_TOL = 1e-9

LABELS = ("ND", "CNA", "CPA", "PA")
SUMMARY = re.compile(r"NN test error (\S+)%, GA test error (\S+)%")


def tree_digest(path: str) -> str:
    """SHA-256 over the relative names and bytes of every file under path
    (or of the single file at path)."""
    h = hashlib.sha256()
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            h.update(fh.read())
        return h.hexdigest()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def check_process(code: int, stderr: str):
    errors = []
    if code != 0:
        errors.append(f"exit code {code}: {stderr.strip()[-300:]}")
    if "RuntimeWarning" in stderr:
        errors.append("RuntimeWarning on stderr: " + stderr.strip()[-300:])
    return errors


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_synth(csv_path: str, n: int):
    rows = _read_rows(csv_path)
    if len(rows) - 1 != n:
        return [f"synth wrote {len(rows) - 1} rows, expected {n}"]
    return []


def knn_scores(points: np.ndarray, k: int) -> np.ndarray:
    """Mean distance from each point to its k nearest other points."""
    n = points.shape[0]
    scores = np.empty(n)
    for lo in range(0, n, ORACLE_BLOCK_ROWS):
        hi = min(n, lo + ORACLE_BLOCK_ROWS)
        diff = points[lo:hi, None, :] - points[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        dist[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        nearest = np.sort(np.partition(dist, k - 1, axis=1)[:, :k], axis=1)
        scores[lo:hi] = nearest.sum(axis=1) / k
    return scores


def point_anomaly_errors(points, labels, k: int, multiplier: float):
    """Compare the rows labeled PA or CPA with score > mean + c*std."""
    scores = knn_scores(points, k)
    cutoff = scores.mean() + multiplier * scores.std()
    clear = np.abs(scores - cutoff) > ORACLE_REL_TOL * max(1.0, abs(cutoff))
    expected = scores > cutoff
    labeled = np.isin(labels, ("PA", "CPA"))
    wrong = np.flatnonzero(clear & (expected != labeled))
    if wrong.size:
        return [f"{wrong.size} rows disagree with the kNN oracle on PA/CPA "
                f"(first data row {int(wrong[0]) + 2})"]
    return []


def check_label(out_dir: str, n: int, k: int, multiplier: float,
                oracle: bool = True):
    rows = _read_rows(os.path.join(out_dir, "labeled.csv"))
    header, body = rows[0], rows[1:]
    if len(body) != n:
        return [f"labeled.csv has {len(body)} rows, expected {n}"]
    label_col = header.index("label")
    labels = np.array([r[label_col] for r in body])
    errors = []
    report = _read_rows(os.path.join(out_dir, "labeling_report.csv"))
    fields = dict(zip(report[0], report[1]))
    counts = {name: int(fields["#" + name]) for name in LABELS}
    if int(fields["#Point"]) != n or sum(counts.values()) != n:
        errors.append(f"labeling report does not partition n={n}: {fields}")
    for name in LABELS:
        if int((labels == name).sum()) != counts[name]:
            errors.append(f"report says {counts[name]} {name}, labeled.csv "
                          f"has {int((labels == name).sum())}")
    if oracle:
        feature_cols = [i for i, h in enumerate(header) if h != "label"]
        points = np.array([[float(r[i]) for i in feature_cols]
                           for r in body])
        errors += point_anomaly_errors(points, labels, k, multiplier)
    return errors


def _confusion_error(path: str) -> float:
    rows = _read_rows(path)
    counts = [[int(v) for v in r[1:]] for r in rows[1:]]
    total = sum(map(sum, counts))
    return (total - sum(counts[i][i] for i in range(len(counts)))) / total


def check_compare(out_dir: str):
    """Summary errors must match the confusion CSVs; returns the errors
    and the (nn, ga) test errors."""
    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        match = SUMMARY.fullmatch(fh.read().strip())
    if match is None:
        return ["summary.txt does not match its format"], None
    rates = tuple(_confusion_error(os.path.join(out_dir, f"{tag}_confusion.csv"))
                  for tag in ("nn", "ga"))
    errors = [f"summary {tag} error {shown}% != confusion {100.0 * rate:.1f}%"
              for tag, shown, rate in zip(("NN", "GA"), match.groups(), rates)
              if shown != f"{100.0 * rate:.1f}"]
    return errors, rates
