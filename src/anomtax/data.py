"""Dataset container, CSV ingestion, normalization, stratified splitting,
and synthetic 2-D data generation.

A :class:`Dataset` is column-oriented (one ``(n, d)`` float array plus
optional per-sample class ids and anomaly labels) and is treated as
immutable after construction: every transform returns a new instance and
the underlying arrays are marked read-only.
"""

from __future__ import annotations

import csv
import math
from enum import IntEnum
from typing import NamedTuple, NoReturn

import numpy as np

__all__ = [
    "AnomalyLabel",
    "Dataset",
    "SplitRatios",
    "BlobSpec",
    "SyntheticSpec",
    "CsvStructureError",
    "CsvParseError",
    "LabelTokenError",
    "load_csv",
    "save_csv",
    "minmax_normalize",
    "stratified_split",
    "generate_synthetic",
    "derive_seed",
]


class AnomalyLabel(IntEnum):
    """Four-way anomaly taxonomy tag.

    ND is normal data, PA a point anomaly, CPA the point anomalies that
    huddle together, and CNA a cluster of normal-looking points whose
    internal density varies too much.
    """

    ND = 0
    CNA = 1
    CPA = 2
    PA = 3


LABEL_TOKENS = tuple(label.name for label in AnomalyLabel)


class CsvStructureError(ValueError):
    """Raised when a CSV row does not match the header width."""


class CsvParseError(ValueError):
    """Raised when a cell cannot be parsed for its declared role."""


class LabelTokenError(ValueError):
    """Raised when a label cell holds anything but ND, CNA, CPA or PA."""


class Dataset:
    """Ordered collection of feature vectors with optional labels.

    Sample ids are implicit: sample ``i`` is row ``i``, so ids are always
    unique and dense in ``[0, n)``.
    """

    def __init__(self, features, feature_names=None, class_ids=None,
                 labels=None):
        features = np.array(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n, d = features.shape
        if d < 1:
            raise ValueError("dataset needs at least one feature")
        if feature_names is None:
            feature_names = [f"f{j}" for j in range(d)]
        feature_names = [str(name) for name in feature_names]
        if len(feature_names) != d:
            raise ValueError(
                f"{len(feature_names)} feature names for {d} feature columns"
            )
        if class_ids is not None:
            class_ids = np.array(class_ids, dtype=np.int64)
            if class_ids.shape != (n,):
                raise ValueError("class_ids length does not match sample count")
            if n and class_ids.min() < 0:
                raise ValueError("class ids must be nonnegative")
            class_ids.setflags(write=False)
        if labels is not None:
            labels = np.array(labels, dtype=np.int8)
            if labels.shape != (n,):
                raise ValueError("labels length does not match sample count")
            # AnomalyLabel values are the contiguous range 0..3
            if n and (labels.min() < min(AnomalyLabel)
                      or labels.max() > max(AnomalyLabel)):
                raise ValueError("labels must be AnomalyLabel values")
            labels.setflags(write=False)
        features.setflags(write=False)

        self.features = features
        self.feature_names = feature_names
        self.class_ids = class_ids
        self.labels = labels

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """New dataset holding the given rows, re-indexed from 0."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[indices],
            self.feature_names,
            None if self.class_ids is None else self.class_ids[indices],
            None if self.labels is None else self.labels[indices],
        )

    def with_labels(self, labels) -> "Dataset":
        return Dataset(self.features, self.feature_names, self.class_ids,
                       labels)

    def with_features(self, features, feature_names=None) -> "Dataset":
        return Dataset(features,
                       feature_names if feature_names is not None
                       else self.feature_names,
                       self.class_ids, self.labels)


# ---------------------------------------------------------------------------
# CSV I/O
#
# Format: UTF-8, comma separated, first row is the header, which names
# each column once.  A column named "label" holds anomaly tokens
# (ND/CNA/CPA/PA), one named "class" holds integer class ids in
# [0, 2^63), everything else is a numeric feature.  Each kind of cell has
# one rule below; it takes the stripped cell and returns its value or
# raises an error that names the cell.
# ---------------------------------------------------------------------------

def _feature(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CsvParseError(f"not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise CsvParseError(f"not a finite number: {cell!r}")
    return value


def _class_id(cell: str) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise CsvParseError(f"not an integer: {cell!r}") from None
    if not 0 <= value < 2**63:
        raise CsvParseError(f"not an integer in [0, 2^63): {cell!r}")
    return value


_LABEL_VALUES = {label.name: int(label) for label in AnomalyLabel}


def _label(cell: str) -> int:
    try:
        return _LABEL_VALUES[cell]
    except KeyError:
        raise LabelTokenError(
            f"unknown label {cell!r} (expected one of "
            f"{', '.join(LABEL_TOKENS)})") from None


# the rule of each named column; every other column holds a feature
_NAMED_RULES = {"class": _class_id, "label": _label}


def load_csv(path) -> Dataset:
    """Parse a CSV file in the format above into a :class:`Dataset`.

    Each column goes through its rule whole.  Only a file with a fault is
    walked again row by row, to name its first faulty cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvStructureError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        twice = [name for i, name in enumerate(header)
                 if name in header[:i]]
        if twice:
            raise CsvStructureError(
                f"{path}: header names column {twice[0]!r} twice")
        feat_cols = [i for i, name in enumerate(header)
                     if name not in _NAMED_RULES]
        if not feat_cols:
            raise ValueError(f"{path}: no feature columns")

        rows = list(reader)

    # in the order a row's faults are named: features, class, label
    rules = [(i, _feature) for i in feat_cols] + [
        (header.index(name), rule) for name, rule in _NAMED_RULES.items()
        if name in header]
    try:
        if set(map(len, rows)) - {len(header)}:
            raise CsvStructureError("ragged rows")
        columns = list(zip(*rows)) or [()] * len(header)
        parsed = {header[i]: list(map(rule, map(str.strip, columns[i])))
                  for i, rule in rules}
    except ValueError:
        _raise_first_fault(path, header, rows, rules)
    features = np.empty((len(rows), len(feat_cols)))
    for j, i in enumerate(feat_cols):
        features[:, j] = parsed[header[i]]
    return Dataset(features, [header[i] for i in feat_cols],
                   parsed.get("class"), parsed.get("label"))


def _raise_first_fault(path, header, rows, rules) -> NoReturn:
    """Raise for the first faulty row: its width first, then its cells in
    the order of ``rules``, named by file, row and column."""
    for rownum, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise CsvStructureError(
                f"{path}: row {rownum}: expected {len(header)} columns, "
                f"got {len(row)}")
        for i, rule in rules:
            try:
                rule(row[i].strip())
            except ValueError as exc:
                raise type(exc)(f"{path}: row {rownum}, column "
                                f"{header[i]!r}: {exc}") from None


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV; floats use repr so reloading is lossless.

    Only the header goes through :mod:`csv`, which quotes a name when it
    must.  No data field needs quoting (float reprs, ints and label
    tokens), so the rows are joined directly, with ``csv``'s line ending.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        header = list(ds.feature_names)
        if ds.class_ids is not None:
            header.append("class")
        if ds.labels is not None:
            header.append("label")
        csv.writer(fh).writerow(header)
        columns = [map(repr, col) for col in ds.features.T.tolist()]
        if ds.class_ids is not None:
            columns.append(map(str, ds.class_ids.tolist()))
        if ds.labels is not None:
            columns.append(map(LABEL_TOKENS.__getitem__, ds.labels.tolist()))
        fh.write("".join([",".join(row) + "\r\n" for row in zip(*columns)]))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def minmax_normalize(ds: Dataset):
    """Rescale every feature into [0, 1] by (x - min) / (max - min).

    A constant column (max == min) maps to 0.0, so downstream math stays
    finite.  A column whose width max - min overflows float64 is rejected
    with a ValueError that names it.  Returns ``(dataset, (mins, maxs))``.
    """
    if ds.n < 1:
        raise ValueError("cannot normalize an empty dataset")
    features = ds.features
    mins, maxs = features.min(axis=0), features.max(axis=0)
    with np.errstate(over="ignore"):
        span = maxs - mins
    for name, lo, hi, width in zip(ds.feature_names, mins.tolist(),
                                   maxs.tolist(), span.tolist()):
        if math.isinf(width):
            raise ValueError(f"feature {name!r} ranges from {lo!r} to "
                             f"{hi!r}, a width that overflows float64")
    out = np.zeros_like(features)
    nz = span > 0
    out[:, nz] = (features[:, nz] - mins[nz]) / span[nz]
    return ds.with_features(out), (mins, maxs)


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------

class SplitRatios:
    """Train/validation/test fractions; must sum to 1."""

    __slots__ = ("train", "validation", "test")

    def __init__(self, train: float = 0.70, validation: float = 0.15,
                 test: float = 0.15):
        parts = (train, validation, test)
        if any(p < 0 for p in parts):
            raise ValueError("split ratios must be nonnegative")
        if abs(sum(parts) - 1.0) > 1e-9:
            raise ValueError(f"split ratios sum to {sum(parts)}, expected 1")
        self.train = train
        self.validation = validation
        self.test = test


def _largest_remainder(count: int, ratios: SplitRatios):
    quotas = [count * ratios.train, count * ratios.validation,
              count * ratios.test]
    base = [math.floor(q) for q in quotas]
    leftover = count - sum(base)
    # distribute leftovers by descending fractional part, ties to the
    # earlier split (train, then validation, then test)
    order = sorted(range(3), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def stratified_split(ds: Dataset, ratios: SplitRatios, seed: int):
    """Split so each anomaly label lands in train/val/test at the same rate.

    Groups are the anomaly labels, in ascending order.  Per group the
    counts use floor-then-largest-remainder allocation and a seeded shuffle
    decides membership, so the result is deterministic.
    """
    key = ds.labels
    if key is None:
        raise ValueError("stratified_split needs anomaly labels to group by")
    rng = np.random.default_rng(seed)
    picks = ([], [], [])
    for value in np.flatnonzero(np.bincount(key)):
        grp = np.flatnonzero(key == value)
        grp = grp[rng.permutation(grp.size)]
        n_train, n_val, _ = _largest_remainder(grp.size, ratios)
        picks[0].extend(grp[:n_train])
        picks[1].extend(grp[n_train:n_train + n_val])
        picks[2].extend(grp[n_train + n_val:])
    return tuple(ds.subset(np.sort(np.array(p, dtype=np.int64)))
                 for p in picks)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

class BlobSpec(NamedTuple):
    """One Gaussian blob: center, per-axis spread, point count."""

    center: tuple
    spread: tuple
    count: int


class SyntheticSpec(NamedTuple):
    """Blob mixture plus uniform scatter over a bounding box."""

    blobs: tuple
    scatter_count: int = 0
    bounds: tuple = (0.0, 0.0, 100.0, 100.0)  # xmin, ymin, xmax, ymax


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministically generate an unlabeled 2-D dataset."""
    if not spec.blobs:
        raise ValueError("synthetic spec needs at least one blob")
    for blob in spec.blobs:
        if blob.count < 1:
            raise ValueError(f"blob count must be positive, got {blob.count}")
    if spec.scatter_count < 0:
        raise ValueError("scatter count must be nonnegative")
    rng = np.random.default_rng(seed)
    parts = []
    for blob in spec.blobs:
        center = np.asarray(blob.center, dtype=np.float64)
        spread = np.asarray(blob.spread, dtype=np.float64)
        parts.append(center + spread * rng.standard_normal((blob.count, 2)))
    if spec.scatter_count:
        xmin, ymin, xmax, ymax = spec.bounds
        parts.append(rng.uniform((xmin, ymin), (xmax, ymax),
                                 (spec.scatter_count, 2)))
    return Dataset(np.vstack(parts), ["x", "y"])


def derive_seed(seed: int, stream: int) -> int:
    """Stable child seed for a named substream of a run seed."""
    return int(np.random.SeedSequence([int(seed), int(stream)])
               .generate_state(1)[0])
