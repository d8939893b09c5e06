"""Dataset container, CSV ingestion, normalization, feature weighting and
aggregation, stratified splitting, and synthetic 2-D data generation.

A :class:`Dataset` is column-oriented (one ``(n, d)`` float array plus
optional per-sample class ids and anomaly labels) and is treated as
immutable after construction: every transform returns a new instance and
the underlying arrays are marked read-only, so values are safe to share
across concurrent readers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "AnomalyLabel",
    "Sample",
    "Dataset",
    "NormalizationParams",
    "SplitRatios",
    "BlobSpec",
    "SyntheticSpec",
    "CsvStructureError",
    "CsvParseError",
    "LabelTokenError",
    "load_csv",
    "save_csv",
    "minmax_normalize",
    "compute_sample_weights",
    "aggregate_features",
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


@dataclass(frozen=True)
class Sample:
    """Single row view of a dataset."""

    id: int
    features: np.ndarray
    class_id: int | None = None
    anomaly_label: AnomalyLabel | None = None


class Dataset:
    """Ordered collection of feature vectors with optional labels.

    Sample ids are implicit: sample ``i`` is row ``i``, so ids are always
    unique and dense in ``[0, n)``.
    """

    def __init__(self, features, feature_names=None, class_ids=None,
                 labels=None, num_classes=None):
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
            if num_classes is not None and n and class_ids.max() >= num_classes:
                raise ValueError(
                    f"class id {class_ids.max()} outside [0, {num_classes})"
                )
            class_ids.setflags(write=False)
        if labels is not None:
            labels = np.array(labels, dtype=np.int8)
            if labels.shape != (n,):
                raise ValueError("labels length does not match sample count")
            if n and not np.isin(labels, [int(v) for v in AnomalyLabel]).all():
                raise ValueError("labels must be AnomalyLabel values")
            labels.setflags(write=False)
        features.setflags(write=False)

        self.features = features
        self.feature_names = feature_names
        self.class_ids = class_ids
        self.labels = labels
        self._num_classes = num_classes

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int | None:
        if self._num_classes is not None:
            return self._num_classes
        if self.class_ids is not None and self.n:
            return int(self.class_ids.max()) + 1
        return None

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return (self.sample(i) for i in range(self.n))

    def sample(self, i: int) -> Sample:
        label = None
        if self.labels is not None:
            label = AnomalyLabel(int(self.labels[i]))
        class_id = None if self.class_ids is None else int(self.class_ids[i])
        return Sample(i, self.features[i], class_id, label)

    def subset(self, indices) -> "Dataset":
        """New dataset holding the given rows, re-indexed from 0."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[indices],
            self.feature_names,
            None if self.class_ids is None else self.class_ids[indices],
            None if self.labels is None else self.labels[indices],
            self._num_classes,
        )

    def with_labels(self, labels) -> "Dataset":
        return Dataset(self.features, self.feature_names, self.class_ids,
                       labels, self._num_classes)

    def with_features(self, features, feature_names=None) -> "Dataset":
        return Dataset(features,
                       feature_names if feature_names is not None
                       else self.feature_names,
                       self.class_ids, self.labels, self._num_classes)


# ---------------------------------------------------------------------------
# CSV I/O
#
# Format: UTF-8, comma separated, first row is the header.  A column named
# "label" holds anomaly tokens (ND/CNA/CPA/PA), one named "class" holds
# integer class ids, everything else is a numeric feature.  An explicit
# schema mapping column name -> role overrides the name convention.
# ---------------------------------------------------------------------------

_ROLES = ("feature", "class", "anomaly_label", "ignore")


def _default_role(name: str) -> str:
    if name == "label":
        return "anomaly_label"
    if name == "class":
        return "class"
    return "feature"


def load_csv(path, schema=None) -> Dataset:
    """Parse a CSV file into a :class:`Dataset`.

    ``schema`` maps each column name to one of ``feature``, ``class``,
    ``anomaly_label`` or ``ignore``; by default the names "label" and
    "class" get their special roles and every other column is a feature.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvStructureError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        if schema is None:
            roles = {name: _default_role(name) for name in header}
        else:
            roles = dict(schema)
            for name, role in roles.items():
                if role not in _ROLES:
                    raise ValueError(f"unknown column role {role!r} for {name!r}")
            missing = [name for name in header if name not in roles]
            if missing:
                raise ValueError(f"schema missing columns: {missing}")

        feat_cols = [i for i, name in enumerate(header)
                     if roles[name] == "feature"]
        class_col = [i for i, name in enumerate(header)
                     if roles[name] == "class"]
        label_col = [i for i, name in enumerate(header)
                     if roles[name] == "anomaly_label"]
        if len(class_col) > 1 or len(label_col) > 1:
            raise ValueError("at most one class and one label column allowed")
        if not feat_cols:
            raise ValueError(f"{path}: no feature columns")

        features, class_ids, labels = [], [], []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvStructureError(
                    f"{path}: row {rownum}: expected {len(header)} columns, "
                    f"got {len(row)}"
                )
            vals = []
            for i in feat_cols:
                cell = row[i].strip()
                try:
                    val = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: row {rownum}, column {header[i]!r}: "
                        f"not a number: {cell!r}"
                    ) from None
                if not math.isfinite(val):
                    raise CsvParseError(
                        f"{path}: row {rownum}, column {header[i]!r}: "
                        f"not a finite number: {cell!r}"
                    )
                vals.append(val)
            features.append(vals)
            if class_col:
                cell = row[class_col[0]].strip()
                try:
                    class_ids.append(int(cell))
                except ValueError:
                    raise CsvParseError(
                        f"{path}: row {rownum}, column "
                        f"{header[class_col[0]]!r}: not an integer: {cell!r}"
                    ) from None
            if label_col:
                cell = row[label_col[0]].strip()
                if cell not in LABEL_TOKENS:
                    raise LabelTokenError(
                        f"{path}: row {rownum}, column "
                        f"{header[label_col[0]]!r}: unknown label {cell!r} "
                        f"(expected one of {', '.join(LABEL_TOKENS)})"
                    )
                labels.append(int(AnomalyLabel[cell]))

    names = [header[i] for i in feat_cols]
    arr = np.array(features, dtype=np.float64)
    if arr.size == 0:
        arr = arr.reshape(0, len(feat_cols))
    return Dataset(
        arr,
        names,
        np.array(class_ids, dtype=np.int64) if class_col else None,
        np.array(labels, dtype=np.int8) if label_col else None,
    )


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV; floats use repr so reloading is lossless."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(ds.feature_names)
        if ds.class_ids is not None:
            header.append("class")
        if ds.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.features[i]]
            if ds.class_ids is not None:
                row.append(str(int(ds.class_ids[i])))
            if ds.labels is not None:
                row.append(AnomalyLabel(int(ds.labels[i])).name)
            writer.writerow(row)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature min/max captured from training data for reuse."""

    feature_names: tuple
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if np.any(self.maxs < self.mins):
            raise ValueError("max < min in normalization params")

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Map each column through (x - min) / (max - min).

        Constant columns (max == min) map to 0.0 so downstream math stays
        finite.
        """
        features = np.asarray(features, dtype=np.float64)
        span = self.maxs - self.mins
        out = np.zeros_like(features)
        nz = span > 0
        out[:, nz] = (features[:, nz] - self.mins[nz]) / span[nz]
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, lo, hi in zip(self.feature_names, self.mins, self.maxs):
                fh.write(f"{name} = {float(lo)!r},{float(hi)!r}\n")

    @classmethod
    def load(cls, path) -> "NormalizationParams":
        names, mins, maxs = [], [], []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                name, _, rest = line.partition(" = ")
                lo, _, hi = rest.partition(",")
                names.append(name)
                mins.append(float(lo))
                maxs.append(float(hi))
        return cls(tuple(names), np.array(mins), np.array(maxs))


def minmax_normalize(ds: Dataset):
    """Rescale every feature into [0, 1]; returns (dataset, params)."""
    if ds.n < 1:
        raise ValueError("cannot normalize an empty dataset")
    params = NormalizationParams(
        tuple(ds.feature_names),
        ds.features.min(axis=0),
        ds.features.max(axis=0),
    )
    return ds.with_features(params.apply(ds.features)), params


# ---------------------------------------------------------------------------
# feature weighting and aggregation
# ---------------------------------------------------------------------------

def compute_sample_weights(ds: Dataset, discarded_features) -> np.ndarray:
    """Per-sample weight: mean of the normalized values over the discarded
    feature columns."""
    idx = _check_feature_indices(ds, discarded_features, "discarded")
    if len(idx) == 0:
        raise ValueError("weighting needs at least one discarded feature")
    if ds.n and (ds.features.min() < 0.0 or ds.features.max() > 1.0):
        raise ValueError("sample weighting expects a normalized dataset")
    return ds.features[:, idx].mean(axis=1)


def aggregate_features(ds: Dataset, retained_features, weights) -> Dataset:
    """Shift every retained feature of sample i by that sample's weight."""
    idx = _check_feature_indices(ds, retained_features, "retained")
    if len(idx) == 0:
        raise ValueError("aggregation needs at least one retained feature")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (ds.n,):
        raise ValueError(
            f"weights length {weights.shape} does not match n={ds.n}"
        )
    new = ds.features[:, idx] + weights[:, None]
    names = [ds.feature_names[j] for j in idx]
    return ds.with_features(new, names)


def _check_feature_indices(ds, indices, what):
    idx = sorted(int(j) for j in indices)
    for j in idx:
        if not 0 <= j < ds.dim:
            raise ValueError(f"{what} feature index {j} outside [0, {ds.dim})")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate {what} feature index")
    return idx


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitRatios:
    """Train/validation/test fractions; must sum to 1."""

    train: float = 0.70
    validation: float = 0.15
    test: float = 0.15

    def __post_init__(self):
        parts = (self.train, self.validation, self.test)
        if any(p < 0 for p in parts):
            raise ValueError("split ratios must be nonnegative")
        if abs(sum(parts) - 1.0) > 1e-9:
            raise ValueError(f"split ratios sum to {sum(parts)}, expected 1")


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
    """Split so each label group lands in train/val/test at the same rate.

    Groups come from anomaly labels when present, otherwise from class ids.
    Per group the counts use floor-then-largest-remainder allocation and a
    seeded shuffle decides membership, so the result is deterministic.
    """
    if ds.labels is not None:
        key = ds.labels
    elif ds.class_ids is not None:
        key = ds.class_ids
    else:
        raise ValueError(
            "stratified_split needs anomaly labels or class ids to group by"
        )
    rng = np.random.default_rng(seed)
    picks = ([], [], [])
    for value in np.unique(key):
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

@dataclass(frozen=True)
class BlobSpec:
    """One Gaussian blob: center, per-axis spread, point count."""

    center: tuple
    spread: tuple
    count: int


@dataclass(frozen=True)
class SyntheticSpec:
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
