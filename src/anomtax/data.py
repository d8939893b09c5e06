"""Input file reading, dataset container, CSV ingestion, normalization,
stratified splitting, and synthetic 2-D data generation.

A :class:`Dataset` is a plain record, column-oriented (one ``(n, d)``
float array plus optional per-sample class ids and anomaly labels), and
it checks nothing: data is checked once, where it enters, by
:func:`load_csv`.  The arrays :func:`load_csv` makes are marked
read-only, so what was read from a file cannot be changed in place; every
transform returns a new record and leaves its input's arrays as they
were.
"""

import csv
import io
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
    "read_input",
    "load_csv",
    "save_csv",
    "minmax_normalize",
    "stratified_split",
    "generate_synthetic",
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


class Dataset(NamedTuple):
    """Ordered collection of feature vectors with optional labels: an
    ``(n, d)`` float64 array, its ``d`` column names, and optional
    length-``n`` int64 class ids and int8 :class:`AnomalyLabel` values.

    Sample ids are implicit: sample ``i`` is row ``i``, so ids are always
    unique and dense in ``[0, n)``.
    """

    features: np.ndarray
    feature_names: list
    class_ids: np.ndarray | None
    labels: np.ndarray | None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """New dataset holding the given rows, re-indexed from 0."""
        return Dataset(
            self.features[indices],
            self.feature_names,
            None if self.class_ids is None else self.class_ids[indices],
            None if self.labels is None else self.labels[indices],
        )


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
        raise ValueError(f"not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {cell!r}")
    return value


def _class_id(cell: str) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise ValueError(f"not an integer: {cell!r}") from None
    if not 0 <= value < 2**63:
        raise ValueError(f"not an integer in [0, 2^63): {cell!r}")
    return value


_LABEL_VALUES = {label.name: int(label) for label in AnomalyLabel}


def _label(cell: str) -> int:
    try:
        return _LABEL_VALUES[cell]
    except KeyError:
        raise ValueError(
            f"unknown label {cell!r} (expected one of "
            f"{', '.join(LABEL_TOKENS)})") from None


# the rule of each named column; every other column holds a feature
_NAMED_RULES = {"class": _class_id, "label": _label}


def read_input(path) -> str:
    """UTF-8 text of the input file ``path``, a leading BOM dropped."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line} is not UTF-8") from None


def load_csv(path) -> Dataset:
    """Parse a CSV file in the format above into a :class:`Dataset`.

    Each column goes through its rule whole.  Only a file with a fault is
    walked again row by row, to name its first faulty cell.
    """
    reader = csv.reader(io.StringIO(read_input(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        twice = [name for i, name in enumerate(header)
                 if name in header[:i]]
        if twice:
            raise ValueError(
                f"{path}: header names column {twice[0]!r} twice")
        feat_cols = [i for i, name in enumerate(header)
                     if name not in _NAMED_RULES]
        if not feat_cols:
            raise ValueError(f"{path}: no feature columns")

        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None

    # in the order a row's faults are named: features, class, label
    rules = [(i, _feature) for i in feat_cols] + [
        (header.index(name), rule) for name, rule in _NAMED_RULES.items()
        if name in header]
    try:
        if set(map(len, rows)) - {len(header)}:
            raise ValueError("ragged rows")
        columns = list(zip(*rows)) or [()] * len(header)
        parsed = {header[i]: list(map(rule, map(str.strip, columns[i])))
                  for i, rule in rules}
    except ValueError:
        _raise_first_fault(path, header, rows, rules)
    features = np.empty((len(rows), len(feat_cols)))
    for j, i in enumerate(feat_cols):
        features[:, j] = parsed[header[i]]
    class_ids = labels = None
    if "class" in parsed:
        class_ids = np.array(parsed["class"], dtype=np.int64)
    if "label" in parsed:
        labels = np.array(parsed["label"], dtype=np.int8)
    for array in (features, class_ids, labels):
        if array is not None:
            array.setflags(write=False)
    return Dataset(features, [header[i] for i in feat_cols], class_ids,
                   labels)


def _raise_first_fault(path, header, rows, rules) -> NoReturn:
    """Raise for the first faulty row: its width first, then its cells in
    the order of ``rules``, named by file, row and column."""
    for rownum, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {rownum}: expected {len(header)} columns, "
                f"got {len(row)}")
        for i, rule in rules:
            try:
                rule(row[i].strip())
            except ValueError as exc:
                raise ValueError(f"{path}: row {rownum}, column "
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
    return ds._replace(features=out), (mins, maxs)


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------

class SplitRatios(NamedTuple):
    """Train/validation/test fractions; they sum to 1."""

    train: float
    validation: float
    test: float


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
    scatter_count: int
    bounds: tuple  # xmin, ymin, xmax, ymax


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministically generate an unlabeled 2-D dataset.  The spec is
    taken as given: its counts and bounds are checked where it is read, by
    :func:`anomtax.config.load_config`.  A blob so far out or so wide that
    a drawn coordinate overflows raises a ValueError naming it."""
    rng = np.random.default_rng(seed)
    parts = []
    for blob in spec.blobs:
        center = np.asarray(blob.center, dtype=np.float64)
        spread = np.asarray(blob.spread, dtype=np.float64)
        with np.errstate(over="ignore"):
            part = center + spread * rng.standard_normal((blob.count, 2))
        if not np.isfinite(part).all():
            raise ValueError(
                f"[synthetic] blobN = {', '.join(map(str, blob.center))}, "
                f"{', '.join(map(str, blob.spread))}, {blob.count} draws a "
                "value that is not finite")
        parts.append(part)
    if spec.scatter_count:
        xmin, ymin, xmax, ymax = spec.bounds
        parts.append(rng.uniform((xmin, ymin), (xmax, ymax),
                                 (spec.scatter_count, 2)))
    return Dataset(np.vstack(parts), ["x", "y"], None, None)
