"""Data containers and CSV ingestion.

Points are stored one per column in float64 matrices.  CSV files may lay
points out either way; ``orientation`` says which.  Files are read as UTF-8
with an optional byte-order mark.  A field is read with Python's ``float()``
after ``str.strip()``: surrounding whitespace, quotes and digit underscores
(``1_000``) are accepted, and the value must be finite.  An optional single
header row is auto-detected: a first row none of whose fields parse as
finite numbers.  A first row that parses only in part is a data row with a
bad field, not a header.  A malformed file raises at its first bad field in
file order, with 1-based row and column.  All containers are frozen and
their arrays are marked read-only after validation.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParseError, ValidationError

__all__ = [
    "Label",
    "DataMatrix",
    "NormalizedMatrix",
    "Partition",
    "SubspaceBasis",
    "ORIENTATIONS",
    "load_csv_matrix",
    "write_csv",
    "normalize_columns",
]

ORIENTATIONS = ("points-as-rows", "points-as-columns")

# Column norms after normalization must sit this close to 1.
UNIT_NORM_TOL = 1e-12
# Orthonormality slack allowed for stored bases.
BASIS_ORTHO_TOL = 1e-10


class Label(enum.IntEnum):
    INLIER = 0
    OUTLIER = 1
    UNKNOWN = 2


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_basis(basis: np.ndarray, n: int, tol: float = BASIS_ORTHO_TOL) -> np.ndarray:
    basis = np.ascontiguousarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != n:
        raise DimensionError(
            f"basis must be an {n} x r matrix, got shape {basis.shape}")
    if basis.shape[1] < 1 or basis.shape[1] > n:
        raise DimensionError(f"basis rank must lie in [1, {n}], got {basis.shape[1]}")
    gram = basis.T @ basis
    if not np.allclose(gram, np.eye(basis.shape[1]), atol=tol, rtol=0.0):
        raise ValidationError("basis columns are not orthonormal")
    return basis


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Observed points, one per column, with optional labels and true basis."""

    values: np.ndarray
    labels: np.ndarray | None = None
    true_basis: np.ndarray | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionError(f"values must be 2-d, got ndim={values.ndim}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("matrix entries must all be finite")
        norms = np.linalg.norm(values, axis=0)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValidationError(f"zero columns at indices {zero.tolist()}")
        object.__setattr__(self, "values", _freeze(values))
        if self.labels is not None:
            labels = np.ascontiguousarray(self.labels, dtype=np.int8)
            if labels.shape != (values.shape[1],):
                raise DimensionError(
                    f"labels must have one entry per point, got shape {labels.shape}")
            valid = np.isin(labels, [int(v) for v in Label])
            if not valid.all():
                raise ValidationError("labels must be Label values")
            object.__setattr__(self, "labels", _freeze(labels))
        if self.true_basis is not None:
            object.__setattr__(
                self, "true_basis", _freeze(_check_basis(self.true_basis, values.shape[0])))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def num_points(self) -> int:
        return self.values.shape[1]

    def label_indices(self, label: Label) -> np.ndarray:
        if self.labels is None:
            raise ValidationError("matrix carries no labels")
        return np.flatnonzero(self.labels == int(label))


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """Unit-norm columns; what the angle computations operate on."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionError(f"values must be 2-d, got ndim={values.ndim}")
        norms = np.linalg.norm(values, axis=0)
        # written so that a NaN norm fails it too
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
            raise ValidationError("columns are not unit norm")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def num_points(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint inlier/outlier index sets covering range(num_points)."""

    inliers: np.ndarray
    outliers: np.ndarray
    num_points: int

    def __post_init__(self):
        inl = np.unique(np.asarray(self.inliers, dtype=np.int64))
        out = np.unique(np.asarray(self.outliers, dtype=np.int64))
        if inl.size != np.asarray(self.inliers).size or out.size != np.asarray(self.outliers).size:
            raise ValidationError("duplicate indices in partition")
        if np.intersect1d(inl, out).size:
            raise ValidationError("inlier and outlier sets overlap")
        total = inl.size + out.size
        if total != self.num_points:
            raise ValidationError(
                f"partition covers {total} of {self.num_points} points")
        all_idx = np.union1d(inl, out)
        if total and (all_idx[0] < 0 or all_idx[-1] >= self.num_points):
            raise ValidationError("partition indices out of range")
        object.__setattr__(self, "inliers", _freeze(inl))
        object.__setattr__(self, "outliers", _freeze(out))

    def outlier_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_points, dtype=bool)
        mask[self.outliers] = True
        return mask


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis of a recovered or planted subspace."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionError("basis must be 2-d")
        object.__setattr__(self, "values", _freeze(_check_basis(values, values.shape[0])))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def rank(self) -> int:
        return self.values.shape[1]


def _parse_field(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"field {text!r} is not a number", row=row, column=col) from None
    if not math.isfinite(value):
        raise ParseError(f"field {text!r} is not a finite real", row=row, column=col)
    return value


def _is_number(text: str) -> bool:
    try:
        return math.isfinite(float(text.strip()))
    except ValueError:
        return False


def load_csv_matrix(path, orientation: str = "points-as-rows") -> DataMatrix:
    """Read a numeric CSV into a DataMatrix.

    A field is a number exactly when Python's ``float()`` accepts it after
    ``str.strip()``, and it must be finite.  So surrounding whitespace and
    digit underscores (``1_000``) are accepted; thousands separators,
    decimal commas, ``nan`` and ``inf`` are not.  A single leading header row
    is skipped when none of its fields parses; a leading row that parses
    only in part raises at its first bad field.  A UTF-8 byte-order mark is
    ignored.  Errors carry 1-based file coordinates and name the first bad
    field in file order: rows are checked one at a time, width first, then
    their fields from left to right.
    """
    if orientation not in ORIENTATIONS:
        raise ValidationError(
            f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    rows: list[list[float]] = []
    width = None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for i, raw in enumerate(reader, start=1):
            if i == 1 and not any(_is_number(f) for f in raw):
                continue  # header row
            if width is None:
                width = len(raw)
            if len(raw) != width:
                raise ParseError(
                    f"expected {width} fields, found {len(raw)}", row=i)
            try:
                vals = list(map(float, raw))
                clean = all(map(math.isfinite, vals))
            except ValueError:
                clean = False
            if not clean:
                # Field by field, to name the first bad one.  This also
                # parses the few fields float() rejects only for padding
                # that str.strip() removes (the ASCII separators \x1c-\x1f).
                vals = [_parse_field(f.strip(), i, j + 1) for j, f in enumerate(raw)]
            rows.append(vals)
    if not rows:
        raise ParseError("no data rows found")
    arr = np.asarray(rows, dtype=float)
    if orientation == "points-as-rows":
        arr = arr.T
    n, num_points = arr.shape
    if n < 3:
        raise DimensionError(f"ambient dimension must be at least 3, got {n}")
    if num_points < 2:
        raise ValidationError(f"need at least 2 points, got {num_points}")
    return DataMatrix(arr)


def write_csv(matrix, path, orientation: str = "points-as-rows") -> None:
    """Write matrix values as a headerless CSV in the given orientation."""
    if orientation not in ORIENTATIONS:
        raise ValidationError(
            f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    values = matrix.values if hasattr(matrix, "values") else np.asarray(matrix, dtype=float)
    out = values.T if orientation == "points-as-rows" else values
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(out.tolist())  # floats are written as repr()


def normalize_columns(m) -> NormalizedMatrix:
    """Scale every column to unit Euclidean norm.

    Accepts a DataMatrix, NormalizedMatrix, or plain array.  Idempotent to
    within one rounding per entry.
    """
    values = m.values if hasattr(m, "values") else np.ascontiguousarray(m, dtype=float)
    if values.ndim != 2:
        raise DimensionError("expected a 2-d array of column points")
    if not np.all(np.isfinite(values)):
        raise ValidationError("matrix entries must all be finite")
    norms = np.linalg.norm(values, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValidationError(f"zero columns at indices {zero.tolist()}")
    return NormalizedMatrix(values / norms)
