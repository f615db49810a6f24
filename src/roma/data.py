"""Data containers and CSV ingestion.

Points are stored one per column in float64 matrices.  CSV files may lay
points out either way; ``orientation`` says which.  Files are read as UTF-8
with an optional byte-order mark.  A field is read with Python's ``float()``
after ``str.strip()``: surrounding whitespace, quotes and digit underscores
(``1_000``) are accepted, and the value must be finite.  An optional single
header row is auto-detected: a first row none of whose fields parse as
finite numbers.  A first row that parses only in part is a data row with a
bad field, not a header.  A file that is not UTF-8 raises at the line of its
first bad byte, before any row is parsed; any other malformed file at its
first bad field in file order, with 1-based row and column.  All containers
are frozen and their arrays are marked read-only after validation, and again
when they are unpickled.
"""

from __future__ import annotations

import codecs
import csv
import enum
import io
import math
import numbers
from dataclasses import dataclass

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
# Bytes per read of the loader's line count; its peak is a few of these.
_SURVEY_CHUNK = 1 << 14


class Label(enum.IntEnum):
    INLIER = 0
    OUTLIER = 1


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _setstate(self, state: dict) -> None:
    """``__setstate__`` of the containers: numpy does not pickle the
    read-only flag, so their arrays, and those held in a tuple, are frozen
    again on load."""
    for value in state.values():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                _freeze(arr)
    self.__dict__.update(state)


def _owned(x, dtype) -> np.ndarray:
    """``x`` as a read-only C-contiguous ``dtype`` array that no caller can
    write through: a read-only array that already is one is taken as it is,
    anything else is copied once.  Complex entries are refused, not cast to
    their real parts."""
    if (isinstance(x, np.ndarray) and not x.flags.writeable
            and x.flags.c_contiguous and x.dtype == dtype):
        return x
    arr = np.asarray(x)
    if arr.dtype.kind == "c":
        raise ValidationError(f"entries must be real, got {arr.dtype} entries")
    if isinstance(x, (list, tuple)):  # a new array, which no caller holds
        return _freeze(np.ascontiguousarray(arr, dtype=dtype))
    return _freeze(np.array(arr, dtype=dtype, order="C"))


def _check_int(name: str, value) -> int:
    """``value`` as a Python int; a float or a bool is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_real(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite real, got {value!r}")


def _integers(x, name: str) -> np.ndarray:
    """``x`` as an array, or a ValidationError if an entry is not an integer:
    a float, a string or a bool is refused, never cast.  An empty ``x`` is
    valid, whatever dtype numpy gives it."""
    if isinstance(x, (list, tuple)):
        bad = next((v for v in x if isinstance(v, bool)
                    or not isinstance(v, numbers.Integral)), None)
        if bad is not None:
            raise ValidationError(f"{name} must be integers, got {bad!r}")
        arr = np.asarray(x)
        # ints beyond int64 make numpy choose float64 or object: keep the
        # values, so that a range check names the one given
        return arr if arr.dtype.kind in "iu" or not arr.size else np.asarray(x, object)
    arr = np.asarray(x)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(f"{name} must be integers, got {arr.dtype} entries")
    return arr


def _indices(x, name: str, size: int) -> np.ndarray:
    """``x`` as int64 indices into ``range(size)``; ``name`` says what they
    index.  The range is checked before the cast, which would wrap an index
    at or above 2^63, so the error names the index given."""
    arr = _integers(x, f"{name} indices")
    bad = arr[(arr < 0) | (arr >= size)]
    if bad.size:
        raise ValidationError(f"{name} index {bad[0]} lies outside [0, {size})")
    return arr.astype(np.int64, copy=False)


def _points(m) -> np.ndarray:
    """Values of a DataMatrix or NormalizedMatrix; raw points pass DataMatrix's checks."""
    return (m if isinstance(m, (DataMatrix, NormalizedMatrix)) else DataMatrix(m)).values


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Observed points, one per column, with optional labels and true basis."""

    __setstate__ = _setstate

    values: np.ndarray
    labels: np.ndarray | None = None
    true_basis: np.ndarray | None = None

    def __post_init__(self):
        values = _owned(self.values, np.float64)
        if values.ndim != 2:
            raise DimensionError(f"values must be 2-d, got ndim={values.ndim}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("matrix entries must all be finite")
        # A column is zero exactly when its sum of squares is: the squares
        # are non-negative, so no order of summing them reaches 0 otherwise.
        # einsum sums them without an n x N temporary.
        zero = np.flatnonzero(np.einsum("ij,ij->j", values, values) == 0.0)
        if zero.size:
            raise ValidationError(f"zero columns at indices {zero.tolist()}")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = _integers(self.labels, "labels")
            if labels.shape != (values.shape[1],):
                raise DimensionError(
                    f"labels must have one entry per point, got shape {labels.shape}")
            valid = np.isin(labels, [int(v) for v in Label])
            if not valid.all():
                raise ValidationError("labels must be Label values")
            object.__setattr__(self, "labels", _owned(labels, np.int8))
        if self.true_basis is not None:
            basis = SubspaceBasis(self.true_basis).values
            if basis.shape[0] != self.n:
                raise DimensionError(f"basis must have {self.n} rows, got shape {basis.shape}")
            object.__setattr__(self, "true_basis", basis)

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

    __setstate__ = _setstate

    values: np.ndarray

    def __post_init__(self):
        values = _owned(self.values, np.float64)
        if values.ndim != 2:
            raise DimensionError(f"values must be 2-d, got ndim={values.ndim}")
        norms = np.linalg.norm(values, axis=0)
        # written so that a NaN norm fails it too
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
            raise ValidationError("columns are not unit norm")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def num_points(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint inlier/outlier index sets covering range(num_points).

    Both sides are stored sorted, as read-only int64 arrays.
    """

    __setstate__ = _setstate

    inliers: np.ndarray
    outliers: np.ndarray
    num_points: int

    def __post_init__(self):
        if (isinstance(self.num_points, bool) or not isinstance(self.num_points, (int, np.integer))
                or self.num_points < 0):
            raise ValidationError(f"num_points must be a count, got {self.num_points!r}")
        # One rule: every listed index lies in [0, N) and each of the N
        # points is listed exactly once.
        sides = [_indices(side, "partition", self.num_points)
                 for side in (self.inliers, self.outliers)]
        listed = np.concatenate(sides)
        counts = np.bincount(listed, minlength=self.num_points)
        wrong = np.flatnonzero(counts != 1)
        if wrong.size:
            raise ValidationError(
                f"point {wrong[0]} is listed {counts[wrong[0]]} times, not once")
        mask = np.zeros(self.num_points, dtype=bool)
        mask[sides[1]] = True
        object.__setattr__(self, "inliers", _freeze(np.flatnonzero(~mask)))
        object.__setattr__(self, "outliers", _freeze(np.flatnonzero(mask)))

    def outlier_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_points, dtype=bool)
        mask[self.outliers] = True
        return mask


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis of a recovered or planted subspace."""

    __setstate__ = _setstate

    values: np.ndarray

    def __post_init__(self):
        values = _owned(self.values, np.float64)
        if values.ndim != 2:
            raise DimensionError(f"basis must be 2-d, got ndim={values.ndim}")
        n, r = values.shape
        if not 1 <= r <= n:
            raise DimensionError(f"basis rank must lie in [1, {n}], got {r}")
        if not np.allclose(values.T @ values, np.eye(r), atol=BASIS_ORTHO_TOL, rtol=0.0):
            raise ValidationError("basis columns are not orthonormal")
        object.__setattr__(self, "values", values)

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


def _survey(src) -> tuple[int, bool]:
    """The line count of a binary stream, and whether it holds a ``"``.

    Lines end as ``open(newline="")`` ends them: at ``\\n``, ``\\r\\n`` or a
    lone ``\\r``.  The stream is read a chunk at a time, so only one chunk
    is held.  Each chunk is also decoded, so a stream that is not UTF-8
    raises a ParseError at the line of its first bad byte.
    """
    lines = 0
    quoted = False
    tail = b""  # the last byte so far, whose successor decides a lone \r
    decoder = codecs.getincrementaldecoder("utf-8")()
    while True:
        chunk = src.read(_SURVEY_CHUNK)
        try:
            decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            # exc.object: the bytes held over from the chunk before, then this one
            bad = exc.start - (len(exc.object) - len(chunk))
            # a bad byte is never \n or \r, so it decides a \r just before it
            line = lines + _line_ends(tail, chunk[:max(0, bad + 1)]) + 1
            raise ParseError("not UTF-8 text", row=line) from None
        if not chunk:
            return lines + (tail not in (b"", b"\n")), quoted
        lines += _line_ends(tail, chunk)
        quoted = quoted or b'"' in chunk
        tail = chunk[-1:]


def _line_ends(tail: bytes, chunk: bytes) -> int:
    """The line ends that ``chunk`` decides: each ``\\n``, and each ``\\r``
    followed by a byte other than ``\\n``.  ``tail`` is the byte before the
    chunk; a ``\\r`` that ends the chunk waits for the next one.
    """
    ends = chunk.count(b"\n")
    if tail == b"\r" or b"\r" in chunk:
        a = np.frombuffer(tail + chunk, dtype=np.uint8)
        ends += int(np.count_nonzero((a[:-1] == 13) & (a[1:] != 10)))
    return ends


def _split(line: str) -> list[str]:
    """``csv.reader``'s fields of a line without ``"``, terminator included.

    The terminator stays in the last field, where ``float()`` and
    ``str.strip()`` ignore it; a bare terminator is a row of no fields.  A
    field longer than ``csv.field_size_limit()`` raises ``csv.Error`` as in
    ``csv.reader``, so a file loads or fails the same with or without a
    ``"``.  Splitting is about twice as fast as ``csv.reader``.
    """
    if line in ("\n", "\r\n", "\r"):
        return []
    fields = line.split(",")
    limit = csv.field_size_limit()
    if len(line) > limit and any(len(f.rstrip("\r\n")) > limit for f in fields):
        raise csv.Error(f"field larger than field limit ({limit})")
    return fields


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
    their fields from left to right.  A field longer than
    ``csv.field_size_limit()`` is a ParseError at its row.  A file that is
    not UTF-8 is refused at the line of its first bad byte, before any row
    is parsed.

    Memory: one pass over the file's bytes counts its records, and a second
    parses each row straight into one float64 array of exactly the
    matrix's size, already one point per column.  So the loader holds at
    most about 1.5 times the matrix's bytes plus the text of one row.  A
    file with a ``"`` has its records counted by ``csv.reader``, since a
    quoted field may span lines.  Input that can be read only once, such as
    a pipe, is first read whole into memory.
    """
    if orientation not in ORIENTATIONS:
        raise ValidationError(
            f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    by_column = orientation == "points-as-rows"
    arr = None
    with open(path, "rb") as src:
        if not src.seekable():  # a pipe: keep its bytes to read them twice
            src = io.BytesIO(src.read())
        records, quoted = _survey(src)
        src.seek(0)
        fh = io.TextIOWrapper(src, encoding="utf-8-sig", newline="")
        i = 0
        try:
            if quoted:  # a quoted field may span lines: count records, not lines
                records = 0
                try:
                    for _ in csv.reader(fh):
                        records += 1
                except csv.Error:  # raised again below, after the rows before it
                    records += 1
                fh.seek(0)
            for raw in csv.reader(fh) if quoted else map(_split, fh):
                i += 1
                if arr is None:
                    if i == 1 and not any(_is_number(f) for f in raw):
                        continue  # header row
                    width, k, size = len(raw), 0, records - i + 1
                    arr = np.empty((width, size) if by_column else (size, width))
                if len(raw) != width:
                    raise ParseError(
                        f"expected {width} fields, found {len(raw)}", row=i)
                if k == size:
                    raise ParseError("file changed while it was read", row=i)
                dest = arr[:, k] if by_column else arr[k]
                try:
                    dest[:] = raw  # numpy parses each str with float()
                    clean = np.isfinite(dest).all()
                except ValueError:
                    clean = False
                if not clean:
                    # Field by field, to name the first bad one.  This also
                    # parses the few fields float() rejects only for padding
                    # that str.strip() removes (the ASCII separators \x1c-\x1f).
                    dest[:] = [_parse_field(f.strip(), i, j + 1) for j, f in enumerate(raw)]
                k += 1
                del raw  # so that the next row's fields are not made beside these
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ParseError(str(exc), row=i + 1) from None
        except UnicodeDecodeError:  # the survey decoded every byte
            raise ParseError("file changed while it was read") from None
    if arr is None:
        raise ParseError("no data rows found")
    if k != size:
        raise ParseError("file changed while it was read")
    n, num_points = arr.shape
    if n < 3:
        raise DimensionError(f"ambient dimension must be at least 3, got {n}")
    if num_points < 2:
        raise ValidationError(f"need at least 2 points, got {num_points}")
    return DataMatrix(_freeze(arr))


def write_csv(matrix, path, orientation: str = "points-as-rows") -> None:
    """Write matrix values as a headerless CSV in the given orientation.
    Raw points pass ``DataMatrix``'s checks before ``path`` is opened."""
    if orientation not in ORIENTATIONS:
        raise ValidationError(
            f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    values = _points(matrix)
    out = values.T if orientation == "points-as-rows" else values
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in out:  # one row of Python floats at a time, not the matrix
            writer.writerow(row.tolist())  # floats are written as repr()


def normalize_columns(m) -> NormalizedMatrix:
    """Scale every column to unit Euclidean norm.

    Accepts a DataMatrix, a NormalizedMatrix, or raw points, which go
    through ``DataMatrix`` and so its checks; no column norm is then zero.
    Idempotent to within one rounding per entry.
    """
    values = _points(m)
    return NormalizedMatrix(_freeze(values / np.linalg.norm(values, axis=0)))
