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
# The largest budget, in bytes, of a run of lines the loader gives np.loadtxt.
_PARSE_CHUNK = 1 << 20
# The lines that hold a line end and nothing else.
_LINE_ENDS = ("\n", "\r\n", "\r")


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
    anything else is copied once.  Entries must be numbers: bool, integer or
    real.  Complex, string and object entries are refused, not cast."""
    if (isinstance(x, np.ndarray) and not x.flags.writeable
            and x.flags.c_contiguous and x.dtype == dtype):
        return x
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"entries must be real, got {arr.dtype} entries")
    if isinstance(x, (list, tuple)):  # a new array, which no caller holds
        return _freeze(np.ascontiguousarray(arr, dtype=dtype))
    return _freeze(np.array(arr, dtype=dtype, order="C"))


def _check_int(name: str, value) -> int:
    """``value`` as a Python int; a float or a bool is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_real(name: str, value) -> float:
    """``value`` as a Python float; a bool, a string or a non-finite value
    is refused, not cast."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite real, got {value!r}")
    return float(value)


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
    return (m if isinstance(m, _Columns) else DataMatrix(m)).values


@dataclass(frozen=True, eq=False)
class _Columns:
    """Points, one per column, as a read-only 2-d float64 ``values``: the
    rule that DataMatrix and NormalizedMatrix share."""

    __setstate__ = _setstate

    values: np.ndarray

    def __post_init__(self):
        values = _owned(self.values, np.float64)
        if values.ndim != 2:
            raise DimensionError(f"values must be 2-d, got ndim={values.ndim}")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def num_points(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class DataMatrix(_Columns):
    """Observed points, one per column, with optional labels and true basis."""

    labels: np.ndarray | None = None
    true_basis: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        values = self.values
        if not np.all(np.isfinite(values)):
            raise ValidationError("matrix entries must all be finite")
        zero = np.flatnonzero(~values.any(axis=0))
        if zero.size:  # the first ten, so that the message does not grow with N
            shown = ", ".join(map(str, zero[:10].tolist()))
            more = f", ...] ({zero.size} in all)" if zero.size > 10 else "]"
            raise ValidationError(f"zero columns at indices [{shown}{more}")
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

    def label_indices(self, label: Label) -> np.ndarray:
        if self.labels is None:
            raise ValidationError("matrix carries no labels")
        return np.flatnonzero(self.labels == int(label))


@dataclass(frozen=True, eq=False)
class NormalizedMatrix(_Columns):
    """Unit-norm columns; what the angle computations operate on."""

    def __post_init__(self):
        super().__post_init__()
        with np.errstate(over="ignore"):  # an infinite norm fails the test below
            norms = np.linalg.norm(self.values, axis=0)
        # written so that a NaN norm fails it too
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
            raise ValidationError("columns are not unit norm")


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
        num_points = _check_int("num_points", self.num_points)
        if num_points < 0:
            raise ValidationError(f"num_points must be a count, got {num_points}")
        object.__setattr__(self, "num_points", num_points)
        # One rule: every listed index lies in [0, N) and each of the N
        # points is listed exactly once.
        sides = [_indices(side, "partition", num_points)
                 for side in (self.inliers, self.outliers)]
        listed = np.concatenate(sides)
        counts = np.bincount(listed, minlength=num_points)
        wrong = np.flatnonzero(counts != 1)
        if wrong.size:
            raise ValidationError(
                f"point {wrong[0]} is listed {counts[wrong[0]]} times, not once")
        mask = np.zeros(num_points, dtype=bool)
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
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test
            orthonormal = np.allclose(values.T @ values, np.eye(r),
                                      atol=BASIS_ORTHO_TOL, rtol=0.0)
        if not orthonormal:
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


class _Rows:
    """The loader's one float64 array, filled in file order with the rows
    ``csv.reader`` reads (``add_records``) or, the one shortcut, with runs
    of the lines of a file without ``"`` that ``np.loadtxt`` takes
    (``add_lines``).

    ``lines`` and ``nbytes`` are the survey's counts of the file's lines,
    header included, and bytes.  The array is allocated at the first data
    row, one point per column, and sized for every line that remains:
    exactly the rows of a file whose records each take one line, and more
    where a quoted field spans lines, but never more than 8 bytes a byte of
    the file.
    """

    def __init__(self, lines: int, nbytes: int, by_column: bool):
        self.lines, self.nbytes, self.by_column = lines, nbytes, by_column
        self.arr = None
        self.width = self.size = 0
        self.budget = 0  # bytes an np.loadtxt call may hold; none until arr
        self.i = 0  # rows read, header included
        self.k = 0  # rows stored

    def add(self, raw: list[str]) -> None:
        """Store the next row's fields ``raw``, or skip row 1 as a header."""
        self.i += 1
        i, k = self.i, self.k
        if self.arr is None:
            if i == 1 and not any(_is_number(f) for f in raw):
                return  # header row
            # each row from here on has width - 1 commas and, but for the
            # last, a line end, so there are at most (nbytes + 1) // width
            self.width = len(raw)
            self.size = min(self.lines - i + 1, (self.nbytes + 1) // max(1, self.width))
            self.arr = np.empty((self.width, self.size) if self.by_column
                                else (self.size, self.width))
            # a quarter of the matrix; a small one gets 16 KiB, about what
            # the text reader's own buffers hold
            self.budget = min(_PARSE_CHUNK, max(self.arr.nbytes // 4, 1 << 14))
        if len(raw) != self.width:
            raise ParseError(f"expected {self.width} fields, found {len(raw)}", row=i)
        if k == self.size:
            raise ParseError("file changed while it was read", row=i)
        dest = self.arr[:, k] if self.by_column else self.arr[k]
        try:
            dest[:] = raw  # numpy parses each str with float()
            clean = np.isfinite(dest).all()
        except ValueError:
            clean = False
        if not clean:
            # Field by field, to name the first bad one.  This also parses
            # the few fields float() rejects only for padding that
            # str.strip() removes (the ASCII separators \x1c-\x1f).
            dest[:] = [_parse_field(f.strip(), i, j + 1) for j, f in enumerate(raw)]
        self.k = k + 1

    def add_records(self, lines) -> int:
        """Store the rows that ``csv.reader`` reads from ``lines``, one at a
        time, and return the number of lines it read."""
        reader = csv.reader(lines)
        for raw in reader:
            self.add(raw)
            del raw  # so that the next row's fields are not made beside these
        return reader.line_num

    def _cost(self, count: int, text: int, longest: int) -> int:
        """The bytes that ``count`` lines and np.loadtxt's parse of them
        hold: their ``text``, 64 bytes a line for its str object and list
        slot, their values, and a copy of the ``longest`` line at four bytes
        a character."""
        return text + (64 + 8 * self.width) * count + 4 * longest

    def add_lines(self, lines) -> None:
        """Store the rows of ``lines``, the lines of a file without ``"``,
        in runs of consecutive lines, each ended by the first line at which
        its cost reaches the budget."""
        run, text, longest = [], 0, 0
        for line in lines:
            run.append(line)
            text += len(line)
            longest = max(longest, len(line))
            if self._cost(len(run), text, longest) >= self.budget:
                self._add_run(run, longest)
                run, text, longest = [], 0, 0
        if run:
            self._add_run(run, longest)

    def _add_run(self, run: list[str], longest: int) -> None:
        """Store the rows of the lines ``run``, whose longest line has
        ``longest`` characters.

        One ``np.loadtxt`` call parses them when that line alone fits the
        budget, so that the call holds less than twice the budget; the row
        loop holds less for a line that does not.  The values are stored
        only when every line gave a row of ``width`` finite values and no
        field can exceed ``csv.field_size_limit()``.  The parser strips the
        characters ``str.strip()`` strips and then ends in the routine that
        ``float()`` ends in, which it reaches with a subset of the strings
        that ``float()`` accepts (no ``1_000``, no Unicode digits), so each
        value stored is ``float(field.strip())``.  Any other run goes
        through ``add_records``, which names the first bad field.  So does
        a run with a bare line end, which ``np.loadtxt`` would skip.
        """
        k, count = self.k, len(run)
        block = None
        if (self._cost(1, longest, longest) <= self.budget and k + count <= self.size
                and longest <= csv.field_size_limit()
                and not any(end in run for end in _LINE_ENDS)):
            try:
                block = np.loadtxt(run, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
        if (block is None or block.shape != (count, self.width)
                or not np.isfinite(block).all()):
            self.add_records(run)
            return
        if self.by_column:
            self.arr[:, k:k + count] = block.T
        else:
            self.arr[k:k + count] = block
        self.i += count
        self.k = k + count


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

    Parsing: ``csv.reader`` reads the rows and ``float()`` their fields, a
    row at a time.  The one shortcut is for a file without a ``"``: runs of
    its lines are each parsed by one ``np.loadtxt`` call, whose C parser
    gives each field the value ``float()`` gives it (see
    ``_Rows._add_run``), and kept when every line gave a row of finite
    values of the right width.  So a file loads or fails as the running
    Python's ``csv`` module reads it, with or without a ``"``: a NUL, for
    one, is refused before Python 3.11.  A file with a ``"`` is read by
    ``csv.reader`` alone, in one pass, since a quoted field may span lines.

    Memory: one pass over the file's bytes counts its lines, and a second
    parses the rows straight into one float64 array, already one point per
    column, with a row or column for each line but at most 8 bytes a byte
    of the file.  That is exactly the matrix, unless quoted fields span
    lines.  The rows left unfilled are then dropped: with points as columns
    the matrix is a view of the rows filled, and with points as rows a copy
    of them, one matrix more than the bound below.  A run's lines and their parse hold about a quarter of
    the matrix's bytes (at least 16 KiB, at most ``_PARSE_CHUNK``).  A row
    read by ``csv.reader`` holds twice its line's text and up to 100 bytes a
    field, and a field over 4096 characters up to 8 bytes a character more.
    So the loader holds at most 1.5 times the matrix, plus what its longest
    line holds, plus 96 KiB (as tracemalloc counts on CPython 3.11, for
    ASCII text).  Input that can be read only once, such as a pipe, is
    first read whole into memory.
    """
    if orientation not in ORIENTATIONS:
        raise ValidationError(
            f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    with open(path, "rb") as src:
        if not src.seekable():  # a pipe: keep its bytes to read them twice
            src = io.BytesIO(src.read())
        lines, quoted = _survey(src)
        rows = _Rows(lines, src.tell(), orientation == "points-as-rows")
        src.seek(0)
        fh = io.TextIOWrapper(src, encoding="utf-8-sig", newline="")
        try:
            if not quoted:
                rows.add_lines(fh)
            elif rows.add_records(fh) == lines and rows.k < rows.size:
                # quoted fields spanned lines: drop the rows left unfilled
                rows.size = k = rows.k
                rows.arr = rows.arr[:, :k] if rows.by_column else rows.arr[:k]
        except csv.Error as exc:  # a field over the limit; a NUL before 3.11
            raise ParseError(str(exc), row=rows.i + 1) from None
        except UnicodeDecodeError:  # the survey decoded every byte
            raise ParseError("file changed while it was read") from None
    arr = rows.arr
    if arr is None:
        raise ParseError("no data rows found")
    if rows.k != rows.size:
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
    # The bytes of csv.writer's excel dialect: each float as its repr(),
    # which it never quotes, and "\r\n" after each row.  One row of text
    # at a time, not the matrix.
    with open(path, "w", newline="") as fh:
        for row in out:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def normalize_columns(m) -> NormalizedMatrix:
    """Scale every column to unit Euclidean norm.

    Accepts a DataMatrix, a NormalizedMatrix, or raw points, which go
    through ``DataMatrix`` and so its checks; no column is then zero.
    Idempotent to within one rounding per entry.  A column whose norm
    overflows or falls below sqrt(tiny) is first scaled, exactly, by a power
    of two, so columns that differ by a power of two give the same bits
    (unless one of them holds subnormal entries, which carry fewer bits).
    """
    values = _points(m)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(values, axis=0)
    # the columns whose squares overflowed or may have underflowed
    odd = ~np.isfinite(norms) | (norms < math.sqrt(np.finfo(np.float64).tiny))
    norms[odd] = 1.0
    out = values / norms
    if odd.any():
        # C order, so that the norm sums each column in the order used above
        block = np.ascontiguousarray(values[:, odd])
        block = np.ldexp(block, -np.frexp(np.abs(block).max(axis=0))[1])
        out[:, odd] = block / np.linalg.norm(block, axis=0)
    return NormalizedMatrix(_freeze(out))
