"""Pairwise-angle kernels.

The Gram matrix g = V^T V of the unit columns drives everything: principal
angles are arccos of its entries clamped to [-1, 1], acute angles use the
absolute value.  The detector reads it through one streaming kernel,
``gram_scan``.  It multiplies row block [s, e) against columns s onward, so
it visits only the upper band, sees each unordered pair once, and reduces
each block along both its rows and its columns.  That is half the Gram
flops of a full product.  Each block holds about ``_BLOCK_BYTES``, so the
kernel's temporary memory is O(block * N) and never N x N.

No decision takes arccos over the N^2 entries.  Two identities give the
scores from |g| directly:

    q_i  = arccos(max_{j != i} |g_ij|)
    na_i = #{j != i : |g_ij| < t},  t = the smallest double with arccos(t) <= zeta

``t`` is found by bisection against ``np.arccos`` itself, so both hold
bitwise against the arccos form wherever ``np.arccos`` is monotone.

Decisions are a pure function of the input values.  The g that defines
them is ``_dot``: a float64 dot product of two stored columns, its
elementwise products summed in a fixed pairwise order that depends on n
alone, never through BLAS.  The scan itself multiplies the columns with
BLAS in a working precision w: float32 up to n = ``_F32_MAX_N``, float64
above.  Every entry it forms lies within

    E = s [2u + u^2 + (1 + u)^2 gamma_n + gamma'_n] + 5 n (1 + gamma_n) m

of ``_dot``, for any BLAS that sums rounded products in any order, with or
without FMA, and with or without flushing subnormals to zero.  Here u is
w's unit roundoff (2^-24 for float32, 2^-53 for float64), m its smallest
normal number, gamma_n = n u / (1 - n u), gamma'_n is the same with 2^-53,
and s = (1 + UNIT_NORM_TOL)^2 bounds sum_k |x_k y_k| for the unit columns.
The terms are: 2u + u^2 from rounding both inputs to w (zero for float64),
(1 + u)^2 gamma_n from the products and sums in w, gamma'_n from
``_dot``'s own rounding (a product meets one rounding per level of its
pairwise order, about log2 n of them), and 5 n (1 + gamma_n) m from
inputs, products and sums that fall below w's normal range.  In float32, E is about
(n + 2) 2^-24, 6.1e-6 at n = 100; in float64 about 2 (n + 1) 2^-53.  E is
rounded up by one part in 2^20 to cover the float64 arithmetic on it, and
the cuts derived from it are rounded outwards.  ``_gram_error`` refuses
n u >= 1/2, where gamma_n is no longer a bound.

The scan recomputes with ``_dot`` every entry whose decision E leaves open:
|g| within E of ``t`` (na), within 2E of a point's peak in the pass (q),
and within 2E of the global peak (the closest pair).  So q, na and the
closest pair equal what ``_dot`` over every pair gives, whatever the BLAS
build or the block height.  ``acute_row`` is ``_dot`` throughout.

The mean principal angle is informational, except in the adapted mode where
it centres the threshold.  ``sample_mean_angle`` computes it in its own
float64 pass, with arccos over the strict upper triangle; its last bits
follow the BLAS's rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import UNIT_NORM_TOL, NormalizedMatrix, normalize_columns
from .errors import DimensionError, ValidationError

__all__ = [
    "AngleScores",
    "GramScan",
    "gram_scan",
    "sample_mean_angle",
    "acute_row",
]

# Bytes of one float64 Gram block; the rows per block follow from it and N.
# The float32 scan uses the same rows, so its block takes half of this.
_BLOCK_BYTES = 8 << 20
# At least this many blocks per pass, so that a small N still walks the
# upper band: one N x N block would compute the whole Gram.
_MIN_BLOCKS = 8
# ``_dot`` multiplies this many rows of the columns at a time, for at most
# ``_DOT_PAIRS`` pairs per sweep over the rows, and holds at most
# ``_DOT_BYTES`` of partial sums.
_DOT_ROWS = 32
_DOT_PAIRS = 4096
_DOT_BYTES = 4 << 20
# The largest n scanned in float32.  Its bound E ~ (n + 2) 2^-24 grows like
# n while the spread of |g| near a point's peak shrinks like 1/sqrt(n), so
# more and more peaks have a second entry within 2E and take a full rescan.
# At N = 2000, float32 was up to 25% faster up to n = 2000, even at
# n = 4000 and up to 14% slower at n = 8000, where it rescanned 7-20% of
# the points; float64's E ~ 2(n + 1) 2^-53 left none to rescan.
_F32_MAX_N = 2048
# Bytes of the transposed column copies the pass takes at a time.
_COPY_BYTES = 1 << 20

_HALF_PI = math.pi / 2.0
_ONE_BITS = int(np.float64(1.0).view(np.int64))
_U64 = 2.0 ** -53
_U16_MAX = 2 ** 16 - 1


def _values(x) -> np.ndarray:
    if isinstance(x, NormalizedMatrix):
        return x.values
    if hasattr(x, "values"):
        return normalize_columns(x).values
    return NormalizedMatrix(np.asarray(x, dtype=float)).values


def _cut(theta: float) -> float:
    """Smallest double t in [0, 1] with np.arccos(t) <= theta.

    With arccos non-increasing, |g| >= t exactly when
    arccos(min(|g|, 1)) <= theta.  The bisection runs over the bit patterns
    of non-negative doubles, which sort like the doubles themselves.
    """
    if np.arccos(0.0) <= theta:
        return 0.0
    lo, hi = 0, _ONE_BITS  # arccos(lo) > theta >= arccos(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if np.arccos(np.int64(mid).view(np.float64)) <= theta:
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def _gram_error(n: int, dtype) -> float:
    """E: the bound on |Gram entry in ``dtype`` - ``_dot``| at dimension n."""
    info = np.finfo(dtype)
    u = float(info.eps) / 2.0
    if n * u >= 0.5:
        raise ValidationError(
            f"no error bound for {info.dtype} sums of {n} products")
    gamma = n * u / (1.0 - n * u)
    gamma64 = n * _U64 / (1.0 - n * _U64)
    s = (1.0 + UNIT_NORM_TOL) ** 2
    e = (s * (2.0 * u + u * u + (1.0 + u) ** 2 * gamma + gamma64)
         + 5.0 * n * (1.0 + gamma) * float(info.smallest_normal))
    return e * (1.0 + 2.0 ** -20)


def _scan_dtype(n: int):
    """The precision of the BLAS pass at dimension n (see ``_F32_MAX_N``)."""
    return np.float32 if n <= _F32_MAX_N else np.float64


def _tree_sum(a: np.ndarray) -> np.ndarray:
    """Sum ``a`` along axis 0 in place, adding the top half of the rows onto
    the bottom half until one row is left: a fixed pairwise tree."""
    k = a.shape[0]
    while k > 1:
        h = k // 2
        a[:h] += a[k - h:k]
        k -= h
    return a[0]


def _dot(v: np.ndarray, i, j) -> np.ndarray:
    """v[:, i] . v[:, j] for broadcast index arrays, as float64.

    Each dot sums the elementwise products of every ``_DOT_ROWS`` rows by
    one fixed pairwise tree, then those partial sums by another: an order
    that depends on n alone and never goes through BLAS.  So its value is
    a function of the two columns alone, and _dot(v, i, j) equals
    _dot(v, j, i) bitwise.  Each sweep takes a few rows for many pairs at
    once, so the gathers read rows that stay in cache.
    """
    i, j = np.broadcast_arrays(np.atleast_1d(i), np.atleast_1d(j))
    n = v.shape[0]
    out = np.empty(i.size)
    blocks = -(-n // _DOT_ROWS)
    step = max(1, min(_DOT_PAIRS, _DOT_BYTES // (8 * blocks)))
    parts = np.empty((blocks, min(i.size, step)))
    for s in range(0, i.size, step):
        ii, jj = i[s:s + step], j[s:s + step]
        for b, k in enumerate(range(0, n, _DOT_ROWS)):
            rows = v[k:k + _DOT_ROWS]
            prod = rows.take(ii, axis=1)
            prod *= rows.take(jj, axis=1)
            parts[b, :ii.size] = _tree_sum(prod)
        out[s:s + ii.size] = _tree_sum(parts[:, :ii.size])
    return out


def _count(hit: np.ndarray, axis: int) -> np.ndarray:
    """The Trues of a 2-d bool array along ``axis``.

    Summed as uint16, numpy's fast path (4-5x faster than
    ``count_nonzero``), over slices too short to overflow.
    """
    u8 = np.moveaxis(hit.view(np.uint8), axis, 0)
    total = np.zeros(u8.shape[1], dtype=np.int64)
    for s in range(0, u8.shape[0], _U16_MAX):
        total += u8[s:s + _U16_MAX].sum(axis=0, dtype=np.uint16)
    return total


def _at_or_below(x, dtype) -> np.ndarray:
    """A ``dtype`` value at or below each exact x, given x to within half
    an ulp as float64: one float64 step down, then rounded down."""
    x = np.nextafter(np.asarray(x, dtype=np.float64), -np.inf)
    y = x.astype(dtype)
    return np.where(y > x, np.nextafter(y, dtype(-np.inf)), y)


def _at_or_above(x, dtype) -> np.ndarray:
    """A ``dtype`` value at or above each exact x (see ``_at_or_below``)."""
    return -_at_or_below(-np.asarray(x, dtype=np.float64), dtype)


class GramScan(NamedTuple):
    """What one ``gram_scan`` pass found; fields it was not asked for are None."""

    q: np.ndarray | None
    na: np.ndarray
    pair: tuple[int, int] | None


def _block_rows(n_pts: int) -> int:
    """Rows per Gram block: at most ``_BLOCK_BYTES`` and 1/``_MIN_BLOCKS`` of N."""
    return max(1, min(-(-n_pts // _MIN_BLOCKS), _BLOCK_BYTES // (8 * n_pts)))


def _checked(x) -> np.ndarray:
    v = _values(x)
    if v.shape[1] < 2:
        raise ValidationError("need at least 2 points")
    return v


class _Peaks:
    """Exact peaks |_dot| per point, and the closest pair, over candidates."""

    def __init__(self, v: np.ndarray):
        self.v = v
        self.peak = np.full(v.shape[1], -1.0)
        self.best = (math.inf, 0, 0)  # (angle, i, j) of the closest pair

    def add(self, i: np.ndarray, j: np.ndarray) -> None:
        """Fold in the pairs (i[k], j[k]), each with i[k] < j[k]."""
        if not i.size:
            return
        n_pts = self.peak.size
        i, j = np.divmod(np.unique(i * n_pts + j), n_pts)  # row-major order
        d = np.abs(_dot(self.v, i, j))
        np.maximum.at(self.peak, i, d)
        np.maximum.at(self.peak, j, d)
        angle = np.arccos(np.minimum(d, 1.0))
        k = int(np.argmin(angle))  # the first pair at the smallest angle
        self.best = min(self.best, (float(angle[k]), int(i[k]), int(j[k])))


def gram_scan(x, zeta: float, *, q: bool = True,
              pair: bool = False) -> GramScan:
    """One pass over the upper band of the Gram matrix.

    Always gives na_i = #{j : phi_ij > zeta}.  ``q`` adds the nearest acute
    angle q_i; ``pair`` adds the pair (i, j), i < j, with the smallest acute
    angle, ties in angle going to the first pair in row-major order.  Each
    is exact against ``_dot`` (see the module docstring).
    """
    zeta = float(zeta)
    if not (0.0 < zeta < _HALF_PI):
        raise ValueError(f"threshold must lie in (0, pi/2), got {zeta!r}")
    cut = _cut(zeta)
    v = _checked(x)
    n_pts = v.shape[1]
    dtype = _scan_dtype(v.shape[0])
    err = _gram_error(v.shape[0], dtype)
    vw = v.astype(dtype, copy=False)
    rows = _block_rows(n_pts)
    # The pass and the rescans after it share one Gram block and one mask.
    gram_buf = np.empty(rows * n_pts, dtype=dtype)
    hit_buf = np.empty(rows * n_pts, dtype=bool)
    # Diagonal and below of a block's leading square: pairs seen elsewhere.
    lower = np.tri(rows, dtype=bool)
    # Keep each point's largest band entry, where it lies, and its
    # next-largest entry: along its row, all in one block, and down its
    # column, spread over the blocks above it.
    row_max = np.empty(n_pts, dtype=dtype)
    row_arg = np.empty(n_pts, dtype=np.int64)
    row_next = np.empty(n_pts, dtype=dtype)
    col_max = np.full(n_pts, -1.0, dtype=dtype)
    col_arg = np.zeros(n_pts, dtype=np.int64)
    col_next = np.full(n_pts, -1.0, dtype=dtype)
    near = np.zeros(n_pts, dtype=np.int64)
    # below lo: surely under t; from hi up: surely at or above it
    lo, hi = _at_or_below(cut - err, dtype), _at_or_above(cut + err, dtype)
    for start in range(0, n_pts, rows):
        stop = min(start + rows, n_pts)
        height, width = stop - start, n_pts - start
        size, shape = height * width, (height, width)
        g = gram_buf[:size].reshape(shape)
        np.matmul(vw[:, start:stop].T, vw[:, start:], out=g)
        np.abs(g, out=g)
        np.copyto(g[:, :height], -1.0, where=lower[:height, :height])
        top = g.max(axis=0)
        cols = slice(start, None)
        # Columns whose largest entry so far lies in this block: take its
        # row, and the block's next-largest, from a transposed copy.
        nxt = np.maximum(col_next[cols], top)
        best = np.flatnonzero(top > col_max[cols])
        step = max(1, _COPY_BYTES // (g.itemsize * height))
        for s in range(0, best.size, step):
            b = best[s:s + step]
            tcols = g.T[b]
            arg = tcols.argmax(axis=1)
            col_arg[start + b] = start + arg
            tcols[np.arange(b.size), arg] = -1.0
            nxt[b] = np.maximum(col_max[start + b], tcols.max(axis=1))
        col_next[cols] = nxt
        np.maximum(col_max[cols], top, out=col_max[cols])
        hit = np.greater_equal(g, lo, out=hit_buf[:size].reshape(shape))
        row_hits = _count(hit, 1)
        near[start:stop] += row_hits
        near[cols] += _count(hit, 0)
        np.greater_equal(g, hi, out=hit)
        open_rows = np.flatnonzero(_count(hit, 1) != row_hits)
        if open_rows.size:  # entries in [lo, hi): counted as near, so far
            sub = g[open_rows]
            r, c = np.nonzero((sub >= lo) & (sub < hi))
            i, j = start + open_rows[r], start + c
            under = np.abs(_dot(v, i, j)) < cut
            np.subtract.at(near, i[under], 1)
            np.subtract.at(near, j[under], 1)
        arg = g.argmax(axis=1)
        at = np.arange(height)
        row_max[start:stop] = g[at, arg]
        row_arg[start:stop] = start + arg
        g[at, arg] = -1.0
        row_next[start:stop] = g.max(axis=1)
    na = n_pts - 1 - near
    if not (q or pair):
        return GramScan(q=None, na=na, pair=None)

    # Candidates: every entry within 2E of the peak it may set.  The entries
    # at a point's exact peak lie within E of it, so within 2E of the peak
    # the pass saw; the same holds for the global peak.
    peak = np.maximum(row_max, col_max).astype(np.float64)
    thr = _at_or_below((peak if q else np.full(n_pts, peak.max())) - 2.0 * err,
                       dtype)
    # a second candidate along a point's row or down its column: rescan the
    # point against every other point
    full = (row_next >= thr) | (col_next >= thr)
    rs = np.flatnonzero((row_max >= thr) & ~full)
    cs = np.flatnonzero((col_max >= thr) & ~full)
    found = _Peaks(v)
    found.add(np.concatenate([rs, col_arg[cs]]), np.concatenate([row_arg[rs], cs]))
    everyone = np.flatnonzero(full)
    for s in range(0, everyone.size, rows):
        part = everyone[s:s + rows]
        shape = (n_pts, part.size)
        g = gram_buf[:shape[0] * shape[1]].reshape(shape)
        np.matmul(vw.T, vw[:, part], out=g)
        np.abs(g, out=g)
        g[part, np.arange(part.size)] = -1.0
        hit = np.greater_equal(g, thr[part], out=hit_buf[:g.size].reshape(shape))
        r, c = np.nonzero(hit)
        p = part[c]
        found.add(np.minimum(r, p), np.maximum(r, p))
    return GramScan(q=np.arccos(np.minimum(found.peak, 1.0)) if q else None,
                    na=na, pair=found.best[1:] if pair else None)


def sample_mean_angle(x) -> float:
    """Mean principal angle (in [0, pi]) over unordered pairs.

    One float64 pass over the upper band with arccos over the strict upper
    triangle; only the adapted threshold reads it.
    """
    v = _checked(x)
    n_pts = v.shape[1]
    rows = _block_rows(n_pts)
    theta_buf = np.empty(rows * n_pts)
    lower = np.tri(rows, dtype=bool)
    total = 0.0
    for start in range(0, n_pts, rows):
        stop = min(start + rows, n_pts)
        height, width = stop - start, n_pts - start
        theta = theta_buf[:height * width].reshape(height, width)
        np.matmul(v[:, start:stop].T, v[:, start:], out=theta)
        np.clip(theta, -1.0, 1.0, out=theta)
        np.arccos(theta, out=theta)
        np.copyto(theta[:, :height], 0.0, where=lower[:height, :height])
        total += float(theta.sum())
    return total / (n_pts * (n_pts - 1) / 2)


def acute_row(x, i: int) -> np.ndarray:
    """Acute angles from point i to every point, from ``_dot``; entry i is zero."""
    v = _values(x)
    if not 0 <= i < v.shape[1]:
        raise ValidationError(f"point index {i} out of range")
    dots = np.abs(_dot(v, i, np.arange(v.shape[1])))
    row = np.arccos(np.minimum(dots, 1.0))
    row[i] = 0.0
    return row


@dataclass(frozen=True, eq=False)
class AngleScores:
    """Per-point angle statistics at a fixed threshold.

    q is the nearest-neighbor acute angle, na counts acute angles strictly
    above ``zeta``, and mean_theta is the sample mean principal angle over
    unordered pairs.  Only the adapted threshold reads the mean, so it is
    computed in that mode alone and is None in the theoretical mode.
    """

    q: np.ndarray
    na: np.ndarray
    mean_theta: float | None
    zeta: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        na = np.asarray(self.na, dtype=np.int64)
        if q.shape != na.shape or q.ndim != 1:
            raise DimensionError("q and na must be 1-d arrays of equal length")
        q.setflags(write=False)
        na.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "na", na)
