"""Pairwise-angle kernels.

The Gram matrix g = V^T V of the unit columns drives everything: principal
angles are arccos of its entries clamped to [-1, 1], acute angles use the
absolute value.  One walk, ``_band``, serves both passes, the detector's
streaming kernel ``gram_scan`` and ``sample_mean_angle``.  It multiplies row
block [s, e) against columns s onward, so it sees each unordered pair once,
in half the Gram flops of a full product.  Each block holds about
``_BLOCK_BYTES``, so a pass's temporary memory is O(block * N), never N x N.

The kernels take a ``NormalizedMatrix`` or an (n, N) array of unit columns
and rescale nothing; other columns, and a ``DataMatrix``, are a
ValidationError.

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
|g| within E of ``t`` (na), and |g| within 2E of the peak the pass saw for
its row or its column point (q: a point's entry at its exact peak lies
within E of it, so within 2E of that peak).  So q and na equal what
``_dot`` over every pair gives, whatever the BLAS build or the block
height.  A pass without the na counts (``count_na=False``) leaves out the
compares with the cut and the open band; its scores count na on first read
(see ``AngleScores``).

The mean principal angle is informational, except in the adapted mode where
it centres the threshold.  ``sample_mean_angle`` computes it in its own
float64 walk, with arccos over the strict upper triangle; its last bits
follow the BLAS's rounding and the block height.
"""

from __future__ import annotations

import math

import numpy as np

from .data import (UNIT_NORM_TOL, DataMatrix, NormalizedMatrix, _check_real, _freeze,
                   _integers, _owned, _setstate)
from .errors import DimensionError, ValidationError

__all__ = [
    "AngleScores",
    "gram_scan",
    "sample_mean_angle",
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
# more and more entries lie within 2E of a peak and go to ``_dot``.  At
# N = 2000, float32 was up to 25% faster up to n = 2000 and even at
# n = 4000, and up to 14% slower at n = 8000 (measured when such peaks
# took a full rescan; with ``_dot`` on those entries alone, float32 and
# float64 timed within noise at n = 2000, 4000 and 10,000).
_F32_MAX_N = 2048

_HALF_PI = math.pi / 2.0
_ONE_BITS = int(np.float64(1.0).view(np.int64))
_U64 = 2.0 ** -53
_U16_MAX = 2 ** 16 - 1


def _cut(theta: float) -> float:
    """Smallest double t in (0, 1] with np.arccos(t) <= theta < pi/2.

    With arccos non-increasing, |g| >= t exactly when
    arccos(min(|g|, 1)) <= theta.  The bisection runs over the bit patterns
    of non-negative doubles, which sort like the doubles themselves.
    """
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


def _rounded(x, dtype, side: int) -> np.ndarray:
    """A ``dtype`` value at or below (``side`` -1) or at or above (+1) each
    exact x, given x in float64 to within 2^-53.

    It is x + side * eps in float64, eps = ``np.finfo(dtype).eps``, cast
    once to ``dtype``.  Every x here is a cut in [0, 1] or a peak in
    [-1, 1 + E], moved by at most 2E, and E < 2^-12 (float32 up to n = 2048,
    float64 up to n = 2^39): so |x| < 2.  There a float64 rounding moves a
    value by at most 2^-53 and the cast by at most half an ulp of ``dtype``,
    2^-24 for float32 and nothing for float64.  Between them, the error in
    the given x, the rounding of the shift and the cast move the result
    back towards x by at most 2^-53 + 2^-53 + 2^-24 < 2^-23 = eps in
    float32, and by 2^-52 = eps in float64: never past the exact x.
    """
    return (np.asarray(x, dtype=np.float64)
            + side * float(np.finfo(dtype).eps)).astype(dtype)


class AngleScores:
    """Per-point angle statistics at a fixed threshold zeta: ``q`` is the
    nearest-neighbor acute angle, ``na`` counts acute angles strictly above
    zeta.  Both are read-only 1-d arrays of one entry per point; a count
    that is not an integer (a float, a bool, a string) is refused, not cast.

    Scores from a pass without counts (``gram_scan(..., count_na=False)``)
    hold that pass's unit columns and zeta in place of ``na``.  The first
    read of ``na`` counts it by one counted ``gram_scan`` over them, keeps
    the counts and drops the columns.  So until then the scores hold an
    n x N float64 array, and they pickle as data, columns or counts.
    """

    __setstate__ = _setstate

    def __init__(self, q, na):
        q, na = _owned(q, np.float64), _owned(_integers(na, "na"), np.int64)
        if q.shape != na.shape or q.ndim != 1:
            raise DimensionError("q and na must be 1-d arrays of equal length")
        self._q, self._na, self._pending = q, na, None

    @classmethod
    def _uncounted(cls, q: np.ndarray, v: np.ndarray, zeta: float) -> AngleScores:
        """Scores whose na is counted from unit columns ``v`` at ``zeta``
        on first read."""
        scores = cls.__new__(cls)
        scores._q, scores._na, scores._pending = q, None, (v, zeta)
        return scores

    @property
    def q(self) -> np.ndarray:
        return self._q

    @property
    def na(self) -> np.ndarray:
        if self._na is None:
            v, zeta = self._pending
            self._na, self._pending = gram_scan(v, zeta).na, None
        return self._na


def _block_rows(n_pts: int) -> int:
    """Rows per Gram block: at most ``_BLOCK_BYTES`` and 1/``_MIN_BLOCKS`` of N."""
    return max(1, min(-(-n_pts // _MIN_BLOCKS), _BLOCK_BYTES // (8 * n_pts)))


def _checked(x) -> np.ndarray:
    """The unit columns of ``x``, at least 2 of them: the gate of every kernel."""
    if isinstance(x, DataMatrix):
        raise ValidationError(
            "the kernels take unit columns: pass normalize_columns(m), "
            "not a DataMatrix")
    v = (x if isinstance(x, NormalizedMatrix) else NormalizedMatrix(x)).values
    if v.shape[1] < 2:
        raise ValidationError("need at least 2 points")
    return v


def _band(v: np.ndarray):
    """The one walk over the upper band of v^T v, in ``v``'s dtype.

    Yields (start, g, seen) per block of ``_block_rows`` rows: g is
    v[:, start:e].T @ v[:, start:] in one buffer that the next block
    overwrites, and ``seen`` masks the diagonal and below of g's leading
    square: a point with itself, or a pair that g holds above the diagonal.
    """
    n_pts = v.shape[1]
    rows = _block_rows(n_pts)
    buf = np.empty(rows * n_pts, dtype=v.dtype)
    lower = np.tri(rows, dtype=bool)
    for start in range(0, n_pts, rows):
        height, width = min(rows, n_pts - start), n_pts - start
        g = buf[:height * width].reshape(height, width)
        np.matmul(v[:, start:start + height].T, v[:, start:], out=g)
        yield start, g, lower[:height, :height]


def _fold(peak, v, held, thr) -> None:
    """Fold |_dot| of each held candidate that reaches ``thr`` of one of its
    points into the exact ``peak`` of both its points.

    The held arrays are cut into runs of at most ``_DOT_PAIRS`` pairs, and
    each run, concatenated on its own, takes one ``_dot`` sweep: not one
    sweep per held array, and never a copy of them all.
    """
    def sweep(run):
        pairs, e = (np.concatenate(parts) for parts in zip(*run))
        i, j = np.divmod(pairs, peak.size)
        keep = (e >= thr[i]) | (e >= thr[j])
        i, j = i[keep], j[keep]
        d = np.abs(_dot(v, i, j))
        np.maximum.at(peak, i, d)
        np.maximum.at(peak, j, d)

    run, size = [], 0
    for pairs, entries in held:
        s = 0
        while s < pairs.size:
            take = min(_DOT_PAIRS - size, pairs.size - s)
            run.append((pairs[s:s + take], entries[s:s + take]))
            s += take
            size += take
            if size == _DOT_PAIRS:
                sweep(run)
                run, size = [], 0
    if run:
        sweep(run)
    held.clear()


def gram_scan(x, zeta: float, *, count_na: bool = True) -> AngleScores:
    """One pass over the upper band of the Gram matrix.

    Gives the nearest acute angle q_i and na_i = #{j : phi_ij > zeta}, each
    exact against ``_dot`` (see the module docstring).  With ``count_na``
    False the pass leaves out the counting steps, and the scores count na
    on first read by a counted pass (see ``AngleScores``).
    """
    zeta = _check_real("zeta", zeta)
    if not (0.0 < zeta < _HALF_PI):
        raise ValidationError(f"threshold must lie in (0, pi/2), got {zeta!r}")
    if not isinstance(count_na, bool):  # "False" would be truthy
        raise ValidationError(f"count_na must be a bool, got {count_na!r}")
    v = _checked(x)
    n_pts = v.shape[1]
    dtype = _scan_dtype(v.shape[0])
    err = _gram_error(v.shape[0], dtype)
    rows = _block_rows(n_pts)
    hit_buf = np.empty((2, rows * n_pts), dtype=bool)
    if count_na:
        cut = _cut(zeta)
        near = np.zeros(n_pts, dtype=np.int64)
        # below lo: surely under t; from hi up: surely at or above it
        lo, hi = _rounded(cut - err, dtype, -1), _rounded(cut + err, dtype, 1)

    # Candidates: the entries at or above 2E below the running peak (the
    # largest entry so far) of their row or their column point.  A point's
    # entry at its exact peak lies within E of it, so within 2E of the
    # pass's final peak, which is at least every running one: the
    # candidates hold every exact peak.  They are held as (flat pair index,
    # entry), a quarter of a block's entries at a time, and ``_fold`` takes
    # them to ``exact``.
    peak = np.full(n_pts, -1.0, dtype=dtype)
    exact = np.full(n_pts, -1.0)

    def peak_floor(p):
        return _rounded(p.astype(np.float64) - 2.0 * err, dtype, -1)

    cap = max(1, rows * n_pts // 4)
    held, n_held = [], 0
    for start, g, seen in _band(v.astype(dtype, copy=False)):
        height, width = g.shape
        np.abs(g, out=g)
        np.copyto(g[:, :height], -1.0, where=seen)
        hit, other = (b[:g.size].reshape(g.shape) for b in hit_buf)
        if count_na:
            np.greater_equal(g, lo, out=hit)
            row_hits = _count(hit, 1)
            near[start:start + height] += row_hits
            near[start:] += _count(hit, 0)
            np.greater_equal(g, hi, out=hit)
            open_rows = np.flatnonzero(_count(hit, 1) != row_hits)
            if open_rows.size:  # entries in [lo, hi): counted as near, so far
                sub = g[open_rows]
                r, c = np.divmod(np.flatnonzero((sub >= lo) & (sub < hi)), width)
                i, j = start + open_rows[r], start + c
                under = np.abs(_dot(v, i, j)) < cut
                np.subtract.at(near, i[under], 1)
                np.subtract.at(near, j[under], 1)
        # The peaks of this block's points are final from here on: the
        # blocks above hold the rest of their columns.
        np.maximum(peak[start:], g.max(axis=0), out=peak[start:])
        mine = peak[start:start + height]
        np.maximum(mine, g.max(axis=1), out=mine)
        thr = peak_floor(peak[start:])
        np.greater_equal(g, thr[:height, None], out=hit)
        np.greater_equal(g, thr, out=other)
        np.logical_or(hit, other, out=hit)
        # a dense block gives up its hits a few rows at a time
        step = height if np.count_nonzero(hit) <= cap else max(1, cap // width)
        for s in range(0, height, step):
            i, j = np.divmod(np.flatnonzero(hit[s:s + step]), width)
            entries = g[s + i, j]
            i += start + s
            j += start
            i *= n_pts
            i += j  # the flat pair index i * N + j, in place
            held.append((i, entries))
            n_held += i.size
            if n_held > cap:
                _fold(exact, v, held, peak_floor(peak))
                n_held = 0
    _fold(exact, v, held, peak_floor(peak))
    q = _freeze(np.arccos(np.minimum(exact, 1.0)))
    if count_na:
        return AngleScores(q, _freeze(n_pts - 1 - near))
    return AngleScores._uncounted(q, v, zeta)


def sample_mean_angle(x) -> float:
    """Mean principal angle (in [0, pi]) over unordered pairs.

    One float64 pass over the upper band with arccos over the strict upper
    triangle; only the adapted threshold reads it.
    """
    v = _checked(x)
    total = 0.0
    for _, theta, seen in _band(v):
        np.clip(theta, -1.0, 1.0, out=theta)
        np.arccos(theta, out=theta)
        np.copyto(theta[:, :theta.shape[0]], 0.0, where=seen)
        total += float(theta.sum())
    return total / math.comb(v.shape[1], 2)

