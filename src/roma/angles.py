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
bitwise against the arccos form wherever ``np.arccos`` is monotone.  The
mean principal angle takes arccos over the strict upper triangle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import NormalizedMatrix, normalize_columns
from .errors import DimensionError, ValidationError

__all__ = [
    "AngleScores",
    "GramScan",
    "gram_scan",
    "acute_row",
]

# Bytes of one Gram block; the rows per block follow from it and N.  The
# kernel holds two such blocks (the Gram and its arccos) at a time.
_BLOCK_BYTES = 8 << 20
# At least this many blocks per pass, so that a small N still walks the
# upper band: one N x N block would compute the whole Gram and its arccos.
_MIN_BLOCKS = 8

_HALF_PI = math.pi / 2.0
_ONE_BITS = int(np.float64(1.0).view(np.int64))


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


class GramScan(NamedTuple):
    """What one ``gram_scan`` pass found; fields it was not asked for are None."""

    q: np.ndarray | None
    mean_theta: float | None
    na: np.ndarray | None
    pair: tuple[int, int] | None


def _block_rows(n_pts: int) -> int:
    """Rows per Gram block: at most ``_BLOCK_BYTES`` and 1/``_MIN_BLOCKS`` of N."""
    return max(1, min(-(-n_pts // _MIN_BLOCKS), _BLOCK_BYTES // (8 * n_pts)))


def gram_scan(x, zeta: float | None = None, *, stats: bool = True,
              closest: bool = False) -> GramScan:
    """One streaming pass over the upper band of the Gram matrix.

    ``stats`` gives the nearest acute angle q_i and the mean principal
    angle over unordered pairs; ``zeta`` gives na_i = #{j : phi_ij > zeta};
    ``closest`` gives the pair (i, j), i < j, with the smallest acute angle,
    ties going to the first pair in row-major order.
    """
    if zeta is not None:
        zeta = float(zeta)
        if not (0.0 < zeta < _HALF_PI):
            raise ValueError(f"threshold must lie in (0, pi/2), got {zeta!r}")
        cut = _cut(zeta)
    v = _values(x)
    n_pts = v.shape[1]
    if n_pts < 2:
        raise ValidationError("need at least 2 points")
    rows = _block_rows(n_pts)
    gram_buf = np.empty(rows * n_pts)
    theta_buf = np.empty(rows * n_pts) if stats else None
    hit_buf = np.empty(rows * n_pts, dtype=bool) if zeta is not None else None
    # Diagonal and below of a block's leading square: pairs seen elsewhere.
    lower = np.tri(rows, dtype=bool)
    peak = np.full(n_pts, -1.0)
    near = np.zeros(n_pts, dtype=np.int64)
    total = 0.0
    best, pair = np.inf, None
    for start in range(0, n_pts, rows):
        stop = min(start + rows, n_pts)
        height, width = stop - start, n_pts - start
        size, shape = height * width, (height, width)
        g = gram_buf[:size].reshape(shape)
        np.matmul(v[:, start:stop].T, v[:, start:], out=g)
        mask = lower[:height, :height]
        if stats:
            theta = theta_buf[:size].reshape(shape)
            np.clip(g, -1.0, 1.0, out=theta)
            np.arccos(theta, out=theta)
            np.copyto(theta[:, :height], 0.0, where=mask)
            total += float(theta.sum())
        np.abs(g, out=g)
        np.copyto(g[:, :height], -1.0, where=mask)
        if stats:
            np.maximum(peak[start:stop], g.max(axis=1), out=peak[start:stop])
            np.maximum(peak[start:], g.max(axis=0), out=peak[start:])
        if zeta is not None:
            hit = np.greater_equal(g, cut, out=hit_buf[:size].reshape(shape))
            near[start:stop] += np.count_nonzero(hit, axis=1)
            near[start:] += np.count_nonzero(hit, axis=0)
        if closest:
            angle = np.arccos(min(g.max(), 1.0))
            if angle < best:  # a tie in a later block is later in row-major order
                best = angle
                # the first entry in row-major order at this angle, decided
                # in angle space: ties in arccos need not tie in |g|
                flat = int(np.argmax(g >= _cut(angle)))
                pair = (start + flat // width, start + flat % width)
    q = np.arccos(np.minimum(peak, 1.0)) if stats else None
    mean_theta = total / (n_pts * (n_pts - 1) / 2) if stats else None
    na = n_pts - 1 - near if zeta is not None else None
    return GramScan(q=q, mean_theta=mean_theta, na=na, pair=pair)


def acute_row(x, i: int) -> np.ndarray:
    """Acute angles from point i to every point; entry i is zero."""
    v = _values(x)
    if not 0 <= i < v.shape[1]:
        raise ValidationError(f"point index {i} out of range")
    dots = np.abs(v[:, i] @ v)
    np.clip(dots, 0.0, 1.0, out=dots)
    row = np.arccos(dots)
    row[i] = 0.0
    return row


@dataclass(frozen=True, eq=False)
class AngleScores:
    """Per-point angle statistics at a fixed threshold.

    q is the nearest-neighbor acute angle, na counts acute angles strictly
    above ``zeta``, and mean_theta is the sample mean principal angle over
    unordered pairs (informational; it feeds the adapted threshold).
    """

    q: np.ndarray
    na: np.ndarray
    mean_theta: float
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

