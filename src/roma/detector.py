"""Parameter-free angle-based outlier identification.

Stage 1 (``roma``) normalizes the points, computes each point's nearest-
neighbor acute angle q_i, and flags points with q_i above the threshold as
outliers: a point whose closest companion is still nearly orthogonal cannot
share a low-dimensional subspace with anything.

Stage 2 (``roma_n``) handles outliers that cluster tightly enough to pass
stage 1.  Among stage-1 survivors it counts, for each point, how many
survivor angles exceed the threshold (na), picks the tightest pair's lower
index as the inlier head i* and the survivor farthest from it as the outlier
head o*, then assigns every survivor to whichever head has the closer na
count.  Ties go to the inlier side.  Stage-1 outliers stay outliers.

Both stages share stage 1's Gram pass, which ``roma_n`` makes with the na
counts (``roma`` alone leaves them to be counted on first read).  A
stage-1 outlier has every angle above the threshold, so the survivors' na
are stage 1's less the number of outliers.  The closest pair's angle,
min q, is at most the threshold, so it is the closest surviving pair, and
its lower index is the first point with q at the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import AngleScores, _dot, gram_scan, sample_mean_angle
from .data import (NormalizedMatrix, Partition, _freeze, _integers, _owned,
                   _setstate, normalize_columns)
from .errors import DegenerateRegimeError, ValidationError
from .subspace import numerical_rank
from .threshold import MODES, ThresholdSpec, compute_zeta, zeta_with_center

__all__ = ["RomaResult", "RomaNResult", "roma", "roma_n"]


@dataclass(frozen=True, eq=False)
class RomaResult:
    partition: Partition
    scores: AngleScores
    threshold: ThresholdSpec


@dataclass(frozen=True, eq=False)
class RomaNResult:
    __setstate__ = _setstate

    partition: Partition
    stage1: RomaResult
    na_survivors: np.ndarray
    inlier_head: int
    outlier_head: int
    labels_swapped: bool

    def __post_init__(self):
        na = _integers(self.na_survivors, "na_survivors")
        object.__setattr__(self, "na_survivors", _owned(na, np.int64))


def _normalized(m) -> NormalizedMatrix:
    x = m if isinstance(m, NormalizedMatrix) else normalize_columns(m)
    if x.n < 3:
        raise ValidationError(f"ambient dimension must be at least 3, got {x.n}")
    if x.num_points < 2:
        raise ValidationError(f"need at least 2 points, got {x.num_points}")
    return x


def roma(m, mode: str = "theoretical") -> RomaResult:
    """Stage-1 detection: outliers are points with q_i > zeta.

    Parameters
    ----------
    m : DataMatrix, NormalizedMatrix, or array of column points
    mode : "theoretical" (center pi/2) or "adapted" (center at the sample
        mean principal angle)

    Returns a RomaResult whose scores carry q and na at the threshold
    actually used; in the adapted mode ``threshold.center`` is the sample
    mean principal angle.  The theoretical mode makes one Gram pass for q,
    in float32 up to n = 2048; the adapted mode first makes a float64 pass
    for the mean.  Stage 1 reads q alone, so na is counted on first read of
    ``scores.na``, by one more Gram pass over the same unit columns and
    zeta, and then kept (see ``AngleScores``).

    The decisions are a pure function of the input values: q, na and so the
    partition equal what the fixed-order float64 dot ``angles._dot`` over
    every pair gives, whatever the BLAS or the block height.  The pass
    recomputes with ``_dot`` every entry within E of the cut or within 2E
    of a point's peak, E ~ (n + 2) 2^-24 in float32 (see ``roma.angles``).
    In the adapted mode zeta itself comes from the float64 mean, whose last
    bits follow the BLAS.

    Memory: the matrix, plus O(n·N) copies (the unit-norm columns and, in
    float32, their cast), plus the block buffers of the Gram pass, about
    ``angles._BLOCK_BYTES`` each.  Nothing is N x N.  The result keeps the
    unit-norm columns (n x N float64) until ``scores.na`` is first read.
    """
    return _stage1(m, mode, count_na=False)


def _stage1(m, mode: str, *, count_na: bool) -> RomaResult:
    """``roma`` with ``gram_scan``'s ``count_na``: True counts na in the
    pass, for a caller that reads it."""
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    x = _normalized(m)
    if mode == "adapted":
        spec = zeta_with_center(x.n, x.num_points, sample_mean_angle(x), mode)
    else:
        spec = compute_zeta(x.n, x.num_points)
    scores = gram_scan(x, spec.zeta, count_na=count_na)
    outliers = np.flatnonzero(scores.q > spec.zeta)
    inliers = np.flatnonzero(scores.q <= spec.zeta)
    partition = Partition(inliers=inliers, outliers=outliers,
                          num_points=x.num_points)
    return RomaResult(partition=partition, scores=scores, threshold=spec)


def _numerical_rank(cols: np.ndarray) -> int:
    centered = cols - cols.mean(axis=1, keepdims=True)
    # centered.T = Q R: R has the singular values of centered.
    return numerical_rank(np.linalg.svd(np.linalg.qr(centered.T, mode="r"),
                                        compute_uv=False))


def roma_n(m, mode: str = "theoretical", *,
           rank_disambiguate: bool = False) -> RomaNResult:
    """Two-stage detection that also separates clustered outliers.

    ``rank_disambiguate`` enables an optional check that swaps the two
    stage-2 clusters when the nominal outlier cluster has the lower
    rank-to-size ratio (a tight subspace cluster looks more inlier-like than
    a full-rank one).  Off by default.

    Stage 2 reads na and the closest pair off stage 1's scores (see the
    module docstring) and adds one ``_dot`` row for the outlier head.

    The inlier head is the lower column index of the closest surviving
    pair, so it follows column order: permuting the columns can make the
    pair's other point the head, and the na distances are then measured
    from that point.
    """
    if not isinstance(rank_disambiguate, bool):  # "False" would be truthy
        raise ValidationError(
            f"rank_disambiguate must be a bool, got {rank_disambiguate!r}")
    x = _normalized(m)
    stage1 = _stage1(x, mode, count_na=True)
    survivors = stage1.partition.inliers
    if survivors.size < 2:
        raise DegenerateRegimeError(
            f"stage 1 kept {survivors.size} point(s); stage 2 needs at least 2")
    na_s = _freeze(stage1.scores.na[survivors] - stage1.partition.outliers.size)
    # Every point of a pair tied at the smallest angle has q = min q, so the
    # first such point is the lower index of the row-major-first tied pair.
    head = int(np.argmin(stage1.scores.q))
    i_local = int(np.searchsorted(survivors, head))
    # Outlier head: survivor farthest from i*, by ``_dot``.  phi[i*, i*] = 0
    # can only attain the max when every angle is zero, and the heads must
    # differ, so i* is excluded before the argmax.
    row = np.arccos(np.minimum(np.abs(_dot(x.values, head, survivors)), 1.0))
    row[i_local] = -np.inf
    o_local = int(np.argmax(row))
    dist_in = np.abs(na_s - na_s[i_local])
    dist_out = np.abs(na_s - na_s[o_local])
    to_outlier = dist_in > dist_out  # ties stay on the inlier side
    swapped = False
    if rank_disambiguate and to_outlier.any():
        in_cols = x.values[:, survivors[~to_outlier]]
        out_cols = x.values[:, survivors[to_outlier]]
        ratio_in = _numerical_rank(in_cols) / in_cols.shape[1]
        ratio_out = _numerical_rank(out_cols) / out_cols.shape[1]
        if ratio_out < ratio_in:
            to_outlier = ~to_outlier
            swapped = True
    inliers = survivors[~to_outlier]
    outliers = np.concatenate([stage1.partition.outliers, survivors[to_outlier]])
    partition = Partition(inliers=inliers, outliers=outliers,
                          num_points=x.num_points)
    return RomaNResult(partition=partition, stage1=stage1, na_survivors=na_s,
                       inlier_head=head,
                       outlier_head=int(survivors[o_local]),
                       labels_swapped=swapped)
