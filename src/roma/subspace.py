"""Subspace recovery from estimated inliers, and the recovery-error metric."""

from __future__ import annotations

import math

import numpy as np

from .data import SubspaceBasis, _check_int, _freeze, _indices, _points
from .errors import DimensionError, ValidationError

__all__ = ["recover_subspace", "numerical_rank", "lre", "LRE_FLOOR"]

# log10 recovery errors are floored here; residuals at the level of double
# rounding are indistinguishable from zero.
LRE_FLOOR = -16.0

# Singular values at or below this fraction of the largest count as zero.
RANK_TOL = 1e-8


def numerical_rank(s: np.ndarray) -> int:
    """How many singular values ``s``, largest first, exceed RANK_TOL times
    the largest; 0 when they are all zero."""
    return int((s > RANK_TOL * s[0]).sum())


def recover_subspace(m, inliers, rank="auto") -> SubspaceBasis:
    """Leading left singular vectors of the selected columns.

    U and s come from the SVD of R^T, where R is the triangular factor of
    a QR of the tall transpose of the k selected columns: cols.T = Q R
    gives cols = R^T Q^T, the same U and s from an n x min(n, k) problem.
    The basis is defined up to the sign of each column; its span is what
    recovery fixes.

    Parameters
    ----------
    m : DataMatrix, NormalizedMatrix, or raw column points, which go
        through ``DataMatrix`` and so its checks
    inliers : integer indices of the columns to use (nonempty); a boolean
        mask or a float is refused, not cast
    rank : "auto" keeps as many leading vectors as ``numerical_rank``
        counts; an integer forces that many.
    """
    values = _points(m)
    inliers = _indices(inliers, "inlier", values.shape[1])
    if inliers.size == 0:
        raise ValidationError("cannot recover a subspace from zero points")
    cols = values[:, inliers]
    u, s, _ = np.linalg.svd(np.linalg.qr(cols.T, mode="r").T, full_matrices=False)
    if rank == "auto":
        r = numerical_rank(s)  # no column of a DataMatrix is zero, so s[0] > 0
    else:
        r = _check_int("rank", rank)
        if not 1 <= r <= min(cols.shape):
            raise ValidationError(f"rank must lie in [1, {min(cols.shape)}], got {r}")
    return SubspaceBasis(_freeze(np.ascontiguousarray(u[:, :r])))


def lre(true_basis, est_basis) -> float:
    """log10 relative residual of the true basis after projection.

    Computes log10(||U - P U||_F / ||U||_F) where P projects onto the
    estimated subspace, floored at LRE_FLOOR.  Values below -5 indicate the
    planted subspace was recovered; 0 means the estimate is orthogonal to it.
    Both bases must have the same ambient dimension; a raw array goes
    through ``SubspaceBasis`` and so its checks.
    """
    u, v = ((b if isinstance(b, SubspaceBasis) else SubspaceBasis(b)).values
            for b in (true_basis, est_basis))
    if u.shape[0] != v.shape[0]:
        raise DimensionError(
            f"ambient dimensions differ: {u.shape[0]} vs {v.shape[0]}")
    resid = u - v @ (v.T @ u)
    rel = np.linalg.norm(resid) / np.linalg.norm(u)
    if rel <= 10.0 ** LRE_FLOOR:
        return LRE_FLOOR
    return max(math.log10(rel), LRE_FLOOR)
