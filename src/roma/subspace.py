"""Subspace recovery from estimated inliers, and the recovery-error metric."""

from __future__ import annotations

import math

import numpy as np

from .data import SubspaceBasis
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
    """Thin SVD basis of the selected columns.

    Parameters
    ----------
    m : DataMatrix or array of column points
    inliers : indices of the columns to use (nonempty)
    rank : "auto" keeps as many leading vectors as ``numerical_rank``
        counts; an integer forces that many.
    """
    values = m.values if hasattr(m, "values") else np.asarray(m, dtype=float)
    inliers = np.asarray(inliers, dtype=np.int64)
    if inliers.size == 0:
        raise ValidationError("cannot recover a subspace from zero points")
    if inliers.min() < 0 or inliers.max() >= values.shape[1]:
        raise ValidationError("inlier indices out of range")
    cols = values[:, inliers]
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if rank == "auto":
        if s[0] == 0.0:
            raise ValidationError("selected columns are all zero")
        r = numerical_rank(s)
    else:
        r = int(rank)
        if not 1 <= r <= min(cols.shape):
            raise ValidationError(
                f"rank must lie in [1, {min(cols.shape)}], got {r}")
    return SubspaceBasis(u[:, :r])


def lre(true_basis, est_basis) -> float:
    """log10 relative residual of the true basis after projection.

    Computes log10(||U - P U||_F / ||U||_F) where P projects onto the
    estimated subspace, floored at LRE_FLOOR.  Values below -5 indicate the
    planted subspace was recovered; 0 means the estimate is orthogonal to it.
    Both bases must be orthonormal with matching ambient dimension.
    """
    u = true_basis.values if hasattr(true_basis, "values") else np.asarray(true_basis, dtype=float)
    v = est_basis.values if hasattr(est_basis, "values") else np.asarray(est_basis, dtype=float)
    for name, b in (("true", u), ("estimated", v)):
        if b.ndim != 2:
            raise DimensionError(f"{name} basis must be 2-d")
        if not np.allclose(b.T @ b, np.eye(b.shape[1]), atol=1e-8, rtol=0.0):
            raise ValidationError(f"{name} basis is not orthonormal")
    if u.shape[0] != v.shape[0]:
        raise DimensionError(
            f"ambient dimensions differ: {u.shape[0]} vs {v.shape[0]}")
    resid = u - v @ (v.T @ u)
    rel = np.linalg.norm(resid) / np.linalg.norm(u)
    if rel <= 10.0 ** LRE_FLOOR:
        return LRE_FLOOR
    return max(math.log10(rel), LRE_FLOOR)
