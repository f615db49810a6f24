"""Brute-force references the benchmark checks every operation against.

Written from the method's definition only, with no code from ``roma``:
acute angles are arccos|G| of the unit-column Gram matrix with the diagonal
masked, and the threshold's quantile comes from the standard library's
``statistics.NormalDist`` rather than the library's own inverse CDF.
"""

from __future__ import annotations

import hashlib
import math
from statistics import NormalDist

import numpy as np

# Rows per Gram block, so the check never holds an N x N table for large N
# and the workload's peak RSS stays the detector's own.
BLOCK_ROWS = 512

# Singular values below this fraction of the largest count as zero when the
# stage-2 rank check compares clusters; part of the method's definition.
RANK_TOL = 1e-8


def zeta(n: int, num_points: int) -> float:
    """Theoretical threshold pi/2 - C_N / sqrt(n - 2)."""
    tail = 1.0 / (2.0 * num_points * num_points * (num_points - 1))
    c_n = -NormalDist().inv_cdf(tail)
    return math.pi / 2.0 - c_n / math.sqrt(n - 2)


def unit_columns(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values / np.sqrt((values * values).sum(axis=0))


def _acute_block(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """arccos|G| for the given rows against every column; diagonal is +inf."""
    g = v[:, rows].T @ v
    np.abs(g, out=g)
    np.clip(g, 0.0, 1.0, out=g)
    np.arccos(g, out=g)
    g[np.arange(rows.size), rows] = np.inf
    return g


def nearest_angles(v: np.ndarray) -> np.ndarray:
    """q_i = min over j != i of the acute angle between columns i and j."""
    num = v.shape[1]
    q = np.empty(num)
    for start in range(0, num, BLOCK_ROWS):
        rows = np.arange(start, min(start + BLOCK_ROWS, num))
        q[rows] = _acute_block(v, rows).min(axis=1)
    return q


def stage1_outliers(values: np.ndarray) -> np.ndarray:
    """Sorted indices of points whose nearest acute angle exceeds zeta."""
    v = unit_columns(values)
    return np.flatnonzero(nearest_angles(v) > zeta(*v.shape))


def _numerical_rank(cols: np.ndarray) -> int:
    centered = cols - cols.mean(axis=1, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > RANK_TOL * s[0]).sum())


def stage2(values: np.ndarray, rank_disambiguate: bool) -> dict:
    """Two-stage partition, written out step by step from the method.

    Among stage-1 survivors: na counts over survivors only, the inlier head
    is the lower index of the closest pair, the outlier head is the survivor
    farthest from it, and each survivor joins the head whose na is nearer,
    ties to the inlier side.
    """
    v = unit_columns(values)
    threshold = zeta(*v.shape)
    q = nearest_angles(v)
    survivors = np.flatnonzero(q <= threshold)
    vs = v[:, survivors]
    phi = _acute_block(vs, np.arange(survivors.size))
    # The masked diagonal is +inf and always counts, so take it back off.
    na = (phi > threshold).sum(axis=1) - 1
    i, j = divmod(int(np.argmin(phi)), survivors.size)
    head_in = min(i, j)
    row = phi[head_in].copy()
    row[head_in] = -np.inf
    head_out = int(np.argmax(row))
    to_outlier = np.abs(na - na[head_in]) > np.abs(na - na[head_out])
    swapped = False
    if rank_disambiguate and to_outlier.any():
        ratio_in = _numerical_rank(vs[:, ~to_outlier]) / int((~to_outlier).sum())
        ratio_out = _numerical_rank(vs[:, to_outlier]) / int(to_outlier.sum())
        if ratio_out < ratio_in:
            to_outlier = ~to_outlier
            swapped = True
    outliers = np.sort(np.concatenate(
        [np.flatnonzero(q > threshold), survivors[to_outlier]]))
    return {"outliers": outliers.tolist(), "survivors": survivors.tolist(),
            "inlier_head": int(survivors[head_in]),
            "outlier_head": int(survivors[head_out]),
            "labels_swapped": swapped}


def digest(*parts) -> str:
    """Short sha256 over arrays (by dtype, shape and bytes) and strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()[:16]
