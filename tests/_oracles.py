"""Independent reference implementations the tests check against.

Deliberately slow and simple: bisection instead of rational approximations,
quadrature instead of closed forms, brute-force loops instead of BLAS.
"""

import math

import numpy as np

from roma.angles import _dot
from roma.data import Label
from roma.synth import (BoundedConeOutliers, ClusteredInliers, ClusteredOutliers,
                        ColumnStreams, MixedOutliers, UnstructuredOutliers, _unit,
                        random_subspace)


def erfc_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bisect_quantile(p: float, lo: float = -40.0, hi: float = 40.0) -> float:
    """Invert erfc_cdf by pure bisection down to the last float."""
    if not 0.0 < p < 1.0:
        raise ValueError(p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if erfc_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def quad_angle_mass(dim: int, lo: float, hi: float) -> float:
    """Integrate the inter-direction angle density over [lo, hi].

    Splits at pi/2 and substitutes u = theta - pi/2 so the quadrature sees
    the peak at an endpoint; scipy handles the rest.
    """
    from scipy.integrate import quad

    log_const = math.lgamma(dim / 2.0) - math.lgamma((dim - 1) / 2.0)
    const = math.exp(log_const) / math.sqrt(math.pi)
    half = math.pi / 2.0

    def f(u):  # density at half + u
        return const * math.cos(abs(u)) ** (dim - 2)

    total = 0.0
    for a, b in ((lo - half, min(hi, half) - half), (max(lo, half) - half, hi - half)):
        if b > a:
            val, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
            total += val
    return total


def brute_acute_angles(cols: np.ndarray) -> np.ndarray:
    """All pairwise acute angles via explicit loops, no Gram tricks.

    The angle is numpy's arccos, the one the method is defined with: libm's
    acos differs from it in the last ulp on some inputs, which decides the
    count at a pair planted exactly on the threshold.
    """
    cols = np.asarray(cols, dtype=float)
    n_pts = cols.shape[1]
    out = np.zeros((n_pts, n_pts))
    for i in range(n_pts):
        for j in range(n_pts):
            if i == j:
                continue
            xi = cols[:, i] / np.linalg.norm(cols[:, i])
            xj = cols[:, j] / np.linalg.norm(cols[:, j])
            c = abs(float(xi @ xj))
            out[i, j] = np.arccos(min(c, 1.0))
    return out


def brute_min_scores(cols: np.ndarray) -> np.ndarray:
    table = brute_acute_angles(cols)
    np.fill_diagonal(table, np.inf)
    return table.min(axis=1)


def brute_na(cols: np.ndarray, zeta: float) -> np.ndarray:
    table = brute_acute_angles(cols)
    np.fill_diagonal(table, -np.inf)
    return (table > zeta).sum(axis=1)


def brute_heads(cols: np.ndarray) -> tuple[int, int, int]:
    """Closest pair (i, j), first in row-major order, and the point farthest
    from i: the stage-2 inlier head is i and the outlier head the third."""
    table = brute_acute_angles(cols)
    n_pts = table.shape[0]
    masked = table.copy()
    np.fill_diagonal(masked, np.inf)
    i, j = divmod(int(np.argmin(masked)), n_pts)
    row = table[i].copy()
    row[i] = -np.inf
    return i, j, int(np.argmax(row))


def dot_acute_angles(cols: np.ndarray) -> np.ndarray:
    """arccos(min(|_dot|, 1)) over every pair of the columns as given.

    ``_dot`` is the fixed-order float64 dot that defines the kernel's
    decisions; the columns are not renormalized.  The diagonal is zero.
    """
    n_pts = cols.shape[1]
    i, j = np.triu_indices(n_pts, 1)
    out = np.zeros((n_pts, n_pts))
    out[i, j] = out[j, i] = np.arccos(np.minimum(np.abs(_dot(cols, i, j)), 1.0))
    return out


def dot_decisions(cols: np.ndarray, zeta: float):
    """q, na and the heads (i, j, o) of ``brute_heads``, all by brute force
    from ``dot_acute_angles``."""
    table = dot_acute_angles(cols)
    n_pts = table.shape[0]
    np.fill_diagonal(table, np.inf)
    q = table.min(axis=1)
    i, j = divmod(int(np.argmin(table)), n_pts)  # first in row-major order
    np.fill_diagonal(table, -np.inf)
    na = (table > zeta).sum(axis=1)
    return q, na, (i, j, int(np.argmax(table[i])))


def brute_mean_principal(cols: np.ndarray) -> float:
    """Mean principal angle (in [0, pi]) over unordered pairs."""
    cols = np.asarray(cols, dtype=float)
    n_pts = cols.shape[1]
    vals = []
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            xi = cols[:, i] / np.linalg.norm(cols[:, i])
            xj = cols[:, j] / np.linalg.norm(cols[:, j])
            c = float(xi @ xj)
            vals.append(math.acos(max(-1.0, min(c, 1.0))))
    return float(np.mean(vals))



def column_inliers(model, basis, count, streams, index_offset=0):
    """Inlier columns drawn one column at a time (see ``column_dataset``)."""
    r = basis.shape[1]

    def in_span(index):
        return _unit(basis @ streams.inlier(index).standard_normal(r))

    cols = np.empty((basis.shape[0], count))
    if isinstance(model, ClusteredInliers):
        center = _unit(basis @ streams.inlier_center(index_offset).standard_normal(r))
        for i in range(count):
            cols[:, i] = _unit(center + model.nu * in_span(index_offset + i))
    else:
        for i in range(count):
            cols[:, i] = in_span(index_offset + i)
    return cols


def column_outliers(model, n, count, streams, basis=None, index_offset=0):
    """Outlier columns drawn one column at a time (see ``column_dataset``)."""
    def draw(index, size=n):
        return streams.outlier(index_offset + index).standard_normal(size)

    cols = np.empty((n, count))
    if isinstance(model, ClusteredOutliers):
        center = _unit(streams.outlier_center(index_offset).standard_normal(n))
        scale = 1.0 if model.literal_scale else model.mu
        for i in range(count):
            raw = center + scale * _unit(draw(i))
            if model.literal_scale:
                raw = raw / math.sqrt(1.0 + model.mu * model.mu)
            cols[:, i] = _unit(raw)
    elif isinstance(model, BoundedConeOutliers):
        sub = basis if model.within_subspace else None
        cos_min = math.cos(model.theta_max)
        accepted = 0
        for k in range(1000 * count):
            g = draw(k, n if sub is None else sub.shape[1])
            x = _unit(g if sub is None else sub @ g)
            if accepted == 0 or np.all(cols[:, :accepted].T @ x >= cos_min):
                cols[:, accepted] = x
                accepted += 1
                if accepted == count:
                    break
        else:
            raise AssertionError("cone budget ran out")
    elif isinstance(model, MixedOutliers):
        # k clustered outliers, then the rest unstructured at the next
        # substreams, with k drawn from the experiment-level stream aux(0)
        k = int(streams.aux(0).integers(0, count + 1))
        cols[:, :k] = column_outliers(ClusteredOutliers(model.mu), n, k, streams,
                                      index_offset=index_offset)
        cols[:, k:] = column_outliers(UnstructuredOutliers(), n, count - k, streams,
                                      index_offset=index_offset + k)
    else:
        for i in range(count):
            cols[:, i] = _unit(draw(i))
    return cols


def column_dataset(spec):
    """``make_dataset`` written one column at a time.

    Every column builds its own generator with the public
    ``ColumnStreams.stream`` and is normalized by ``_unit``: the per-column
    definition the batched samplers must reproduce bit for bit.  Returns
    (values, labels, true_basis, sigma, point_snr).
    """
    streams = ColumnStreams(spec.seed)
    n, total = spec.n, spec.num_points
    basis = random_subspace(n, spec.rank, streams.subspace())
    parts = [column_inliers(spec.inlier_model, basis, spec.num_inliers, streams)]
    if spec.num_outliers:
        parts.append(column_outliers(spec.outlier_model, n, spec.num_outliers,
                                     streams, basis))
    labels = np.full(total, int(Label.OUTLIER), dtype=np.int8)
    labels[: spec.num_inliers] = int(Label.INLIER)
    perm = streams.shuffle().permutation(total)
    # C order, as DataMatrix stores it: the column sums below depend on it
    values, labels = np.ascontiguousarray(np.hstack(parts)[:, perm]), labels[perm]
    sigma = point_snr = None
    if spec.snr_db is not None:
        sigma = np.linalg.norm(values) / (10.0 ** (spec.snr_db / 20.0) * math.sqrt(n * total))
        point_snr = np.sum(values * values, axis=0) / (n * sigma * sigma)
        if spec.noise_target == "all":
            targets = range(total)
        else:
            targets = np.flatnonzero(labels == int(Label.INLIER))
        for j in targets:
            values[:, j] += sigma * streams.noise(int(j)).standard_normal(n)
    return values, labels, basis, sigma, point_snr
