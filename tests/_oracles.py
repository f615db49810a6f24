"""Independent reference implementations the tests check against.

Deliberately slow and simple: bisection instead of rational approximations,
quadrature instead of closed forms, brute-force loops instead of BLAS.  Also
kept here, with their tests in test_theory.py: three of the paper's bounds
that no run reports.
"""

import csv
import math

import numpy as np

from roma.angles import _dot
from roma.data import DataMatrix, Label
from roma.errors import DimensionError, ParseError, ValidationError
from roma.synth import (_DOM_INLIER, _DOM_INLIER_CENTER, _DOM_OUTLIER,
                        _DOM_OUTLIER_CENTER, BoundedConeOutliers, ClusteredInliers,
                        ClusteredOutliers, ColumnStreams, MixedOutliers,
                        UnstructuredOutliers, random_subspace)
from roma.theory import _check_split, p_inlier
from roma.threshold import compute_cn


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


# --- the paper's bounds that no run reports ---------------------------------

def noise_shift_bound(snr: float) -> float:
    """Expected worst-case angle perturbation arccos(1 - 1/(2 sqrt(snr))).

    ``snr`` is the per-point signal-to-noise ratio ||m||^2 / E||e||^2, at
    least 1/4 so the arccos argument stays within [0, 1].  This is the
    single-sided statement: a worst case with both endpoints of a pair
    perturbed doubles the shift.
    """
    snr = float(snr)
    if snr < 0.25:
        raise ValueError(f"snr must be at least 1/4, got {snr!r}")
    return math.acos(1.0 - 1.0 / (2.0 * math.sqrt(snr)))


def max_rank_sizable_noisy(n: int, num_points: int, snr: float) -> float:
    """Noisy version of ``theory.max_rank_sizable``; requires snr > 1/4."""
    n = int(n)
    if n < 3:
        raise ValueError(f"ambient dimension must be at least 3, got {n}")
    snr = float(snr)
    if snr <= 0.25:
        raise ValueError(f"snr must exceed 1/4, got {snr!r}")
    c = compute_cn(num_points)
    shifted = c + math.sqrt(n - 2) * noise_shift_bound(snr)
    return 2.0 * (n - 2) / (math.pi * shifted * shifted) + 2.0


def sizable_cluster_gap_condition(n: int, r: int, num_points: int,
                                  num_inliers: int, num_structured: int) -> bool:
    """Whether the na gap N_I - N_Os > 2 (N_I - 1) p_inlier holds.

    Requires more inliers than structured outliers; raises otherwise.
    """
    _, ni, nos = _check_split(num_points, num_inliers, num_structured)
    if ni <= nos:
        raise ValueError(
            f"gap condition needs num_inliers > num_structured, got {ni} <= {nos}")
    p = p_inlier(n, r, num_points)
    return (ni - nos) > 2.0 * (ni - 1) * p


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


def closest_pair(cols, q) -> tuple[int, int]:
    """The closest pair (i, j), first in row-major order, read off the
    scores q of ``cols``: i is the first point at the smallest q, and j the
    first other point at acute angle exactly q[i] from i by ``_dot``.

    Every point of a pair at the smallest angle has q at the minimum, so no
    such pair starts before i, and none pairs i with a point before it.
    """
    i = int(np.argmin(q))
    row = np.arccos(np.minimum(np.abs(_dot(cols, i, np.arange(cols.shape[1]))), 1.0))
    row[i] = np.nan
    return i, int(np.flatnonzero(row == q[i])[0])


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


def svd_subspace(cols: np.ndarray, rank="auto"):
    """Rank, singular values and leading left singular vectors of ``cols``
    from one direct thin SVD.  "auto" counts the singular values above
    1e-8 times the largest, ``subspace.RANK_TOL`` written out."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int((s > 1e-8 * s[0]).sum()) if rank == "auto" else rank
    return r, s, u[:, :r]



def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def column_inliers(model, basis, count, streams, index_offset=0, sigma=None):
    """Inlier columns drawn one column at a time (see ``column_dataset``).
    With ``sigma`` set, inlier i's substream gives r + n normals: its
    coordinates, then the noise whose ``sigma`` multiple is added."""
    n, r = basis.shape
    cols = np.empty((n, count))
    if isinstance(model, ClusteredInliers):
        center = _unit(basis @ streams.stream(_DOM_INLIER_CENTER, index_offset).standard_normal(r))
    for i in range(count):
        g = streams.stream(_DOM_INLIER, index_offset + i).standard_normal(
            r if sigma is None else r + n)
        cols[:, i] = _unit(basis @ g[:r])
        if isinstance(model, ClusteredInliers):
            cols[:, i] = _unit(center + model.nu * cols[:, i])
        if sigma is not None:
            cols[:, i] += sigma * g[r:]
    return cols


def column_outliers(model, n, count, streams, index_offset=0):
    """Outlier columns drawn one column at a time (see ``column_dataset``)."""
    def draw(index):
        return streams.stream(_DOM_OUTLIER, index_offset + index).standard_normal(n)

    cols = np.empty((n, count))
    if isinstance(model, ClusteredOutliers):
        center = _unit(streams.stream(_DOM_OUTLIER_CENTER, index_offset).standard_normal(n))
        for i in range(count):
            cols[:, i] = _unit(center + model.mu * _unit(draw(i)))
    elif isinstance(model, BoundedConeOutliers):
        cos_min = math.cos(model.theta_max)
        accepted = 0
        for k in range(1000 * count):
            x = _unit(draw(k))
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
    definition the batched ``sample`` methods must reproduce bit for bit.
    Noise is drawn from each inlier's own substream after its coordinates and
    added before the shuffle, with sigma = 1 / (10^(snr/20) sqrt(n)): the
    matrix-level ||M||_F / (10^(snr/20) sqrt(n N)) at ||M||_F = sqrt(N).
    Returns (values, labels, true_basis, sigma).
    """
    streams = ColumnStreams(spec.seed)
    n, total = spec.n, spec.num_points
    basis = random_subspace(n, spec.rank, streams.subspace())
    sigma = None
    if spec.snr_db is not None:
        sigma = 1.0 / (10.0 ** (spec.snr_db / 20.0) * math.sqrt(n))
    parts = [column_inliers(spec.inlier_model, basis, spec.num_inliers, streams, sigma=sigma)]
    if spec.num_outliers:
        parts.append(column_outliers(spec.outlier_model, n, spec.num_outliers, streams))
    labels = np.full(total, int(Label.OUTLIER), dtype=np.int8)
    labels[: spec.num_inliers] = int(Label.INLIER)
    perm = streams.shuffle().permutation(total)
    return np.hstack(parts)[:, perm], labels[perm], basis, sigma


def csv_oracle(path, orientation: str = "points-as-rows") -> DataMatrix:
    """``load_csv_matrix`` as a list of Python float rows through
    ``csv.reader``: the same matrix, or the same error, at several times
    the memory."""
    def parse_field(text, row, col):
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"field {text!r} is not a number", row=row, column=col) from None
        if not math.isfinite(value):
            raise ParseError(f"field {text!r} is not a finite real", row=row, column=col)
        return value

    def is_number(text):
        try:
            return math.isfinite(float(text.strip()))
        except ValueError:
            return False

    rows = []
    width = None
    i = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for i, raw in enumerate(csv.reader(fh), start=1):
                if i == 1 and not any(is_number(f) for f in raw):
                    continue  # header row
                if width is None:
                    width = len(raw)
                if len(raw) != width:
                    raise ParseError(f"expected {width} fields, found {len(raw)}", row=i)
                rows.append([parse_field(f.strip(), i, j + 1) for j, f in enumerate(raw)])
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ParseError(str(exc), row=i + 1) from None
    if not rows:
        raise ParseError("no data rows found")
    arr = np.asarray(rows, dtype=float)
    if orientation == "points-as-rows":
        arr = arr.T
    n, num_points = arr.shape
    if n < 3:
        raise DimensionError(f"ambient dimension must be at least 3, got {n}")
    if num_points < 2:
        raise ValidationError(f"need at least 2 points, got {num_points}")
    return DataMatrix(arr)
