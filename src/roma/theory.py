"""Closed-form operating characteristics of the angle threshold.

All quantities derive from the Gaussian surrogate for high-dimensional
angles.  The central one is

    p_inlier = 2 F(C_N sqrt((r-2)/(n-2))) - 1,

the probability that the acute angle between two inliers sharing an
r-dimensional subspace stays above the threshold; everything else (exact-
recovery impossibility, the nonempty-estimate bound, the admissible rank,
the count-separation guarantees for clustered outliers) is a function of it
and of the point counts.  Bounds are returned raw, never clamped; they can
leave [0, 1] in parameter corners.
"""

from __future__ import annotations

import math
import warnings

from .data import _check_int
from .errors import ValidationError
from .statcore import normal_cdf
from .threshold import compute_cn

__all__ = [
    "p_inlier",
    "erp_impossibility_alpha",
    "nonempty_prob_lower_bound",
    "max_rank_sizable",
    "na_bound_prob",
    "structured_exact_prob",
]


def _check_counts(n: int, r: int) -> tuple[int, int]:
    n, r = _check_int("n", n), _check_int("r", r)
    if n < 3:
        raise ValidationError(f"ambient dimension must be at least 3, got {n}")
    if not 3 <= r <= n:
        raise ValidationError(f"rank must lie in [3, n={n}], got {r}")
    return n, r


def p_inlier(n: int, r: int, num_points: int) -> float:
    """P(acute angle between two same-subspace inliers exceeds the threshold).

    Warns when r < 5, where the Gaussian surrogate for the in-subspace angle
    is a poor fit.
    """
    n, r = _check_counts(n, r)
    if r < 5:
        warnings.warn(f"Gaussian angle surrogate is inaccurate for rank {r} < 5",
                      stacklevel=2)
    c = compute_cn(num_points)
    return 2.0 * normal_cdf(c * math.sqrt((r - 2) / (n - 2))) - 1.0


def erp_impossibility_alpha(n: int, r: int, num_points: int, num_inliers: int) -> float:
    """Lower bound on P(some inlier is misflagged), (N_I-2)p^2 - (N_I-3)p.

    A positive value means exact recovery of the inlier set fails with at
    least that probability; negative values are vacuous and returned as-is.
    """
    p = p_inlier(n, r, num_points)  # checks num_points before it is compared
    num_inliers = _check_int("num_inliers", num_inliers)
    if not 3 <= num_inliers <= num_points:
        raise ValidationError(f"num_inliers must lie in [3, N], got {num_inliers}")
    return (num_inliers - 2) * p * p - (num_inliers - 3) * p


def nonempty_prob_lower_bound(n: int, r: int, num_points: int, num_inliers: int) -> float:
    """Lower bound on P(the inlier estimate is nonempty).

    Uses the sharper degree-two bound when its applicability conditions hold
    (with z = floor((N_I-2) p)):

        either floor((N_I-2)p + 1) = floor((N_I-1)p)
        or     p(2-p) >= floor(1 + (N_I-2)p) / (N_I-1)

    and falls back to 1 - p^2 otherwise.
    """
    p = p_inlier(n, r, num_points)  # checks num_points before it is compared
    num_inliers = _check_int("num_inliers", num_inliers)
    if not 3 <= num_inliers <= num_points:
        raise ValidationError(f"num_inliers must lie in [3, N], got {num_inliers}")
    ni = num_inliers
    z = math.floor((ni - 2) * p)
    cond1 = math.floor((ni - 2) * p + 1.0) == math.floor((ni - 1) * p)
    cond2 = p * (2.0 - p) >= math.floor(1.0 + (ni - 2) * p) / (ni - 1)
    if cond1 or cond2:
        upper = (((ni - 1) * (ni - 2) * p * p - z * (2.0 * p * (ni - 1) - (z + 1)))
                 / ((ni - z) * (ni - 1 - z)))
        return 1.0 - upper
    return 1.0 - p * p


def max_rank_sizable(n: int, num_points: int) -> float:
    """Largest subspace dimension keeping inlier angles mostly below zeta.

    Ranks up to 2(n-2)/(pi C_N^2) + 2 leave the expected in-subspace angle
    under the threshold; the return value is the real-valued cap (compare
    r <= value).
    """
    n = _check_int("n", n)
    if n < 3:
        raise ValidationError(f"ambient dimension must be at least 3, got {n}")
    c = compute_cn(num_points)
    return 2.0 * (n - 2) / (math.pi * c * c) + 2.0


def _check_split(num_points: int, num_inliers: int, num_structured: int) -> tuple[int, int, int]:
    num_points = _check_int("num_points", num_points)
    num_inliers = _check_int("num_inliers", num_inliers)
    num_structured = _check_int("num_structured", num_structured)
    if num_points < 2:
        raise ValidationError(f"need at least 2 points, got {num_points}")
    if num_inliers < 1 or num_structured < 1:
        raise ValidationError("both point counts must be positive")
    if num_inliers + num_structured > num_points:
        raise ValidationError(
            f"{num_inliers} inliers + {num_structured} structured outliers exceed N={num_points}")
    return num_points, num_inliers, num_structured


def na_bound_prob(num_points: int, num_inliers: int, num_structured: int) -> float:
    """P(each na count clears its side's floor), 1 - N_Os N_I / (N^2 (N-1)).

    With probability at least this, every structured outlier has na >= N_I
    and every inlier has na >= N_Os.
    """
    n_pts, ni, nos = _check_split(num_points, num_inliers, num_structured)
    return 1.0 - nos * ni / (float(n_pts) ** 2 * (n_pts - 1))


def structured_exact_prob(num_points: int, num_inliers: int, num_structured: int) -> float:
    """P(count-based clustering separates the two groups exactly) when all
    outliers are structured: 1 - 2 N_Os N_I / (N^2 (N-1))."""
    n_pts, ni, nos = _check_split(num_points, num_inliers, num_structured)
    return 1.0 - 2.0 * nos * ni / (float(n_pts) ** 2 * (n_pts - 1))

