"""Scalar statistics used by the threshold and the closed-form bounds.

Everything here is small and self-contained: the standard normal CDF and its
inverse, the spread of the angle between independent uniform directions on
the unit sphere, and the first two moments of the acute angle.  The angle
density for ambient dimension ``d`` is

    h(theta) = (1/sqrt(pi)) * Gamma(d/2) / Gamma((d-1)/2) * sin(theta)**(d-2)

on [0, pi], which concentrates around pi/2 with standard deviation close to
1/sqrt(d-2).  That Gaussian surrogate N(pi/2, 1/(d-2)) is what the detection
threshold is calibrated against.
"""

from __future__ import annotations

import math
import statistics

from .data import _check_int
from .errors import ValidationError

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "angle_sigma",
    "phi_moments",
]

_SQRT2 = math.sqrt(2.0)
_HALF_PI = math.pi / 2.0


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of ``normal_cdf`` on (0, 1).

    The standard library's ``NormalDist().inv_cdf``: Wichura's algorithm
    AS241 (Applied Statistics 37(3), 1988), within a few ulp in both tails.

    Raises ValidationError outside the open interval (0, 1).
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValidationError(f"p must lie strictly between 0 and 1, got {p!r}")
    return statistics.NormalDist().inv_cdf(p)


def angle_sigma(dim: int) -> float:
    """Spread 1/sqrt(dim - 2) of the Gaussian surrogate for the angle law."""
    dim = _check_int("dim", dim)
    if dim < 3:
        raise ValidationError(f"dimension must be at least 3, got {dim}")
    return 1.0 / math.sqrt(dim - 2)


def phi_moments(n: int) -> tuple[float, float]:
    """Approximate mean and variance of the acute angle in dimension n.

    The surrogate angle pi/2 + sigma Z, sigma = 1/sqrt(n - 2), folded about
    pi/2 toward smaller values is pi/2 - sigma |Z|, with

        E = pi/2 - sqrt(2/pi) * sigma,    Var = sigma^2 * (1 - 2/pi)

    Requires n >= 3.
    """
    sigma = angle_sigma(n)
    return (_HALF_PI - math.sqrt(2.0 / math.pi) * sigma,
            sigma * sigma * (1.0 - 2.0 / math.pi))
