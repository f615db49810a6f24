"""Detection threshold.

With N points in dimension n, angles between unrelated unit directions
concentrate at pi/2 with spread 1/sqrt(n-2).  The threshold

    zeta = center - C_N / sqrt(n - 2),
    C_N  = normal_quantile(1 - 1 / (2 N^2 (N - 1)))

is placed so that, with probability at least 1 - 1/N, no pair of unrelated
directions falls below it.  The theoretical mode centers at pi/2; the
adapted mode recenters at the sample mean of the observed principal angles,
which helps on data whose angles do not straddle pi/2 (e.g. nonnegative
images).  The spread term is left untouched in both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import _check_int, _check_real
from .errors import DegenerateRegimeError, ValidationError
from .statcore import angle_sigma, normal_quantile

__all__ = ["ThresholdSpec", "compute_cn", "compute_zeta", "zeta_with_center",
           "MODES"]

MODES = ("theoretical", "adapted")

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class ThresholdSpec:
    """A resolved threshold: the scalar zeta plus how it was built."""

    n: int
    num_points: int
    c_n: float
    zeta: float
    mode: str
    center: float


def _check_points(num_points) -> int:
    """``num_points`` as an int in [2, 2^340): below 2^340, 2 N^2 (N - 1)
    is under 2^1021, a finite double."""
    num_points = _check_int("num_points", num_points)
    if num_points < 2:
        raise ValidationError(f"need at least 2 points, got {num_points}")
    if num_points.bit_length() > 340:
        raise ValidationError(
            f"num_points must lie below 2^340, got a {num_points.bit_length()}-bit count")
    return num_points


def compute_cn(num_points: int) -> float:
    """Quantile constant C_N = normal_quantile(1 - 1/(2 N^2 (N-1))).

    Evaluated through the symmetric lower tail so that the probability stays
    representable for very large N.  Requires 2 <= N < 2^340.
    """
    num_points = _check_points(num_points)
    tail = 1.0 / (2.0 * float(num_points) ** 2 * (num_points - 1))
    return -normal_quantile(tail)


def zeta_with_center(n: int, num_points: int, center: float, mode: str) -> ThresholdSpec:
    """Assemble a ThresholdSpec for an explicit center angle.

    zeta must lie in (0, pi/2), where the detector's scan is defined;
    outside it is a DegenerateRegimeError.  ``mode`` must be one of ``MODES``.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    n, num_points = _check_int("n", n), _check_int("num_points", num_points)
    center = _check_real("center", center)
    c_n = compute_cn(num_points)
    zeta = center - c_n * angle_sigma(n)
    if zeta <= 0.0:
        raise DegenerateRegimeError(
            f"threshold {zeta:.4f} <= 0 at n={n}, N={num_points}; "
            "the angle concentration is too weak for this dimension")
    if zeta >= _HALF_PI:
        raise DegenerateRegimeError(
            f"threshold {zeta:.4f} >= pi/2 at n={n}, N={num_points}; "
            f"the center {center:.4f} lies too far above pi/2")
    return ThresholdSpec(n=n, num_points=num_points, c_n=c_n, zeta=zeta,
                         mode=mode, center=center)


def compute_zeta(n: int, num_points: int) -> ThresholdSpec:
    """Theoretical threshold centered at pi/2."""
    return zeta_with_center(n, num_points, _HALF_PI, "theoretical")

