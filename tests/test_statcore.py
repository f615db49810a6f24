import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roma.errors import ValidationError
from roma.statcore import angle_sigma, normal_cdf, normal_quantile, phi_moments
from roma.threshold import compute_cn

from _oracles import bisect_quantile, erfc_cdf, quad_angle_mass

# Reference values computed with mpmath at 50 digits.
CDF_CASES = [
    (-8.0, 6.2209605742717841e-16),
    (-5.0, 2.8665157187919391e-07),
    (-1.0, 0.15865525393145705),
    (0.5, 0.6914624612740131),
    (2.0, 0.97724986805182079),
    (6.0, 0.99999999901341235),
]
QUANTILE_CASES = [
    (1e-12, -7.0344838253011319),
    (1e-06, -4.7534243088228989),
    (0.02, -2.0537489106318231),      # below the rational switch point
    (0.024, -1.9773684281819467),
    (0.3, -0.52440051270804078),
    (0.975, 1.9599639845400542),
    (0.999, 3.0902323061678133),
]

# Upper-tail x-resolution: p loses information to the float spacing at 1.0,
# so the best any inverse of the erfc CDF can promise there is
# |dx| <= ulp(1) / pdf(x).  The lower tail keeps full relative accuracy,
# which is why threshold code evaluates quantiles there.
_ULP_AT_ONE = 2.0 ** -52


def _upper_tail_tol(x: float) -> float:
    return 4.0 * _ULP_AT_ONE / (math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi))


@pytest.mark.parametrize("x,expected", CDF_CASES)
def test_normal_cdf_reference(x, expected):
    assert normal_cdf(x) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_cdf_center_and_complement():
    assert normal_cdf(0.0) == 0.5
    for x in (-3.0, -0.7, 0.0, 1.2, 9.0):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-15)


@pytest.mark.parametrize("x", ["0.5", True, math.nan, math.inf], ids=["str", "bool", "nan", "inf"])
def test_cdf_takes_only_a_finite_real(x):
    with pytest.raises(ValidationError, match=f"x must be a finite real, got {x!r}"):
        normal_cdf(x)


@pytest.mark.parametrize("p,expected", QUANTILE_CASES)
def test_normal_quantile_reference(p, expected):
    assert normal_quantile(p) == pytest.approx(expected, rel=1e-13, abs=1e-15)


def test_quantile_median_is_exact():
    assert normal_quantile(0.5) == 0.0


def test_round_trip_log_grid():
    # both tails, p from 1e-14 up to 0.5
    for p in np.logspace(-14, math.log10(0.5), 60):
        p = float(p)
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12
        assert abs(normal_cdf(normal_quantile(1.0 - p)) - (1.0 - p)) <= 1e-12


def _threshold_tail(num_points: int) -> float:
    return 1.0 / (2.0 * float(num_points) ** 2 * (num_points - 1))


def test_quantile_matches_bisection_oracle():
    for p in np.logspace(-14, math.log10(0.5), 40):
        p = float(p)
        x = normal_quantile(p)
        assert x == pytest.approx(bisect_quantile(p), rel=1e-9, abs=1e-12)
        hi = normal_quantile(1.0 - p)
        assert hi == pytest.approx(bisect_quantile(1.0 - p),
                                   abs=_upper_tail_tol(hi))
    # the threshold's own tails, p = 1 / (2 N^2 (N - 1)) for N = 2 .. 10^6
    for num_points in np.unique(np.geomspace(2, 10 ** 6, 60).round().astype(int)):
        p = _threshold_tail(int(num_points))
        assert normal_quantile(p) == pytest.approx(bisect_quantile(p), rel=1e-9)


def test_cn_is_the_standard_library_quantile():
    # the definition the benchmark's reference threshold uses too
    for num_points in (2, 3, 10, 99, 1000, 5000, 12345, 10 ** 6, 10 ** 9):
        tail = _threshold_tail(num_points)
        assert compute_cn(num_points) == -statistics.NormalDist().inv_cdf(tail)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_quantile_domain(p):
    with pytest.raises(ValueError):
        normal_quantile(p)


@given(st.floats(min_value=1e-12, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_quantile_symmetry(p):
    lo = normal_quantile(p)
    hi = normal_quantile(1.0 - p)
    assert hi == pytest.approx(-lo, abs=max(2e-11, _upper_tail_tol(hi)))


@given(st.floats(min_value=1e-12, max_value=1.0 - 2e-12),
       st.floats(min_value=1e-14, max_value=1e-12))
@settings(max_examples=200, deadline=None)
def test_quantile_monotone(p, dp):
    q = min(p + dp, 1.0 - 1e-12)
    assert normal_quantile(q) >= normal_quantile(p)


@given(st.floats(min_value=-38.0, max_value=38.0))
@settings(max_examples=300, deadline=None)
def test_cdf_bounds_and_oracle(x):
    v = normal_cdf(x)
    assert 0.0 <= v <= 1.0
    assert v == erfc_cdf(x)


# --- angle density ---------------------------------------------------------

@pytest.mark.parametrize("dim", [3, 10, 100, 1000])
def test_angle_pdf_integrates_to_one(dim):
    mass = quad_angle_mass(dim, 0.0, math.pi)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_angle_sigma_dim_domain():
    for dim in (2, 0, -5):
        with pytest.raises(ValueError):
            angle_sigma(dim)


def test_angle_sigma_value():
    assert angle_sigma(102) == pytest.approx(0.1, rel=1e-15)
    assert angle_sigma(3) == 1.0


# --- folded moments ----------------------------------------------------------

def test_folded_moments_reference():
    mean, var = phi_moments(102)  # spread 1/sqrt(100) = 0.1
    assert mean == pytest.approx(1.4910078707146101, rel=1e-15)
    assert var == pytest.approx(0.0036338022763241866, rel=1e-15)


def test_folded_moments_monte_carlo():
    # phi_moments(n) are the moments of pi/2 - |Z|, Z ~ N(0, 1/(n - 2))
    rng = np.random.default_rng(20240817)
    n = 9
    z = rng.standard_normal(1_000_000) * angle_sigma(n)
    samples = math.pi / 2.0 - np.abs(z)
    mean, var = phi_moments(n)
    se_mean = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - mean) <= 3.0 * se_mean
    # variance of the sample variance via the fourth central moment
    centered = samples - samples.mean()
    m4 = float(np.mean(centered ** 4))
    s2 = float(np.var(samples, ddof=1))
    se_var = math.sqrt((m4 - s2 * s2) / samples.size)
    assert abs(s2 - var) <= 3.0 * se_var


def test_folded_moments_sigma_domain():
    # the spread 1/sqrt(n - 2) needs n >= 3
    for n in (2, 1, 0):
        with pytest.raises(ValueError):
            phi_moments(n)


def test_phi_moments_consistency():
    mean, var = phi_moments(100)
    assert mean < math.pi / 2.0
    assert var > 0.0
    # the folded spread shrinks with the dimension, and the mean nears pi/2
    assert phi_moments(1000)[0] > mean and phi_moments(1000)[1] < var
