import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roma.detector import roma
from roma.errors import DegenerateRegimeError, ValidationError
from roma.threshold import (ThresholdSpec, compute_cn, compute_zeta,
                            zeta_with_center)

from _oracles import brute_mean_principal

# mpmath reference values (50 digits, rounded to float)
CN_CASES = [
    (2, 1.1503493803760082),
    (10, 3.2607674884205212),
    (100, 4.8896603725459596),
    (1000, 6.1092505139845726),
    (100000, 8.0268576552096873),
]
ZETA_CASES = [
    (100, 1000, 0.95366883159405488),
    (200, 1000, 1.1366307981357659),
    (100, 100, 1.0768660400625554),
    (42, 5000, 0.48953151956320199),
]


@pytest.mark.parametrize("num_points,expected", CN_CASES)
def test_cn_reference(num_points, expected):
    assert compute_cn(num_points) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n,num_points,expected", ZETA_CASES)
def test_zeta_reference(n, num_points, expected):
    spec = compute_zeta(n, num_points)
    assert spec.zeta == pytest.approx(expected, rel=1e-12)
    assert spec.center == math.pi / 2.0
    assert spec.mode == "theoretical"
    assert spec.c_n == pytest.approx(compute_cn(num_points), rel=0.0)


def test_cn_domain():
    with pytest.raises(ValueError):
        compute_cn(1)
    with pytest.raises(ValueError):
        compute_zeta(2, 100)


def test_cn_monotone_in_num_points():
    values = [compute_cn(n) for n in (2, 5, 10, 50, 100, 10_000, 10_000_000)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_zeta_monotone_in_dimension():
    # more ambient dimensions concentrate angles harder: zeta grows toward pi/2
    values = [compute_zeta(n, 500).zeta for n in (50, 100, 400, 1600)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < math.pi / 2.0


def test_degenerate_low_dimension():
    # at N=1000 the threshold first turns positive at n=18
    with pytest.raises(DegenerateRegimeError):
        compute_zeta(17, 1000)
    assert compute_zeta(18, 1000).zeta == pytest.approx(0.0434836983, abs=1e-9)


@given(st.integers(3, 2000), st.integers(2, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_zeta_below_center(n, num_points):
    try:
        spec = compute_zeta(n, num_points)
    except DegenerateRegimeError:
        return
    assert 0.0 < spec.zeta < math.pi / 2.0
    assert spec.c_n > 0.0


def test_adapted_uses_sample_mean():
    rng = np.random.default_rng(21)
    v = rng.standard_normal((60, 40))
    v /= np.linalg.norm(v, axis=0)
    adapted = roma(v, "adapted").threshold
    assert adapted.mode == "adapted"
    expected = zeta_with_center(60, 40, brute_mean_principal(v), "adapted")
    assert adapted.center == pytest.approx(expected.center, abs=1e-12)
    assert adapted.zeta == pytest.approx(expected.zeta, abs=1e-12)


def test_adapted_shifts_down_on_nonnegative_data():
    # nonnegative columns have acute-leaning angles: mean < pi/2, so the
    # adapted threshold sits below the theoretical one
    rng = np.random.default_rng(22)
    v = np.abs(rng.standard_normal((80, 50)))
    v /= np.linalg.norm(v, axis=0)
    adapted = roma(v, "adapted").threshold
    assert adapted.center == pytest.approx(brute_mean_principal(v), abs=1e-12)
    theoretical = compute_zeta(80, 50)
    assert adapted.center < math.pi / 2.0
    assert adapted.zeta < theoretical.zeta


def test_explicit_center_round_trip():
    spec = zeta_with_center(50, 200, 1.4, "adapted")
    assert isinstance(spec, ThresholdSpec)
    assert spec.zeta == pytest.approx(1.4 - spec.c_n / math.sqrt(48), abs=1e-15)
    with pytest.raises(DegenerateRegimeError):
        zeta_with_center(50, 200, 0.3, "adapted")


@pytest.mark.parametrize("center", [math.nan, math.inf, "1.4"], ids=["nan", "inf", "str"])
def test_explicit_center_must_be_a_finite_real(center):
    with pytest.raises(ValidationError, match=f"center must be a finite real, got {center!r}"):
        zeta_with_center(50, 200, center, "adapted")


@pytest.mark.parametrize("mode", ["bogus", "Adapted", None])
def test_explicit_center_takes_only_a_known_mode(mode):
    with pytest.raises(ValidationError, match=f"mode must be one of .*, got {mode!r}"):
        zeta_with_center(50, 200, 1.4, mode)


def test_explicit_center_refuses_a_threshold_at_or_above_half_pi():
    # the scan is defined for zeta in (0, pi/2); a center far enough above
    # pi/2, as the adapted mode gives on antipodal data, would leave it
    spec = zeta_with_center(100, 4, 1.7, "adapted")
    assert spec.zeta < math.pi / 2.0
    edge = math.pi / 2.0 + spec.c_n / math.sqrt(98)
    for center in (edge + 1e-12, 2.04):
        with pytest.raises(DegenerateRegimeError,
                           match=rf">= pi/2 .* center {center:.4f}"):
            zeta_with_center(100, 4, center, "adapted")
