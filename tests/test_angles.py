import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roma import angles
from roma.angles import (AngleScores, _cut, acute_row, gram_scan,
                         sample_mean_angle)
from roma.data import normalize_columns
from roma.errors import DimensionError, ValidationError
from roma.threshold import compute_zeta

from _oracles import (brute_acute_angles, brute_heads, brute_mean_principal,
                      brute_min_scores, brute_na, dot_acute_angles,
                      dot_decisions)


def unit_cloud(n, pts, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, pts))
    return v / np.linalg.norm(v, axis=0)


def block_rows(monkeypatch, rows, pts):
    """Size the kernel's Gram blocks to ``rows`` rows of ``pts`` columns."""
    monkeypatch.setattr(angles, "_BLOCK_BYTES", 8 * pts * rows)
    monkeypatch.setattr(angles, "_MIN_BLOCKS", 1)
    assert angles._block_rows(pts) == min(rows, pts)


def _exact_unit(c):
    """A column (c, s) whose norm is exactly 1.0, so no rescaling moves c."""
    s = math.sqrt(1.0 - c * c)
    while np.linalg.norm([c, s]) != 1.0:
        s = np.nextafter(s, 2.0 if np.linalg.norm([c, s]) < 1.0 else 0.0)
    return s


def closest(v):
    return gram_scan(v, 1.0, q=False, pair=True).pair


def test_min_scores_and_na_match_brute_force():
    v = unit_cloud(6, 20, 3)
    zeta = 1.1
    scan = gram_scan(v, zeta)
    np.testing.assert_allclose(scan.q, brute_min_scores(v), rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(scan.na, brute_na(v, zeta))


def test_count_strictly_above():
    # a pair exactly at zeta is not counted, a wider pair is; the two pairs
    # are orthogonal to each other, so every Gram entry is exact
    zeta = float(np.arccos(0.7))
    v = np.zeros((4, 4))
    v[0, 0] = v[2, 2] = 1.0
    v[:2, 1] = 0.7, _exact_unit(0.7)
    v[2:, 3] = 0.69, _exact_unit(0.69)
    na = gram_scan(v, zeta, q=False).na
    np.testing.assert_array_equal(na, [2, 2, 3, 3])
    np.testing.assert_array_equal(na, brute_na(v, zeta))


def test_count_ignores_self_term():
    v = unit_cloud(5, 6, 4)
    na = gram_scan(v, 1e-12, q=False).na
    assert (na <= 5).all()  # never counts itself even at a tiny threshold


def test_duplicate_points_score_near_zero():
    v = unit_cloud(5, 8, 5)
    v[:, 3] = v[:, 6]
    q = gram_scan(v, 1.0).q
    assert q[3] <= 1e-7 and q[6] <= 1e-7
    assert (q[[0, 1, 2, 4, 5, 7]] > 1e-3).all()


def test_negated_duplicate_scores_near_zero():
    # acute angles identify antipodal directions; the dot of a stored unit
    # column with its negation rounds to within an ulp of -1, so the angle
    # lands within sqrt(2 eps) of zero
    v = unit_cloud(5, 8, 6)
    v[:, 2] = -v[:, 5]
    q = gram_scan(v, 1.0).q
    assert q[2] <= 1e-7 and q[5] <= 1e-7


def test_mean_angle_matches_brute_force(monkeypatch):
    v = unit_cloud(6, 15, 7)
    for rows in (1, 4, 15):
        block_rows(monkeypatch, rows, 15)
        assert sample_mean_angle(v) == pytest.approx(
            brute_mean_principal(v), abs=1e-12)


def test_scan_mean_equals_principal_mean():
    # the mean is over principal angles in [0, pi], not acute ones: a sign
    # flip of one column moves its angles theta to pi - theta
    v = unit_cloud(8, 40, 8)
    v[:, 7] *= -1.0
    mean_theta = sample_mean_angle(v)
    assert mean_theta == pytest.approx(brute_mean_principal(v), abs=1e-12)
    acute_mean = brute_acute_angles(v)[np.triu_indices(40, 1)].mean()
    assert abs(mean_theta - acute_mean) > 0.1


@pytest.mark.parametrize("pts, rows", [(2, 1), (9, 2), (33, 5), (200, 25),
                                       (1000, 125), (5000, 209)])
def test_default_block_rows(pts, rows):
    # ceil(N/8) rows, so small N still walks the upper band, until the
    # byte budget caps the block (209 rows of 5000 at 8 MiB)
    assert angles._block_rows(pts) == rows


@pytest.mark.parametrize("block", [1, 3, 7, 64])
def test_blocked_matches_full(block, monkeypatch):
    # 1 row, odd row counts, and a block taller than the 33 points
    v = unit_cloud(9, 33, 9)
    block_rows(monkeypatch, block, 33)
    zeta = 1.2
    scan = gram_scan(v, zeta, pair=True)
    np.testing.assert_allclose(scan.q, brute_min_scores(v), rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(scan.na, brute_na(v, zeta))
    assert sample_mean_angle(v) == pytest.approx(brute_mean_principal(v),
                                                    abs=1e-12)
    assert scan.pair == brute_heads(v)[:2]


def test_angle_scores_dispatch_agrees(monkeypatch):
    # every block size the byte budget can pick gives the oracle's scores
    v = unit_cloud(7, 30, 10)
    for rows in (1, 4, 30):
        block_rows(monkeypatch, rows, 30)
        got = gram_scan(v, 1.3)
        np.testing.assert_allclose(got.q, brute_min_scores(v), rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(got.na, brute_na(v, 1.3))
        assert sample_mean_angle(v) == pytest.approx(brute_mean_principal(v),
                                                        abs=1e-12)


@pytest.mark.parametrize("n, num_points", [(12, 50), (20, 100), (100, 1000),
                                           (100, 5000), (10 ** 4, 10 ** 7)])
def test_cut_is_smallest_double_at_zeta(n, num_points):
    zeta = compute_zeta(n, num_points).zeta
    t = _cut(zeta)
    assert 0.0 < t < 1.0
    assert np.arccos(t) <= zeta < np.arccos(np.nextafter(t, 0.0))
    # |g| >= t equals arccos(|g|) <= zeta only where np.arccos is monotone
    bits = np.float64(t).view(np.int64) + np.arange(-10_000, 10_001)
    assert np.all(np.diff(np.arccos(bits.view(np.float64))) <= 0.0)


@pytest.mark.parametrize("rows", [1, 4])
def test_na_at_the_cut_matches_oracle(rows, monkeypatch):
    # |g| exactly at t: arccos(t) <= zeta, not counted; one double below:
    # counted.  Every other pair is orthogonal, so every Gram entry is exact.
    zeta = compute_zeta(100, 1000).zeta
    t = _cut(zeta)
    below = np.nextafter(t, 0.0)
    v = np.zeros((4, 4))
    v[0, 0] = v[2, 2] = 1.0
    v[:2, 1] = t, _exact_unit(t)
    v[2:, 3] = -below, -_exact_unit(below)   # the antipodal side of the pair
    block_rows(monkeypatch, rows, 4)
    na = gram_scan(v, zeta, q=False).na
    np.testing.assert_array_equal(na, [2, 2, 3, 3])
    np.testing.assert_array_equal(na, brute_na(v, zeta))


def test_angle_scores_normalizes_containers_only():
    # containers are normalized on the way in; a bare array must already be
    # unit norm so silent rescaling never hides a data bug
    from roma.data import DataMatrix
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((6, 12)) * 7.5
    a = gram_scan(DataMatrix(raw), 1.0)
    b = gram_scan(normalize_columns(raw), 1.0)
    np.testing.assert_allclose(a.q, b.q, rtol=0.0, atol=1e-12)
    with pytest.raises(ValidationError):
        gram_scan(raw, 1.0)


def test_min_pair_finds_planted_pair(monkeypatch):
    v = unit_cloud(6, 25, 12)
    w = v[:, 4] + 1e-6 * v[:, 9]
    v[:, 17] = w / np.linalg.norm(w)
    assert closest(v) == (4, 17)
    block_rows(monkeypatch, 3, 25)
    assert closest(v) == (4, 17)


def test_min_pair_tie_breaks_row_major(monkeypatch):
    # standard basis columns give exact 0/1 dot products, so the two planted
    # coincident pairs tie at angle exactly zero
    v = np.zeros((6, 10))
    v[0, 0] = v[0, 3] = 1.0            # pair (0, 3) at angle 0
    v[1, 1] = v[1, 2] = 1.0            # pair (1, 2) at angle 0
    for j, axis in zip(range(4, 10), range(6)):
        v[axis, j] = 1.0
    v[:, 4:] += 0.001                  # break the remaining exact ties
    v = v / np.linalg.norm(v, axis=0)
    assert closest(v) == (0, 3)
    for rows in (1, 2, 3):   # the tied pairs in one block, or in two
        block_rows(monkeypatch, rows, 10)
        assert closest(v) == (0, 3)


def test_min_pair_ties_in_angle_not_gram(monkeypatch):
    # two Gram values one double apart with the same arccos: the pairs tie
    # in angle, so the first in row-major order wins, not the larger |g|
    lo = 0.3
    while np.arccos(lo) != np.arccos(np.nextafter(lo, 1.0)):
        lo = np.nextafter(lo, 1.0)
    hi = np.nextafter(lo, 1.0)
    v = np.zeros((4, 4))
    v[0, 0] = v[2, 2] = 1.0
    v[:2, 1] = lo, _exact_unit(lo)
    v[2:, 3] = hi, _exact_unit(hi)
    for rows in (1, 4):
        block_rows(monkeypatch, rows, 4)
        assert closest(v) == (0, 1)


def test_acute_row_matches_table():
    v = unit_cloud(6, 14, 14)
    phi = brute_acute_angles(v)
    exact = dot_acute_angles(v)
    for i in (0, 5, 13):
        np.testing.assert_allclose(acute_row(v, i), phi[i], rtol=0.0, atol=1e-12)
        assert np.array_equal(acute_row(v, i), exact[i])
    with pytest.raises(ValidationError):
        acute_row(v, 14)


def test_scan_domain_errors():
    v = unit_cloud(3, 4, 15)
    with pytest.raises(ValidationError):
        gram_scan(v[:, :1], 1.0)
    with pytest.raises(ValidationError):
        sample_mean_angle(v[:, :1])
    for bad in (0.0, -0.5, math.pi / 2.0, math.nan):
        with pytest.raises(ValueError):
            gram_scan(v, bad)


def test_angle_scores_validation():
    with pytest.raises(DimensionError):
        AngleScores(q=np.zeros(3), na=np.zeros(4, dtype=int),
                    mean_theta=1.5, zeta=1.0)
    scores = AngleScores(q=np.zeros(3), na=np.zeros(3, dtype=int),
                         mean_theta=1.5, zeta=1.0)
    with pytest.raises(ValueError):
        scores.q[0] = 1.0


def awkward_columns(n, seed):
    """Unit columns for the float32 bound: random ones, one with n equal
    components, ones whose components span 30 decades, and ones with half
    their components below float32's normal range (2^-126 ~ 1.2e-38)."""
    rng = np.random.default_rng(seed)
    mixed = rng.standard_normal((n, 6)) * np.logspace(0, -30, n)[:, None]
    tiny = rng.standard_normal((n, 6))
    tiny[n // 2:] *= np.array([1e-39, 1e-41, 1e-44, 1e-39, 1e-41, 1e-44])
    return normalize_columns(np.hstack([rng.standard_normal((n, 40)),
                                        np.ones((n, 1)), mixed, tiny])).values


@pytest.mark.parametrize("n", [3, 100, 1000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
def test_band_lies_within_the_bound(dtype, n):
    v = awkward_columns(n, n)
    n_pts = v.shape[1]
    err = angles._gram_error(n, dtype)
    u = np.finfo(dtype).eps / 2.0
    if dtype is np.float32:
        assert (n + 2) * u < err < (n + 2) * u * 1.01
    else:
        assert 2 * (n + 1) * u < err < 2 * (n + 1) * u * 1.01
    i, j = np.triu_indices(n_pts, 1)
    exact = angles._dot(v, i, j)
    assert np.array_equal(exact, angles._dot(v, j, i))
    # the band as the kernel forms it: a gemv at one row, gemm blocks
    vw = v.astype(dtype)
    for rows in (1, 7, n_pts):
        band = np.zeros((n_pts, n_pts))
        for start in range(0, n_pts, rows):
            stop = min(start + rows, n_pts)
            band[start:stop, start:] = vw[:, start:stop].T @ vw[:, start:]
        assert np.abs(band[i, j] - exact).max() <= err


def test_gram_error_needs_n_u_below_a_half():
    # past n u = 1/2, gamma_n = n u / (1 - n u) stops bounding the sums,
    # and at n u = 1 it divides by zero
    for n in (2 ** 23, 2 ** 24, 2 ** 25):
        with pytest.raises(ValidationError):
            angles._gram_error(n, np.float32)
    assert 0.0 < angles._gram_error(2 ** 23 - 1, np.float32) < 1.01
    assert 0.0 < angles._gram_error(2 ** 24, np.float64) < 1e-8
    # the scan's own choice never reaches the float32 limit
    assert angles._scan_dtype(angles._F32_MAX_N) is np.float32
    assert angles._scan_dtype(angles._F32_MAX_N + 1) is np.float64
    assert angles._scan_dtype(2 ** 24) is np.float64


def test_dot_is_within_its_share_of_the_bound():
    # the recheck's own error, gamma'_n sum |x_k y_k|, against the exact
    # rational dot of the stored doubles
    from fractions import Fraction
    v = awkward_columns(100, 7)
    gamma = 100 * 2.0 ** -53 / (1.0 - 100 * 2.0 ** -53)
    for a, b in ((0, 1), (3, 40), (41, 47), (50, 52)):
        exact = sum(Fraction(x) * Fraction(y) for x, y in zip(v[:, a], v[:, b]))
        scale = float(np.abs(v[:, a] * v[:, b]).sum())
        assert abs(Fraction(float(angles._dot(v, a, b)[0])) - exact) <= gamma * scale


@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 9), st.integers(2, 24))
@settings(max_examples=40, deadline=None)
def test_angle_ranges(seed, n, pts):
    v = unit_cloud(n, pts, seed)
    scan = gram_scan(v, 0.9)
    assert (scan.q >= 0.0).all() and (scan.q <= math.pi / 2.0).all()
    assert (scan.na >= 0).all() and (scan.na <= pts - 1).all()
    assert 0.0 <= sample_mean_angle(v) <= math.pi


def test_high_dimensions_scan_in_float64_and_match_the_dot():
    # past _F32_MAX_N the pass runs in float64; its decisions are still
    # those of _dot over every pair, duplicates and antipodes included
    n = angles._F32_MAX_N + 1
    v = unit_cloud(n, 30, 21)
    v[:, 7], v[:, 19] = v[:, 3], -v[:, 11]
    zeta = compute_zeta(n, 30).zeta
    q, na, (i, j, _) = dot_decisions(v, zeta)
    scan = gram_scan(v, zeta, pair=True)
    assert np.array_equal(scan.q, q)
    assert np.array_equal(scan.na, na)
    assert scan.pair == (i, j)


def test_count_does_not_wrap_past_uint16():
    # counts are summed as uint16 over slices of at most 65535 entries
    hit = np.ones((70_000, 3), dtype=bool)
    hit[::7, 1] = False
    want = np.count_nonzero(hit, axis=0)
    assert np.array_equal(angles._count(hit, 0), want)
    assert np.array_equal(angles._count(hit.T.copy(), 1), want)


def test_a_column_tie_float32_cannot_see_is_rechecked():
    # Points 0 and 1 sit at |g| c and c + 1e-12 from point 4.  Both entries
    # lie down column 4 of one block, and float32 rounds both to the same
    # value exactly (the products and sums are exact), so only the block's
    # next-largest entry sends point 4 to a recheck.  Points 2 and 3 are
    # closer partners of 0 and 1, so their own rows look elsewhere.
    c = 0.95
    e = np.eye(8)

    def near(cos, x, k):
        return cos * x + math.sqrt(1.0 - cos * cos) * e[k]

    low, high = near(c, e[0], 1), near(c + 1e-12, e[0], 2)
    v = normalize_columns(np.column_stack(
        [low, high, near(0.99, low, 3), near(0.99, high, 4), e[0]])).values
    assert np.float32(v[0, 0]) == np.float32(v[0, 1])
    zeta = compute_zeta(8, 5).zeta
    q, na, _ = dot_decisions(v, zeta)
    angle = dot_acute_angles(v)  # _dot tells the two apart
    assert angle[1, 4] < angle[0, 4] and q[4] == angle[1, 4]
    for rows in (1, 5):
        with pytest.MonkeyPatch.context() as mp:
            block_rows(mp, rows, 5)
            scan = gram_scan(v, zeta)
        assert np.array_equal(scan.q, q)
        assert np.array_equal(scan.na, na)
