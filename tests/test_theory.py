import math
from types import SimpleNamespace

import pytest

from _oracles import max_rank_sizable_noisy, noise_shift_bound, sizable_cluster_gap_condition
from roma.experiments import _erp_summary, default_config
from roma.theory import (erp_impossibility_alpha, max_rank_sizable, na_bound_prob,
                         nonempty_prob_lower_bound, p_inlier, structured_exact_prob)

# mpmath reference values (50 digits, rounded to float)


def test_p_inlier_reference():
    assert p_inlier(100, 20, 1000) == pytest.approx(0.99116180298983931, rel=1e-14)
    assert p_inlier(100, 10, 1000) == pytest.approx(0.91910215308519542, rel=1e-14)


def test_p_inlier_monotone_in_rank():
    vals = [p_inlier(200, r, 500) for r in (5, 10, 40, 120, 200)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert 0.0 < vals[0] and vals[-1] < 1.0


def test_p_inlier_warns_for_tiny_rank():
    with pytest.warns(UserWarning, match="rank 3"):
        p_inlier(100, 3, 500)
    with pytest.warns(UserWarning):
        p_inlier(100, 4, 500)


def test_p_inlier_domain():
    with pytest.raises(ValueError):
        p_inlier(2, 2, 100)
    with pytest.raises(ValueError):
        p_inlier(100, 2, 100)
    with pytest.raises(ValueError):
        p_inlier(100, 101, 100)
    with pytest.raises(ValueError):
        p_inlier(100, 10, 1)


def test_erp_impossibility_reference():
    assert erp_impossibility_alpha(100, 20, 1000, 100) == pytest.approx(
        0.13267364118035222, rel=1e-13)


def test_erp_impossibility_negative_is_vacuous():
    # small p makes the quadratic negative; the bound is returned unclamped
    with pytest.warns(UserWarning):
        val = erp_impossibility_alpha(10000, 3, 100, 50)
    assert val < 0.0


def test_erp_impossibility_domain():
    with pytest.raises(ValueError):
        erp_impossibility_alpha(100, 20, 1000, 2)
    with pytest.raises(ValueError):
        erp_impossibility_alpha(100, 20, 1000, 1001)


def test_nonempty_bound_domain():
    for num_inliers in (2, 1001):
        with pytest.raises(ValueError, match="num_inliers must lie in"):
            nonempty_prob_lower_bound(100, 20, 1000, num_inliers)


def test_max_rank_domain():
    with pytest.raises(ValueError, match="ambient dimension must be at least 3"):
        max_rank_sizable(2, 100)
    with pytest.raises(ValueError, match="ambient dimension must be at least 3"):
        max_rank_sizable_noisy(2, 100, 10.0)


def test_nonempty_bound_reference():
    assert nonempty_prob_lower_bound(100, 10, 1000, 200) == pytest.approx(
        0.95172501422667048, rel=1e-13)
    assert nonempty_prob_lower_bound(300, 6, 400, 100) == pytest.approx(
        0.99090065303439152, rel=1e-13)


def test_nonempty_bound_beats_naive():
    # where the sharper bound applies it dominates 1 - p^2
    for args in ((100, 10, 1000, 200), (300, 6, 400, 100), (100, 20, 1000, 500)):
        p = p_inlier(*args[:3])
        assert nonempty_prob_lower_bound(*args) >= 1.0 - p * p - 1e-12


def test_max_rank_reference():
    assert max_rank_sizable(300, 400) == pytest.approx(7.9342450730464164, rel=1e-13)
    assert max_rank_sizable(100, 1000) == pytest.approx(3.671592179284711, rel=1e-13)


def test_max_rank_grows_with_dimension():
    vals = [max_rank_sizable(n, 500) for n in (50, 100, 400, 1600)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v > 2.0 for v in vals)


def test_noise_shift_reference():
    assert noise_shift_bound(100.0) == pytest.approx(0.31756042929152136, rel=1e-14)
    # at the domain edge the perturbation can reach a right angle
    assert noise_shift_bound(0.25) == pytest.approx(math.pi / 2.0, rel=1e-14)


def test_noise_shift_domain_and_monotonicity():
    with pytest.raises(ValueError):
        noise_shift_bound(0.2)
    vals = [noise_shift_bound(s) for s in (0.3, 1.0, 10.0, 1e4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.0


def test_max_rank_noisy_reference():
    assert max_rank_sizable_noisy(300, 400, 100.0) == pytest.approx(
        3.5297927272338566, rel=1e-13)
    # noise can only shrink the admissible rank
    assert max_rank_sizable_noisy(300, 400, 100.0) < max_rank_sizable(300, 400)
    with pytest.raises(ValueError):
        max_rank_sizable_noisy(300, 400, 0.25)


def test_count_bounds_reference():
    assert na_bound_prob(1000, 900, 100) == pytest.approx(
        0.99990990990990991, rel=1e-14)
    assert structured_exact_prob(1000, 900, 100) == pytest.approx(
        0.99981981981981982, rel=1e-14)
    # the exact-separation event is the harder one
    assert structured_exact_prob(1000, 900, 100) < na_bound_prob(1000, 900, 100)


def test_count_bounds_domain():
    with pytest.raises(ValueError):
        na_bound_prob(100, 90, 20)   # counts exceed N
    with pytest.raises(ValueError):
        na_bound_prob(100, 0, 10)
    with pytest.raises(ValueError):
        structured_exact_prob(100, 90, 0)
    with pytest.raises(ValueError, match="need at least 2 points"):
        na_bound_prob(1, 1, 1)


def test_gap_condition_both_branches():
    # r << n makes the inlier exceedance probability tiny: condition holds
    with pytest.warns(UserWarning):
        assert sizable_cluster_gap_condition(10000, 3, 100, 50, 10) is True
    # concentrated inlier angles (r = 20) push the rhs past any possible gap
    assert sizable_cluster_gap_condition(100, 20, 1000, 900, 100) is False
    with pytest.raises(ValueError):
        sizable_cluster_gap_condition(100, 20, 1000, 100, 900)


# --- Monte Carlo estimate plumbing -------------------------------------------

def test_erp_alpha_estimate():
    # four trials of 100 true inliers each: one misses ERP, 3 inliers exceed
    cfg = default_config("oip-erp")
    records = [SimpleNamespace(metrics={"oip_success": True, "erp_success": ok,
                                        "inlier_exceed": k, "num_true_inliers": 100})
               for ok, k in [(True, 1), (True, 0), (False, 2), (True, 0)]]
    row = _erp_summary(cfg, records)
    assert row["alpha_erp"] == pytest.approx(0.25)
    assert row["erp_union_alpha"] == pytest.approx(100 * 3 / 400)
    assert row["alpha_oip"] == 0.0
    assert row["theory_oip_alpha"] == 1.0 / cfg.num_points
    assert row["theory_erp_alpha_lower"] == erp_impossibility_alpha(
        cfg.n, cfg.rank, cfg.num_points, 100)
