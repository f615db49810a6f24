import math

import numpy as np
import pytest

from roma import angles
from roma.data import DataMatrix, Label, NormalizedMatrix
from roma.detector import RomaNResult, RomaResult, roma, roma_n
from roma.errors import DegenerateRegimeError, ValidationError
from roma.synth import (ClusteredInliers, ClusteredOutliers, SynthSpec,
                        UniformInliers, make_dataset)

from _oracles import (brute_heads, brute_mean_principal, brute_min_scores,
                      brute_na)


def planted(seed=5, n=60, r=8, num_points=300, gamma=0.3):
    spec = SynthSpec(n=n, num_points=num_points, rank=r, gamma=gamma, seed=seed)
    return make_dataset(spec)


def test_roma_recovers_planted_partition():
    ds = planted()
    res = roma(ds.matrix)
    np.testing.assert_array_equal(res.partition.outliers, ds.outlier_indices)
    np.testing.assert_array_equal(res.partition.inliers, ds.inlier_indices)
    assert res.scores.q.shape == (300,)
    assert res.scores.na.shape == (300,)
    assert res.threshold.mode == "theoretical"
    assert res.threshold.num_points == 300
    # every flagged point scored strictly above the threshold
    assert (res.scores.q[res.partition.outliers] > res.threshold.zeta).all()
    assert (res.scores.q[res.partition.inliers] <= res.threshold.zeta).all()


def test_roma_deterministic():
    ds = planted(seed=6)
    a = roma(ds.matrix)
    b = roma(ds.matrix)
    assert (a.scores.q == b.scores.q).all()
    assert (a.scores.na == b.scores.na).all()
    np.testing.assert_array_equal(a.partition.outliers, b.partition.outliers)


def test_roma_blocked_path_agrees(monkeypatch):
    ds = planted(seed=7, num_points=150)
    v = ds.matrix.values
    q = brute_min_scores(v)
    for rows in (1, 16, 150):
        monkeypatch.setattr(angles, "_BLOCK_BYTES", 8 * 150 * rows)
        monkeypatch.setattr(angles, "_MIN_BLOCKS", 1)
        res = roma(ds.matrix)
        zeta = res.threshold.zeta
        np.testing.assert_allclose(res.scores.q, q, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(res.scores.na, brute_na(v, zeta))
        np.testing.assert_array_equal(res.partition.outliers,
                                      np.flatnonzero(q > zeta))
        np.testing.assert_array_equal(res.partition.outliers,
                                      ds.outlier_indices)
        assert res.scores.mean_theta is None  # nothing reads it in this mode


def test_roma_container_types_agree():
    ds = planted(seed=8, num_points=120)
    from roma.data import normalize_columns
    a = roma(ds.matrix)
    b = roma(normalize_columns(ds.matrix))
    np.testing.assert_array_equal(a.partition.outliers, b.partition.outliers)


def test_roma_mode_validation():
    ds = planted(seed=9, num_points=80)
    with pytest.raises(ValidationError):
        roma(ds.matrix, "bayesian")


def test_roma_small_input_validation():
    with pytest.raises(ValidationError):
        roma(np.eye(2))       # dimension too small
    with pytest.raises(ValidationError):
        roma(np.eye(5)[:, :1])  # single point


def test_roma_adapted_centers_at_sample_mean():
    ds = planted(seed=10, num_points=200)
    res = roma(ds.matrix, "adapted")
    assert res.threshold.mode == "adapted"
    assert res.threshold.center == pytest.approx(res.scores.mean_theta, abs=0.0)
    sigma = 1.0 / math.sqrt(ds.matrix.n - 2)
    assert res.threshold.zeta == pytest.approx(
        res.scores.mean_theta - res.threshold.c_n * sigma, abs=1e-15)


def test_roma_all_points_isolated_flags_everything():
    # orthonormal columns: every q equals pi/2, above any valid threshold
    res = roma(np.eye(20))
    assert res.partition.inliers.size == 0
    assert res.partition.outliers.size == 20


# --- stage 2 -----------------------------------------------------------------

def structured_case(seed, nu=0.1, mu=0.2, n=60, r=8, n_in=150, n_out=50,
                    inlier_model=None):
    spec = SynthSpec(n=n, num_points=n_in + n_out, rank=r,
                     gamma=n_out / (n_in + n_out), seed=seed,
                     inlier_model=inlier_model or ClusteredInliers(nu=nu),
                     outlier_model=ClusteredOutliers(mu=mu))
    return make_dataset(spec).matrix


def test_roma_n_separates_clustered_outliers():
    # tight inlier cluster (nu < mu): the min-angle pair lands among inliers
    # and the na rule sends the outlier cluster to the other side
    m = structured_case(seed=31)
    res = roma_n(m)
    np.testing.assert_array_equal(res.partition.outliers,
                                  m.label_indices(Label.OUTLIER))
    assert not res.labels_swapped
    assert res.inlier_head in m.label_indices(Label.INLIER)
    assert res.outlier_head != res.inlier_head


def test_roma_n_stage1_outliers_stay_flagged():
    ds = planted(seed=32, gamma=0.2)
    res = roma_n(ds.matrix)
    stage1_out = set(res.stage1.partition.outliers.tolist())
    final_out = set(res.partition.outliers.tolist())
    assert stage1_out <= final_out


def test_roma_n_survivor_counts_match_submatrix():
    m = structured_case(seed=33)
    res = roma_n(m)
    sub = m.values[:, res.survivors]
    sub = sub / np.linalg.norm(sub, axis=0)
    np.testing.assert_array_equal(
        res.na_survivors, brute_na(sub, res.stage1.threshold.zeta))


def test_roma_n_blocked_path_agrees(monkeypatch):
    m = structured_case(seed=34, n_in=90, n_out=30)
    for rows in (1, 16, 120):
        monkeypatch.setattr(angles, "_BLOCK_BYTES", 8 * 120 * rows)
        monkeypatch.setattr(angles, "_MIN_BLOCKS", 1)
        res = roma_n(m)
        sub = m.values[:, res.survivors]
        np.testing.assert_array_equal(
            res.na_survivors, brute_na(sub, res.stage1.threshold.zeta))
        i, _, o = brute_heads(sub)
        assert res.inlier_head == res.survivors[i]
        assert res.outlier_head == res.survivors[o]
        np.testing.assert_array_equal(res.partition.outliers,
                                      m.label_indices(Label.OUTLIER))


def test_roma_n_rank_disambiguation_fixes_inversion():
    # uniform inliers with a much tighter outlier cluster: the min-angle pair
    # lands inside the cluster, so the nominal labels invert; the rank check
    # notices the low-rank side and swaps
    m = structured_case(seed=202, mu=0.05, inlier_model=UniformInliers())
    truth = set(m.label_indices(Label.OUTLIER).tolist())

    plain = roma_n(m)
    assert plain.inlier_head in truth          # head grabbed by the cluster
    assert set(plain.partition.inliers.tolist()) <= truth  # inverted labels

    fixed = roma_n(m, rank_disambiguate=True)
    assert fixed.labels_swapped
    assert set(fixed.partition.outliers.tolist()) == truth


def test_roma_n_all_duplicates_tie_to_inliers():
    # three orthogonal directions duplicated: all q are zero, all na equal,
    # every na distance ties, and ties keep points on the inlier side
    v = np.eye(20)[:, [0, 0, 1, 1, 2, 2]].copy()
    res = roma_n(v)
    assert res.partition.outliers.size == 0
    assert res.inlier_head == 0
    assert res.outlier_head == 2
    assert res.inlier_head != res.outlier_head


def test_roma_n_needs_survivors():
    with pytest.raises(DegenerateRegimeError):
        roma_n(np.eye(20))


def test_roma_n_deterministic():
    m = structured_case(seed=35)
    a = roma_n(m)
    b = roma_n(m)
    np.testing.assert_array_equal(a.partition.outliers, b.partition.outliers)
    assert (a.na_survivors == b.na_survivors).all()
    assert a.inlier_head == b.inlier_head


def test_result_arrays_read_only():
    ds = planted(seed=36, num_points=80)
    res = roma(ds.matrix)
    with pytest.raises(ValueError):
        res.partition.outliers[0] = 7
    res2 = roma_n(ds.matrix)
    with pytest.raises(ValueError):
        res2.na_survivors[0] = 3
