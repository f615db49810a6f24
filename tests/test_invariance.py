"""Symmetry checks: detection must not care about column order, signs,
positive scales, or a global rotation of the ambient space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roma import angles
from roma.angles import gram_scan
from roma.data import DataMatrix, normalize_columns
from roma.detector import roma, roma_n
from roma.synth import (ClusteredInliers, ClusteredOutliers, ColumnStreams,
                        SynthSpec, make_dataset, random_subspace)

from _oracles import brute_heads, brute_min_scores, brute_na


def planted_values(seed=5):
    ds = make_dataset(SynthSpec(n=60, num_points=300, rank=8, gamma=0.3,
                                seed=seed))
    return ds.matrix.values


def structured_values(seed=7):
    ds = make_dataset(SynthSpec(n=60, num_points=200, rank=8, gamma=0.25,
                                seed=seed,
                                inlier_model=ClusteredInliers(nu=0.1),
                                outlier_model=ClusteredOutliers(mu=0.2)))
    return ds.matrix.values


@pytest.mark.parametrize("mode", ["theoretical", "adapted"])
def test_column_permutation_equivariance(mode):
    values = planted_values()
    rng = np.random.default_rng(0)
    perm = rng.permutation(values.shape[1])
    base = roma(DataMatrix(values), mode)
    moved = roma(DataMatrix(values[:, perm]), mode)
    # point j of the permuted matrix is point perm[j] of the original;
    # the BLAS kernel may round panel-edge dot products differently, so q
    # is only equal to the last ulp, not bitwise
    assert np.array_equal(moved.partition.outlier_mask(),
                          base.partition.outlier_mask()[perm])
    assert np.allclose(moved.scores.q, base.scores.q[perm], atol=4e-15)
    assert np.array_equal(moved.scores.na, base.scores.na[perm])
    assert moved.scores.mean_theta == pytest.approx(base.scores.mean_theta,
                                                    abs=1e-12)


def test_sign_flips_are_bitwise_invisible():
    values = planted_values()
    rng = np.random.default_rng(1)
    signs = rng.choice([-1.0, 1.0], size=values.shape[1])
    base = roma(DataMatrix(values))
    flipped = roma(DataMatrix(values * signs))
    # acute angles fold out the signs exactly; the mean principal angle is
    # sign-sensitive by design (it feeds the adapted center), so it is
    # deliberately not compared here
    assert np.array_equal(flipped.scores.q, base.scores.q)
    assert np.array_equal(flipped.scores.na, base.scores.na)
    assert np.array_equal(flipped.partition.outliers, base.partition.outliers)


def test_power_of_two_scales_are_bitwise_invisible():
    values = planted_values()
    rng = np.random.default_rng(2)
    scales = np.ldexp(1.0, rng.integers(-8, 9, size=values.shape[1]))
    base = roma(DataMatrix(values))
    scaled = roma(DataMatrix(values * scales))
    assert np.array_equal(scaled.scores.q, base.scores.q)
    assert np.array_equal(scaled.partition.outliers, base.partition.outliers)


def test_generic_positive_scales_keep_partition():
    values = planted_values()
    rng = np.random.default_rng(3)
    scales = rng.uniform(0.25, 4.0, size=values.shape[1])
    base = roma(DataMatrix(values))
    scaled = roma(DataMatrix(values * scales))
    assert np.array_equal(scaled.partition.outliers, base.partition.outliers)
    assert np.allclose(scaled.scores.q, base.scores.q, atol=1e-9)


@pytest.mark.parametrize("mode", ["theoretical", "adapted"])
def test_global_rotation_keeps_partition(mode):
    values = planted_values()
    rot = random_subspace(60, 60, ColumnStreams(4).subspace())
    base = roma(DataMatrix(values), mode)
    rotated = roma(DataMatrix(rot @ values), mode)
    assert np.array_equal(rotated.partition.outliers, base.partition.outliers)
    assert np.allclose(rotated.scores.q, base.scores.q, atol=1e-9)
    if mode == "theoretical":
        assert rotated.threshold.zeta == base.threshold.zeta


def test_two_stage_permutation_and_signs():
    values = structured_values()
    rng = np.random.default_rng(5)
    perm = rng.permutation(values.shape[1])
    signs = rng.choice([-1.0, 1.0], size=values.shape[1])
    base = roma_n(DataMatrix(values))
    moved = roma_n(DataMatrix(values[:, perm] * signs))
    assert np.array_equal(moved.partition.outlier_mask(),
                          base.partition.outlier_mask()[perm])
    # the head pair is unique here, so the heads track the permutation
    assert perm[moved.inlier_head] == base.inlier_head
    assert perm[moved.outlier_head] == base.outlier_head


def test_two_stage_inlier_head_is_the_lower_index_of_the_closest_pair():
    values = structured_values()
    base = roma_n(DataMatrix(values))
    scan = gram_scan(values[:, base.survivors], stats=False, closest=True)
    pair = base.survivors[list(scan.pair)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(values.shape[1])
        signs = rng.choice([-1.0, 1.0], size=values.shape[1])
        moved = roma_n(DataMatrix(values[:, perm] * signs))
        where = np.argsort(perm)[pair]  # the pair's columns after the move
        assert moved.inlier_head in where
        assert moved.inlier_head == where.min()


# --- block size ------------------------------------------------------------

KINDS = ["plain", "signs", "duplicate", "antipodal"]


def small_structured(seed, kind):
    """Clustered inliers and outliers, N=80, after one of the KINDS edits.

    A duplicate or antipodal copy overwrites one column with another (or its
    negation), planting the unique closest pair.
    """
    values = make_dataset(SynthSpec(n=30, num_points=80, rank=4, gamma=0.3,
                                    seed=seed,
                                    inlier_model=ClusteredInliers(nu=0.1),
                                    outlier_model=ClusteredOutliers(mu=0.2))
                          ).matrix.values.copy()
    rng = np.random.default_rng(seed)
    i, j = rng.choice(80, size=2, replace=False)
    if kind == "signs":
        values *= rng.choice([-1.0, 1.0], size=80)
    elif kind == "duplicate":
        values[:, j] = values[:, i]
    elif kind == "antipodal":
        values[:, j] = -values[:, i]
    return values, (i, j) if kind in ("duplicate", "antipodal") else ()


def roma_n_at(values, rows):
    """roma_n with the kernel's Gram blocks forced to ``rows`` rows of N."""
    n_pts = values.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(angles, "_BLOCK_BYTES", 8 * n_pts * rows)
        mp.setattr(angles, "_MIN_BLOCKS", 1)
        return roma_n(DataMatrix(values))


def assert_q_close(a, b, copies):
    # a copied pair's Gram entry rounds to 1 or just below it, which arccos
    # turns into 0 or ~1.5e-8; elsewhere one ulp of |g| is far below 1e-12
    keep = np.setdiff1d(np.arange(a.size), copies)
    np.testing.assert_allclose(a[keep], b[keep], rtol=0.0, atol=1e-12)
    assert (a[list(copies)] <= 1e-7).all() and (b[list(copies)] <= 1e-7).all()


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(KINDS))
@settings(max_examples=12, deadline=None)
def test_decisions_do_not_depend_on_block_size(seed, kind):
    # one row, an odd row count and the whole matrix per block
    values, copies = small_structured(seed, kind)
    runs = [roma_n_at(values, rows) for rows in (1, 7, 80)]
    base = runs[0]
    for res in runs[1:]:
        assert_q_close(res.stage1.scores.q, base.stage1.scores.q, copies)
        assert np.array_equal(res.stage1.scores.na, base.stage1.scores.na)
        assert np.array_equal(res.stage1.partition.outliers,
                              base.stage1.partition.outliers)
        assert np.array_equal(res.na_survivors, base.na_survivors)
        assert res.inlier_head == base.inlier_head
        assert res.outlier_head == base.outlier_head
        assert res.labels_swapped == base.labels_swapped
        assert np.array_equal(res.partition.outliers, base.partition.outliers)
    v = normalize_columns(values).values
    zeta = base.stage1.threshold.zeta
    q = brute_min_scores(v)
    assert_q_close(base.stage1.scores.q, q, copies)
    assert np.array_equal(base.stage1.partition.outliers, np.flatnonzero(q > zeta))
    assert np.array_equal(base.stage1.scores.na, brute_na(v, zeta))
    i, j, o = brute_heads(v[:, base.survivors])
    assert (base.inlier_head, base.outlier_head) == (base.survivors[i],
                                                     base.survivors[o])
    if copies:
        assert set(copies) == {base.survivors[i], base.survivors[j]}


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(KINDS))
@settings(max_examples=12, deadline=None)
def test_column_permutation_relabels_decisions(seed, kind):
    values, copies = small_structured(seed, kind)
    perm = np.random.default_rng(seed + 1).permutation(80)
    base = roma_n(DataMatrix(values))
    moved = roma_n(DataMatrix(values[:, perm]))
    # point k of the permuted matrix is point perm[k] of the original
    inverse = np.argsort(perm)
    assert_q_close(moved.stage1.scores.q, base.stage1.scores.q[perm],
                   inverse[list(copies)])
    assert np.array_equal(moved.stage1.scores.na, base.stage1.scores.na[perm])
    assert np.array_equal(moved.stage1.partition.outlier_mask(),
                          base.stage1.partition.outlier_mask()[perm])
    assert np.array_equal(np.sort(perm[moved.survivors]), base.survivors)
    survivors = values[:, base.survivors]
    pair = set(gram_scan(survivors / np.linalg.norm(survivors, axis=0),
                         stats=False, closest=True).pair)
    assert {perm[moved.inlier_head], base.inlier_head} <= set(
        base.survivors[sorted(pair)])
    # the inlier head is the lower index of the closest pair, so relabelling
    # may pick its other point; with the same head everything else follows
    if perm[moved.inlier_head] == base.inlier_head:
        assert perm[moved.outlier_head] == base.outlier_head
        assert np.array_equal(moved.partition.outlier_mask(),
                              base.partition.outlier_mask()[perm])
