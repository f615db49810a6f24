import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roma import angles, cli, detector
from roma.data import DataMatrix, Label, SubspaceBasis, normalize_columns, write_csv
from roma.detector import roma, roma_n
from roma.errors import DegenerateRegimeError, ValidationError
from roma.synth import (ClusteredInliers, ClusteredOutliers, SynthSpec,
                        UniformInliers, UnstructuredOutliers, make_dataset)

from _oracles import (brute_heads, brute_min_scores, brute_na, dot_decisions,
                      svd_subspace)


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


def test_roma_container_types_agree():
    ds = planted(seed=8, num_points=120)
    from roma.data import normalize_columns
    a = roma(ds.matrix)
    b = roma(normalize_columns(ds.matrix))
    np.testing.assert_array_equal(a.partition.outliers, b.partition.outliers)


@pytest.mark.parametrize("flag", ["False", "no", 0.0, None, 1])
def test_rank_disambiguate_takes_only_a_bool(flag, monkeypatch):
    # refused before any work, not cast: "False" would swap labels as True does
    def no_work(*args, **kwargs):
        raise AssertionError("work began")

    monkeypatch.setattr(detector, "_normalized", no_work)
    with pytest.raises(ValidationError, match="rank_disambiguate must be a bool"):
        roma_n(planted(seed=9, num_points=80).matrix, rank_disambiguate=flag)


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
    mean = angles.sample_mean_angle(normalize_columns(ds.matrix))
    assert res.threshold.center == mean
    sigma = 1.0 / math.sqrt(ds.matrix.n - 2)
    assert res.threshold.zeta == pytest.approx(
        mean - res.threshold.c_n * sigma, abs=1e-15)


def test_adapted_mode_refuses_a_threshold_at_or_above_half_pi():
    # two tight antipodal pairs: every acute angle is small but the mean
    # principal angle is about 2.04, so the adapted zeta (about 1.81) would
    # lie above pi/2, where the scan is undefined
    rng = np.random.default_rng(0)
    u = np.eye(100)[0]
    w = 0.01 * rng.standard_normal((100, 4))
    x = np.column_stack([u + w[:, 0], u + w[:, 1], -u + w[:, 2], -u + w[:, 3]])
    with pytest.raises(DegenerateRegimeError, match="center 2.04"):
        roma(x, "adapted")
    assert roma(x).partition.outliers.size == 0


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
    sub = m.values[:, res.stage1.partition.inliers]
    sub = sub / np.linalg.norm(sub, axis=0)
    np.testing.assert_array_equal(
        res.na_survivors, brute_na(sub, res.stage1.threshold.zeta))


def test_roma_n_blocked_path_agrees(monkeypatch):
    m = structured_case(seed=34, n_in=90, n_out=30)
    for rows in (1, 16, 120):
        monkeypatch.setattr(angles, "_BLOCK_BYTES", 8 * 120 * rows)
        monkeypatch.setattr(angles, "_MIN_BLOCKS", 1)
        res = roma_n(m)
        kept = res.stage1.partition.inliers
        sub = m.values[:, kept]
        np.testing.assert_array_equal(
            res.na_survivors, brute_na(sub, res.stage1.threshold.zeta))
        i, _, o = brute_heads(sub)
        assert res.inlier_head == kept[i]
        assert res.outlier_head == kept[o]
        np.testing.assert_array_equal(res.partition.outliers,
                                      m.label_indices(Label.OUTLIER))


def survivor_scores_run(seed, num_points, gamma, clustered, kind, mode):
    """``roma_n`` at block heights 1, 16 and 120, checked against the
    oracles on the survivor submatrix; returns the first run."""
    if kind == "two survivors":
        # two inliers on one line, every other point isolated
        spec = SynthSpec(n=30, num_points=num_points, rank=1,
                         gamma=(num_points - 2) / num_points, seed=seed)
    else:
        spec = SynthSpec(n=30, num_points=num_points, rank=4, gamma=gamma,
                         seed=seed, inlier_model=(ClusteredInliers(nu=0.1)
                                                  if clustered else UniformInliers()))
    values = make_dataset(spec).matrix.values.copy()
    if kind == "duplicates":
        # one column in three places, signs drawn: three pairs tie exactly
        # at the smallest angle
        rng = np.random.default_rng(seed)
        a, b, c = rng.choice(num_points, size=3, replace=False)
        values[:, b] = values[:, a] * rng.choice([-1.0, 1.0])
        values[:, c] = values[:, a] * rng.choice([-1.0, 1.0])
    runs = []
    for rows in (1, 16, 120):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(angles, "_BLOCK_BYTES", 8 * num_points * rows)
            mp.setattr(angles, "_MIN_BLOCKS", 1)
            runs.append(roma_n(DataMatrix(values), mode))
    survivors = runs[0].stage1.partition.inliers
    sub = normalize_columns(values).values[:, survivors]
    na = brute_na(sub, runs[0].stage1.threshold.zeta)
    i, _, o = brute_heads(sub)
    for res in runs:
        np.testing.assert_array_equal(res.stage1.partition.inliers, survivors)
        np.testing.assert_array_equal(res.na_survivors, na)
        assert res.inlier_head == survivors[i]
        assert res.outlier_head == survivors[o]
    return runs[0]


@given(seed=st.integers(0, 2 ** 31 - 1), num_points=st.integers(40, 100),
       gamma=st.floats(0.45, 0.7), clustered=st.booleans(),
       kind=st.sampled_from(["plain", "duplicates", "two survivors"]),
       mode=st.sampled_from(["theoretical", "adapted"]))
@settings(max_examples=15, deadline=None)
def test_roma_n_survivor_scores_match_the_submatrix(seed, num_points, gamma,
                                                     clustered, kind, mode):
    # Stage 2 reads stage 1's pass: each stage-1 outlier must take exactly
    # one off every survivor's count, and the closest pair must be the
    # closest surviving pair, at every block height.  A random outlier
    # survives stage 1 by chance (about 1/(2N) a dataset), so the cases
    # are assumed here and shown reachable on fixed seeds below.
    res = survivor_scores_run(seed, num_points, gamma, clustered, kind, mode)
    assume(res.stage1.partition.outliers.size >= 1)
    if kind == "two survivors":
        assume(res.stage1.partition.inliers.size == 2)


@pytest.mark.parametrize("mode", ["theoretical", "adapted"])
@pytest.mark.parametrize("seed, num_points, gamma, clustered, kind", [
    (1, 60, 0.5, False, "plain"),
    (2, 80, 0.6, True, "plain"),
    (3, 50, 0.45, False, "duplicates"),
    (4, 100, 0.7, True, "duplicates"),
    (5, 40, 0.5, False, "two survivors"),
    (6, 90, 0.5, False, "two survivors"),
])
def test_roma_n_survivor_scores_cases_are_reached(seed, num_points, gamma,
                                                  clustered, kind, mode):
    # the cases the property above assumes, on seeds that reach them
    res = survivor_scores_run(seed, num_points, gamma, clustered, kind, mode)
    assert res.stage1.partition.outliers.size >= 1
    if kind == "two survivors":
        assert res.stage1.partition.inliers.size == 2


@pytest.mark.parametrize("mode", ["theoretical", "adapted"])
@pytest.mark.parametrize("rank_disambiguate", [False, True])
def test_roma_n_makes_one_gram_pass(mode, rank_disambiguate, monkeypatch):
    # stage 2 reads stage 1's scan; a second pass would double the Gram work
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return angles.gram_scan(*args, **kwargs)

    monkeypatch.setattr(detector, "gram_scan", counting)
    res = roma_n(planted(seed=32, gamma=0.2).matrix, mode,
                 rank_disambiguate=rank_disambiguate)
    assert res.stage1.partition.outliers.size >= 1
    assert len(calls) == 1


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


def traced_peak(detect, m):
    """tracemalloc's peak over one warm call of ``detect`` on ``m``."""
    detect(m)  # warm: imports and caches
    tracemalloc.start()
    try:
        detect(m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("detect", [roma, roma_n])
@pytest.mark.parametrize("n, num_points", [(100, 5000), (3000, 1000)])
def test_detector_memory_is_the_matrix_copies_and_the_block_buffers(n, num_points, detect):
    # The stated bound: the matrix, O(n N) copies (unit columns, their
    # float32 cast) and the Gram pass's block buffers, never an N x N table
    # (100 MB in float32 at N = 5000).  n = 100 takes the float32 pass and
    # n = 3000 the float64 one.  tracemalloc sees numpy's allocations only:
    # buffers that BLAS allocates inside a product are not traced.
    m = planted(seed=1, n=n, r=10, num_points=num_points).matrix
    peak = traced_peak(detect, m)
    assert peak <= 3 * m.values.nbytes + 2 * angles._BLOCK_BYTES, peak / m.values.nbytes


@pytest.mark.parametrize("num_points", [2000, 3000])
def test_tied_input_stays_within_the_memory_bound(num_points):
    # Every column is +-d, so every entry of the Gram band ties within the
    # error bound with every point's peak and each one goes to _dot.  Held
    # candidates and a dense block's hits must still fit the stated bound.
    rng = np.random.default_rng(num_points)
    d = rng.standard_normal(100)
    m = DataMatrix(np.outer(d, rng.choice([-1.0, 1.0], num_points)))
    peak = traced_peak(roma, m)
    assert peak <= 3 * m.values.nbytes + 2 * angles._BLOCK_BYTES, peak / m.values.nbytes
    # the unit columns are +-one column bitwise, so every pair has the
    # decisions of the first two points
    v = normalize_columns(m).values
    assert (np.abs(v) == np.abs(v[:, :1])).all()
    res = roma(m)
    q, na, _ = dot_decisions(v[:, :2], res.threshold.zeta)
    assert (res.scores.q == q[0]).all()
    assert (res.scores.na == na[0] * (num_points - 1)).all()


@pytest.mark.parametrize("n, num_points", [(100, 5000), (3000, 1000)])
def test_roma_n_memory_is_roma_s_plus_vectors(n, num_points):
    # Stage 2 reads stage 1's pass, so it adds no survivor copy and no
    # second pass's buffers: only O(N) vectors (counts, one _dot row).
    m = planted(seed=1, n=n, r=10, num_points=num_points).matrix
    assert traced_peak(roma_n, m) <= traced_peak(roma, m) + 64 * num_points


@pytest.mark.parametrize("count", [6, 20, 30, 45, 300])  # around k = n = 30
@pytest.mark.parametrize("r", [1, 4, 12])
def test_numerical_rank_matches_a_direct_svd(count, r):
    # a cluster: r-dim deviations about a common point, so centred rank r
    # (or count - 1 when fewer points than that)
    rng = np.random.default_rng(100 * count + r)
    center = rng.standard_normal((30, 1))
    cols = center + rng.standard_normal((30, r)) @ rng.standard_normal((r, count))
    want = min(r, count - 1)
    centered = cols - cols.mean(axis=1, keepdims=True)
    assert svd_subspace(centered)[0] == want
    assert detector._numerical_rank(cols) == want


# The sweep the bitwise gates run on: N in {200, 1000, 2000}, unstructured
# and clustered (mu = 0.05) outliers, seeds 1-3 with seed 2 at 20 dB, and
# n = 100 rank 10 or n = 60 rank 6, all at gamma 0.3.
SWEEP = [(num_points, clustered, seed, n, r)
         for num_points in (200, 1000, 2000) for clustered in (False, True)
         for seed in (1, 2, 3) for n, r in ((100, 10), (60, 6))]


def sweep_matrix(num_points, clustered, seed, n, r):
    model = ClusteredOutliers(mu=0.05) if clustered else UnstructuredOutliers()
    return make_dataset(SynthSpec(n=n, num_points=num_points, rank=r, gamma=0.3,
                                  seed=seed, snr_db=20.0 if seed == 2 else None,
                                  outlier_model=model)).matrix


def assert_lazy_na_is_the_counted_pass_s(m, mode, rows, monkeypatch):
    with monkeypatch.context() as mp:
        if rows is not None:
            mp.setattr(angles, "_BLOCK_BYTES", 8 * m.num_points * rows)
            mp.setattr(angles, "_MIN_BLOCKS", 1)
        lazy = roma(m, mode)
        counted = detector._stage1(m, mode, count_na=True)
        assert (lazy.scores.q == counted.scores.q).all()
        assert (lazy.scores.na == counted.scores.na).all()
    np.testing.assert_array_equal(lazy.partition.outliers, counted.partition.outliers)
    assert lazy.threshold == counted.threshold


@pytest.mark.parametrize("mode", ["theoretical", "adapted"])
@pytest.mark.parametrize("case", SWEEP, ids=lambda c: "-".join(map(str, c)))
def test_lazy_na_is_the_counted_pass_s_on_the_sweep(case, mode, monkeypatch):
    m = sweep_matrix(*case)
    for rows in (None, 1, 7):  # the default block height, then 1 and 7 rows
        assert_lazy_na_is_the_counted_pass_s(m, mode, rows, monkeypatch)


@pytest.mark.parametrize("mode", ["theoretical", "adapted"])
def test_lazy_na_is_the_counted_pass_s_on_tied_input(mode, monkeypatch):
    # every column is +-d: every entry ties with every peak and with the cut
    rng = np.random.default_rng(7)
    d = rng.standard_normal(100)
    m = DataMatrix(np.outer(d, rng.choice([-1.0, 1.0], 300)))
    for rows in (None, 1, 7):
        assert_lazy_na_is_the_counted_pass_s(m, mode, rows, monkeypatch)


def count_passes(monkeypatch):
    """Record ``count_na`` of each Gram pass, wherever it is called from."""
    calls = []
    scan = angles.gram_scan

    def counting(x, zeta, *, count_na=True):
        calls.append(count_na)
        return scan(x, zeta, count_na=count_na)

    monkeypatch.setattr(angles, "gram_scan", counting)
    monkeypatch.setattr(detector, "gram_scan", counting)
    return calls


def test_reading_na_twice_makes_one_counted_pass(monkeypatch):
    m = planted(seed=41).matrix
    calls = count_passes(monkeypatch)
    res = roma(m)
    assert calls == [False]
    first = res.scores.na
    assert calls == [False, True]
    assert res.scores.na is first
    assert calls == [False, True]
    assert not first.flags.writeable


@pytest.mark.parametrize("mode", ["theoretical", "adapted"])
def test_each_entry_point_makes_one_pass(mode, monkeypatch, tmp_path):
    # roma reads q alone; roma_n and the CLI reports read na, so each makes
    # the one pass that counts it, and no other
    m = planted(seed=42, gamma=0.2).matrix
    path, out = tmp_path / "m.csv", tmp_path / "r.json"
    write_csv(m, path, orientation="points-as-columns")
    argv = ["--input", str(path), "--orientation", "columns", "--mode", mode,
            "--out", str(out)]
    calls = count_passes(monkeypatch)
    roma(m, mode)
    assert calls == [False]
    for run in (lambda: roma_n(m, mode),
                lambda: cli.main(argv + ["--stage", "roma-n"]),
                lambda: cli.main(argv)):
        calls.clear()
        run()
        assert calls == [True]
    # the stage-roma report's counts are roma's, read lazily
    assert json.loads(out.read_text())["scores"]["na"] == roma(m, mode).scores.na.tolist()


def test_a_result_pickles_before_na_is_read():
    # the scores hold the unit columns and zeta, not a closure
    m = planted(seed=43).matrix
    res = roma(m)
    blob = pickle.dumps(res)
    na = res.scores.na
    again = pickle.loads(blob)
    assert (again.scores.q == res.scores.q).all()
    assert (again.scores.na == na).all()
    assert (pickle.loads(pickle.dumps(res)).scores.na == na).all()


def test_unpickled_containers_are_read_only():
    # numpy does not pickle the read-only flag; the containers set it on load
    m = planted(seed=43).matrix
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((60, 4)))
    basis = SubspaceBasis(q)
    blob = pickle.dumps((m, normalize_columns(m), basis, roma_n(m), roma(m)))
    m2, x2, basis2, two, one = pickle.loads(blob)
    held = one.scores._pending[0]  # the unit columns na is counted from
    arrays = [m2.values, m2.labels, m2.true_basis, x2.values, basis2.values,
              two.stage1.partition.inliers, two.na_survivors, two.partition.inliers,
              two.partition.outliers, two.stage1.scores.q, two.stage1.scores.na,
              one.scores.q, one.partition.inliers, one.partition.outliers, held,
              one.scores.na]  # counted only now, after the load
    assert [a.flags.writeable for a in arrays] == [False] * len(arrays)
    assert (one.scores.na == two.stage1.scores.na).all()
