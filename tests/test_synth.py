"""Tests for the synthetic dataset generators."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _oracles import column_dataset, column_inliers, column_outliers

from roma import synth
from roma.data import DataMatrix, Label, load_csv_matrix
from roma.errors import FeasibilityError, ValidationError
from roma.synth import (
    BoundedConeOutliers,
    ClusteredInliers,
    ClusteredOutliers,
    ColumnStreams,
    MixedOutliers,
    SynthSpec,
    UniformInliers,
    UnstructuredOutliers,
    _unit,
    export_dataset,
    load_sidecar,
    make_dataset,
    random_subspace,
    spec_from_dict,
    spec_to_dict,
)


def base_spec(**overrides):
    kw = dict(n=20, num_points=40, rank=4, gamma=0.3, seed=7)
    kw.update(overrides)
    return SynthSpec(**kw)


# ---------------------------------------------------------------------------
# streams


def test_streams_are_stateless_and_keyed():
    streams = ColumnStreams(11)
    a = streams.stream(synth._DOM_INLIER, 3).standard_normal(5)
    b = streams.stream(synth._DOM_INLIER, 3).standard_normal(5)
    assert np.array_equal(a, b)  # fresh generator per call, same key
    assert not np.array_equal(a, streams.stream(synth._DOM_INLIER, 4).standard_normal(5))
    assert not np.array_equal(a, streams.stream(synth._DOM_OUTLIER, 3).standard_normal(5))
    assert not np.array_equal(
        a, ColumnStreams(12).stream(synth._DOM_INLIER, 3).standard_normal(5))


def test_streams_validation():
    with pytest.raises(ValidationError):
        ColumnStreams(-1)
    with pytest.raises(ValidationError):
        ColumnStreams(1 << 64)
    with pytest.raises(ValidationError):
        ColumnStreams(0).stream(1, -1)
    with pytest.raises(ValidationError):
        ColumnStreams(0).stream(1, 1 << 56)


def test_column_prefix_stable_under_count():
    # column j depends only on (seed, domain, j), not on how many columns
    # are drawn around it
    streams = ColumnStreams(5)
    basis = random_subspace(12, 3, streams.subspace())
    small = UniformInliers().sample(streams, basis, 4)
    big = UniformInliers().sample(streams, basis, 9)
    assert np.array_equal(small, big[:, :4])
    out_small = UnstructuredOutliers().sample(streams, basis, 3)
    out_big = UnstructuredOutliers().sample(streams, basis, 7)
    assert np.array_equal(out_small, out_big[:, :3])


def test_index_offset_shifts_columns():
    streams = ColumnStreams(5)
    basis = random_subspace(10, 2, streams.subspace())
    block = UnstructuredOutliers().sample(streams, basis, 6)
    tail = UnstructuredOutliers().sample(streams, basis, 4, index_offset=2)
    assert np.array_equal(block[:, 2:], tail)


# ---------------------------------------------------------------------------
# batched generation against the per-column definition


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(inlier_model=ClusteredInliers(nu=0.1)),
    dict(outlier_model=ClusteredOutliers(mu=0.2)),
    dict(outlier_model=BoundedConeOutliers(theta_max=1.3)),
    dict(inlier_model=ClusteredInliers(nu=0.3), outlier_model=ClusteredOutliers(mu=5.0),
         snr_db=20.0),
    dict(n=100, num_points=300, rank=10, gamma=0.5, seed=2 ** 64 - 1, snr_db=20.0),
    dict(n=3, num_points=7, rank=3, gamma=0.0, snr_db=5.0),
    dict(inlier_model=ClusteredInliers(nu=0.1), outlier_model=MixedOutliers(mu=0.2)),
    dict(outlier_model=MixedOutliers(mu=0.2), gamma=0.0),
    dict(outlier_model=MixedOutliers(mu=5.0), snr_db=10.0),
], ids=["uniform", "clustered-inliers", "clustered-outliers", "cone", "clustered-noisy",
        "large", "tiny", "mixed", "mixed-no-outliers", "mixed-noisy"])
def test_make_dataset_matches_per_column_oracle(overrides):
    spec = base_spec(**overrides)
    ds = make_dataset(spec)
    values, labels, basis, sigma = column_dataset(spec)
    assert np.array_equal(ds.matrix.values, values)
    assert np.array_equal(ds.matrix.labels, labels)
    assert np.array_equal(ds.matrix.true_basis, basis)
    assert ds.sigma == sigma


@pytest.mark.parametrize("model", [
    UniformInliers(), ClusteredInliers(nu=0.2), UnstructuredOutliers(),
    ClusteredOutliers(mu=0.3), BoundedConeOutliers(theta_max=1.2), MixedOutliers(mu=0.3),
])
def test_samplers_match_per_column_oracle_at_an_offset(model):
    streams = ColumnStreams(31)
    basis = random_subspace(15, 4, streams.subspace())
    offset, count = 17, 9
    if isinstance(model, (UniformInliers, ClusteredInliers)):
        expected = column_inliers(model, basis, count, streams, offset)
    else:
        expected = column_outliers(model, 15, count, streams, offset)
    assert np.array_equal(model.sample(streams, basis, count, offset), expected)


def test_mixed_outliers_match_the_oracle_at_every_split():
    # two outliers: across these seeds the cluster takes none, one and both
    splits = set()
    for seed in range(12):
        spec = base_spec(num_points=10, gamma=0.2, seed=seed,
                         outlier_model=MixedOutliers(mu=0.2))
        splits.add(spec.outlier_model.num_clustered(ColumnStreams(seed), 2))
        values, labels, _, _ = column_dataset(spec)
        ds = make_dataset(spec)
        assert np.array_equal(ds.matrix.values, values)
        assert np.array_equal(ds.matrix.labels, labels)
    assert splits == {0, 1, 2}


def test_batched_draws_equal_fresh_streams():
    streams = ColumnStreams(2 ** 64 - 1)
    indices = np.array([0, 5, 3, (1 << 56) - 1])
    rows = streams._normals(7, indices, 13)
    for row, index in zip(rows, indices):
        assert np.array_equal(row, streams.stream(7, int(index)).standard_normal(13))
    assert streams._normals(7, [], 5).shape == (0, 5)
    assert streams._normals(7, range(3, 3), 5).shape == (0, 5)
    # the error names the first bad index, wherever it sits
    with pytest.raises(ValidationError, match=f"out of range: {1 << 56}$"):
        streams._normals(7, np.array([0, 4, 1 << 56, -1, 2]), 3)
    with pytest.raises(ValidationError, match="out of range: -1$"):
        streams._normals(7, [-1], 3)
    with pytest.raises(ValidationError, match=f"out of range: {1 << 64}$"):
        streams._normals(7, [0, 1 << 64, -1], 3)


@pytest.mark.parametrize("n, r, count", [
    (3, 2, 0), (3, 2, 1), (3, 3, 6), (40, 40, 9), (3000, 10, 5),
])
def test_stacked_helpers_equal_the_per_column_products(n, r, count):
    streams = ColumnStreams(9)
    basis = random_subspace(n, r, streams.subspace())
    coords = streams._normals(2, range(count), r)
    span = synth._span(basis, coords)
    assert span.shape == (count, n) and span.flags.c_contiguous
    for g, row in zip(coords, span):
        assert np.array_equal(row, basis @ g)
    for rows in (span, streams._normals(3, range(count), n)):
        expected = [row / math.sqrt(row @ row) for row in rows]
        assert np.array_equal(synth._unit_rows(rows), np.reshape(expected, rows.shape))


def test_batched_path_rejects_a_zero_column(monkeypatch):
    streams = ColumnStreams(3)
    basis = random_subspace(6, 2, streams.subspace())
    monkeypatch.setattr(ColumnStreams, "_normals",
                        lambda self, domain, indices, size: np.zeros((len(indices), size)))
    models = [UniformInliers(), ClusteredInliers(nu=0.1), UnstructuredOutliers(),
              ClusteredOutliers(mu=0.2), BoundedConeOutliers(theta_max=1.0),
              MixedOutliers(mu=0.2)]
    samplers = [lambda model=model: model.sample(streams, basis, 3) for model in models]
    samplers.append(lambda: make_dataset(base_spec()))
    for sample in samplers:
        with pytest.raises(ValidationError, match="zero vector"):
            sample()


# ---------------------------------------------------------------------------
# spec arithmetic


def test_outlier_count_rounds_half_up():
    assert base_spec(num_points=10, gamma=0.25).num_outliers == 3  # 2.5 -> 3
    assert base_spec(num_points=10, gamma=0.15).num_outliers == 2  # 1.5 -> 2
    assert base_spec(num_points=10, gamma=0.24).num_outliers == 2
    assert base_spec(num_points=1000, gamma=0.3).num_outliers == 300


@given(num_points=st.integers(2, 5000), gamma=st.floats(0.0, 0.95))
def test_counts_partition_the_points(num_points, gamma):
    expected = int(math.floor(gamma * num_points + 0.5))
    assume(expected < num_points)  # rounding to zero inliers is rejected
    spec = SynthSpec(n=5, num_points=num_points, rank=2, gamma=gamma, seed=0)
    assert spec.num_outliers == expected
    assert spec.num_inliers + spec.num_outliers == num_points
    assert spec.num_inliers >= 1


def test_spec_validation():
    with pytest.raises(ValidationError):
        base_spec(n=2)
    with pytest.raises(ValidationError):
        base_spec(rank=0)
    with pytest.raises(ValidationError):
        base_spec(rank=21)
    with pytest.raises(ValidationError):
        base_spec(num_points=1)
    with pytest.raises(ValidationError):
        base_spec(gamma=1.0)
    with pytest.raises(ValidationError):
        base_spec(gamma=-0.1)
    with pytest.raises(ValidationError):
        base_spec(num_points=100, gamma=0.999)  # rounds to zero inliers
    with pytest.raises(ValidationError):
        ClusteredInliers(nu=0.0)
    with pytest.raises(ValidationError):
        ClusteredOutliers(mu=-1.0)
    with pytest.raises(ValidationError):
        BoundedConeOutliers(theta_max=math.pi / 2.0)
    with pytest.raises(ValidationError):
        MixedOutliers(mu=0.0)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValidationError, match="seed must be a 64-bit unsigned integer"):
            base_spec(seed=seed)


def test_spec_takes_numpy_scalars():
    spec = SynthSpec(n=np.int64(20), num_points=np.int32(40), rank=np.uint8(4),
                     gamma=np.float32(0.25), seed=np.uint64(2 ** 64 - 1),
                     snr_db=np.float64(10.0),
                     inlier_model=ClusteredInliers(nu=np.float32(0.1)),
                     outlier_model=ClusteredOutliers(mu=np.float64(0.2)))
    assert make_dataset(spec).matrix.values.shape == (20, 40)


# ---------------------------------------------------------------------------
# geometry of the samples


def test_random_subspace_orthonormal():
    rng = ColumnStreams(3).subspace()
    basis = random_subspace(30, 7, rng)
    assert basis.shape == (30, 7)
    assert np.allclose(basis.T @ basis, np.eye(7), atol=1e-12)
    with pytest.raises(ValidationError):
        random_subspace(5, 6, rng)


def test_dataset_geometry_noiseless():
    ds = make_dataset(base_spec())
    values = ds.matrix.values
    assert np.allclose(np.linalg.norm(values, axis=0), 1.0, atol=1e-12)
    basis = ds.matrix.true_basis
    inliers = values[:, ds.inlier_indices]
    residual = inliers - basis @ (basis.T @ inliers)
    assert np.max(np.abs(residual)) < 1e-12
    # generic full-sphere outliers do not live in the subspace
    outliers = values[:, ds.outlier_indices]
    off = outliers - basis @ (basis.T @ outliers)
    assert np.min(np.linalg.norm(off, axis=0)) > 1e-3


def test_dataset_label_counts():
    spec = base_spec(num_points=50, gamma=0.22)
    ds = make_dataset(spec)
    assert len(ds.outlier_indices) == spec.num_outliers == 11
    assert len(ds.inlier_indices) == spec.num_inliers == 39


def test_make_dataset_deterministic():
    a = make_dataset(base_spec())
    b = make_dataset(base_spec())
    assert np.array_equal(a.matrix.values, b.matrix.values)
    assert np.array_equal(a.matrix.labels, b.matrix.labels)
    assert np.array_equal(a.matrix.true_basis, b.matrix.true_basis)
    c = make_dataset(base_spec(seed=8))
    assert not np.array_equal(a.matrix.values, c.matrix.values)


def test_clustered_models_stay_tight():
    spec = base_spec(inlier_model=ClusteredInliers(nu=0.1),
                     outlier_model=ClusteredOutliers(mu=0.2))
    ds = make_dataset(spec)
    values = ds.matrix.values
    for idx in (ds.inlier_indices, ds.outlier_indices):
        cluster = values[:, idx]
        dots = np.clip(np.abs(cluster.T @ cluster), -1.0, 1.0)
        assert np.max(np.arccos(dots)) < 0.5  # tight cluster, small angles
    # clustered inliers still live in the planted subspace
    basis = ds.matrix.true_basis
    inliers = values[:, ds.inlier_indices]
    assert np.max(np.abs(inliers - basis @ (basis.T @ inliers))) < 1e-12


def test_bounded_cone_respects_theta_max():
    streams = ColumnStreams(4)
    basis = random_subspace(6, 2, streams.subspace())
    cone = BoundedConeOutliers(theta_max=0.8)
    theta = cone.theta_max
    cols = cone.sample(streams, basis, 10)
    dots = cols.T @ cols
    np.fill_diagonal(dots, 1.0)
    assert np.min(dots) >= math.cos(theta) - 1e-15
    assert np.allclose(np.linalg.norm(cols, axis=0), 1.0, atol=1e-12)
    assert cone.sample(streams, basis, 0).shape == (6, 0)


def test_bounded_cone_infeasible_reports_rate():
    streams = ColumnStreams(4)
    basis = random_subspace(200, 1, streams.subspace())
    with pytest.raises(FeasibilityError) as exc:
        BoundedConeOutliers(theta_max=0.05).sample(streams, basis, 50)
    assert 0.0 <= exc.value.acceptance_rate < 0.01


def test_unit_guard_rejects_zero_vector():
    with pytest.raises(ValidationError):
        _unit(np.zeros(4))


# ---------------------------------------------------------------------------
# shuffle / assemble


def test_shuffle_preserves_columns_and_labels():
    streams = ColumnStreams(2)
    basis = random_subspace(8, 2, streams.subspace())
    ins = UniformInliers().sample(streams, basis, 5)
    outs = UnstructuredOutliers().sample(streams, basis, 3)
    matrix = make_dataset(SynthSpec(n=8, num_points=8, rank=2, gamma=3 / 8, seed=2)).matrix
    assert matrix.values.shape == (8, 8)
    recovered_in = matrix.values[:, matrix.labels == int(Label.INLIER)]
    recovered_out = matrix.values[:, matrix.labels == int(Label.OUTLIER)]
    # labels ride along with their columns through the permutation
    assert sorted(map(tuple, recovered_in.T)) == sorted(map(tuple, ins.T))
    assert sorted(map(tuple, recovered_out.T)) == sorted(map(tuple, outs.T))


def test_shuffle_without_outliers():
    streams = ColumnStreams(2)
    basis = random_subspace(8, 2, streams.subspace())
    ins = UniformInliers().sample(streams, basis, 5)
    matrix = make_dataset(SynthSpec(n=8, num_points=5, rank=2, gamma=0.0, seed=2)).matrix
    assert np.all(matrix.labels == int(Label.INLIER))
    assert sorted(map(tuple, matrix.values.T)) == sorted(map(tuple, ins.T))


def test_spec_rejects_unknown_models():
    with pytest.raises(ValidationError, match="unknown inlier model"):
        base_spec(inlier_model="bogus")
    with pytest.raises(ValidationError, match="unknown outlier model"):
        base_spec(outlier_model=object())
    # each registry holds its own side's models only
    with pytest.raises(ValidationError, match="unknown inlier model"):
        base_spec(inlier_model=UnstructuredOutliers())
    with pytest.raises(ValidationError, match="unknown outlier model"):
        base_spec(outlier_model=ClusteredInliers(nu=0.1))


# ---------------------------------------------------------------------------
# noise


def test_noise_sigma_and_point_snr_formulas():
    # unit columns: ||M||_F = sqrt(N), so sigma = 10^(-snr/20)/sqrt(n) and
    # every clean point's snr is 10^(snr/10)
    spec = base_spec(snr_db=20.0)
    ds = make_dataset(spec)
    n = spec.n
    assert ds.sigma == pytest.approx(10.0 ** (-20.0 / 20.0) / math.sqrt(n), rel=1e-12)
    clean = make_dataset(base_spec()).matrix.values
    point_snr = np.sum(clean * clean, axis=0) / (n * ds.sigma ** 2)
    assert np.allclose(point_snr, 10.0 ** (20.0 / 10.0), rtol=1e-9)


def test_noise_targets_inliers_by_default():
    clean = make_dataset(base_spec())
    noisy = make_dataset(base_spec(snr_db=20.0))
    assert np.array_equal(noisy.matrix.labels, clean.matrix.labels)
    changed = noisy.matrix.values != clean.matrix.values
    assert np.all(changed[:, clean.inlier_indices])
    assert not np.any(changed[:, clean.outlier_indices])


def test_noise_deterministic_and_single_shot():
    spec = base_spec(snr_db=10.0)
    a = make_dataset(spec)
    b = make_dataset(spec)
    assert np.array_equal(a.matrix.values, b.matrix.values)
    assert a.sigma == b.sigma


def test_noisy_columns_leave_unit_sphere():
    ds = make_dataset(base_spec(snr_db=10.0))
    norms = np.linalg.norm(ds.matrix.values[:, ds.inlier_indices], axis=0)
    assert np.any(np.abs(norms - 1.0) > 1e-6)


@pytest.mark.parametrize("snr_db", [None, 20.0])
def test_make_dataset_builds_one_matrix(monkeypatch, snr_db):
    built = []

    class Counting(DataMatrix):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(synth, "DataMatrix", Counting)
    ds = make_dataset(base_spec(snr_db=snr_db))
    assert built == [ds.matrix]


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("spec", [
    base_spec(),
    base_spec(inlier_model=ClusteredInliers(nu=0.1),
              outlier_model=ClusteredOutliers(mu=0.2), snr_db=15.0),
    base_spec(outlier_model=BoundedConeOutliers(theta_max=0.7)),
    base_spec(outlier_model=MixedOutliers(mu=0.2)),
])
def test_spec_dict_round_trip(spec):
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_rejects_unknown_model():
    d = spec_to_dict(base_spec())
    d["outlier_model"] = {"type": "martian"}
    with pytest.raises(ValidationError):
        spec_from_dict(d)


@pytest.mark.parametrize("where, key, value, match", [
    ("spec", "rank", None, "missing key 'rank'"),
    ("spec", "snr", 3.0, "takes no key 'snr'"),
    ("inlier_model", "nu", 0.1, "UniformInliers takes no key 'nu'"),
    ("outlier_model", "sigma", 1.0, "ClusteredOutliers takes no key 'sigma'"),
    ("outlier_model", "mu", None, "missing key 'mu'"),
])
def test_spec_from_dict_names_the_bad_key(where, key, value, match):
    d = spec_to_dict(base_spec(outlier_model=ClusteredOutliers(mu=0.2)))
    target = d if where == "spec" else d[where]
    if value is None:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ValidationError, match=match):
        spec_from_dict(d)


def test_spec_from_dict_rejects_a_non_object():
    with pytest.raises(ValidationError, match="expected a JSON object"):
        spec_from_dict([1, 2])
    d = spec_to_dict(base_spec())
    d["inlier_model"] = "uniform"
    with pytest.raises(ValidationError, match="unknown model type"):
        spec_from_dict(d)


def _edited_sidecar(tmp_path, spec, edit):
    """The sidecar of spec's dataset after ``edit`` changed its JSON payload."""
    sidecar = export_dataset(make_dataset(spec), tmp_path / "d.csv")
    with open(sidecar) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(sidecar, "w") as fh:
        json.dump(payload, fh)
    return sidecar


# keys of sidecars from before these options were removed: the one value
# still generated loads, any other is refused
@pytest.mark.parametrize("spec, where, key, kept, other", [
    (base_spec(snr_db=10.0), None, "noise_target", "inliers", "all"),
    (base_spec(outlier_model=ClusteredOutliers(mu=0.2)), "outlier_model",
     "literal_scale", False, True),
    (base_spec(outlier_model=BoundedConeOutliers(theta_max=1.3)), "outlier_model",
     "within_subspace", False, True),
])
def test_old_sidecars_load_when_they_ask_for_what_is_generated(tmp_path, spec, where,
                                                               key, kept, other):
    def setter(value):
        def edit(payload):
            (payload["spec"] if where is None else payload["spec"][where])[key] = value
        return edit

    assert load_sidecar(_edited_sidecar(tmp_path, spec, setter(kept)))["spec"] == spec
    with pytest.raises(ValidationError, match=f"{key} = {other!r} cannot be generated"):
        load_sidecar(_edited_sidecar(tmp_path, spec, setter(other)))


@pytest.mark.parametrize("edit, match", [
    (lambda p: p["spec"].pop("gamma"), "missing key 'gamma'"),
    (lambda p: p.pop("labels"), "no 'labels'"),
], ids=["missing-field", "no-labels"])
def test_load_sidecar_names_the_bad_key(tmp_path, edit, match):
    with pytest.raises(ValidationError, match=match):
        load_sidecar(_edited_sidecar(tmp_path, base_spec(), edit))


_CLUSTERED = base_spec(inlier_model=ClusteredInliers(nu=0.1),
                       outlier_model=ClusteredOutliers(mu=0.2))
_CONE = base_spec(outlier_model=BoundedConeOutliers(theta_max=1.3))


@pytest.mark.parametrize("spec, where, key, value, match", [
    (_CLUSTERED, None, "n", "20", "n must be an integer, got '20'"),
    (_CLUSTERED, None, "num_points", 2.5, "num_points must be an integer, got 2.5"),
    (_CLUSTERED, None, "rank", True, "rank must be an integer, got True"),
    (_CLUSTERED, None, "seed", 7.0, "seed must be an integer, got 7.0"),
    (_CLUSTERED, None, "seed", -1, "seed must be a 64-bit unsigned integer, got -1"),
    (_CLUSTERED, None, "gamma", None, "gamma must be a finite real, got None"),
    (_CLUSTERED, None, "gamma", "0.3", "gamma must be a finite real, got '0.3'"),
    (_CLUSTERED, None, "gamma", float("nan"), "gamma must be a finite real, got nan"),
    (_CLUSTERED, None, "snr_db", "20", "snr_db must be a finite real, got '20'"),
    (_CLUSTERED, None, "snr_db", float("inf"), "snr_db must be a finite real, got inf"),
    (_CLUSTERED, "inlier_model", "nu", None, "nu must be a finite real, got None"),
    (_CLUSTERED, "outlier_model", "mu", "0.2", "mu must be a finite real, got '0.2'"),
    (_CONE, "outlier_model", "theta_max", [1.0], r"theta_max must be a finite real, got \[1.0\]"),
], ids=["n-str", "num_points-float", "rank-bool", "seed-float", "seed-negative", "gamma-null",
        "gamma-str", "gamma-nan", "snr_db-str", "snr_db-inf", "nu-null", "mu-str",
        "theta_max-list"])
def test_spec_values_of_the_wrong_type_name_the_field(tmp_path, spec, where, key, value,
                                                      match):
    def edit(d):
        (d if where is None else d[where])[key] = value

    d = spec_to_dict(spec)
    edit(d)
    with pytest.raises(ValidationError, match=match):
        spec_from_dict(d)
    with pytest.raises(ValidationError, match=match):
        load_sidecar(_edited_sidecar(tmp_path, spec, lambda payload: edit(payload["spec"])))


@pytest.mark.parametrize("orientation", ["points-as-rows", "points-as-columns"])
def test_export_round_trip(tmp_path, orientation):
    spec = base_spec(snr_db=20.0)
    ds = make_dataset(spec)
    csv_path = tmp_path / "data.csv"
    sidecar_path = export_dataset(ds, csv_path, orientation)
    loaded = load_csv_matrix(csv_path, orientation)
    assert np.array_equal(loaded.values, ds.matrix.values)  # repr round trip
    side = load_sidecar(sidecar_path)
    assert side["orientation"] == orientation
    assert side["spec"] == spec
    assert side["sigma"] == ds.sigma
    assert np.array_equal(side["labels"], ds.matrix.labels)
    assert np.allclose(side["true_basis"], ds.matrix.true_basis, atol=0)


def test_export_round_trip_mixed(tmp_path):
    spec = base_spec(inlier_model=ClusteredInliers(nu=0.1),
                     outlier_model=MixedOutliers(mu=0.2))
    ds = make_dataset(spec)
    side = load_sidecar(export_dataset(ds, tmp_path / "mixed.csv"))
    assert side["spec"] == spec
    assert np.array_equal(side["labels"], ds.matrix.labels)


def test_load_sidecar_with_bom(tmp_path):
    ds = make_dataset(base_spec())
    sidecar = export_dataset(ds, tmp_path / "d.csv")
    with open(sidecar, encoding="utf-8") as fh:
        text = fh.read()
    with open(sidecar, "w", encoding="utf-8-sig") as fh:
        fh.write(text)
    side = load_sidecar(sidecar)
    assert side["spec"] == ds.spec
    assert np.array_equal(side["labels"], ds.matrix.labels)


def test_load_sidecar_rejects_unknown_label(tmp_path):
    ds = make_dataset(base_spec())
    sidecar = export_dataset(ds, tmp_path / "d.csv")
    payload = json.loads(open(sidecar).read())
    for label in ("maybe", "unknown"):  # a point is an inlier or an outlier
        payload["labels"][0] = label
        with open(sidecar, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValidationError, match=f"unknown label '{label}'"):
            load_sidecar(sidecar)
