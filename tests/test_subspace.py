import numpy as np
import pytest

from roma.data import DataMatrix, SubspaceBasis
from roma.errors import DimensionError, ValidationError
from roma.subspace import LRE_FLOOR, lre, recover_subspace
from roma.synth import ColumnStreams, UniformInliers, random_subspace

from _oracles import svd_subspace


def planted_columns(n=40, r=6, count=80, seed=3):
    streams = ColumnStreams(seed)
    basis = random_subspace(n, r, streams.subspace())
    cols = UniformInliers().sample(streams, basis, count)
    return basis, cols


def test_recover_auto_rank_exact():
    basis, cols = planted_columns()
    rec = recover_subspace(cols, np.arange(80))
    assert rec.rank == 6
    assert lre(basis, rec) <= -12.0


def test_recover_forced_rank():
    basis, cols = planted_columns()
    rec = recover_subspace(cols, np.arange(80), rank=4)
    assert rec.rank == 4
    # a strict sub-basis cannot capture the planted span
    assert lre(basis, rec) > -2.0


def test_recover_subset_of_columns():
    basis, cols = planted_columns(count=40)
    rec = recover_subspace(cols, np.arange(0, 40, 2))
    assert rec.rank == 6
    assert lre(basis, rec) <= -12.0


def test_recover_auto_rank_ignores_noise_below_tol():
    basis, cols = planted_columns()
    noisy = cols + 1e-12 * np.random.default_rng(0).standard_normal(cols.shape)
    rec = recover_subspace(noisy, np.arange(80))
    assert rec.rank == 6


def test_recover_noise_above_tol_inflates_rank():
    basis, cols = planted_columns()
    noisy = cols + 1e-4 * np.random.default_rng(0).standard_normal(cols.shape)
    rec = recover_subspace(noisy, np.arange(80))
    assert rec.rank > 6  # auto rank is for clean data; pass rank= when noisy
    forced = recover_subspace(noisy, np.arange(80), rank=6)
    assert lre(basis, forced) <= -3.0


def test_recover_validation():
    _, cols = planted_columns(count=10)
    with pytest.raises(ValidationError):
        recover_subspace(cols, [])
    with pytest.raises(ValidationError):
        recover_subspace(cols, [0, 10])
    with pytest.raises(ValidationError):
        recover_subspace(cols, [-1])
    with pytest.raises(ValidationError):
        recover_subspace(cols, [0, 1], rank=0)
    with pytest.raises(ValidationError):
        recover_subspace(cols, [0, 1], rank=3)  # more than the column count


def test_recover_takes_integer_indices_and_rank():
    basis, cols = planted_columns(count=10)
    mask = np.zeros(10, dtype=bool)
    mask[:8] = True
    # a mask or a float index is refused, not cast to column indices
    for inliers in (mask, mask.tolist(), [0.5, 1], np.array([0.0, 1.0, 2.0])):
        with pytest.raises(ValidationError, match="inlier indices must be integers"):
            recover_subspace(cols, inliers)
    with pytest.raises(ValidationError, match=r"inlier index 9223372036854775808 lies outside \[0, 10\)"):
        recover_subspace(cols, [0, 2 ** 63])
    for rank in (2.7, 2.0, True, "2"):
        with pytest.raises(ValidationError, match="rank must be an integer"):
            recover_subspace(cols, np.flatnonzero(mask), rank=rank)
    for inliers in (np.flatnonzero(mask), np.flatnonzero(mask).astype(np.uint8), list(range(8))):
        assert lre(basis, recover_subspace(cols, inliers, rank=np.int64(6))) <= -12.0


@pytest.mark.parametrize("points, error, match", [
    (np.eye(6, 4) + 1j * np.eye(6, 4), ValidationError, "entries must be real"),
    (np.where(np.eye(6, 4) == 1, np.nan, 1.0), ValidationError, "must all be finite"),
    (np.where(np.eye(6, 4) == 1, np.inf, 1.0), ValidationError, "must all be finite"),
    (np.ones(6), DimensionError, "values must be 2-d"),
    (np.eye(6, 4) * [1, 1, 1, 0], ValidationError, r"zero columns at indices \[3\]"),
], ids=["complex", "nan", "inf", "1-d", "unselected-zero-column"])
def test_recover_takes_raw_points_through_the_datamatrix_checks(points, error, match):
    # the side door cast complex input to its real part, and ended NaN, inf
    # and 1-d input in LinAlgError or IndexError
    with pytest.raises(error, match=match):
        recover_subspace(points, [0, 1, 2])


def test_recover_accepts_datamatrix():
    basis, cols = planted_columns()
    rec = recover_subspace(DataMatrix(cols), np.arange(80))
    assert lre(basis, rec) <= -12.0


def spread_columns(n, r, count, seed, noise=0.0):
    """count columns on a random r-dim subspace of R^n whose directions
    carry weights r, r - 1, ..., 1, so leading subspaces are well apart."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((n, r)))[0]
    cols = basis @ (np.arange(r, 0, -1.0)[:, None] * rng.standard_normal((r, count)))
    return cols + noise * rng.standard_normal((n, count))


def assert_matches_svd(cols, rec, rank):
    r, s, u = svd_subspace(cols, rank)
    assert rec.rank == r
    # U^T cols = S V^T: each basis vector carries its singular value, in order
    got = np.linalg.norm(rec.values.T @ cols, axis=1)
    assert np.max(np.abs(got - s[:r])) <= 1e-13 * s[0]
    proj = rec.values @ rec.values.T - u @ u.T
    assert np.max(np.abs(proj)) <= 1e-12


@pytest.mark.parametrize("count", [12, 30, 200])  # k < n, k == n, k > n
def test_recover_matches_a_direct_svd(count):
    cols = spread_columns(30, 5, count, seed=count)
    rec = recover_subspace(cols, np.arange(count))
    assert rec.rank == 5  # noiseless rank-5 data
    assert_matches_svd(cols, rec, "auto")
    assert_matches_svd(cols, recover_subspace(cols, np.arange(count), rank=3), 3)
    noisy = spread_columns(30, 5, count, seed=count, noise=1e-3)
    assert_matches_svd(noisy, recover_subspace(noisy, np.arange(count), rank=5), 5)


def test_lre_identical_basis_at_rounding_level():
    basis, _ = planted_columns()
    assert lre(basis, basis) <= -15.0  # pure rounding residual
    # an exactly representable basis projects with zero residual
    u = np.eye(10)[:, :3]
    assert lre(u, u) == LRE_FLOOR


def test_lre_orthogonal_estimate_is_zero():
    u = np.eye(10)[:, :3]
    v = np.eye(10)[:, 3:6]
    assert lre(u, v) == pytest.approx(0.0, abs=1e-15)


def test_lre_accepts_wrappers_and_arrays():
    basis, cols = planted_columns()
    rec = recover_subspace(cols, np.arange(80))
    assert lre(SubspaceBasis(basis), rec) == lre(basis, rec.values)


def test_lre_takes_raw_bases_through_the_subspace_basis_check():
    basis, _ = planted_columns()
    # 5e-9 off orthonormal: inside the old atol of 1e-8, outside BASIS_ORTHO_TOL
    for true, est in ((basis, basis * (1 + 5e-9)), (basis * (1 + 5e-9), basis)):
        with pytest.raises(ValidationError, match="basis columns are not orthonormal"):
            lre(true, est)
    with pytest.raises(ValidationError, match="entries must be real"):
        lre(basis + 0j, basis)


def test_lre_partial_overlap_in_between():
    u = np.eye(10)[:, :4]
    v = np.eye(10)[:, [0, 1, 7, 8]]   # shares a 2-dim slice of the span
    val = lre(u, v)
    # half the energy survives projection: log10(sqrt(2)/2)
    assert val == pytest.approx(np.log10(np.sqrt(0.5)), abs=1e-12)


def test_lre_validation():
    u = np.eye(8)[:, :3]
    with pytest.raises(ValidationError):
        lre(u, np.ones((8, 2)))
    with pytest.raises(DimensionError):
        lre(u, np.eye(9)[:, :3])
    with pytest.raises(DimensionError):
        lre(u, np.ones(8))


def test_recovery_cutoff_separates_success():
    # the -5 cutoff sits far from both the exact-recovery and the
    # wrong-subspace regimes
    basis, cols = planted_columns()
    good = recover_subspace(cols, np.arange(80))
    assert lre(basis, good) < -5.0
    bad = SubspaceBasis(np.linalg.qr(
        np.random.default_rng(9).standard_normal((40, 6)))[0])
    assert lre(basis, bad) > -5.0
