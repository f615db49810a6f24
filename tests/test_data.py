import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roma.data import (DataMatrix, Label, NormalizedMatrix, Partition,
                       SubspaceBasis, load_csv_matrix, normalize_columns,
                       write_csv)
from roma.errors import DimensionError, ParseError, ValidationError


def _write(tmp_path, text, name="m.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_points_as_rows(tmp_path):
    p = _write(tmp_path, "1,2,3\n4,5,6\n")
    m = load_csv_matrix(p)
    assert m.n == 3 and m.num_points == 2
    np.testing.assert_array_equal(m.values, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


def test_load_points_as_columns(tmp_path):
    p = _write(tmp_path, "1,4\n2,5\n3,6\n")
    m = load_csv_matrix(p, orientation="points-as-columns")
    assert m.n == 3 and m.num_points == 2
    np.testing.assert_array_equal(m.values, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


def test_load_skips_single_header_row(tmp_path):
    p = _write(tmp_path, "x,y,z\n1,2,3\n4,5,6\n")
    m = load_csv_matrix(p)
    assert m.num_points == 2
    # a second bad row is an error, not another header
    p2 = _write(tmp_path, "x,y,z\na,b,c\n1,2,3\n", name="m2.csv")
    with pytest.raises(ParseError) as exc:
        load_csv_matrix(p2)
    assert exc.value.row == 2
    assert exc.value.column == 1


def test_load_all_numeric_first_row_is_data(tmp_path):
    p = _write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n")
    assert load_csv_matrix(p).num_points == 3


def test_load_utf8_bom_keeps_first_row(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n7,8,9\n1,0,1\n")
    m = load_csv_matrix(p)
    assert m.num_points == 4
    np.testing.assert_array_equal(m.values[:, 0], [1.0, 2.0, 3.0])
    # a header after the mark is still a header
    p.write_bytes(b"\xef\xbb\xbfx,y,z\n4,5,6\n7,8,9\n")
    assert load_csv_matrix(p).num_points == 2


def test_load_partly_numeric_first_row_is_an_error(tmp_path):
    # one typo in row 1 must not turn the row into a header and drop it
    p = _write(tmp_path, "1,2,x\n4,5,6\n7,8,9\n1,0,1\n")
    with pytest.raises(ParseError) as exc:
        load_csv_matrix(p)
    assert (exc.value.row, exc.value.column) == (1, 3)


def test_load_ragged_row(tmp_path):
    p = _write(tmp_path, "1,2,3\n4,5\n")
    with pytest.raises(ParseError) as exc:
        load_csv_matrix(p)
    assert exc.value.row == 2
    assert "expected 3 fields" in str(exc.value)


def test_load_bad_field_coordinates(tmp_path):
    p = _write(tmp_path, "1,2,3\n4,oops,6\n")
    with pytest.raises(ParseError) as exc:
        load_csv_matrix(p)
    assert (exc.value.row, exc.value.column) == (2, 2)


def test_load_rejects_nan_inf(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        p = _write(tmp_path, f"1,2,3\n4,{bad},6\n", name=f"{bad}.csv")
        with pytest.raises(ParseError):
            load_csv_matrix(p)


def test_load_empty_file(tmp_path):
    p = _write(tmp_path, "")
    with pytest.raises(ParseError):
        load_csv_matrix(p)


def test_load_header_only(tmp_path):
    p = _write(tmp_path, "x,y,z\n")
    with pytest.raises(ParseError):
        load_csv_matrix(p)


def test_load_dimension_floor(tmp_path):
    # two coordinates per point: too few ambient dimensions
    p = _write(tmp_path, "1,2\n3,4\n5,6\n")
    with pytest.raises(DimensionError):
        load_csv_matrix(p)


def test_load_needs_two_points(tmp_path):
    p = _write(tmp_path, "1,2,3\n")
    with pytest.raises(ValidationError):
        load_csv_matrix(p)


def test_load_bad_orientation(tmp_path):
    p = _write(tmp_path, "1,2,3\n4,5,6\n")
    with pytest.raises(ValidationError):
        load_csv_matrix(p, orientation="sideways")


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = DataMatrix(rng.standard_normal((7, 11)))
    for orientation in ("points-as-rows", "points-as-columns"):
        path = tmp_path / f"{orientation}.csv"
        write_csv(m, path, orientation)
        back = load_csv_matrix(path, orientation)
        np.testing.assert_array_equal(back.values, m.values)  # repr round-trips


# --- containers --------------------------------------------------------------

def test_datamatrix_rejects_nonfinite():
    with pytest.raises(ValidationError):
        DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 2.0]]))


def test_datamatrix_zero_column_listed():
    vals = np.eye(4)[:, :3].copy()
    vals[:, 1] = 0.0
    with pytest.raises(ValidationError, match=r"\[1\]"):
        DataMatrix(vals)


def test_datamatrix_is_frozen():
    m = DataMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0
    with pytest.raises(AttributeError):
        m.values = np.eye(3)


def test_datamatrix_labels():
    m = DataMatrix(np.eye(3), labels=[0, 1, 1])
    np.testing.assert_array_equal(m.label_indices(Label.INLIER), [0])
    np.testing.assert_array_equal(m.label_indices(Label.OUTLIER), [1, 2])
    with pytest.raises(DimensionError):
        DataMatrix(np.eye(3), labels=[0, 1])
    with pytest.raises(ValidationError):
        DataMatrix(np.eye(3), labels=[0, 1, 7])
    with pytest.raises(ValidationError):
        DataMatrix(np.eye(3)).label_indices(Label.INLIER)


def test_datamatrix_basis_checked():
    with pytest.raises(ValidationError):
        DataMatrix(np.eye(3), true_basis=np.ones((3, 2)))
    m = DataMatrix(np.eye(3), true_basis=np.eye(3)[:, :2])
    assert m.true_basis.shape == (3, 2)


def test_normalized_matrix_enforces_unit_norm():
    with pytest.raises(ValidationError):
        NormalizedMatrix(2.0 * np.eye(3))
    NormalizedMatrix(np.eye(3))


def test_partition_validation():
    Partition(inliers=[0, 2], outliers=[1], num_points=3)
    with pytest.raises(ValidationError):
        Partition(inliers=[0, 0], outliers=[1, 2], num_points=3)
    with pytest.raises(ValidationError):
        Partition(inliers=[0, 1], outliers=[1, 2], num_points=3)
    with pytest.raises(ValidationError):
        Partition(inliers=[0], outliers=[2], num_points=3)
    with pytest.raises(ValidationError):
        Partition(inliers=[0, 1], outliers=[3], num_points=3)
    with pytest.raises(ValidationError):
        Partition(inliers=[-1, 0], outliers=[1, 2], num_points=3)


def test_partition_mask_and_empty_sides():
    part = Partition(inliers=[1, 0], outliers=[2], num_points=3)
    np.testing.assert_array_equal(part.outlier_mask(), [False, False, True])
    assert part.inliers.tolist() == [0, 1]  # stored sorted
    all_in = Partition(inliers=[0, 1, 2], outliers=[], num_points=3)
    assert all_in.outlier_mask().sum() == 0


def test_subspace_basis_validation():
    SubspaceBasis(np.eye(4)[:, :2])
    with pytest.raises(ValidationError):
        SubspaceBasis(np.ones((4, 2)))
    with pytest.raises(DimensionError):
        SubspaceBasis(np.ones(4))
    with pytest.raises(DimensionError):
        SubspaceBasis(np.eye(3)[:, :0])


# --- normalization ----------------------------------------------------------

@st.composite
def matrices(draw):
    n = draw(st.integers(3, 8))
    pts = draw(st.integers(2, 10))
    vals = draw(hnp.arrays(np.float64, (n, pts),
                           elements=st.floats(-1e6, 1e6, allow_nan=False)))
    # keep every column well away from zero norm: drawn entries are within
    # +-1e6, so a 3e6 bump cannot cancel
    for j in range(pts):
        vals[j % n, j] += 3e6
    return vals


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_normalize_columns_properties(vals):
    nm = normalize_columns(vals)
    norms = np.linalg.norm(nm.values, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    again = normalize_columns(nm)
    # idempotent to one rounding per entry
    np.testing.assert_allclose(again.values, nm.values, rtol=0.0, atol=1e-15)


def test_normalize_rejects_zero_column():
    vals = np.eye(3).copy()
    vals[:, 2] = 0.0
    with pytest.raises(ValidationError):
        normalize_columns(vals)


def test_normalize_accepts_containers():
    m = DataMatrix(3.0 * np.eye(4))
    nm = normalize_columns(m)
    assert isinstance(nm, NormalizedMatrix)
    np.testing.assert_allclose(nm.values, np.eye(4))
