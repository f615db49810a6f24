import csv
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roma import data
from roma.data import (DataMatrix, Label, NormalizedMatrix, Partition,
                       SubspaceBasis, load_csv_matrix, normalize_columns,
                       write_csv)
from roma.detector import roma
from roma.errors import DimensionError, ParseError, ValidationError

from _oracles import csv_oracle


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
    # coordinates after a skipped header are still file rows
    p3 = _write(tmp_path, "x,y,z\n1,2,3\n4,oops,6\n", name="m3.csv")
    with pytest.raises(ParseError) as exc:
        load_csv_matrix(p3)
    assert (exc.value.row, exc.value.column) == (3, 2)


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
    for bad in ("nan", "inf", "-inf", "1e400", " -1E400 "):
        p = _write(tmp_path, f"1,2,3\n4,{bad},6\n", name="nonfinite.csv")
        with pytest.raises(ParseError, match="is not a finite real") as exc:
            load_csv_matrix(p)
        assert (exc.value.row, exc.value.column) == (2, 2)


@pytest.mark.parametrize("text, message, column", [
    # a non-finite field on row 2 wins over the short row 3 behind it
    ("1,2,3\n4,inf,6\n7,8\n", "'inf' is not a finite real", 2),
    ("1,2,3\n4,inf,x\n", "'inf' is not a finite real", 2),
    ("1,2,3\n4,x,inf\n", "'x' is not a number", 2),
    ("1,2,3\n4,5, oops \n7,nan,9\n", "'oops' is not a number", 3),
])
def test_load_names_first_bad_field_in_file_order(tmp_path, text, message, column):
    p = _write(tmp_path, text)
    with pytest.raises(ParseError, match=message) as exc:
        load_csv_matrix(p)
    assert (exc.value.row, exc.value.column) == (2, column)


@pytest.mark.parametrize("text, expected", [
    (" 1 ,\t2\t,\u00a03\u2003\n4,5,6\n", [1.0, 2.0, 3.0]),  # padded
    ('"1","2","3"\n"4",5,"6"\n', [1.0, 2.0, 3.0]),  # quoted
    ("1_000,+1e-3,-0\n4,5,6\n", [1000.0, 1e-3, -0.0]),  # float() syntax
    ("\u0661,\u0662,\u0663\n4,5,6\n", [1.0, 2.0, 3.0]),  # Arabic-Indic digits
    # padding that str.strip() removes but float() rejects
    ("\x1c1,\x1d2\x1f,3\x1e\n4,5,6\n", [1.0, 2.0, 3.0]),
])
def test_load_accepts_float_syntax(tmp_path, text, expected):
    p = tmp_path / "m.csv"
    p.write_text(text, encoding="utf-8")
    m = load_csv_matrix(p)
    assert m.values[:, 0].tolist() == expected
    assert np.signbit(m.values[:, 0]).tolist() == np.signbit(expected).tolist()
    assert m.values[:, 1].tolist() == [4.0, 5.0, 6.0]


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


def _random_doubles(rng, shape):
    """Doubles with full random mantissas over a wide range of exponents."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 150, size=shape)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    values = _random_doubles(rng, (7, 11))
    values[:3, 0] = [-0.0, 5e-324, 0.1]
    values[3:, 1] = rng.standard_normal(4)
    m = DataMatrix(values)
    for orientation in ("points-as-rows", "points-as-columns"):
        path = tmp_path / f"{orientation}.csv"
        write_csv(m, path, orientation)
        # one repr() per value, nothing else
        out = values.T if orientation == "points-as-rows" else values
        assert path.read_bytes().decode() == "".join(
            ",".join(repr(float(v)) for v in row) + "\r\n" for row in out)
        back = load_csv_matrix(path, orientation)
        assert back.values.tobytes() == values.tobytes()  # -0.0 keeps its sign
        assert back.values.tobytes() == csv_oracle(path, orientation).values.tobytes()


@pytest.mark.parametrize("points, error, match", [
    (np.eye(3, 2) + 1j * np.eye(3, 2), ValidationError, "entries must be real"),
    (np.where(np.eye(3, 2) == 1, np.nan, 1.0), ValidationError, "must all be finite"),
    (np.where(np.eye(3, 2) == 1, np.inf, 1.0), ValidationError, "must all be finite"),
    (np.ones(5), DimensionError, "values must be 2-d"),
    (np.eye(3, 2) * [1, 0], ValidationError, r"zero columns at indices \[1\]"),
], ids=["complex", "nan", "inf", "1-d", "zero-column"])
def test_write_csv_refuses_what_load_csv_matrix_would(tmp_path, points, error, match):
    # refused before the file is opened, so an existing file keeps its bytes
    path = tmp_path / "m.csv"
    path.write_bytes(b"1.0,2.0,3.0\r\n")
    with pytest.raises(error, match=match):
        write_csv(points, path)
    assert path.read_bytes() == b"1.0,2.0,3.0\r\n"


def test_clean_file_never_parses_per_field(tmp_path, monkeypatch):
    # the per-field parser only names the bad field of a bad row
    path = tmp_path / "clean.csv"
    write_csv(DataMatrix(_random_doubles(np.random.default_rng(9), (6, 40))), path)
    path.write_text("a,b,c,d,e,f\n" + path.read_text())

    def fail(text, row, col):
        raise AssertionError(f"_parse_field ran on clean row {row}")

    monkeypatch.setattr(data, "_parse_field", fail)
    assert load_csv_matrix(path).num_points == 40


# --- the loader against the row-list oracle ----------------------------------

def _outcome(load, path, orientation):
    """The matrix's shape and bytes, or the error's type, text and place."""
    try:
        m = load(path, orientation)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return m.values.shape, m.values.tobytes()


def _same_as_oracle(path):
    for orientation in data.ORIENTATIONS:
        got = _outcome(load_csv_matrix, path, orientation)
        assert got == _outcome(csv_oracle, path, orientation), orientation


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ODD_NUMBERS = st.sampled_from([
    " 1 ", "\t2\t", "\u00a03\u2003", "1_000", "+1e-3", "-0", "5e-324", "\u0661",
    "\x1c4\x1f", "\x0c5\u2028", "\x856\x0b", '"7"', '" 9 "', '"8\n"', '"2\r\n"'])
_BAD_FIELDS = st.sampled_from([
    "nan", "inf", "-inf", "1e400", "x", "", "1,5", '"1,5"', '"a""b"', "1\x00",
    "1 2", "0x10"])


@st.composite
def csv_files(draw):
    """CSV bytes: mostly numbers, with padding, quotes, headers, blank
    lines, ragged rows and bad fields, under any mix of line ends."""
    def field():
        kind = draw(st.integers(0, 59))  # 1 bad field in 60, 1 odd one in 5
        return draw(_BAD_FIELDS if kind == 0 else _ODD_NUMBERS if kind < 13 else _NUMBERS)

    width = draw(st.sampled_from([1, 2] + [3, 4, 5] * 3))
    ragged = st.sampled_from([0] * 28 + [-1, 1])
    lines = [[field() for _ in range(width + draw(ragged))]
             for _ in range(draw(st.integers(1, 7)))]
    header = draw(st.sampled_from([None] * 4 + ["names", "partly numeric"]))
    if header == "names":
        lines.insert(0, [f"c{j}" for j in range(width)])
    elif header == "partly numeric":
        lines.insert(0, ["c0"] + ["1"] * (width - 1))
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):  # blank lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), [])
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final line end
    text = "".join(",".join(row) + end for row, end in zip(lines, ends))
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()


@given(csv_files(), st.sampled_from([1, 2, 3, data._SURVEY_CHUNK]),
       st.sampled_from([None] * 4 + [4, 12]))
@settings(max_examples=300, deadline=None)
def test_load_matches_the_row_list_oracle(tmp_path_factory, body, chunk, limit):
    path = tmp_path_factory.mktemp("oracle") / "m.csv"
    path.write_bytes(body)
    default_chunk, default_limit = data._SURVEY_CHUNK, csv.field_size_limit()
    data._SURVEY_CHUNK = chunk  # line ends split across the byte pass's reads
    if limit is not None:  # fields over csv.reader's length limit
        csv.field_size_limit(limit)
    try:
        _same_as_oracle(path)
    finally:
        data._SURVEY_CHUNK = default_chunk
        csv.field_size_limit(default_limit)


@pytest.mark.parametrize("text", [
    "\ufeff1,2,3\n4,5,6\n7,8,9\n",  # byte-order mark
    "x,y,z\n1,2,3\n4,5,6\n7,8,9\n",  # header
    "x,2,3\n1,2,3\n4,5,6\n",  # partly numeric row 1
    "1,2,3\r\n4,5,6\r\n7,8,9\r\n",  # CRLF
    "1,2,3\r4,5,6\r7,8,9\r",  # lone CR
    "1,2,3\n4,5,6\r\n7,8,9\r1,1,1",  # mixed, no final line end
    "1,2,3\n\n4,5,6\n7,8,9\n",  # blank line mid-file
    "1,2,3\n4,5,6\n7,8,9\n\n",  # blank line at the end
    "\n1,2,3\n4,5,6\n7,8,9\n",  # blank row 1 counts as the header
    '"1","2","3"\n"4",5,"6"\n7,8,9\n',  # quoted
    '\ufeff"1",2,3\n4,5,6\n7,8,9\n',  # quoted, after a byte-order mark
    '1,"2,5",3\n4,5,6\n7,8,9\n',  # quoted comma
    '1,"2\n",3\n4,5,6\n7,8,"9\r\n"\n',  # quoted line ends
    " 1 ,\t2\t,\u00a03\u2003\n1_000,5,\x1c6\x1f\n7,8,9\n",  # padding, underscores
    "1,2,3\n4,nan,6\n", "1,2,3\n4,inf,6\n", "1,2,3\n4,1e400,6\n",  # non-finite
    "1,2,3\n4,5\n7,8,9\n", "1,2,3\n4,5,6,7\n",  # ragged
    "1\n2\n3\n", "1\n2\n",  # a single column
    "1,2\n3,4\n5,6\n",  # too few dimensions one way
    "", "x,y,z\n", "\n\n",  # no data
])
def test_load_cases_match_the_row_list_oracle(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    _same_as_oracle(path)


@pytest.mark.parametrize("extra", [0, 1])
def test_load_field_limit_does_not_depend_on_a_quote(tmp_path, extra):
    # without a '"' anywhere the rows are split, not read by csv.reader;
    # a field's length limit must still be csv.reader's, and a field over it
    # a ParseError at its row
    long = "0" * (csv.field_size_limit() - 1 + extra) + "1"
    outcomes = []
    for first in ("1", '"1"'):
        path = tmp_path / "m.csv"
        path.write_text(f"{first},2,3\n4,5,{long}\r\n7,8,9\n", newline="")
        _same_as_oracle(path)
        outcomes.append(_outcome(load_csv_matrix, path, "points-as-rows"))
        # a bad field before the long one is still the error
        path.write_text(f"{first},2,3\n4,x,6\n7,8,{long}\n", newline="")
        _same_as_oracle(path)
        with pytest.raises(ParseError) as exc:
            load_csv_matrix(path)
        assert (exc.value.row, exc.value.column) == (2, 2)
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0][0] is ParseError) == bool(extra)
    if extra:
        assert outcomes[0][2:] == (2, None)


@pytest.mark.parametrize("chunk", [1, 2, data._SURVEY_CHUNK])
@pytest.mark.parametrize("body, line", [
    (b"1,2,3\n4,5,6\n7,\xff8,9\n", 3),
    (b'1,2,3\n"4",5,6\r\xff7,8,9\n', 3),  # csv.reader counts its records
    (b"".join(b"%d,2,3\r\n" % k for k in range(3000)) + b"7,\xe2\x82,9\n", 3001),
], ids=["quote-free", "quoted", "past-8-KiB"])
def test_load_names_the_line_of_the_first_byte_that_is_not_utf8(
        tmp_path, monkeypatch, body, line, chunk):
    # the text reader decodes 8 KiB ahead, so the row it was parsing need
    # not hold the bad byte; a small chunk splits a bad sequence across reads
    path = tmp_path / "m.csv"
    path.write_bytes(body)
    monkeypatch.setattr(data, "_SURVEY_CHUNK", chunk)
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_csv_matrix(path)
    assert (exc.value.row, exc.value.column) == (line, None)


@pytest.mark.parametrize("body, line", [
    (b"1,2,3\n4,x,6\n7,\xff8,9\n", 3),
    (b"1,2,3\n4,x,6\n" + b"7,8,9\n" * 5000 + b"7,\xff8,9\n", 5003),
], ids=["adjacent", "5000-lines-apart"])
def test_a_file_that_is_not_utf8_is_refused_before_any_row_is_parsed(
        tmp_path, body, line):
    # the bad byte wins over an earlier bad field, however far apart they are
    path = tmp_path / "m.csv"
    path.write_bytes(body)
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_csv_matrix(path)
    assert (exc.value.row, exc.value.column) == (line, None)


@pytest.mark.parametrize("first", ["1", '"1"'], ids=["quote-free", "quoted"])
@pytest.mark.parametrize("change", [
    lambda rows: rows + b"10,11,12\n",
    lambda rows: rows[:-len(b"7,8,9\n")],
    lambda rows: rows + b"7,\xff8,9\n",
], ids=["grow", "shrink", "not-utf8"])
def test_a_file_that_changes_after_the_survey(tmp_path, monkeypatch, first, change):
    path = tmp_path / "m.csv"
    rows = f"{first},2,3\n4,5,6\n7,8,9\n".encode()
    path.write_bytes(rows)
    survey = data._survey

    def survey_then_change(src):
        counted = survey(src)
        path.write_bytes(change(rows))  # the same file, truncated and rewritten
        return counted

    monkeypatch.setattr(data, "_survey", survey_then_change)
    try:
        m = load_csv_matrix(path)
    except ParseError as exc:
        assert str(exc).startswith("file changed while it was read")
        # csv.reader recounts the records of a file with a '"' after the
        # survey, so only a byte that is not UTF-8 can surprise its parse
        assert first == "1" or b"\xff" in path.read_bytes()
    else:
        assert first == '"1"'
        np.testing.assert_array_equal(m.values, csv_oracle(path).values)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_reads_a_pipe():
    # a stream that can be read only once, as from `--input <(...)`
    r, w = os.pipe()
    os.write(w, b"x,y,z\r\n1,2,3\r\n4,5,6\r\n")
    os.close(w)
    try:
        m = load_csv_matrix(f"/dev/fd/{r}")
    finally:
        os.close(r)
    np.testing.assert_array_equal(m.values, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


@pytest.mark.parametrize("shape", [(100, 2000), (50, 500)])
@pytest.mark.parametrize("orientation", data.ORIENTATIONS)
def test_load_memory_is_the_matrix_and_one_row(tmp_path, shape, orientation):
    values = _random_doubles(np.random.default_rng(3), shape)
    path = tmp_path / "m.csv"
    write_csv(values, path, orientation)
    with open(path, "rb") as fh:
        row_bytes = max(map(len, fh))
    load_csv_matrix(path, orientation)  # warm: imports and caches
    tracemalloc.start()
    try:
        m = load_csv_matrix(path, orientation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.values.tobytes() == values.tobytes()
    assert peak <= 1.5 * values.nbytes + row_bytes, peak / values.nbytes


# --- containers --------------------------------------------------------------

def test_datamatrix_rejects_nonfinite():
    with pytest.raises(ValidationError):
        DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 2.0]]))


def test_datamatrix_zero_column_listed():
    vals = np.eye(4)[:, :3].copy()
    vals[:, 1] = 0.0
    with pytest.raises(ValidationError, match=r"\[1\]"):
        DataMatrix(vals)


def test_zero_columns_are_those_of_zero_norm():
    # squares that underflow to zero, subnormal ones and exact zeros: a sum
    # of squares is zero in every order exactly when the norm is
    vals = np.ones((4, 6))
    vals[:, 1] = 1e-200
    vals[:, 2] = [1e-160, 0.0, 0.0, 0.0]
    vals[:, 3] = [1e-200, -1e-161, 0.0, 0.0]
    vals[:, 4] = 0.0
    vals[:, 5] = [-0.0, 5e-324, 0.0, 0.0]
    zero = np.flatnonzero(np.linalg.norm(vals, axis=0) == 0.0).tolist()
    assert zero == [1, 4, 5]
    for make in (DataMatrix, normalize_columns):
        with pytest.raises(ValidationError, match=rf"zero columns at indices \{zero}"):
            make(vals)


def test_datamatrix_is_frozen():
    m = DataMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0
    with pytest.raises(AttributeError):
        m.values = np.eye(3)


@pytest.mark.parametrize("build, given", [
    (lambda a: DataMatrix(a).values, np.eye(3)),
    (lambda a: DataMatrix(np.eye(3), labels=a).labels, np.array([0, 1, 1], dtype=np.int8)),
    (lambda a: DataMatrix(np.eye(3), true_basis=a).true_basis, np.eye(3)),
    (lambda a: NormalizedMatrix(a).values, np.eye(3)),
    (lambda a: SubspaceBasis(a).values, np.eye(3)),
    (lambda a: normalize_columns(a).values, np.eye(3)),
], ids=["values", "labels", "true_basis", "normalized", "basis", "normalize_columns"])
def test_containers_copy_a_writeable_array(build, given):
    # a writeable C-contiguous array of the stored dtype, the case numpy
    # would hand over uncopied, stays the caller's
    stored = build(given)
    assert given.flags.writeable
    before = stored.copy()
    given.flat[0] += 1
    np.testing.assert_array_equal(stored, before)
    assert not stored.flags.writeable


def test_a_read_only_array_is_taken_as_it_is():
    a = np.eye(3)
    a.setflags(write=False)
    assert DataMatrix(a).values is a
    assert NormalizedMatrix(a).values is a


@pytest.mark.parametrize("build", [
    DataMatrix, NormalizedMatrix, SubspaceBasis, roma,
    lambda a: DataMatrix(np.eye(3), true_basis=a),
], ids=["values", "normalized", "basis", "roma", "true_basis"])
@pytest.mark.parametrize("given", [np.eye(3, dtype=complex), (np.eye(3) + 0j).tolist()],
                         ids=["array", "list"])
def test_complex_entries_are_refused_not_cast(build, given):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning either
        with pytest.raises(ValidationError, match="entries must be real, got complex128"):
            build(given)


def test_roma_leaves_the_callers_array_writeable():
    a = np.random.default_rng(0).standard_normal((10, 40))
    res = roma(a)
    assert a.flags.writeable
    a[:] = 1.0  # every column now equal: every q would be 0
    assert (res.scores.q > 0).all()


def test_datamatrix_labels():
    m = DataMatrix(np.eye(3), labels=[0, 1, 1])
    np.testing.assert_array_equal(m.label_indices(Label.INLIER), [0])
    np.testing.assert_array_equal(m.label_indices(Label.OUTLIER), [1, 2])
    with pytest.raises(DimensionError):
        DataMatrix(np.eye(3), labels=[0, 1])
    with pytest.raises(ValidationError):
        DataMatrix(np.eye(3), labels=[0, 1, 7])
    with pytest.raises(ValidationError):
        DataMatrix(np.eye(3), labels=[0, 1, 2])  # no label besides the two
    # an entry that is not an integer is refused, not cast; nor does an
    # integer wrap into a label
    with pytest.raises(ValidationError, match="labels must be integers, got 0.5"):
        DataMatrix(np.eye(3) + 1, labels=[0.5, 1.7, True])
    with pytest.raises(ValidationError, match="labels must be integers, got True"):
        DataMatrix(np.eye(3), labels=[0, True, 1])
    with pytest.raises(ValidationError, match="labels must be integers, got bool entries"):
        DataMatrix(np.eye(3), labels=np.array([False, True, True]))
    with pytest.raises(ValidationError, match="labels must be Label values"):
        DataMatrix(np.eye(3) + 1, labels=[300, 1, 0])
    assert DataMatrix(np.eye(3), labels=np.array([0, 1, 1], np.uint8)).labels.tolist() == [0, 1, 1]
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
    for bad in (np.nan, np.inf):
        v = np.eye(3)
        v[0, 1] = bad
        with pytest.raises(ValidationError):
            NormalizedMatrix(v)


def test_partition_validation():
    part = Partition(inliers=[2, 0], outliers=(1,), num_points=3)
    for side, expected in ((part.inliers, [0, 2]), (part.outliers, [1])):
        assert side.tolist() == expected  # sorted
        assert side.dtype == np.int64 and not side.flags.writeable


@pytest.mark.parametrize("inliers, outliers, num_points, match", [
    ([0, 0], [1, 2], 3, "point 0 is listed 2 times"),
    ([0, 1], [1, 2], 3, "point 1 is listed 2 times"),
    ([0], [2], 3, "point 1 is listed 0 times"),
    ([0, 1], [3], 3, r"index 3 lies outside \[0, 3\)"),
    ([-1, 0], [1, 2], 3, r"index -1 lies outside \[0, 3\)"),
    ([0, 1], [2], 4, "point 3 is listed 0 times"),
    ([0, 1], [2], 2, r"index 2 lies outside \[0, 2\)"),
    ([], [], -1, "num_points must be a count, got -1"),
    ([0, 1], [2], 3.0, "num_points must be a count, got 3.0"),
    ([0], [], True, "num_points must be a count, got True"),
    ([0.7], [], 1, "partition indices must be integers, got 0.7"),
    ([1.9, 0], [], 2, "partition indices must be integers, got 1.9"),
    (["0"], [], 1, "partition indices must be integers, got '0'"),
    ([True, 0], [], 2, "partition indices must be integers, got True"),
    ([0], np.array([1.0]), 2, "partition indices must be integers, got float64 entries"),
    ([2**63], [], 2, r"index 9223372036854775808 lies outside \[0, 2\)"),
    ([1, 2**64 - 1], [], 2, r"index 18446744073709551615 lies outside \[0, 2\)"),
], ids=["duplicate", "overlap", "gap", "out-of-range", "negative",
        "num_points-above", "num_points-below", "num_points-negative",
        "num_points-float", "num_points-bool", "float-index", "float-indices",
        "string-index", "bool-index", "float-array", "index-2^63", "index-2^64-1"])
def test_partition_lists_each_point_once(inliers, outliers, num_points, match):
    with pytest.raises(ValidationError, match=match):
        Partition(inliers=inliers, outliers=outliers, num_points=num_points)


def test_partition_mask_and_empty_sides():
    part = Partition(inliers=[1, 0], outliers=[2], num_points=3)
    np.testing.assert_array_equal(part.outlier_mask(), [False, False, True])
    assert part.inliers.tolist() == [0, 1]  # stored sorted
    all_in = Partition(inliers=[0, 1, 2], outliers=[], num_points=3)
    assert all_in.outlier_mask().sum() == 0
    # an empty side is valid whatever dtype numpy gives it
    all_out = Partition(inliers=np.array([]), outliers=(np.int64(1), 0), num_points=2)
    assert all_out.outliers.tolist() == [0, 1] and all_out.inliers.dtype == np.int64


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
