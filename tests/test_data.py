import csv
import dataclasses
import itertools
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roma import data
from roma.angles import AngleScores
from roma.data import (DataMatrix, Label, NormalizedMatrix, Partition,
                       SubspaceBasis, load_csv_matrix, normalize_columns,
                       write_csv)
from roma.detector import roma, roma_n
from roma.errors import DimensionError, ParseError, ValidationError
from roma.synth import SynthSpec, make_dataset

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
    values[:5, 0] = [-0.0, 5e-324, 0.1, 1e16, 1e-05]
    values[3:, 1] = rng.standard_normal(4)
    # and columns scaled by 2^-900 and 2^900, whose squares underflow and overflow
    unit = rng.standard_normal((7, 11))
    scaled = np.hstack([unit * 2.0 ** -900, unit * 2.0 ** 900])
    for values, orientation in itertools.product(
            (values, scaled), ("points-as-rows", "points-as-columns")):
        m = DataMatrix(values)
        path = tmp_path / f"{orientation}.csv"
        write_csv(m, path, orientation)
        # one repr() per value, nothing else
        out = values.T if orientation == "points-as-rows" else values
        assert path.read_bytes().decode() == "".join(
            ",".join(repr(float(v)) for v in row) + "\r\n" for row in out)
        # the bytes the csv module writes: the file is a CSV it would write
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in out:
                writer.writerow(row.tolist())
        assert path.read_bytes() == oracle.read_bytes()
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
    # with or without a '"' anywhere, a field's length limit is
    # csv.reader's, and a field over it a ParseError at its row
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


# --- runs of lines parsed by np.loadtxt --------------------------------------

# whitespace that str.strip() strips, then a zero-width space and a NUL,
# which it does not
_PADDING = st.sampled_from(["", " ", "\t", "\u00a0", "\u2003", "\x1c", "\x1f",
                            "\x0b", "\x0c", "\x85", "\u2028", "\u3000",
                            "\u200b", "\x00"])


@given(st.one_of(
    _NUMBERS, _ODD_NUMBERS, _BAD_FIELDS,
    st.from_regex(r"[+-]?[0-9]{0,4}\.?[0-9]{0,4}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from([
        "1_000", "1__0", "_1", "\u0661", "\u0661.\u0665", "\uff11", "\u00b2",
        "\x00", "1\x00", "\x001", "1\x002", "0x10", "0X1p3", "nan", "-nan", "NaN",
        "inf", "-Infinity", "infinity", "1e400", "-1e400", "1e-400", "1e", ".",
        "1.5.2", "- 1", "1d3", "1e+_3"]),
    st.text(max_size=6)),
    _PADDING, _PADDING, st.sampled_from(["", "\n", "\r\n", "\r"]))
@settings(max_examples=1000, deadline=None)
def test_loadtxt_parses_a_field_only_as_float_does(field, before, after, end):
    # The loader stores what np.loadtxt parses without asking float(); that
    # is sound only while loadtxt accepts a subset of the fields float()
    # accepts after str.strip(), and gives them the same bits
    line = before + field + after + end
    assume(line not in ("",) + data._LINE_ENDS)  # the loader never passes these
    try:
        got = np.loadtxt([line], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return
    if got.shape != (1, 1):  # a comma: the loader's width check sees it
        assert "," in field
        return
    want = float(line.strip())  # raises if loadtxt accepted more than float()
    if math.isnan(want):
        assert math.isnan(got[0, 0])
    else:
        assert got[0, 0].tobytes() == np.float64(want).tobytes(), (line, got, want)


def _fixed_lines(rng, rows, width):
    """``rows`` CSV lines of ``width`` fields, all of one length."""
    return [",".join(f"{v:.3f}" for v in rng.uniform(1, 9, width)) + "\n"
            for _ in range(rows)]


@pytest.mark.parametrize("run", [1, 2, 3])
@pytest.mark.parametrize("at", [6, -1], ids=["middle", "last"])
@pytest.mark.parametrize("defect, line", [
    ("blank line", "\n"),
    ("ragged row", "1.5,2.5\n"),
    ("nan", "1.5,nan,2.5\n"),
    ("underscores", "1_000,2.5,3.5\n"),
    ("unicode digit", "1.5,\u0661,3.5\n"),
    ("padding", " 1.5 ,\t2.5\x0b,\u20033.5\u2028\n"),
    ("overflow", "1.5,2.5,1e400\n"),
    ("nul", "1.5,2\x00,3.5\n"),
    ("long line", "1.5,2.50000," + "0" * 6 + "3.5\n"),
    ("field over the limit", "1.5,2.5," + "0" * 18 + "3.5\n"),
])
def test_a_later_run_with_a_defect_matches_the_oracle(
        tmp_path, monkeypatch, defect, line, at, run):
    # runs of 1-3 lines, so that the defect falls in a run after several
    # that np.loadtxt took; the field limit, 20, lies between the good
    # lines' length and the over-limit field's, which a 3-line run fits
    rng = np.random.default_rng(len(defect) + run)
    lines = _fixed_lines(rng, int(rng.integers(10, 41)), 3)
    size = len(lines[0])
    lines[at] = line
    if rng.integers(2):
        lines.insert(0, "a,b,c\n")
    path = tmp_path / "m.csv"
    path.write_text("".join(lines), newline="")
    monkeypatch.setattr(data, "_PARSE_CHUNK", run * (size + 64 + 8 * 3) + 4 * size)
    default_limit = csv.field_size_limit(20)
    loadtxt = np.loadtxt
    calls = []
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(len(a[0])) or loadtxt(*a, **k))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # such as loadtxt's on a blank run
            _same_as_oracle(path)
    finally:
        csv.field_size_limit(default_limit)
    assert calls[0] == run  # the first run, before the defect, took loadtxt


def _refusing_nul(reader):
    """``reader`` as Python 3.10's ``_csv`` reads: a line holding a NUL
    raises ``csv.Error`` when the reader reaches it."""
    def refusing(lines, *args, **kwargs):
        def checked():
            for line in lines:
                if "\x00" in line:
                    raise csv.Error("line contains NUL")
                yield line
        return reader(checked(), *args, **kwargs)
    return refusing


@pytest.mark.parametrize("quote", ["", '"'], ids=["quote-free", "quoted"])
def test_nul_follows_the_running_csv_reader(tmp_path, monkeypatch, quote):
    # csv.reader defines every row np.loadtxt does not take, so a reader
    # that refuses NUL, as 3.10's does, refuses it in either kind of file
    lines = _fixed_lines(np.random.default_rng(4), 20, 3)
    size = len(lines[0])
    lines[6] = "1.5,2\x00,3.5\n"
    path = tmp_path / "m.csv"
    path.write_text("".join(",".join(quote + f + quote for f in line[:-1].split(",")) + "\n"
                            for line in lines), newline="")
    # 1-line runs: np.loadtxt takes the lines before the NUL's
    monkeypatch.setattr(data, "_PARSE_CHUNK", size + 64 + 8 * 3 + 4 * size)
    monkeypatch.setattr(csv, "reader", _refusing_nul(csv.reader))
    _same_as_oracle(path)
    with pytest.raises(ParseError, match="line contains NUL") as exc:
        load_csv_matrix(path)
    assert (exc.value.row, exc.value.column) == (7, None)


def test_a_run_holds_less_than_twice_the_budget(tmp_path, monkeypatch):
    # lines of 18 and of 200 characters: a long line alone exceeds the
    # budget, so it is parsed a row at a time, and no run that np.loadtxt
    # takes holds more than the budget before its last line
    rng = np.random.default_rng(12)
    lines = _fixed_lines(rng, 40, 3)
    for j in (5, 6, 17, 30):
        lines[j] = lines[j].replace(",", " " * 91 + ",")
    path = tmp_path / "m.csv"
    path.write_text("".join(lines), newline="")
    budget = 600
    monkeypatch.setattr(data, "_PARSE_CHUNK", budget)
    loadtxt = np.loadtxt
    runs = []
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: runs.append(a[0]) or loadtxt(*a, **k))
    _same_as_oracle(path)

    def cost(run):  # the run's text, str objects and values; a four-byte line copy
        return sum(map(len, run)) + (64 + 8 * 3) * len(run) + 4 * max(map(len, run))

    assert runs
    for run in runs:
        assert cost([max(run, key=len)]) <= budget  # its longest line fits alone
        assert len(run) == 1 or cost(run[:-1]) < budget  # it ends when it reaches it


@pytest.mark.parametrize("orientation", data.ORIENTATIONS)
@pytest.mark.parametrize("run", [1, 3, None], ids=["1", "3", "default"])
def test_a_clean_file_never_enters_the_row_loop(tmp_path, monkeypatch, orientation, run):
    # only the header and the first data row, which sets the width and
    # allocates the matrix, are read and parsed a row at a time
    values = _random_doubles(np.random.default_rng(11), (7, 60))
    path = tmp_path / "clean.csv"
    write_csv(values, path, orientation)
    text = path.read_text()
    path.write_text("h\r\n" + text, newline="")
    if run is not None:
        size = max(map(len, text.splitlines(keepends=True)))
        width = len(text.splitlines()[0].split(","))
        monkeypatch.setattr(data, "_PARSE_CHUNK", run * (size + 64 + 8 * width) + 4 * size)
    add = data._Rows.add
    seen = []
    monkeypatch.setattr(data._Rows, "add", lambda rows, raw: seen.append(raw) or add(rows, raw))
    m = load_csv_matrix(path, orientation)
    assert m.values.tobytes() == values.tobytes()
    assert seen == [["h"], text.splitlines()[0].split(",")]


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


@pytest.mark.parametrize("shape, orientation", [
    ((3, 20000), "points-as-columns"),  # lines too long for the run budget
    ((1000, 3), "points-as-rows"),
    ((10, 10), "points-as-rows"),  # a matrix smaller than the buffers
])
def test_load_memory_bound_holds_for_wide_lines_and_small_files(tmp_path, shape, orientation):
    # the bound the docs state: 1.5 times the matrix, twice the longest
    # line's text and 100 bytes per field of it, and 96 KiB of buffers
    values = _random_doubles(np.random.default_rng(3), shape)
    path = tmp_path / "m.csv"
    write_csv(values, path, orientation)
    with open(path, "rb") as fh:
        row_bytes = max(map(len, fh))
    fields = shape[1] if orientation == "points-as-columns" else shape[0]
    load_csv_matrix(path, orientation)  # warm: imports and caches
    tracemalloc.start()
    try:
        m = load_csv_matrix(path, orientation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.values.tobytes() == values.tobytes()
    bound = 1.5 * values.nbytes + 2 * row_bytes + 100 * fields + (96 << 10)
    assert peak <= bound, (peak / values.nbytes, bound / values.nbytes)


@pytest.mark.parametrize("orientation", data.ORIENTATIONS)
def test_write_memory_is_one_row_of_text(tmp_path, orientation):
    m = DataMatrix(_random_doubles(np.random.default_rng(4), (100, 2000)))
    path = tmp_path / "m.csv"
    write_csv(m, path, orientation)  # warm: imports and caches
    with open(path, "rb") as fh:
        row_bytes = max(map(len, fh))
    tracemalloc.start()
    try:
        write_csv(m, path, orientation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a row of text and its parts, not the file's 100 or 2000 rows at once
    assert peak <= 8 * row_bytes + (64 << 10), peak / row_bytes


# --- containers --------------------------------------------------------------

def test_datamatrix_rejects_nonfinite():
    with pytest.raises(ValidationError):
        DataMatrix(np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 2.0]]))


def test_datamatrix_zero_column_listed():
    vals = np.eye(4)[:, :3].copy()
    vals[:, 1] = 0.0
    with pytest.raises(ValidationError, match=r"\[1\]"):
        DataMatrix(vals)


def test_zero_column_message_does_not_grow_with_the_count():
    vals = np.ones((3, 10**5))
    vals[:, 7:] = 0.0
    with pytest.raises(ValidationError) as exc:
        DataMatrix(vals)
    assert str(exc.value) == (
        "zero columns at indices [7, 8, 9, 10, 11, 12, 13, 14, 15, 16, ...] (99993 in all)")
    with pytest.raises(ValidationError, match=r"at indices \[0, 1, 2, 3, 4, 5, 6, 7, 8, 9\]$"):
        DataMatrix(np.zeros((3, 10)))


def test_zero_columns_are_those_of_zero_norm():
    # the exact norm, which math.hypot does not underflow: squares that
    # underflow to zero, a subnormal entry and -0.0 make no zero column
    vals = np.ones((4, 6))
    vals[:, 1] = 1e-200
    vals[:, 2] = [1e-160, 0.0, 0.0, 0.0]
    vals[:, 3] = [1e-200, -1e-161, 0.0, 0.0]
    vals[:, 4] = 0.0
    vals[:, 5] = [-0.0, 5e-324, 0.0, 0.0]
    zero = [j for j in range(vals.shape[1]) if math.hypot(*vals[:, j]) == 0.0]
    assert zero == [4]
    for make in (DataMatrix, normalize_columns):
        with pytest.raises(ValidationError, match=rf"zero columns at indices \{zero}"):
            make(vals)
    unit = normalize_columns(np.delete(vals, zero, axis=1)).values
    assert np.all(np.abs(np.linalg.norm(unit, axis=0) - 1.0) <= data.UNIT_NORM_TOL)


@pytest.mark.parametrize("k", [900, -900])
def test_a_power_of_two_scale_keeps_the_unit_columns_bitwise(k):
    # 2^900 overflows the squares and 2^-900 underflows them; below about
    # 2^-1000 entries would go subnormal and lose bits
    m = make_dataset(SynthSpec(n=100, num_points=300, rank=10, gamma=0.3, seed=1)).matrix
    scaled = DataMatrix(m.values * 2.0 ** k)
    assert np.array_equal(normalize_columns(scaled).values, normalize_columns(m).values)
    a, b = roma(m), roma(scaled)
    assert np.array_equal(a.scores.q, b.scores.q)
    np.testing.assert_array_equal(a.partition.outliers, b.partition.outliers)


def test_subnormal_columns_normalize_to_unit_norm():
    m = make_dataset(SynthSpec(n=100, num_points=50, rank=10, gamma=0.3, seed=2)).matrix
    tiny = DataMatrix(m.values * 1e-320)
    assert np.all(np.abs(tiny.values) < np.finfo(np.float64).tiny)  # all subnormal
    norms = np.linalg.norm(normalize_columns(tiny).values, axis=0)
    assert np.all(np.abs(norms - 1.0) <= data.UNIT_NORM_TOL)


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


@pytest.mark.parametrize("build", [
    DataMatrix, NormalizedMatrix, SubspaceBasis, roma,
    lambda a: DataMatrix(np.eye(3), true_basis=a),
    lambda a: AngleScores(a, np.zeros(3, dtype=np.int64)),
], ids=["values", "normalized", "basis", "roma", "true_basis", "scores"])
@pytest.mark.parametrize("given, kind", [
    (SubspaceBasis(np.eye(3)), "object"),
    (np.eye(3, dtype=int).astype(str).tolist(), "<U1"),
    (np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, None]], dtype=object), "object"),
], ids=["container", "strings", "none"])
def test_entries_that_are_not_numbers_are_refused_not_cast(build, given, kind):
    # not read through float(): a container is not unpacked, a string not
    # parsed and a None not made NaN
    with pytest.raises(ValidationError, match=f"entries must be real, got {kind} entries"):
        build(given)


@pytest.mark.parametrize("build, name", [
    (lambda na: AngleScores([0.1, 0.2], na), "na"),
    (lambda na: dataclasses.replace(
        roma_n(make_dataset(SynthSpec(n=10, num_points=20, rank=2, gamma=0.3, seed=1)).matrix),
        na_survivors=na), "na_survivors"),
], ids=["scores", "roma-n"])
@pytest.mark.parametrize("given, shown", [
    ([1.7, 2.2], "1.7"), ([True, False], "True"), (["1", "2"], "'1'"),
], ids=["float", "bool", "str"])
def test_counts_that_are_not_integers_are_refused_not_cast(build, name, given, shown):
    with pytest.raises(ValidationError, match=f"{name} must be integers, got {shown}"):
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
    # 2^1000 overflows the norm: refused as not unit norm, with no warning
    for scale in (2.0, 2.0 ** 1000):
        with pytest.raises(ValidationError, match="not unit norm"):
            NormalizedMatrix(scale * np.eye(3))
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
    # B^T B overflows: the error, not numpy's overflow warning
    for build in (SubspaceBasis, lambda b: DataMatrix(np.eye(3), true_basis=b)):
        with pytest.raises(ValidationError, match="not orthonormal"):
            build(np.full((3, 1), 1e200))


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
