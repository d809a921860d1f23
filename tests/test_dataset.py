"""Ingestion, normalization, and the stratified split."""

import csv
import io
import math
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from orthofit import (InsufficientDataError, ParseError, SplitConfig,
                      load_dataset, load_points, normalize, save_dataset,
                      split)
from orthofit.dataset import (BLOCK_CHARS, HEADER_ALIASES, _bulk_rows,
                              _read_columns)
from orthofit.errors import DegenerateAxisError
from oracles import reference_read_columns, reference_rows, unit_dataset


def test_load_simple_csv():
    pts = load_dataset(b"x,y,z\n0,0,1\n1,0,2\n")
    assert pts.dtype == np.float64
    assert pts.tolist() == [[0, 0, 1], [1, 0, 2]]


def test_load_field_temperature_headers_and_count():
    rows = ["H,T,M"]
    for i in range(3789):
        rows.append(f"{i % 61},{i // 61},{math.sin(i)}")
    pts = load_dataset("\n".join(rows).encode())
    assert pts.shape == (3789, 3)


def test_load_parse_error_names_line():
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(b"x,y,z\n1,abc,2\n")
    with pytest.raises(ParseError, match="line 3"):
        load_dataset(b"x,y,z\n1,2,3\n1,2\n")
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(b"x,y,z\n1,2,3,4\n")


def test_first_bad_line_is_reported():
    # a bad cell on line 3 comes before a short row on line 5
    with pytest.raises(ParseError, match="line 3: non-numeric field 'abc'"):
        load_dataset(b"x,y,z\n1,2,3\n1,abc,3\n4,5,6\n7,8\n")


def test_line_numbers_count_the_lines_of_a_quoted_multiline_cell():
    # the quoted cell "1\n" takes lines 2 and 3, so the bad row is line 4
    for tail, message in ((b"4,5,x\n", "line 4: non-numeric field 'x'"),
                          (b"4,5,inf\n", "line 4: non-finite field 'inf'"),
                          (b"4,5\n", "line 4: expected 3 fields, got 2")):
        with pytest.raises(ParseError, match=message) as exc:
            load_dataset(b'x,y,z\n"1\n",2,3\n' + tail)
        assert exc.value.line == 4


def test_cell_beyond_the_csv_field_limit_is_a_parse_error():
    limit = csv.field_size_limit()
    big = b"9" * (limit + 1)
    tiny = b"0." + b"0" * limit  # a finite value, unlike big
    # data row, header row, and a data row after a quoted two-line cell;
    # then a finite cell and a text cell nobody reads, both over the limit
    for raw, line in ((b"x,y,z\n1,2,3\n" + big + b",2,3\n4,5,6\n", 3),
                      (big + b",y,z\n1,2,3\n", 1),
                      (b'x,y,z\n"1\n",2,3\n' + big + b",2,3\n", 4),
                      (b"x,y,z\n1,2,3\n" + tiny + b",2,3\n", 3),
                      (b"x,y,z,run\n1,2,3,a\n4,5,6," + big + b"\n", 3)):
        with pytest.raises(ParseError, match=f"^line {line}: field larger "
                           "than field limit") as exc:
            load_dataset(raw)
        assert exc.value.line == line
    with pytest.raises(ParseError, match="^line 2: field larger"):
        load_points(b"x,y\n" + big + b",1\n")


# cells around the edges of float(): specials, overflow, underscores, hex,
# padding that float() skips, padding only str.strip() skips (\x1c-\x1f),
# and the characters str.splitlines() ends a line at but csv.reader keeps
# inside a cell
_SPECIAL = ("nan", "inf", "-Infinity", "1e309", "1_0", "0x1", "abc", "", ".")
_SPLITLINES = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029")
_PAD = ("", " ", "\t", "\x00", "\x1f", "\xa0", "\ufeff") + _SPLITLINES
_FLOAT_PAD = ("", " ", "\x0b", "\x0c", "\x85", "\xa0", "\u2028", "\u2029")
_number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10 ** 6, 10 ** 6).map(str),
                    st.sampled_from(("1_0", "-2_5e-1_0", "\u0661\u0662")))
_core = st.one_of(_number, st.floats().map(repr), st.sampled_from(_SPECIAL))
_cell = st.builds(lambda a, core, b, quote: f'"{a}{core}{b}"' if quote
                  else a + core + b,
                  st.sampled_from(_PAD), _core, st.sampled_from(_PAD),
                  st.booleans())
_clean_cell = st.builds(lambda a, core, b: a + core + b,
                        st.sampled_from(_FLOAT_PAD), _number,
                        st.sampled_from(_FLOAT_PAD))


@st.composite
def _data_files(draw, clean):
    """(text, width, bom): a data file as text and the bytes to put
    before its encoding.  A clean file has one line end throughout and
    full rows of numbers that float() takes as they are, plus, at times,
    a text column nobody reads: the bulk path must take it whole.  The
    others mix quoted and odd cells, short and long rows, blank and
    whitespace-only lines, and \\r, \\n and \\r\\n line ends."""
    width = draw(st.sampled_from([2, 3]))
    delim = draw(st.sampled_from([",", "\t"]))
    names = list(draw(st.sampled_from(HEADER_ALIASES))[:width])
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    if clean:
        note = draw(st.sampled_from([None, *range(width + 1)]))
        if note is not None:
            names.insert(note, "note")
        text_cell = st.text(st.characters(
            exclude_characters=delim + '"\r\n\x00\x1c\x1d\x1e\x1f'), max_size=4)
        cells = [text_cell if n == "note" else _clean_cell for n in names]
        rows = draw(st.lists(st.tuples(*cells).map(delim.join), min_size=1,
                             max_size=8))
        eol = draw(st.sampled_from(["\n", "\r\n"]))
        eols = [eol] * len(rows)
    else:
        row = st.one_of(
            st.lists(_cell, min_size=width, max_size=width).map(delim.join),
            st.lists(_cell, max_size=width + 1).map(delim.join),
            st.sampled_from(["", " ", "\x1c", "\u2028", delim * (width - 1)]))
        rows = draw(st.lists(row, max_size=6))
        eols = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                             min_size=len(rows) + 1, max_size=len(rows) + 1))
        eol = eols.pop()
    text = delim.join(names) + eol + "".join(map(str.__add__, rows, eols))
    if rows and draw(st.booleans()):
        text = text.removesuffix(eols[-1])  # no line end after the last row
    return text, width, bom


def _parse_outcome(parse, text, width):
    try:
        return parse(text, width).tobytes()
    except ParseError as exc:
        return str(exc)


def _check_against_reference(case, reaches_row_loop):
    text, width, bom = case
    with nullcontext() if reaches_row_loop else mock.patch(
            "orthofit.dataset._row_loop", side_effect=AssertionError(
                "a clean file reached the row loop")):
        got = _parse_outcome(lambda t, w: _read_columns(bom + t.encode(), w),
                             text, width)
    assert got == _parse_outcome(reference_read_columns, text, width)


@settings(max_examples=500)
@given(_data_files(clean=False))
@example(("x,y\n\x1c4\x1c,1\n", 2, b""))
@example(("x\ty\tz\n1\t2\t3\n\t\t\n\n4\t \xa05\x1f\t6\n", 3, b""))
@example(("x,y\r1,2\r\n3,4\n", 2, b"\xef\xbb\xbf"))
@example(('run,x,y,z\n"q,1,2,3\nq",4,5,6\n', 3, b""))  # one row
def test_parser_matches_reference_row_loop(case):
    _check_against_reference(case, reaches_row_loop=True)


@settings(max_examples=500)
@given(_data_files(clean=True))
@example(("h,t\r\n1\u2028,2\x0c\r\n3,4\x85", 2, b""))
def test_clean_files_match_the_reference_without_the_row_loop(case):
    _check_against_reference(case, reaches_row_loop=False)


@pytest.mark.parametrize("text", ["x,y,z,note\n1,2,3,\udcff\n",
                                  "x,y,z\n1,\udcff2,3\n"])
def test_a_lone_surrogate_in_a_text_source_reads_as_the_reference(text):
    # a text source, such as a file opened with errors="surrogateescape",
    # can hold lone surrogates: one in an unread column is read past, one
    # in a wanted cell is the row loop's non-numeric field
    got = _parse_outcome(lambda t, w: load_dataset(io.StringIO(t)), text, 3)
    assert got == _parse_outcome(reference_read_columns, text, 3)


def _declining_bulk(monkeypatch):
    monkeypatch.setattr("orthofit.dataset._bulk_rows", lambda *a: None)


def _refusing_row_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("the row loop ran")
    monkeypatch.setattr("orthofit.dataset._row_loop", refuse)


@pytest.mark.parametrize("block_chars", [BLOCK_CHARS, 100])
def test_clean_input_never_reaches_the_row_loop(tmp_path, monkeypatch,
                                                block_chars):
    # a saved corpus (\r\n line ends), and a tab file with a text column,
    # \n line ends and no line end after its last row; 100-character
    # blocks cut both into many
    monkeypatch.setattr("orthofit.dataset.BLOCK_CHARS", block_chars)
    _refusing_row_loop(monkeypatch)
    pts = np.array([(i / 7, -i * 1e-300, 1e300 / (i + 1)) for i in range(50)])
    save_dataset(pts, tmp_path / "saved.csv")
    assert load_dataset(tmp_path / "saved.csv").tobytes() == pts.tobytes()
    text = "T\trun\tH\n" + "\n".join(f"{t}\tA-{t}\t{t * 0.1!r}"
                                     for t in range(50))
    assert load_points(text.encode()).tobytes() == (
        reference_read_columns(text, 2).tobytes())


def test_bad_cell_deep_in_a_large_file_names_its_line():
    # over a dozen blocks convert before the bad one declines and the row loop
    # reads the whole text again
    rows = [f"{i},{i % 7},{i * 0.5}" for i in range(100_000)]
    rows[69_999] = "1,abc,3"  # line 70,001: the header is line 1
    with pytest.raises(ParseError) as exc:
        load_dataset(("x,y,z\n" + "\n".join(rows) + "\n").encode())
    assert str(exc.value) == "line 70001: non-numeric field 'abc'"
    assert exc.value.line == 70_001


@pytest.mark.parametrize("tail", ["\r\n", '"1",2,3\r\n', "1,2\r3\r\n",
                                  "\x1c1,2,3\r\n"])
def test_a_late_surprise_declines_before_any_float_call(monkeypatch, tail):
    # a blank line, a quoted cell, a lone \r or a cell only the stripped
    # retry reads, after some twenty blocks of clean rows: every block is
    # scanned before any is converted
    calls = []
    monkeypatch.setattr("orthofit.dataset.float",
                        lambda cell: calls.append(cell) or float(cell),
                        raising=False)
    monkeypatch.setattr("orthofit.dataset._row_loop", lambda *a: "row loop")
    text = "x,y,z\r\n" + "1,2,3\r\n" * (20 * BLOCK_CHARS // 7) + tail
    assert _read_columns(text.encode(), 3) == "row loop"
    assert calls == []


@pytest.mark.parametrize("path", ["bulk", "row loop"])
def test_an_unwanted_text_column_never_reaches_float(monkeypatch, path):
    seen = []

    def recording_float(cell):
        seen.append(cell)
        return float(cell)
    if path == "bulk":
        _refusing_row_loop(monkeypatch)
    else:
        _declining_bulk(monkeypatch)
    monkeypatch.setattr("orthofit.dataset.float", recording_float,
                        raising=False)
    pts = load_dataset(b"run,x,y,z\nA-1,1,2,3\nB-2,4,5,6\n")
    assert pts.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert sorted(seen) == sorted("123456")


def _sixty_thousand_rows():
    raw = "".join(f"{i * 1e-3!r},{i % 977},{i * 0.25!r}\r\n"
                  for i in range(60_000))
    return ("x,y,z\r\n" + raw).encode()  # 1.26 MB


def _load_peak(raw):
    tracemalloc.start()
    try:
        out = load_dataset(raw)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_a_quoted_cell_reads_in_memory_that_follows_the_file():
    # one quoted cell sends the whole file through the row loop, which
    # holds one line at a time and the values as doubles, so its peak is
    # about the decoded text plus the values
    raw = _sixty_thousand_rows().replace(b"\r\n1", b'\r\n"1"', 1)
    size = len(raw)
    peak, out = _load_peak(raw)
    assert out.tobytes() == reference_read_columns(raw.decode(), 3).tobytes()
    assert peak <= 4 * size


def test_ingest_peak_memory_follows_the_block_not_the_file(monkeypatch):
    # 60,000 rows: one block's cells and masks take well under 1 MB, and
    # the row loop holds one line and the values, not the rows
    raw = _sixty_thousand_rows()
    bulk_peak, bulk = _load_peak(raw)
    _declining_bulk(monkeypatch)
    loop_peak, loop = _load_peak(raw)
    assert bulk.tobytes() == loop.tobytes()
    # beyond the decoded text and the result, a few blocks' worth
    assert bulk_peak - len(raw) - bulk.nbytes < 40 * BLOCK_CHARS
    assert loop_peak - len(raw) - loop.nbytes < 4 * BLOCK_CHARS
    # \r line ends leave no \n to end a block at: the bulk path declines
    # without scanning the whole text as one block
    text = raw.decode().replace("\r\n", "\r")
    tracemalloc.start()
    try:
        assert _bulk_rows(text, len("x,y,z\r"), "\r", ",", 3,
                          [0, 1, 2]) is None
        assert tracemalloc.get_traced_memory()[1] < 4 * BLOCK_CHARS
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["path", "bytes", "file", "bom", "text"])
def test_non_utf8_input_is_a_parse_error_naming_its_line(tmp_path, kind):
    raw = "x,y,z\n1,2,3\ncafé,2,3\n".encode("latin-1")
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as text:
        source = {"path": path, "bytes": raw, "file": io.BytesIO(raw),
                  "bom": b"\xef\xbb\xbf" + raw, "text": text}[kind]
        with pytest.raises(ParseError,
                           match="line 3: not UTF-8: byte 0xe9") as exc:
            load_dataset(source)
    assert exc.value.line == 3
    with pytest.raises(ParseError, match="line 2"):
        load_points(b"x,y\n\xff,1\n")


def test_load_rejects_empty_and_header_only():
    with pytest.raises(ParseError):
        load_dataset(b"")
    with pytest.raises(ParseError):
        load_dataset(b"x,y,z\n")


def test_load_rejects_unknown_header_and_nonfinite():
    with pytest.raises(ParseError, match="line 1"):
        load_dataset(b"a,b,c\n1,2,3\n")
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(b"x,y,z\n1,nan,3\n")


def test_load_points_shares_the_data_file_checks():
    pts = load_points(b"x,y\n0,0.5\n")
    assert pts.dtype == np.float64 and pts.tolist() == [[0.0, 0.5]]
    assert load_points(b"H\tT\n1e2\t3\n").tolist() == [[100.0, 3.0]]
    with pytest.raises(ParseError, match="line 3"):
        load_points(b"x,y\n1,2\n0.5,nan\n")
    with pytest.raises(ParseError, match="line 2"):
        load_points(b"x,y\n1,2,3\n")
    with pytest.raises(ParseError, match="line 1"):
        load_points(b"a,b\n1,2\n")


def test_load_tab_delimited_scientific_notation():
    pts = load_dataset(b"H\tT\tM\n9.62E-07\t2\t3\n1e2\t4\t5\n")
    assert pts[:, 0].tolist() == [9.62e-07, 100.0]


def test_load_extra_columns_and_explicit_names():
    src = b"run,x,y,z\n7,1,2,3\n"
    assert load_dataset(src).tolist() == [[1, 2, 3]]


def test_load_accepts_file_object_and_path(tmp_path):
    pts = np.array([(0.25, -1.5, 9.62e-7), (2, 3, 4), (5, 6, 7)])
    path = tmp_path / "data.csv"
    save_dataset(pts, path)
    assert np.array_equal(load_dataset(path), pts)
    with open(path) as fh:
        assert np.array_equal(load_dataset(fh), pts)
    assert np.array_equal(load_dataset(io.BytesIO(path.read_bytes())), pts)


# zeros, subnormals and the largest magnitudes besides whatever
# hypothesis draws: each must print and parse back to the same bits
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1.7e308, -1.7e308)
_finite = st.one_of(st.sampled_from(EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(_finite, _finite, _finite), min_size=1, max_size=20))
@example([EDGE_FLOATS[:3], EDGE_FLOATS[3:6], EDGE_FLOATS[6:] + (-0.0, 5e-324)])
def test_save_load_round_trip_is_bit_identical(tmp_path, rows):
    pts = np.array(rows, dtype=float)
    path = tmp_path / "round_trip.csv"
    save_dataset(pts, path)
    with open(path, encoding="utf-8", newline="") as fh:
        sources = [path, path.read_bytes(), fh]
        for back in map(load_dataset, sources):
            assert back.dtype == np.float64 and back.shape == pts.shape
            assert back.tobytes() == pts.tobytes()


# an int cell reaches the reference writer as the int and the written
# table as its float: integral floats up to 2**53 must print as the int
# (the sweep's S and the coefficient export's indices rely on it)
_any_cell = st.one_of(
    st.sampled_from(EDGE_FLOATS + (math.nan, math.inf, -math.inf)),
    st.floats(), st.integers(-2**53, 2**53))


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(_any_cell, _any_cell, _any_cell), max_size=20))
@example([(2**53, -2**53, 0), (65340, -1, 2**53 - 1), (10**15, 78, 1.5)])
def test_saved_bytes_match_the_reference_writer(tmp_path, monkeypatch, rows):
    # blocks of three rows: the lists end on full and partial blocks
    monkeypatch.setattr("orthofit.dataset.ROWS_PER_WRITE", 3)
    path = tmp_path / "written.csv"
    save_dataset(np.array(rows, dtype=float).reshape(-1, 3), path)
    assert path.read_bytes() == (
        "x,y,z\r\n" + reference_rows(rows, "\r\n")).encode()


def test_normalize_affine_and_exact_endpoints():
    pts = np.array([(2, 10, 5), (4, 30, 6), (6, 20, 7)])
    data = normalize(pts)
    assert data.x.tolist() == [0.0, 0.5, 1.0]
    assert data.y.tolist() == [0.0, 1.0, 0.5]
    assert data.z.tolist() == [0.0, 0.5, 1.0]
    assert data.n == 3


def test_normalize_constant_z_convention():
    pts = np.array([(0, 0, 7), (1, 2, 7), (2, 1, 7)])
    data = normalize(pts)
    assert not data.z.any()
    assert data.map.z_min == data.map.z_max == 7
    _, _, Z = data.map.to_raw(0.3, 0.4, 0.9)
    assert Z == 7.0


def test_normalize_errors():
    with pytest.raises(InsufficientDataError):
        normalize(np.array([(0, 0, 0), (1, 1, 1)]))
    with pytest.raises(DegenerateAxisError, match="x"):
        normalize(np.array([(1, 0, 0), (1, 1, 1), (1, 2, 2)]))
    with pytest.raises(DegenerateAxisError, match="y"):
        normalize(np.array([(0, 5, 0), (1, 5, 1), (2, 5, 2)]))
    with pytest.raises(ValueError, match="non-finite"):
        normalize(np.array([(0, 0, 0), (1, 1, math.nan), (2, 2, 2)]))


@pytest.mark.parametrize("shape", [(12,), (4, 6), (6, 2), (2, 3, 3)])
def test_normalize_rejects_other_shapes(shape):
    # no reshape: a (4, 6) array is not 8 points
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        normalize(np.arange(np.prod(shape), dtype=float).reshape(shape))


def test_denormalize_midpoint_and_roundtrip():
    pts = np.array([(0, 0, 0), (10, 10, 10), (3, 8, 6)], dtype=float)
    data = normalize(pts)
    assert data.map.to_raw(0.5, 0.5, 0.5) == (5.0, 5.0, 5.0)
    X, Y, Z = data.map.to_raw(data.x, data.y, data.z)
    assert np.allclose(np.column_stack([X, Y, Z]), pts, rtol=1e-12, atol=0)


def test_roundtrip_on_awkward_units():
    raw = np.array([(1013.25 + i * 0.37, -40.0 + i * 7.77, 1e-6 * math.cos(i))
                    for i in range(17)])
    data = normalize(raw)
    X, Y, Z = data.map.to_raw(data.x, data.y, data.z)
    rel = np.abs(np.column_stack([X, Y, Z]) - raw) / np.maximum(np.abs(raw), 1e-30)
    assert rel.max() < 1e-12


def _grid_dataset(n, seed=0):
    # distinct coordinates so the sort order is unambiguous
    pts = np.array([(i * 0.618 % 1.0, i / max(n - 1, 1), (i * 7 % 5) / 5.0)
                    for i in range(n)])
    return normalize(pts) if n >= 3 else None


def test_split_one_full_block():
    data = _grid_dataset(6)
    parts = split(data, SplitConfig("y", 3))
    order = np.argsort(data.y)
    assert sorted(parts.train_idx.tolist()) == sorted(order[:4].tolist())
    assert parts.cv_idx.tolist() == [order[4]]
    assert parts.test_idx.tolist() == [order[5]]


@pytest.mark.parametrize("n,f,expected_train", [
    (3789, 3, 2526),   # pro-rata trailing block: 631 full blocks + 3 -> 2 extra
    (3789, 2, 1895),   # one extra point lands in training
    (3790, 2, 1895),   # two extra points: one training, one cross-validation
])
def test_split_sizes_match_enumeration_oracle(n, f, expected_train):
    data = _grid_dataset(n)
    parts = split(data, SplitConfig("y", f))
    assert len(parts.train_idx) == expected_train
    assert len(parts.cv_idx) + len(parts.test_idx) == n - expected_train


def test_split_partition_property_exhaustive():
    for f in (2, 3, 4, 5):
        for n in range(2 * f, 201):
            data = _grid_dataset(n)
            parts = split(data, SplitConfig("x", f))
            combined = np.concatenate([parts.train_idx, parts.cv_idx, parts.test_idx])
            assert len(combined) == n
            assert np.array_equal(np.sort(combined), np.arange(n))
            tr, cv, te = map(len, (parts.train_idx, parts.cv_idx,
                                   parts.test_idx))
            assert tr >= cv and tr >= te
            assert abs(tr - (n * (f - 1)) // f) <= 1


@st.composite
def _tied_datasets(draw):
    """(dataset, f): coordinates drawn from a few levels, so the sort
    coordinate and its tiebreak both repeat, down to all points equal."""
    f = draw(st.integers(2, 7))
    n = draw(st.integers(2 * f, 200))
    levels = [st.sampled_from(np.linspace(0, 1, draw(st.integers(1, 6))))
              for _ in range(2)]
    xy = draw(st.lists(st.tuples(*levels), min_size=n, max_size=n))
    return unit_dataset([(x, y, 0.0) for x, y in xy]), f


@settings(max_examples=100)
@given(_tied_datasets(), st.sampled_from(["x", "y"]))
def test_split_partition_property_with_ties(case, axis):
    data, f = case
    parts = split(data, SplitConfig(axis, f))
    groups = [set(g.tolist()) for g in (parts.train_idx, parts.cv_idx,
                                       parts.test_idx)]
    assert sum(map(len, groups)) == data.n  # disjoint: no index twice
    assert set.union(*groups) == set(range(data.n))
    # |train| = N - floor(N / f): within one point above N (f - 1) / f
    n_train = len(groups[0])
    assert n_train == data.n - data.n // f
    assert 0 <= n_train - data.n * (f - 1) / f < 1


def test_split_determinism_and_axis_symmetry():
    data = _grid_dataset(97)
    a = split(data, SplitConfig("y", 3))
    b = split(data, SplitConfig("y", 3))
    assert np.array_equal(a.train_idx, b.train_idx)
    assert np.array_equal(a.cv_idx, b.cv_idx)
    assert np.array_equal(a.test_idx, b.test_idx)
    c = split(data, SplitConfig("x", 3))
    assert [len(c.train_idx), len(c.cv_idx), len(c.test_idx)] == [
        len(a.train_idx), len(a.cv_idx), len(a.test_idx)]
    assert not np.array_equal(np.sort(c.train_idx), np.sort(a.train_idx))


def test_split_tie_breaking_is_stable():
    # many points share the sort coordinate; order falls back to the other
    # coordinate and then to file position
    pts = [(x, 0.0, 0.1) for x in (3, 1, 2)]
    pts += [(x, 1.0, 0.2) for x in (6, 5, 4)]
    pts += [(7, 0.5, 0.3), (8, 0.5, 0.4)]
    data = normalize(np.array(pts))
    p1 = split(data, SplitConfig("y", 2))
    p2 = split(data, SplitConfig("y", 2))
    assert np.array_equal(p1.train_idx, p2.train_idx)
    # sorted-by-y order with x tiebreak: (1,2,3) then (7,8) then (4,5,6)
    expected_order = [1, 2, 0, 6, 7, 5, 4, 3]
    assert p1.train_idx.tolist() == [expected_order[i] for i in (0, 1, 4, 5)]


def test_split_insufficient_data():
    data = _grid_dataset(5)
    with pytest.raises(InsufficientDataError):
        split(data, SplitConfig("y", 3))


def test_split_config_validation():
    with pytest.raises(ValueError):
        SplitConfig("q", 3)
    with pytest.raises(ValueError):
        SplitConfig("x", 1)
