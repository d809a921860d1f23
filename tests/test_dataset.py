"""Ingestion, normalization, and the stratified split."""

import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from orthofit import (InsufficientDataError, NormalizedDataset, ParseError,
                      SplitConfig, load_dataset, load_points, normalize,
                      save_dataset, split)
from orthofit.errors import DegenerateAxisError


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


@pytest.mark.parametrize("kind", ["path", "bytes", "file", "bom"])
def test_non_utf8_input_is_a_parse_error_naming_its_line(tmp_path, kind):
    raw = "x,y,z\n1,2,3\ncafé,2,3\n".encode("latin-1")
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    source = {"path": path, "bytes": raw, "file": io.BytesIO(raw),
              "bom": b"\xef\xbb\xbf" + raw}[kind]
    with pytest.raises(ParseError, match="line 3: not UTF-8: byte 0xe9") as exc:
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


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
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
            tr, cv, te = parts.sizes()
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
    return NormalizedDataset.from_unit_points(
        [(x, y, 0.0) for x, y in xy]), f


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
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
    assert c.sizes() == a.sizes()
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
