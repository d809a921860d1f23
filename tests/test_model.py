"""Monomial conversion, evaluation paths, physical units, quadrature."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orthofit import (FitConfig, ModelFormatError, NormalizationMap,
                      SplitConfig, SurfaceModel, SynthSpec, dZ_dY,
                      entropy_change, eval_monomial, eval_ortho, eval_physical,
                      fit_surface, generate, load_model, normalize, save_model,
                      split, to_monomial)
from orthofit.ortho import PrecisionMode
from conftest import all_train_split, unit_dataset, uniform_xy
from oracles import mpmath_monomial_coefficients, mpmath_simpson_entropy

IDENTITY = NormalizationMap(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)


def _plane_fit(plane_points):
    data = unit_dataset(plane_points)
    return fit_surface(all_train_split(data.n), data, FitConfig(max_columns=3)), data


def test_plane_conversion_is_forced(plane_points):
    fit, _ = _plane_fit(plane_points)
    model = to_monomial(fit)
    assert model.c == pytest.approx([0.5, 0.25, -0.1], abs=1e-14)
    assert model.kept == (0, 1, 2)


def test_constant_model_coefficient_is_mean(plane_points):
    data = unit_dataset(plane_points)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=1, max_columns=3))
    model = to_monomial(fit)
    # b0 = <z, 1/sqrt(N)> so c0 = b0 / sqrt(N) = mean(z)
    assert model.c[0] == pytest.approx(float(np.mean(data.z)), rel=1e-14)
    assert eval_ortho(fit, 0.77, 0.33) == pytest.approx(model.c[0], rel=1e-14)


def test_eval_paths_agree_on_random_magnet_fit():
    pts, _ = generate(SynthSpec(surface="magnet", nx=25, ny=20,
                                noise_sigma=1e-3, seed=21))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=61, max_columns=61,
                                precision=PrecisionMode.EXTENDED))
    model = to_monomial(fit)
    px, py = uniform_xy(100, 77)
    diff = np.abs(eval_monomial(model, px, py) - eval_ortho(fit, px, py))
    assert diff.max() <= 1e-9


def test_double_conversion_is_visibly_worse_at_high_order():
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=30,
                                noise_sigma=1e-4, seed=22))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=105, max_columns=105,
                                precision=PrecisionMode.EXTENDED))
    px, py = uniform_xy(60, 78)
    ref = eval_ortho(fit, px, py)
    d_ext = np.abs(eval_monomial(to_monomial(fit), px, py) - ref).max()
    d_dbl = np.abs(eval_monomial(
        to_monomial(fit, precision=PrecisionMode.DOUBLE), px, py) - ref).max()
    assert d_dbl > d_ext


@pytest.mark.parametrize("precision, n_cols", [("double", 79), ("extended", 120)])
def test_conversion_matches_mpmath_oracle(precision, n_cols):
    # 1,000-point corpus, 666 training points; c = g^T b from the stored
    # expansion at 50 digits, against the default (extended) conversion
    import mpmath

    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    fit = fit_surface(split(data, SplitConfig("y", 3)), data,
                      FitConfig(fixed_columns=n_cols, max_columns=n_cols,
                                precision=PrecisionMode(precision)))
    want = mpmath_monomial_coefficients(fit)
    c = to_monomial(fit).c
    with mpmath.workdps(50):
        ulps = [float(abs(mpmath.mpf(float(v)) - w)) / np.spacing(abs(float(w)))
                for v, w in zip(c, want)]
    assert max(ulps) <= 1.0
    ref = np.array([float(w) for w in want])
    d_ext = np.abs(c - ref).max()
    d_dbl = np.abs(to_monomial(fit, precision=PrecisionMode.DOUBLE).c - ref).max()
    assert d_dbl > d_ext


def test_eval_ortho_reproduces_training_points(plane_points):
    fit, data = _plane_fit(plane_points)
    for x, y, z in plane_points:
        assert eval_ortho(fit, x, y) == pytest.approx(z, abs=1e-14)


def test_eval_monomial_trivia(plane_points):
    fit, _ = _plane_fit(plane_points)
    model = to_monomial(fit)
    assert eval_monomial(model, 0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    zero = SurfaceModel(c=np.zeros(3), kept=(0, 1, 2), map=IDENTITY,
                        S=2, lambda_=0.0, sigma_tr=0.0)
    assert eval_monomial(zero, 0.3, 0.9) == 0.0


def test_eval_physical_corners_roundtrip_and_flag():
    pts = [(H, T, 2.0 * H - 3.0 * T + 40.0)
           for H in (0.0, 2.0, 4.0) for T in (250.0, 300.0, 350.0)]
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data, FitConfig(max_columns=3))
    model = to_monomial(fit)
    Z, extrapolated = eval_physical(model, 0.0, 250.0)
    assert not extrapolated
    assert Z == pytest.approx(40.0 - 750.0 + 0.0, rel=1e-10)
    Z, extrapolated = eval_physical(model, 5.0, 250.0)
    assert extrapolated
    assert Z == pytest.approx(2 * 5.0 - 3 * 250.0 + 40.0, rel=1e-8)
    Zs, flags = eval_physical(model, np.array([1.0, 9.0]), np.array([260.0, 260.0]))
    assert list(flags) == [False, True]


def test_slope_on_plane_with_identity_maps():
    model = SurfaceModel(c=np.array([0.5, 0.25, -0.1]), kept=(0, 1, 2),
                         map=IDENTITY, S=2, lambda_=0.0, sigma_tr=0.0)
    for x, y in [(0.0, 0.0), (0.7, 0.2), (1.0, 1.0)]:
        assert dZ_dY(model, x, y) == pytest.approx(-0.1, rel=1e-14)
    const = SurfaceModel(c=np.array([4.2]), kept=(0,), map=IDENTITY,
                         S=0, lambda_=0.0, sigma_tr=0.0)
    assert dZ_dY(const, 0.5, 0.5) == 0.0


def test_slope_matches_finite_differences_in_raw_units():
    pts, _ = generate(SynthSpec(surface="magnet", nx=20, ny=16, seed=23))
    raw = pts * [7.0, 100.0, 1.0] + [0.0, 200.0, 0.0]
    data = normalize(raw)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=28, max_columns=28))
    model = to_monomial(fit)
    h = 1e-3
    for X, Y in [(2.0, 260.0), (5.0, 310.0), (1.0, 220.0)]:
        fd = (eval_physical(model, X, Y + h)[0]
              - eval_physical(model, X, Y - h)[0]) / (2 * h)
        assert dZ_dY(model, X, Y) == pytest.approx(fd, rel=1e-6)


def test_slope_rejects_degenerate_y_range():
    bad = SurfaceModel(c=np.array([1.0]), kept=(0,),
                       map=NormalizationMap(0, 1, 5, 5, 0, 1),
                       S=0, lambda_=0.0, sigma_tr=0.0)
    with pytest.raises(ValueError):
        dZ_dY(bad, 0.5, 5.0)


def test_entropy_change_constant_slope():
    # z = 0.5 - 0.1 y over X in [0, 2]: integrand -0.1, integral -0.2
    nmap = NormalizationMap(0.0, 2.0, 0.0, 1.0, 0.0, 1.0)
    model = SurfaceModel(c=np.array([0.5, 0.0, -0.1]), kept=(0, 1, 2),
                         map=nmap, S=2, lambda_=0.0, sigma_tr=0.0)
    assert entropy_change(model, 0.5, 2.0) == pytest.approx(-0.2, rel=1e-12)
    assert entropy_change(model, 0.5, 0.0) == 0.0
    # linear in the upper bound for a constant integrand
    assert entropy_change(model, 0.5, 1.0) == pytest.approx(-0.1, rel=1e-12)


def test_entropy_change_simpson_exact_for_cubic_integrand():
    # dZ/dY = 4x^3 - 3x^2 + 2x - 1 (cubic): Simpson is exact
    c = np.zeros(15)
    for t, coef in ((2, -1.0), (4, 2.0), (7, -3.0), (11, 4.0)):
        c[t] = coef  # columns y, xy, x^2 y, x^3 y
    model = SurfaceModel(c=c, kept=tuple(range(15)), map=IDENTITY,
                         S=14, lambda_=0.0, sigma_tr=0.0)
    want = 1.0 - 1.0 + 1.0 - 1.0  # integral over [0, 1]
    assert entropy_change(model, 0.3, 1.0) == pytest.approx(want, abs=1e-12)


def test_entropy_change_argument_validation():
    degen = SurfaceModel(c=np.array([1.0]), kept=(0,),
                         map=NormalizationMap(2, 2, 0, 1, 0, 1),
                         S=0, lambda_=0.0, sigma_tr=0.0)
    with pytest.raises(ValueError):
        entropy_change(degen, 0.5, 2.0)


@pytest.fixture(scope="module")
def field_model():
    """Degree-11 model of magnet data in field/temperature-like units."""
    pts, _ = generate(SynthSpec(surface="magnet", nx=24, ny=16,
                                noise_sigma=0.02, seed=11))
    data = normalize(pts * [5.0, 100.0, 1.0] + [0.5, 250.0, 0.0])
    parts = split(data, SplitConfig("y", 3))
    return to_monomial(fit_surface(parts, data, FitConfig(
        fixed_columns=78, max_columns=78)))


def test_entropy_change_matches_mpmath_simpson_oracle(field_model):
    # the same rule on exact nodes: only the rounding of the fast path is
    # left, bounded by the magnitude of the terms the rule adds
    nm = field_model.map
    span = nm.x_max - nm.x_min
    for X, Y in ((nm.x_max, nm.y_min), (nm.x_min + 0.37 * span, 301.5),
                 (nm.x_max + 0.2 * span, nm.y_max + 10.0),
                 (nm.x_min - 0.1 * span, nm.y_min)):
        ref, mag = mpmath_simpson_entropy(field_model, Y, X)
        got = entropy_change(field_model, Y, X)
        assert abs(got - ref) <= 1e-15 * (abs(ref) + mag), (X, Y)


def test_entropy_change_arrays_match_scalar_calls(field_model):
    nm = field_model.map
    X = np.linspace(nm.x_min, nm.x_max, 7)
    Y = np.linspace(nm.y_min, nm.y_max, 7)[::-1]
    ds = entropy_change(field_model, Y, X)
    one = [entropy_change(field_model, float(y), float(x)) for x, y in zip(X, Y)]
    assert all(type(v) is float for v in one)
    assert ds.tobytes() == np.array(one).tobytes()
    # exactly +0.0 at the lower bound, also where the slope is negative
    assert dZ_dY(field_model, nm.x_min, 340.0) < 0
    assert math.copysign(1.0, entropy_change(field_model, 340.0,
                                             nm.x_min)) == 1.0


def test_model_file_roundtrip(tmp_path, plane_points):
    fit, _ = _plane_fit(plane_points)
    model = to_monomial(fit, include_audit=True)
    path = tmp_path / "plane.model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.c, model.c)
    assert back.kept == model.kept
    assert back.map == model.map
    assert back.S == model.S and back.lambda_ == model.lambda_
    assert back.sigma_tr == model.sigma_tr
    assert back.audit is not None and "a" in back.audit and "b" in back.audit


_finite = st.floats(allow_nan=False, allow_infinity=False)
_ordered = st.lists(_finite, min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def _models(draw):
    kept = draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=20,
                         unique=True))
    c = draw(st.lists(_finite, min_size=len(kept), max_size=len(kept)))
    x, y = draw(_ordered), draw(_ordered)
    z = sorted(draw(st.lists(_finite, min_size=2, max_size=2)))
    return SurfaceModel(c=np.array(c), kept=tuple(kept),
                        map=NormalizationMap(*x, *y, *z),
                        S=draw(st.integers(0, 10 ** 6)),
                        lambda_=draw(_finite), sigma_tr=draw(_finite))


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_models())
def test_model_file_roundtrip_is_exact(tmp_path, model):
    path = tmp_path / "prop.model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.c.tobytes() == model.c.tobytes()
    assert (back.kept, back.S, back.audit) == (model.kept, model.S, None)
    scalars = [astuple(m.map) + (m.lambda_, m.sigma_tr) for m in (back, model)]
    assert np.array(scalars[0]).tobytes() == np.array(scalars[1]).tobytes()


def test_model_file_rejects_bad_version_and_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}')
    with pytest.raises(ModelFormatError):
        load_model(bad)
    bad.write_text("not json at all")
    with pytest.raises(ModelFormatError):
        load_model(bad)
    bad.write_text('{"version": 1, "c": [1.0]}')
    with pytest.raises(ModelFormatError):
        load_model(bad)
    for garbage in (b"[1, 2]", b'{"version": 1, "c": "\xd0\x00"}'):
        bad.write_bytes(garbage)
        with pytest.raises(ModelFormatError):
            load_model(bad)


def test_unit_covariance_after_exact_rescaling():
    pts, _ = generate(SynthSpec(surface="magnet", nx=12, ny=10,
                                noise_sigma=0.01, seed=24))
    data_a = normalize(pts)
    data_b = normalize(pts * [1024.0, 0.25, 8.0])
    assert np.array_equal(data_a.points, data_b.points)
    cfg = FitConfig(fixed_columns=15, max_columns=15)
    fa = fit_surface(all_train_split(data_a.n), data_a, cfg)
    fb = fit_surface(all_train_split(data_b.n), data_b, cfg)
    px, py = uniform_xy(20, 79)
    assert np.array_equal(eval_ortho(fa, px, py), eval_ortho(fb, px, py))
