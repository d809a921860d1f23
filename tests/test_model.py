"""Monomial conversion, evaluation paths, physical units, quadrature."""

import math
from fractions import Fraction
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orthofit import (FitConfig, ModelFormatError, NormalizationMap,
                      SplitConfig, SurfaceModel, SynthSpec, dZ_dY,
                      entropy_change, eval_monomial, eval_ortho, eval_physical,
                      fit_surface, generate, load_model, normalize, save_model,
                      split, to_monomial)
from orthofit import model as model_module
from orthofit.basis import basis_values, columns_for_degree
from orthofit.ddarith import BLOCK_ELEMS, comp_dot
from orthofit.fit import FitBasis, solve
from orthofit.model import MAX_DEGREE, _expand, _monomials
from orthofit.ortho import PrecisionMode
from conftest import all_train_split, uniform_xy
from oracles import (double_conversion, mpmath_monomial_coefficients,
                     mpmath_simpson_entropy, unit_dataset)

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
    d_dbl = np.abs(eval_monomial(double_conversion(fit), px, py) - ref).max()
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
    d_dbl = np.abs(double_conversion(fit).c - ref).max()
    assert d_dbl > d_ext


def test_expansion_prefix_is_the_prefix_expansion():
    # row s of the expansion reads only rows < s and its double-double sums
    # run elementwise, so a K-column prefix of the widest expansion is the
    # expansion of the K-column basis, bit for bit, and one sweep can
    # convert every strength from one expansion
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    cfg = FitConfig(fixed_columns=79, precision=PrecisionMode.EXTENDED)
    shared = FitBasis(parts, data, cfg)
    fits = [solve(shared, lam) for lam in (1e-8, 1e-4)]
    basis = fits[0].basis
    al = basis.a_lo if basis.a_lo is not None else np.zeros_like(basis.a)
    gh, gl = _expand(basis.a, al, (np.eye(79), np.zeros((79, 79))))
    for K in (1, 2, 40, 78):
        ph, pl = _expand(basis.a[:K, :K], al[:K, :K],
                         (np.eye(K), np.zeros((K, K))))
        assert ph.tobytes() == np.ascontiguousarray(gh[:K, :K]).tobytes()
        assert pl.tobytes() == np.ascontiguousarray(gl[:K, :K]).tobytes()
    short = fit_surface(parts, data, replace(cfg, fixed_columns=40), 1e-4)
    models = _monomials(fits + [short])
    assert [m.c.tobytes() for m in models] == [
        to_monomial(fit).c.tobytes() for fit in fits + [short]]
    other = fit_surface(all_train_split(data.n), data,
                        replace(cfg, fixed_columns=40))
    with pytest.raises(ValueError, match="share one basis"):
        _monomials([fits[0], other])


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


def test_eval_monomial_is_faithful():
    # within 1 ulp of the exact sum_t c_t T_t over the double basis table
    # T, for the 79-column model of the 1k magnet corpus
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    model = to_monomial(fit_surface(split(data, SplitConfig()), data,
                                    FitConfig(fixed_columns=79)))
    assert model.c.size == 79
    x = np.array([0.0, 1.0, 0.37, 0.91, 0.05])
    y = np.array([0.0, 1.0, 0.62, 0.13, 0.98])
    got = eval_monomial(model, x, y)
    table = basis_values(x, y, max(model.kept))[:, list(model.kept)]
    for value, row in zip(got, table):
        exact = sum((Fraction(c) * Fraction(t) for c, t in zip(model.c, row)),
                    Fraction(0))
        assert abs(Fraction(value) - exact) <= Fraction(math.ulp(value))


def test_eval_physical_corners_roundtrip_and_flag():
    pts = [(H, T, 2.0 * H - 3.0 * T + 40.0)
           for H in (0.0, 2.0, 4.0) for T in (250.0, 300.0, 350.0)]
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data, FitConfig(max_columns=3))
    model = to_monomial(fit)
    Z = eval_physical(model, 0.0, 250.0)
    assert Z == pytest.approx(40.0 - 750.0 + 0.0, rel=1e-10)
    Z = eval_physical(model, 5.0, 250.0)
    assert Z == pytest.approx(2 * 5.0 - 3 * 250.0 + 40.0, rel=1e-8)


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
        fd = (eval_physical(model, X, Y + h)
              - eval_physical(model, X, Y - h)) / (2 * h)
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


def test_simpson_moments_are_built_once_per_top_degree(field_model):
    moments = model_module._simpson_moments
    moments.cache_clear()
    nm = field_model.map
    X = np.linspace(nm.x_min, nm.x_max, 7)
    first = entropy_change(field_model, 300.0, X)
    again = entropy_change(field_model, 300.0, X)
    assert first.tobytes() == again.tobytes()
    assert moments.cache_info().misses == 1
    nu = moments(5)
    assert nu is moments(5) and not nu.flags.writeable
    with pytest.raises(ValueError):
        nu[0] = 0.0


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


def test_row_blocks_keep_every_bit():
    # 210 columns: 312-row blocks, so 1,000 points end on a ragged block
    # of 64; every point must come out as its own call gives it
    assert BLOCK_ELEMS // 210 == 312
    rng = np.random.default_rng(210)
    model = SurfaceModel(c=rng.standard_normal(210) * 10.0 ** rng.integers(
        -6, 6, 210), kept=tuple(range(210)),
        map=NormalizationMap(0.5, 5.5, 250.0, 350.0, -1.0, 2.0),
        S=210, lambda_=0.0, sigma_tr=0.0)
    X = rng.uniform(0.0, 6.0, 1000)
    Y = rng.uniform(240.0, 360.0, 1000)
    x, y = model.map.to_unit(X, Y)
    whole = comp_dot(basis_values(x, y, 209), model.c, axis=1)
    assert eval_monomial(model, x, y).tobytes() == whole.tobytes()
    for f, args in ((eval_monomial, (x, y)), (dZ_dY, (X, Y)),
                    (entropy_change, (Y, X))):
        one = [f(model, *map(float, point)) for point in zip(*args)]
        assert f(model, *args).tobytes() == np.array(one).tobytes(), f.__name__


def test_evaluation_tables_are_sized_by_their_width(monkeypatch):
    # kept (0, 5000) builds tables 5,001 wide: a block of BLOCK_ELEMS // 2
    # rows would hold 100 x 5001 doubles
    sizes = []

    def recording(x, y, L):
        table = basis_values(x, y, L)
        sizes.append(table.size)
        return table
    monkeypatch.setattr(model_module, "basis_values", recording)
    model = SurfaceModel(c=np.array([1.0, 1e-3]), kept=(0, 5000),
                         map=IDENTITY, S=1, lambda_=0.0, sigma_tr=0.0)
    x = np.linspace(0.0, 1.0, 100)
    z = eval_monomial(model, x, x)
    assert z.tobytes() == np.array(
        [eval_monomial(model, v, v) for v in x]).tobytes()
    assert sizes and max(sizes) <= BLOCK_ELEMS


def test_max_degree_is_the_largest_whose_table_row_fits_a_block():
    assert columns_for_degree(MAX_DEGREE) <= BLOCK_ELEMS
    assert columns_for_degree(MAX_DEGREE + 1) > BLOCK_ELEMS


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
# bounds of a model file: max - min must be finite too
_pairs = st.lists(_finite, min_size=2, max_size=2).map(sorted).filter(
    lambda b: math.isfinite(b[1] - b[0]))
_ordered = _pairs.filter(lambda b: b[0] < b[1])


@st.composite
def _models(draw):
    kept = draw(st.lists(st.integers(0, columns_for_degree(MAX_DEGREE) - 1),
                         min_size=1, max_size=20, unique=True))
    c = draw(st.lists(_finite, min_size=len(kept), max_size=len(kept)))
    x, y, z = draw(_ordered), draw(_ordered), draw(_pairs)
    return SurfaceModel(c=np.array(c), kept=tuple(kept),
                        map=NormalizationMap(*x, *y, *z),
                        S=len(kept) - 1,
                        lambda_=draw(_finite), sigma_tr=draw(_finite))


@settings(max_examples=150,
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


def test_save_model_refuses_non_finite_scalars(tmp_path, plane_points):
    model = to_monomial(_plane_fit(plane_points)[0])
    for bad in (replace(model, lambda_=math.inf),
                replace(model, sigma_tr=math.nan)):
        with pytest.raises(ValueError):
            save_model(bad, tmp_path / "bad.model.json")


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
