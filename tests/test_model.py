"""Monomial conversion, evaluation paths, physical units, quadrature."""

import math
import subprocess
import sys
from fractions import Fraction
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orthofit import (FitConfig, ModelFormatError, NormalizationMap,
                      SplitConfig, SurfaceModel, SynthSpec, dZ_dY,
                      entropy_change, eval_monomial, eval_ortho, eval_physical,
                      GridKernel, fit_surface, generate, load_model,
                      normalize, save_model, split, to_monomial)
from orthofit import model as model_module
from orthofit import select as select_module
from orthofit.basis import (columns_for_degree, degree_block, raw_to_monomial,
                            raw_values)
from orthofit.dataset import NormalizedDataset
from orthofit.ddarith import BLOCK_ELEMS, comp_dot, dd_dot
from orthofit.fit import FitBasis
from orthofit.model import (MAX_DEGREE, _dd_powers, _grid_coefficients,
                            _grid_sum)
from orthofit.ortho import PrecisionMode
from orthofit.select import group_errors
from conftest import all_train_split, src_env, uniform_xy
from oracles import (double_conversion, mpmath_monomial_coefficients,
                     mpmath_polynomial_gap, mpmath_raw_coefficients,
                     mpmath_simpson_entropy, mpmath_unit_sums, unit_dataset)

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
    # 1,000-point corpus, 666 training points.  The raw coefficients
    # c = g^T b against the stored expansion at 50 digits, and the model
    # file against the exact change of basis of those: the pushed-down
    # roundings keep the monomial form within a few roundings of the
    # fit's largest value (about 1) on the unit square, where the
    # plain-double conversion misses by far more
    import mpmath

    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    fit = fit_surface(split(data, SplitConfig("y", 3)), data,
                      FitConfig(fixed_columns=n_cols, max_columns=n_cols,
                                precision=PrecisionMode(precision)))
    raw = mpmath_raw_coefficients(fit)
    with mpmath.workdps(50):
        raw_gap = max(abs(mpmath.mpf(h) + mpmath.mpf(l) - w)
                      for h, l, w in zip(fit.c, fit.c_lo, raw))
    assert raw_gap <= (1e-30 if precision == "extended" else 1e-15)
    want = mpmath_monomial_coefficients(fit, raw=raw)
    px, py = uniform_xy(40, 79)
    d_ext = mpmath_polynomial_gap(fit.basis.kept, to_monomial(fit).c, want,
                                  px, py)
    d_dbl = mpmath_polynomial_gap(fit.basis.kept, double_conversion(fit).c,
                                  want, px, py)
    # each rounding d_s is left as d_s h_s / B[s, s], |h_s| <= 1
    c = to_monomial(fit).c
    lead = np.diag(raw_to_monomial(fit.basis.kept, fit.odd_x)[0])
    assert d_ext <= np.sum(np.abs(c) / lead) * 2.0 ** -52
    assert d_dbl > 100 * d_ext


def test_expansion_prefix_is_the_prefix_expansion():
    # row s of the raw-coefficient expansion W reads only the (s, s) block
    # before it, in double (numpy's fixed order) and in double-double, so
    # the first K rows of a wider basis are the expansion of a K-column
    # basis bit for bit, and one sweep scores every strength from one
    # expansion
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    for precision in PrecisionMode:
        cfg = FitConfig(fixed_columns=79, precision=precision)
        shared = FitBasis(parts, data, cfg)
        shared.block(20)
        for K in (1, 2, 40, 78):
            alone = FitBasis(parts, data, replace(cfg, fixed_columns=K))
            alone.block(20)
            assert (np.ascontiguousarray(alone._w[:, :K, :K]).tobytes()
                    == np.ascontiguousarray(shared._w[:, :K, :K]).tobytes())
        # and a 40-column fit's raw coefficients come off the wider W
        short = fit_surface(parts, data, replace(cfg, fixed_columns=40), 1e-4)
        w = shared._w[:, :40, :40]
        want = (dd_dot(w[0], w[1], short.b[:, None], short.b_lo[:, None])[0]
                if precision is PrecisionMode.EXTENDED
                else (short.b[:, None] * w[0]).sum(axis=0))
        assert short.c.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_cols", [79, 210])
def test_double_fit_matches_the_extended_fit_at_held_out_points(n_cols):
    # on the shifted Chebyshev columns the double fit is as accurate as
    # the extended one at the cv points: 1.2e-14 apart at 210 columns,
    # where on the monomial columns the gap was 5.3e-4
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    x, y = data.x[parts.cv_idx], data.y[parts.cv_idx]
    fits = [fit_surface(parts, data, FitConfig(
        fixed_columns=n_cols, max_columns=n_cols, precision=precision))
        for precision in PrecisionMode]
    gap = np.abs(eval_ortho(fits[0], x, y) - eval_ortho(fits[1], x, y)).max()
    assert gap <= 1e-12
    assert np.abs(fits[0].c).max() < 0.5


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
    # within 1 ulp of the exact sum_t c_t x^i y^j at the double x and y,
    # for the 79-column model of the 1k magnet corpus
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    model = to_monomial(fit_surface(split(data, SplitConfig()), data,
                                    FitConfig(fixed_columns=79)))
    assert model.c.size == 79
    x = np.array([0.0, 1.0, 0.37, 0.91, 0.05])
    y = np.array([0.0, 1.0, 0.62, 0.13, 0.98])
    got = eval_monomial(model, x, y)
    powers = [(m - j, j) for _, m, j in map(degree_block, model.kept)]
    for value, xv, yv in zip(got, x, y):
        exact = sum((Fraction(c) * Fraction(xv) ** a * Fraction(yv) ** b
                     for c, (a, b) in zip(model.c, powers)), Fraction(0))
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


@pytest.fixture(scope="module", params=[79, 91, 210])
def magnet_model(request):
    """Models of the 1k magnet corpus at 79, 91 and 210 columns (max|c|
    about 8e4, 3e5 and 3e11), whose sums cancel more the wider they are."""
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    K = request.param
    return to_monomial(fit_surface(split(data, SplitConfig()), data,
                                   FitConfig(fixed_columns=K, max_columns=K)))


def test_grid_kernel_is_faithful_against_mpmath(magnet_model):
    # the stored model's unit-coordinate z and dz/dy at 50 digits: one
    # rounding, plus the double-double sums' u^2 times the terms' size,
    # on the grid and at the same 30 points through the pointwise entry
    x = np.array([0.0, 0.07, 0.3, 0.55, 0.91, 1.0])
    y = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
    C = _grid_coefficients(magnet_model, True, False)
    z, dz = _grid_sum(C, _dd_powers(x, C[0].shape[-1]), y[:, None])
    xx, yy = np.tile(x, y.size), np.repeat(y, x.size)
    unit = replace(magnet_model, map=IDENTITY)
    u = 2.0 ** -53
    for got in ((z.ravel(), dz.ravel()),
                (eval_monomial(magnet_model, xx, yy), dZ_dY(unit, xx, yy))):
        for p, (xi, yk) in enumerate(zip(xx, yy)):
            for v, (ref, mag) in zip((got[0][p], got[1][p]),
                                     mpmath_unit_sums(magnet_model, xi, yk)):
                assert abs(v - ref) <= math.ulp(ref) + u * u * mag, (xi, yk)


def test_grid_entropy_is_as_close_to_simpson_as_per_point(magnet_model):
    # both paths round the unit coordinate s = unit(X) alike, which moves
    # dS by far more than an ulp on these models; past that they are one
    # kernel, so a grid point and a lone point miss the 50-digit rule
    # by the same amount
    nm = magnet_model.map
    span = nm.x_max - nm.x_min
    grid, point = [], []
    for X, Y in ((nm.x_max, nm.y_min), (nm.x_min + 0.37 * span, 301.5),
                 (nm.x_max, nm.y_max)):
        ref, mag = mpmath_simpson_entropy(magnet_model, Y, X)
        got = GridKernel(magnet_model, [X], entropy=True)([[Y]])[1][0, 0]
        assert abs(got - ref) <= 1e-15 * (abs(ref) + mag), (X, Y)
        grid.append(abs(got - ref))
        point.append(abs(entropy_change(magnet_model, Y, X) - ref))
    assert grid == point


def test_eval_grid_matches_per_point_evaluation(field_model):
    # the same quantities in the same units and the same bits, also
    # outside the rectangle; exactly +0.0 where X is the lower bound
    nm = field_model.map
    X = np.linspace(nm.x_min, nm.x_max + 1.0, 9)
    Y = np.linspace(nm.y_min - 5.0, nm.y_max, 7)
    Z, dZ, dS = GridKernel(field_model, X, slope=True,
                           entropy=True)(Y[:, None])
    XX, YY = np.tile(X, 7), np.repeat(Y, 9)
    for got, want in ((Z, eval_physical(field_model, XX, YY)),
                      (dZ, dZ_dY(field_model, XX, YY)),
                      (dS, entropy_change(field_model, YY, XX))):
        assert got.shape == (7, 9)
        assert got.ravel().tobytes() == want.tobytes()
    assert not np.signbit(dS[:, 0]).any() and not dS[:, 0].any()
    (only,) = GridKernel(field_model, X)(Y[:, None])
    assert only.tobytes() == Z.tobytes()


def test_grid_powers_that_underflow_stay_finite():
    # a degree-60 model near x = 0: x^60 and its dd low parts underflow,
    # outside two_prod's domain, but every value stays finite and close
    kept = tuple(range(columns_for_degree(60)))
    model = SurfaceModel(c=np.cos(np.arange(len(kept))), kept=kept,
                         map=IDENTITY, S=len(kept) - 1, lambda_=0.0,
                         sigma_tr=0.0)
    X = np.array([0.0, 5e-324, 1e-300, 1e-160, 1e-20, 1e-6, 0.5])
    Y = np.array([0.0, 1e-300, 1e-9, 0.5, 1.0])
    values = GridKernel(model, X, slope=True, entropy=True)(Y[:, None])
    assert all(np.isfinite(v).all() for v in values)
    np.testing.assert_allclose(
        values[0].ravel(), eval_physical(model, np.tile(X, Y.size),
                                         np.repeat(Y, X.size)),
        rtol=1e-12, atol=1e-300)


def _ragged_model(rng):
    """210 columns with coefficients over 12 decades, in units like a
    magnet's field and temperature."""
    return SurfaceModel(c=rng.standard_normal(210) * 10.0 ** rng.integers(
        -6, 6, 210), kept=tuple(range(210)),
        map=NormalizationMap(0.5, 5.5, 250.0, 350.0, -1.0, 2.0),
        S=210, lambda_=0.0, sigma_tr=0.0)


def _raw_fit(c, kept):
    """What ``group_errors`` reads of a fit: raw coefficients on the
    kept raw columns."""
    return SimpleNamespace(c=c, basis=SimpleNamespace(kept=kept), odd_x=False)


def test_row_blocks_keep_every_bit():
    # 210 raw columns: the held-out table goes in 312-row blocks, so 1,000
    # points end on a ragged block of 64; the error must come out as the
    # whole table in one gemv gives it (every block height here is a
    # multiple of four, the row group of OpenBLAS's gemv kernels)
    assert BLOCK_ELEMS // 210 == 312
    rng = np.random.default_rng(210)
    model = _ragged_model(rng)
    fit = _raw_fit(model.c, model.kept)
    x, y, z = rng.uniform(-0.1, 1.1, (3, 1000))
    data = NormalizedDataset(np.column_stack([x, y, z]), model.map)
    r = raw_values(x, y, 209) @ fit.c - z
    assert group_errors([fit], data, np.arange(1000)) == [
        float(comp_dot(r, r)) / 1000]


def test_kernel_blocks_keep_every_bit(monkeypatch):
    # the pointwise entries take 81 points per kernel at degree 19 with
    # two outputs (163 with one); blocks of 7 (or 14) points, ragged at
    # 1,000, and one block for all give the same bytes
    rng = np.random.default_rng(210)
    model = _ragged_model(rng)
    X = rng.uniform(0.0, 6.0, 1000)
    Y = rng.uniform(240.0, 360.0, 1000)
    x, y = model.map.to_unit(X, Y)
    calls = ((eval_monomial, (x, y)), (eval_physical, (X, Y)),
             (dZ_dY, (X, Y)), (entropy_change, (Y, X)))
    want = [f(model, *args).tobytes() for f, args in calls]
    for elems in (2 * 7 * 20 ** 2, 10 ** 9):
        monkeypatch.setattr(model_module, "BLOCK_ELEMS", elems)
        assert [f(model, *args).tobytes() for f, args in calls] == want


def test_pointwise_evaluation_stays_under_an_address_space_cap(tmp_path):
    # degree 30 at 30,000 points: the kernel's products for all points at
    # once, 31^2 doubles per point in each of several temporaries, would
    # take over 0.6 GB, so under a 0.5 GB cap the call finishes only in
    # blocks
    script = tmp_path / "pointwise.py"
    script.write_text(
        "import resource, sys\n"
        "import numpy as np\n"
        "from orthofit import NormalizationMap, SurfaceModel, eval_monomial\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 * 1024 ** 2,) * 2)\n"
        "model = SurfaceModel(c=np.cos(np.arange(496.0)),\n"
        "    kept=tuple(range(496)),\n"
        "    map=NormalizationMap(0.0, 1.0, 0.0, 1.0, 0.0, 1.0), S=495,\n"
        "    lambda_=0.0, sigma_tr=0.0)\n"
        "x = np.linspace(0.0, 1.0, 30_000)\n"
        "z = eval_monomial(model, x, x[::-1])\n"
        "sys.stdout.write(repr([bool(np.isfinite(z).all()), float(z[0]),\n"
        "    float(z[-1])]))\n")
    env = src_env()
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    model = SurfaceModel(c=np.cos(np.arange(496.0)), kept=tuple(range(496)),
                         map=IDENTITY, S=495, lambda_=0.0, sigma_tr=0.0)
    assert proc.stdout == repr([True, eval_monomial(model, 0.0, 1.0),
                                eval_monomial(model, 1.0, 0.0)])


def test_evaluation_tables_are_sized_by_their_width(monkeypatch):
    # kept (0, 5000) builds held-out tables 5,001 wide: a block of
    # BLOCK_ELEMS // 2 rows would hold 100 x 5001 doubles; at 13 rows per
    # block, 100 points take seven tables of 13 rows and one of 9, and
    # the error is the per-point one
    fit = _raw_fit(np.array([1.0, 1e-3]), (0, 5000))
    x = np.linspace(0.0, 1.0, 100)
    z = np.cos(x)
    r = np.array([raw_values(v, v, 5000)[0, [0, 5000]] @ fit.c
                  for v in x]) - z
    shapes = []

    def recording(x, y, L, odd_x):
        table = raw_values(x, y, L, odd_x)
        shapes.append(table.shape)
        return table
    monkeypatch.setattr(select_module, "raw_values", recording)
    data = NormalizedDataset(np.column_stack([x, x, z]), IDENTITY)
    assert group_errors([fit], data, np.arange(100)) == [
        float(comp_dot(r, r)) / 100]
    assert shapes == [(13, 5001)] * 7 + [(9, 5001)]
    assert max(rows * cols for rows, cols in shapes) <= BLOCK_ELEMS


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
