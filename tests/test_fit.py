"""Incremental regularized fitting."""

import math

import numpy as np
import pytest

from orthofit import (DegenerateFitError, FitConfig, InsufficientDataError,
                      RegState, SplitConfig, SynthSpec, fit_surface,
                      generate, normalize, regularized_coefficient, split)
from orthofit.ddarith import DD
from orthofit.ortho import PrecisionMode
from oracles import (mpmath_curvature_sums, normal_equation_predictions,
                     training_error)
from conftest import all_train_split, unit_dataset


def test_coefficient_reduces_to_projection_without_regularization():
    assert regularized_coefficient(0.7, 3.2, 1.5, 0.0) == 0.7


def test_coefficient_untouched_while_curvature_sum_is_zero():
    assert regularized_coefficient(0.7, 0.0, 1.5, 123.0) == 0.7


def test_coefficient_large_lambda_limit():
    b = regularized_coefficient(0.3, 1.0, 5.0, 1e12)
    assert b == pytest.approx(-5.0, abs=1e-11)


def test_coefficient_generic_over_dd():
    b = regularized_coefficient(DD(0.3), DD(1.0), DD(5.0), 1e12)
    assert isinstance(b, DD)
    assert float(b) == pytest.approx(-5.0, abs=1e-11)


def test_regstate_recurrence():
    rs = RegState(lam=2.0)
    b0 = rs.absorb(0.5, 0.0)
    assert b0 == 0.5 and rs.R == 0.0
    b1 = rs.absorb(0.4, 3.0)
    assert b1 == pytest.approx((0.4 - 0.0) / (2 * 9 + 1))
    assert rs.R == pytest.approx(b1 * 3.0)
    b2 = rs.absorb(0.1, -1.0)
    assert rs.R == pytest.approx(b1 * 3.0 + b2 * (-1.0))


def test_plane_fit_is_exact(plane_points):
    data = unit_dataset(plane_points)
    fit = fit_surface(all_train_split(data.n), data, FitConfig(max_columns=3))
    assert fit.S == 2
    assert fit.sigma_tr <= 1e-24


def test_training_error_of_zero_coefficients_is_mean_square(plane_points):
    data = unit_dataset(plane_points)
    fit = fit_surface(all_train_split(data.n), data, FitConfig(max_columns=3))
    z = data.z
    err = training_error(np.zeros(3), fit.basis, z)
    assert err == pytest.approx(np.mean(z ** 2), rel=1e-14)
    with pytest.raises(ValueError):
        training_error(np.zeros(5), fit.basis, z)


def test_history_sigma_matches_training_error_recompute(plane_points):
    data = unit_dataset(plane_points)
    fit = fit_surface(all_train_split(data.n), data, FitConfig(max_columns=3))
    recomputed = training_error(fit.b, fit.basis, data.z)
    assert recomputed == pytest.approx(fit.sigma_tr, abs=1e-24)


def test_sigma_monotone_without_regularization():
    pts, _ = generate(SynthSpec(surface="magnet", nx=15, ny=12,
                                noise_sigma=0.05, seed=2))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=40, max_columns=40))
    sig = [st.sigma_tr for st in fit.history]
    for a, b in zip(sig, sig[1:]):
        assert b <= a * (1 + 1e-12) + 1e-18


def test_curvature_sums_vanish_for_linear_columns():
    pts, _ = generate(SynthSpec(surface="magnet", nx=12, ny=10, seed=3))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(lambda_=5.0, fixed_columns=12, max_columns=12))
    qs = [st.q for st in fit.history]
    assert qs[0] == qs[1] == qs[2] == 0.0
    assert any(q != 0.0 for q in qs[3:])


@pytest.mark.parametrize("precision, n_cols, bound", [
    ("double", 79, 1e-9), ("extended", 120, 1e-15), ("extended", 210, 1e-15)])
def test_curvature_sums_match_mpmath_oracle(precision, n_cols, bound):
    # 1,000-point corpus, 666 training points; Q_t from moment sums through
    # the stored expansion at 50 digits, against the fit's own recurrence
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    fit = fit_surface(parts, data,
                      FitConfig(fixed_columns=n_cols, max_columns=n_cols,
                                precision=PrecisionMode(precision)))
    idx = parts.train_idx
    want = np.array([float(q) for q in
                     mpmath_curvature_sums(fit.basis, data.x[idx], data.y[idx])])
    got = np.array([st.q for st in fit.history])
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


def test_earlier_coefficients_never_revisited():
    pts, _ = generate(SynthSpec(surface="magnet", nx=15, ny=12,
                                noise_sigma=0.01, seed=4))
    data = normalize(pts)
    short = fit_surface(all_train_split(data.n), data,
                        FitConfig(fixed_columns=10, max_columns=10))
    long = fit_surface(all_train_split(data.n), data,
                       FitConfig(fixed_columns=25, max_columns=25))
    assert np.array_equal(short.b, long.b[:10])


def test_matches_dense_normal_equation_oracle():
    pts, _ = generate(SynthSpec(surface="magnet", nx=8, ny=7,
                                noise_sigma=0.02, seed=5))
    data = normalize(pts)
    parts = all_train_split(data.n)
    fit = fit_surface(parts, data, FitConfig(fixed_columns=21, max_columns=21))
    want = normal_equation_predictions(data.x, data.y, data.z, 21)
    got = fit.basis.P @ fit.b
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-8 * scale


def test_stronger_regularization_fits_worse_at_equal_size():
    pts, _ = generate(SynthSpec(surface="magnet", nx=20, ny=15,
                                noise_sigma=0.01, seed=6))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    strong = fit_surface(parts, data, FitConfig(lambda_=math.exp(-10),
                                                fixed_columns=60, max_columns=60))
    weak = fit_surface(parts, data, FitConfig(lambda_=math.exp(-40),
                                              fixed_columns=60, max_columns=60))
    assert strong.sigma_tr > weak.sigma_tr


def test_large_lambda_keeps_curvature_sum_near_zero():
    # the running sum of b*Q must collapse relative to its largest step;
    # the corpus is odd-masked because the sheet is odd in x, which keeps
    # the late spectrum clean enough for the decay to assert itself early
    pts, _ = generate(SynthSpec(surface="magnet", nx=80, ny=60, seed=7))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    fit = fit_surface(parts, data,
                      FitConfig(lambda_=1e8, fixed_columns=30, max_columns=30,
                                odd_field_only=True))
    increments = np.array([st.b * st.q for st in fit.history])
    running = np.array([st.r_next for st in fit.history])
    assert np.abs(running[10:]).max() <= 1e-3 * np.abs(increments).max()


def test_target_error_stops_early():
    pts, _ = generate(SynthSpec(surface="magnet", nx=20, ny=15, seed=8))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(target_error=1e-6, max_columns=200))
    assert fit.sigma_tr <= 1e-6
    assert fit.history[-2].sigma_tr > 1e-6


def test_stall_rule_stops_on_noise():
    pts, _ = generate(SynthSpec(surface="plane", nx=12, ny=10,
                                noise_sigma=0.1, seed=9))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(max_columns=119, stop_rel_improvement=0.05,
                                stop_patience_blocks=2))
    assert fit.S < 60  # noise plateaus the error; the run must not exhaust the cap


def test_max_columns_cap_respected():
    pts, _ = generate(SynthSpec(surface="magnet", nx=12, ny=10,
                                noise_sigma=0.05, seed=10))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(max_columns=8, stop_rel_improvement=0.0001))
    assert fit.S <= 7


def test_odd_field_mask_restricts_kept_indices():
    pts, _ = generate(SynthSpec(surface="magnet", nx=14, ny=12, seed=11))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=8, max_columns=8,
                                odd_field_only=True))
    from orthofit.basis import degree_block
    for t in fit.basis.kept:
        _, m, j = degree_block(t)
        assert (m - j) % 2 == 1


def test_extended_mode_runs_and_returns_dd_parts():
    pts, _ = generate(SynthSpec(surface="magnet", nx=10, ny=8, seed=12))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=10, max_columns=10,
                                precision=PrecisionMode.EXTENDED))
    assert fit.b_lo is not None and fit.basis.P_lo is not None
    dbl = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=10, max_columns=10))
    assert np.allclose(fit.b, dbl.b, rtol=1e-9, atol=1e-12)


def test_insufficient_and_degenerate_inputs():
    data = unit_dataset([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)])
    with pytest.raises(InsufficientDataError):
        fit_surface(all_train_split(2), data, FitConfig(max_columns=3))
    same = unit_dataset([(0.5, 0.5, float(i)) for i in range(6)])
    with pytest.raises(DegenerateFitError):
        fit_surface(all_train_split(6), same,
                    FitConfig(fixed_columns=3, max_columns=3))
    small = unit_dataset([(0.1 * i, 0.05 * i, 1.0) for i in range(4)])
    with pytest.raises(InsufficientDataError):
        fit_surface(all_train_split(4), small,
                    FitConfig(fixed_columns=5, max_columns=6))


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(lambda_=-1.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            FitConfig(lambda_=value)
    for value in (math.nan, -1e-30):
        with pytest.raises(ValueError, match=f"target_error .*got {value!r}"):
            FitConfig(target_error=value)
    assert FitConfig(target_error=0.0).target_error == 0.0
    with pytest.raises(ValueError):
        FitConfig(max_columns=2)
    with pytest.raises(ValueError):
        FitConfig(stop_rel_improvement=0.0)
    with pytest.raises(ValueError):
        FitConfig(stop_patience_blocks=0)
    with pytest.raises(ValueError):
        FitConfig(fixed_columns=0)
