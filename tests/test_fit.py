"""Incremental regularized fitting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orthofit import (DegenerateFitError, FitConfig, InsufficientDataError,
                      FitBasis, SplitConfig, SynthSpec,
                      fit_surface, generate, normalize,
                      regularized_coefficient, solve, split, to_monomial)
import orthofit.fit
from orthofit.basis import _BlockGen, block_start, degree_block
from orthofit.ddarith import DD
from orthofit.ortho import PrecisionMode
from oracles import (first_nonfinite_column, mpmath_curvature_sums,
                     normal_equation_predictions, reference_curvature_sums,
                     training_error, unit_dataset)
from conftest import all_train_split


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


def _fit_and_sums(parts, data, cfg, lam=0.0):
    """``fit_surface``'s result with the curvature sums Q_t of its columns,
    read from the basis it was solved on."""
    basis = FitBasis(parts, data, cfg)
    fit = solve(basis, lam)
    return fit, np.array([float(q) for q in basis.q[:fit.S + 1]])


def test_solve_runs_the_closed_form_recurrence():
    # b_t from proj_t, Q_t and R_t = sum_{r<t} b_r Q_r, recomputed here from
    # the basis's own proj and q, must give solve's coefficients bit for bit
    pts, _ = generate(SynthSpec(surface="magnet", nx=15, ny=12,
                                noise_sigma=0.02, seed=11))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    for precision in PrecisionMode:
        basis = FitBasis(parts, data, FitConfig(
            fixed_columns=30, max_columns=30, precision=precision))
        for lam in (0.0, 2.0, 1e6):
            fit = solve(basis, lam)
            R, want = 0.0, []
            for proj, q in zip(basis.proj, basis.q[:fit.S + 1]):
                want.append(regularized_coefficient(proj, q, R, lam))
                R = R + want[-1] * q
            hi, lo = map(np.array, zip(*map(DD._coerce, want)))
            assert len(want) == 30
            assert fit.b.tobytes() == hi.tobytes(), (precision, lam)
            assert fit.b_lo.tobytes() == lo.tobytes(), (precision, lam)


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
    sig = [training_error(fit.b[:s], fit.basis, data.z)
           for s in range(1, fit.S + 2)]
    for a, b in zip(sig, sig[1:]):
        assert b <= a * (1 + 1e-12) + 1e-18


def test_curvature_sums_vanish_for_linear_columns():
    pts, _ = generate(SynthSpec(surface="magnet", nx=12, ny=10, seed=3))
    data = normalize(pts)
    _, qs = _fit_and_sums(all_train_split(data.n), data, FitConfig(
        fixed_columns=12, max_columns=12), 5.0)
    assert qs[0] == qs[1] == qs[2] == 0.0
    assert any(q != 0.0 for q in qs[3:])


@pytest.mark.parametrize("precision, n_cols, bound", [
    ("double", 79, 1e-11), ("extended", 120, 1e-15), ("extended", 210, 1e-15)])
def test_curvature_sums_match_mpmath_oracle(precision, n_cols, bound):
    # 1,000-point corpus, 666 training points; Q_t from moment sums through
    # the stored expansion at 50 digits, against the fit's own recurrence
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    fit, got = _fit_and_sums(parts, data, FitConfig(
        fixed_columns=n_cols, max_columns=n_cols,
        precision=PrecisionMode(precision)))
    idx = parts.train_idx
    want = np.array([float(q) for q in
                     mpmath_curvature_sums(fit.basis, data.x[idx], data.y[idx])])
    assert np.abs(got - want).max() <= bound * np.abs(want).max()


def _magnet_grid(nx, ny):
    pts, _ = generate(SynthSpec(surface="magnet", nx=nx, ny=ny,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    return split(data, SplitConfig()), data


@pytest.mark.parametrize("odd_x", [False, True])
@pytest.mark.parametrize("precision, n_cols", [
    ("double", 209), ("extended", 120), ("extended", 210)])
def test_curvature_sums_per_block_match_the_per_column_recurrence(
        precision, n_cols, odd_x):
    # the scan forms a block's terms over the earlier blocks for all its
    # rows at once and sums each row on Python floats, against one dd_dot
    # over every earlier column per column
    parts, data = _magnet_grid(40, 25)
    _check_curvature_sums(parts, data, FitConfig(
        fixed_columns=n_cols, max_columns=n_cols, odd_field_only=odd_x,
        precision=PrecisionMode(precision)))


@pytest.mark.parametrize("precision, cancelled", [
    ("double", 23), ("extended", 47)])
def test_curvature_sums_per_block_skip_rejected_columns(precision,
                                                        cancelled):
    # 64 training points: 25 of the first 85 raw columns are rejected, so
    # blocks hold rejected columns between accepted ones.  Many sums
    # cancel to below 2**-40 of their terms, where a double-double sum
    # taken in another order rounds to other doubles
    parts, data = _magnet_grid(12, 8)
    basis, small = _check_curvature_sums(parts, data, FitConfig(
        fixed_columns=60, precision=PrecisionMode(precision)))
    assert len(basis.rejected) == 25 and small == cancelled


def _check_curvature_sums(parts, data, cfg):
    """Scan ``cfg.fixed_columns`` columns and compare the curvature sums
    bit for bit with ``reference_curvature_sums`` over the same expansion
    and raw sums: the double-double parts and each q.  Returns the basis
    and the number of sums below 2**-40 of their terms' magnitudes."""
    basis = FitBasis(parts, data, cfg)
    solve(basis, 0.0)
    bld = basis.builder
    K = bld.n_columns
    idx = parts.train_idx
    gen = _BlockGen(data.x[idx], data.y[idx], bld.precision,
                    cfg.odd_field_only)
    raw = {}
    while bld.kept[-1] not in raw:
        raw.update((t, (q.hi, q.lo)) for t, _, q in gen.next_block())
    raw_hi, raw_lo = np.array([raw[t] for t in bld.kept]).T
    want_h, want_l = reference_curvature_sums(raw_hi, raw_lo,
                                              *bld.expansion[:, :K, :K])
    for got, want in ((basis._qh[:K], want_h), (basis._ql[:K], want_l)):
        assert got.tobytes() == want.tobytes()
    if bld.precision is PrecisionMode.DOUBLE:
        assert np.array(basis.q).tobytes() == (want_h + want_l).tobytes()
    else:
        assert [(q.hi, q.lo) for q in basis.q] == list(zip(want_h, want_l))
    assert K == cfg.fixed_columns and len(basis.q) == K
    a = bld.expansion[0, :K, :K]
    terms = (np.abs(np.diag(a) * raw_hi)
             + np.abs(np.tril(a, -1)) @ np.abs(want_h))
    return basis, int((np.abs(want_h) < 2.0 ** -40 * terms).sum())


def _chained_training_error(basis, fit):
    """The fit's training error from z less b_t P_t, one
    ``subtract_scaled_column`` per column in order."""
    bld, residual = basis.builder, basis._z_vec
    for t, (hi, lo) in enumerate(zip(fit.b, fit.b_lo)):
        coeff = DD(hi, lo) if basis._gen.ext else hi
        residual = bld.subtract_scaled_column(residual, t, coeff)
    return bld.vec_norm2(residual) / basis.ntr


def _scan_budget_corpus(n):
    # x is constant, so the odd-x columns span only the 3 y levels
    levels = [(0.1, 0.2), (0.5, 0.9), (0.9, 0.4), (0.1, 0.3), (0.5, 0.7),
              (0.9, 0.1), (0.5, 0.6)]
    data = unit_dataset([(0.5, y, z) for y, z in levels[:n]])
    return all_train_split(n), data


@pytest.mark.parametrize("corpus, cfg, reason", [
    # 667 training points (odd) and 1,000 (even)
    ("1k", FitConfig(fixed_columns=60), "columns"),
    ("1k", FitConfig(fixed_columns=60, precision=PrecisionMode.EXTENDED),
     "columns"),
    ("1k", FitConfig(), "stall"),                     # block-end flushes
    ("1k", FitConfig(target_error=1e-28), "stall"),  # every-column flushes
    ("1k-all", FitConfig(fixed_columns=45), "columns"),
    ("1k-all", FitConfig(), "stall"),
    ("1k-all", FitConfig(target_error=1e-28), "stall"),
    # 6 and 7 points: the scan budget ends the walk
    (6, FitConfig(max_columns=5, odd_field_only=True,
                  stop_patience_blocks=10), "scan_budget"),
    (7, FitConfig(max_columns=5, odd_field_only=True,
                  stop_patience_blocks=10), "scan_budget"),
])
def test_lazy_residual_keeps_every_bit(monkeypatch, corpus, cfg, reason):
    # solve subtracts pending columns in groups of max(1, BLOCK_ELEMS // n
    # - 1), and whenever a rule reads the training error; every grouping
    # must give the bits of the per-column chain
    if isinstance(corpus, int):
        parts, data = _scan_budget_corpus(corpus)
    else:
        parts, data = _magnet_grid(40, 25)
        if corpus == "1k-all":
            parts = all_train_split(data.n)
    basis = FitBasis(parts, data, cfg)
    n = basis.ntr
    assert n % 2 == (corpus in ("1k", 7))
    sizes = []
    group_subtract = basis.builder.subtract_scaled_columns

    def spy(vec, first, coeffs):
        sizes.append(len(coeffs))
        return group_subtract(vec, first, coeffs)

    basis.builder.subtract_scaled_columns = spy
    for group in (None, 1, 2, 7):
        if group is not None:
            monkeypatch.setattr(orthofit.fit, "BLOCK_ELEMS", (group + 1) * n)
        for lam in (0.0, 1e-6):
            sizes.clear()
            fit = solve(basis, lam)
            assert fit.stop_reason == reason
            assert fit.sigma_tr.hex() == _chained_training_error(
                basis, fit).hex(), (group, lam)
            assert sum(sizes) == fit.S + 1
            limit = max(1, orthofit.fit.BLOCK_ELEMS // n - 1)
            assert max(sizes) <= limit
            if cfg.target_error is not None:
                assert set(sizes) == {1}
            elif cfg.fixed_columns is not None:
                assert sizes[0] == min(limit, fit.S + 1)


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
    cfg = FitConfig(fixed_columns=60, max_columns=60)
    strong = fit_surface(parts, data, cfg, math.exp(-10))
    weak = fit_surface(parts, data, cfg, math.exp(-40))
    assert strong.sigma_tr > weak.sigma_tr


def test_large_lambda_keeps_curvature_sum_near_zero():
    # the running sum of b*Q must collapse relative to its largest step;
    # the corpus is odd-masked because the sheet is odd in x, which keeps
    # the late spectrum clean enough for the decay to assert itself early
    pts, _ = generate(SynthSpec(surface="magnet", nx=80, ny=60, seed=7))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    fit, q = _fit_and_sums(parts, data, FitConfig(
        fixed_columns=30, max_columns=30, odd_field_only=True), 1e8)
    increments = fit.b * q
    running = np.cumsum(increments)
    assert np.abs(running[10:]).max() <= 1e-3 * np.abs(increments).max()


def test_target_error_stops_early():
    pts, _ = generate(SynthSpec(surface="magnet", nx=20, ny=15, seed=8))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(target_error=1e-6, max_columns=200))
    assert fit.sigma_tr <= 1e-6
    assert training_error(fit.b[:-1], fit.basis, data.z) > 1e-6
    assert fit.stop_reason == "target_error"


def test_stall_rule_stops_on_noise():
    pts, _ = generate(SynthSpec(surface="plane", nx=12, ny=10,
                                noise_sigma=0.1, seed=9))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(max_columns=119, stop_rel_improvement=0.05,
                                stop_patience_blocks=2))
    assert fit.S < 60  # noise plateaus the error; the run must not exhaust the cap
    assert fit.stop_reason == "stall"


def test_max_columns_cap_respected():
    pts, _ = generate(SynthSpec(surface="magnet", nx=12, ny=10,
                                noise_sigma=0.05, seed=10))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(max_columns=8, stop_rel_improvement=0.0001))
    assert fit.S <= 7
    assert fit.stop_reason == "columns"


def test_fixed_size_fit_stops_on_columns():
    pts, _ = generate(SynthSpec(surface="magnet", nx=12, ny=10, seed=10))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=12, max_columns=12,
                                target_error=1.0))
    assert fit.S == 11 and fit.stop_reason == "columns"


def test_scan_budget_ends_an_odd_field_fit_on_rank_deficient_data():
    # x is constant, so the odd-x columns span only the 3 y levels: after 3
    # columns every one is rejected until 10 * cap + 100 have been scanned
    pts = [(0.5, y, z) for y, z in
           [(0.1, 0.2), (0.5, 0.9), (0.9, 0.4), (0.1, 0.3), (0.5, 0.7), (0.9, 0.1)]]
    data = unit_dataset(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(max_columns=5, odd_field_only=True,
                                stop_patience_blocks=10))
    assert fit.S == 2 and fit.stop_reason == "scan_budget"
    assert len(fit.rejected) > 0
    scanned = sum(m + 1 for m in range(degree_block(max(fit.rejected))[1] + 1))
    assert scanned >= 10 * 5 + 100


def test_solves_on_one_basis_match_fresh_fits():
    # y = 0 zeroes every column with a power of y, so each degree block
    # rejects columns after its one accepted column; each basis is scanned
    # to its 12-column cap first, and solves must stop inside it exactly as
    # a fit of their own would, rejected columns included
    pts = [(k / 11, 0.0, 0.2 + 0.6 * k / 11 + 0.01 * (k * k % 5))
           for k in range(12)] * 2
    data = unit_dataset(pts)
    parts = all_train_split(data.n)
    stall = FitConfig(max_columns=12, stop_rel_improvement=0.05)
    reasons = []
    for cfg, xs in [(stall, (40, 2)),
                    (replace(stall, target_error=1.1e-4), (40,)),
                    (replace(stall, target_error=1e-3), (40,))]:
        basis = FitBasis(parts, data, cfg)
        basis.block(11)  # scan all 12 columns before any solve
        for x in xs:
            got = solve(basis, math.exp(-x))
            want = fit_surface(parts, data, cfg, math.exp(-x))
            assert got.rejected == want.rejected
            assert (got.S, got.sigma_tr, got.stop_reason) == (
                want.S, want.sigma_tr, want.stop_reason)
            assert got.b.tobytes() == want.b.tobytes()
            assert got.basis.a.tobytes() == want.basis.a.tobytes()
            reasons.append((got.S, len(got.rejected), got.stop_reason))
    assert reasons == [(11, 55, "columns"), (3, 6, "stall"),
                       (6, 15, "target_error"), (1, 0, "target_error")]


def _magnet_1k():
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    parts = split(data, SplitConfig())
    return parts, data, data.z[np.asarray(parts.train_idx)]


def _named_column(basis, lam):
    try:
        fit = solve(basis, lam)
    except DegenerateFitError as exc:
        return int(str(exc).split("after column ")[1].split()[0]), None
    return None, fit.S


@pytest.mark.parametrize("cfg, named", [
    # extended fixed size: the double-double coefficients overflow at
    # large lambda, first at columns 0, 3, 10 and 36
    (FitConfig(fixed_columns=60, precision=PrecisionMode.EXTENDED),
     {0, 3, 10, 36}),
    # extended auto size: read at block ends only, so the named column 3
    # lies inside the block whose end found it; with a target error, read
    # after every column
    (FitConfig(precision=PrecisionMode.EXTENDED), {0, 3}),
    (FitConfig(target_error=1e-28, precision=PrecisionMode.EXTENDED),
     {0, 3}),
])
def test_solve_names_the_first_column_with_a_non_finite_error(cfg, named):
    parts, data, z = _magnet_1k()
    basis = FitBasis(parts, data, cfg)
    seen = set()
    for x in range(-709, -660, 3):
        lam = math.exp(-x)
        column, S = _named_column(basis, lam)
        want = first_nonfinite_column(basis, z, lam)
        if column is None:  # every training error through the fit's last
            assert want is None or basis.builder.kept.index(want) > S
        else:
            assert column == want, x
            seen.add(column)
    assert seen == named


@pytest.mark.parametrize("cfg, s", [
    (FitConfig(fixed_columns=60), 40),
    (FitConfig(fixed_columns=60), 59),
    (FitConfig(), 4),                        # inside degree block 2
    (FitConfig(target_error=1e-28), 7),
])
def test_solve_names_an_overflowing_double_column(cfg, s):
    # a double recurrence on normalized data stays finite at any lambda,
    # so one projection is made large enough for the residual's square to
    # overflow from column s on
    parts, data, z = _magnet_1k()
    basis = FitBasis(parts, data, cfg)
    assert basis.block(10) > s
    basis.proj[s] = 1e200
    for lam in (0.0, 1e-3):
        with np.errstate(over="ignore", invalid="ignore"):
            column, _ = _named_column(basis, lam)
        assert column == first_nonfinite_column(basis, z, lam)
        assert column == basis.builder.kept[s]


def test_basis_block_stops_scanning_at_the_column_cap():
    # blocks 0..3 hold 1 + 2 + 3 + 4 = 10 columns, the cap; asking for a
    # later block must not orthonormalize any further column
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    basis = FitBasis(split(data, SplitConfig()), data,
                     FitConfig(fixed_columns=10))
    assert basis.block(3) == 10
    assert basis.block(6) == basis.block(3)
    assert basis.builder.n_columns == len(basis.proj) == len(basis.q) == 10
    assert len(basis.blocks) == 7


def test_odd_field_mask_restricts_kept_indices():
    pts, _ = generate(SynthSpec(surface="magnet", nx=14, ny=12, seed=11))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=8, max_columns=8,
                                odd_field_only=True))
    for t in fit.basis.kept:
        _, m, j = degree_block(t)
        assert (m - j) % 2 == 1


def _rank_points(kind, a, b, seed):
    """a * b points on which the rank decisions are close calls: an a x b
    tensor grid, a distinct x values repeated under random y, or points
    within about 1e-14 of the line y = x."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        x, y = (v.ravel() for v in np.meshgrid(rng.random(a), rng.random(b)))
    elif kind == "repeated x":
        x, y = np.tile(rng.random(a), b), rng.random(a * b)
    else:
        x = rng.random(a * b)
        y = x + 1e-14 * rng.standard_normal(a * b)
    return np.column_stack([x, y, np.cos(3 * x) + y * y])


@settings(max_examples=120)
@given(st.sampled_from(["near line", "grid", "repeated x"]),
       st.integers(2, 8), st.integers(2, 8), st.integers(0, 2**32 - 1),
       st.sampled_from(list(PrecisionMode)), st.booleans(),
       st.integers(3, 40))
@example("near line", 2, 4, 0, PrecisionMode.DOUBLE, False, 4)
@example("near line", 8, 6, 0, PrecisionMode.EXTENDED, True, 40)
def test_rejected_columns_are_closed_upward(kind, a, b, seed, precision,
                                            odd_x, S):
    # the columns a fit rejects are the leading terms of polynomials that
    # vanish on its points, so none lies below a kept column, and the kept
    # columns always have a monomial form
    data = normalize(_rank_points(kind, a, b, seed))
    cfg = FitConfig(max_columns=S, fixed_columns=min(S, data.n - 1),
                    precision=precision, odd_field_only=odd_x)
    try:
        fit = fit_surface(all_train_split(data.n), data, cfg)
    except DegenerateFitError:  # fewer usable columns than asked for
        return
    step = 1 + odd_x
    kept = [(m - j, j) for _, m, j in map(degree_block, fit.basis.kept)]
    rejected = [(m - j, j) for _, m, j in map(degree_block, fit.rejected)]
    # every column handed out up to the last one scanned was kept or
    # rejected, and those above a rejected one were rejected
    top = max(fit.basis.kept + fit.rejected)
    assert sorted(fit.basis.kept + fit.rejected) == [
        t for t, m, j in map(degree_block, range(top + 1))
        if not odd_x or (m - j) % 2]
    for i, j in rejected:
        for above in (block_start(i + j + step) + j,
                      block_start(i + j + 1) + j + 1):
            assert above > top or above in fit.rejected
    assert not [(k, r) for k in kept for r in rejected
                if r[0] <= k[0] and r[1] <= k[1] and (k[0] - r[0]) % step == 0]
    to_monomial(fit)


def test_extended_mode_runs_and_returns_dd_parts():
    pts, _ = generate(SynthSpec(surface="magnet", nx=10, ny=8, seed=12))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=10, max_columns=10,
                                precision=PrecisionMode.EXTENDED))
    assert fit.b_lo is not None
    dbl = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=10, max_columns=10))
    assert np.allclose(fit.b, dbl.b, rtol=1e-9, atol=1e-12)


def test_precision_given_as_a_string_fits_as_the_enum():
    # the builder converts the config's precision; the block generator
    # must take that value, not test the raw field against the enum
    pts, _ = generate(SynthSpec(surface="magnet", nx=10, ny=8, seed=12))
    data = normalize(pts)
    fits = [fit_surface(all_train_split(data.n), data,
                        FitConfig(fixed_columns=10, precision=precision))
            for precision in ("extended", PrecisionMode.EXTENDED)]
    for name in ("b", "b_lo", "sigma_tr"):
        got, want = (np.float64(getattr(f, name)).tobytes() for f in fits)
        assert got == want, name
    assert fits[0].b_lo.any()


def test_double_fit_low_parts_are_zero_arrays():
    pts, _ = generate(SynthSpec(surface="magnet", nx=10, ny=8, seed=12))
    data = normalize(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=10, max_columns=10))
    for lo, hi in ((fit.basis.a_lo, fit.basis.a), (fit.b_lo, fit.b)):
        assert isinstance(lo, np.ndarray) and lo.dtype == np.float64
        assert lo.shape == hi.shape and not lo.any()


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
    # every odd-x column vanishes on x = 0
    on_axis = unit_dataset([(0.0, 0.2 * i, float(i)) for i in range(6)])
    with pytest.raises(DegenerateFitError, match="no basis column survived"):
        fit_surface(all_train_split(6), on_axis, FitConfig(odd_field_only=True))


@pytest.mark.parametrize("lam", [-1.0, -0.25, math.nan, math.inf, -math.inf])
def test_solve_rejects_a_negative_or_non_finite_lambda(lam):
    # the denominator lam * Q_t**2 + 1 of every coefficient is >= 1 only
    # for lam >= 0; each strength of a fit or sweep passes this check
    data = unit_dataset([(0.1 * k, 0.3 * (k % 3), 0.2 * k) for k in range(8)])
    parts, cfg = all_train_split(data.n), FitConfig(fixed_columns=4,
                                                    max_columns=4)
    basis = FitBasis(parts, data, cfg)
    with pytest.raises(ValueError, match=r"lambda must be finite and >= 0"):
        solve(basis, lam)
    with pytest.raises(ValueError, match=r"lambda must be finite and >= 0"):
        fit_surface(parts, data, cfg, lam)
    assert solve(basis, 0.0).S == 3


def test_config_validation():
    with pytest.raises(TypeError):
        FitConfig(lambda_=0.0)  # the strength is an argument of solve
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
