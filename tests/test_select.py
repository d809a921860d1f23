"""Validation errors, overfitting degree, sweeps, and selection."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from orthofit import (DataSplit, FitConfig, OrthofitError, SplitConfig,
                      SweepReport, SynthSpec, ValidationRecord, fit_surface,
                      generate, group_error, lambda_sweep, normalize,
                      overfit_degree, select_model, split, to_monomial)
from orthofit.basis import raw_values
import orthofit.fit
from orthofit.ddarith import comp_dot
from orthofit.fit import FitBasis, solve
from orthofit.ortho import OrthoBuilder, PrecisionMode
from orthofit.select import (SWEEP_COLUMNS, group_errors, sweep_to_csv,
                             sweep_to_json)
from conftest import (all_train_split, near_line_points, overflow_above,
                      src_env)
from oracles import (mpmath_held_out_error, reference_rows, refit_sweep,
                     unit_dataset)


def test_overfit_degree_reference_triples():
    # published error triples and their printed overfitting degrees
    assert overfit_degree(0.407959e-06, 0.162667e-04) == pytest.approx(3.66, abs=0.01)
    assert overfit_degree(0.879011e-02, 0.898435e-02) == pytest.approx(-3.81, abs=0.01)
    assert overfit_degree(0.934213e-05, 0.901059e-05) == pytest.approx(-3.34, abs=0.01)


def test_overfit_degree_clamps():
    assert overfit_degree(0.5, 0.5) == -50.0
    assert overfit_degree(0.0, 0.0) == -50.0
    assert overfit_degree(0.0, 1e-9) == 50.0
    assert math.isfinite(overfit_degree(1e-300, 1.0))
    # NaN is not a clamped extreme: it must not pass select_model's filter
    assert math.isnan(overfit_degree(math.nan, 1.0))
    assert math.isnan(overfit_degree(0.0, math.nan))
    assert math.isnan(overfit_degree(math.nan, math.nan))


def test_group_error_basics(plane_points):
    data = unit_dataset(plane_points)
    fit = fit_surface(all_train_split(data.n), data, FitConfig(max_columns=3))
    idx = np.arange(data.n)
    assert group_error(fit, data, idx) <= 1e-24
    assert group_error(fit, data, idx) == pytest.approx(fit.sigma_tr, abs=1e-15)
    single = unit_dataset([(0.2, 0.2, 0.0), (0.4, 0.4, 0.0), (0.6, 0.6, 0.1)])
    zero = fit_surface(all_train_split(3), unit_dataset(
        [(0.2, 0.2, 0.0), (0.4, 0.8, 0.0), (0.8, 0.4, 0.0)]), FitConfig(max_columns=3))
    assert group_error(zero, single, np.array([2])) == pytest.approx(0.01, rel=1e-10)
    with pytest.raises(ValueError):
        group_error(fit, data, np.array([], dtype=int))


_GROUP_ERROR_BITS = """
import math
import numpy as np
from orthofit import (FitConfig, NormalizedDataset, SplitConfig, SynthSpec,
                      generate, group_error, normalize, split)
from orthofit.fit import FitBasis, solve
from orthofit.select import group_errors
data = normalize(generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                    noise_sigma=0.02, seed=3))[0])
basis = FitBasis(split(data, SplitConfig("y", 3)), data,
                 FitConfig(max_columns=210, stop_rel_improvement=0.005))
fits = [solve(basis, math.exp(-x)) for x in (5, 15, 30)]
rng = np.random.default_rng(5)
for _ in range(10):
    group = NormalizedDataset(rng.random((16_667, 3)), data.map)
    print(group_error(fits[-1], group, np.arange(group.n)).hex())
    print([v.hex() for v in group_errors(fits, group, np.arange(group.n))])
"""


def test_group_error_bits_do_not_depend_on_blas_threads():
    # a cv or test group of the 100k corpus holds about 16,667 points,
    # scored by BLAS gemv products of up to 210 columns
    env = src_env()
    outs = set()
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _GROUP_ERROR_BITS],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.add(proc.stdout)
    assert len(outs) == 1


def _sweep_fits(grid, cfg):
    """The fits of one shared-basis sweep, with its data."""
    data, parts = _noisy_corpus()
    basis = FitBasis(parts, data, cfg)
    return data, parts, [solve(basis, math.exp(-x)) for x in grid]


def test_group_errors_match_one_call_per_model(monkeypatch):
    # an auto-size sweep's fits differ in size; at 13 rows of the widest
    # fit's 210-wide table per block, each fit's tables are as high as
    # its own width allows (130, 75, 17 and 13 rows), so the 167 cv and
    # 166 test points end on short blocks, and a fit's blocks are the
    # ones that a call for it alone builds
    data, parts, fits = _sweep_fits([5, 10, 15, 30], SWEEP_CFG)
    assert [len(f.basis.kept) for f in fits] == [21, 36, 153, 210]
    monkeypatch.setattr("orthofit.select.BLOCK_ELEMS", 13 * 210)
    tables = []

    def recording(x, y, L, odd_x):
        tables.append((x.size, L))
        return raw_values(x, y, L, odd_x)
    monkeypatch.setattr("orthofit.select.raw_values", recording)
    for idx in (parts.cv_idx, parts.test_idx):
        del tables[:]
        got = group_errors(fits, data, idx)
        heights = [13 * 210 // (max(f.basis.kept) + 1) for f in fits]
        assert heights == [130, 75, 17, 13]
        assert all(idx.size % h for h in heights)
        assert tables == [
            (min(h, idx.size - k), len(f.basis.kept) - 1)
            for f, h in zip(fits, heights) for k in range(0, idx.size, h)]
        assert max(rows * (L + 1) for rows, L in tables) <= 13 * 210
        for fit, err, h in zip(fits, got, heights):
            assert err.hex() == group_error(fit, data, idx).hex()
            x, y, z = data.x[idx], data.y[idx], data.z[idx]
            kept = list(fit.basis.kept)
            r = np.concatenate([
                raw_values(x[k:k + h], y[k:k + h], kept[-1])[:, kept]
                @ fit.c for k in range(0, idx.size, h)]) - z
            assert err.hex() == (float(comp_dot(r, r)) / idx.size).hex()


def test_group_errors_need_one_basis_and_points():
    data, parts, fits = _sweep_fits([10, 15], SWEEP_CFG)
    odd = fit_surface(parts, data, FitConfig(odd_field_only=True))
    with pytest.raises(ValueError, match="share one raw basis"):
        group_errors([fits[0], odd], data, parts.cv_idx)
    assert group_errors([odd, odd], data, parts.cv_idx) == [
        group_error(odd, data, parts.cv_idx)] * 2
    with pytest.raises(ValueError, match="empty index group"):
        group_errors(fits, data, np.array([], dtype=int))


def test_a_column_above_a_rejected_one_is_withheld():
    # the rank rule rejects the raw column of y (2), so x y (4) and y^2
    # (5) above it are withheld unprojected, and the fourth column is x^3
    data = normalize(near_line_points())
    parts = split(data, SplitConfig("y", 3))
    fit = fit_surface(parts, data, FitConfig(fixed_columns=4), math.exp(-5))
    assert fit.basis.kept == (0, 1, 3, 6) and fit.rejected == (2, 4, 5)
    to_monomial(fit)
    rep = lambda_sweep(data, parts, [5, 10], FitConfig(fixed_columns=4))
    assert [(r.note, r.S) for r in rep.records] == [("", 3), ("", 3)]


@pytest.mark.parametrize("n_cols", [79, 210])
def test_sweep_held_out_errors_match_the_extended_fit(n_cols):
    # the double sweep's sigma_cv and sigma_test against 50-digit sums of
    # the extended fit at the same size and strength: the two fits agree
    # to about 1e-14 at the held-out points, where the residuals are
    # about 0.02, so the errors agree to about 3e-14 of their size (the
    # monomial held-out sums they replace missed by up to 2.5e-5 in z at
    # 210 columns)
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    cfg = FitConfig(fixed_columns=n_cols, max_columns=n_cols)
    report = lambda_sweep(data, parts, [20, 40], cfg)
    for rec in report.records:
        ext = fit_surface(parts, data, replace(
            cfg, precision=PrecisionMode.EXTENDED), rec.lambda_)
        for got, idx in ((rec.sigma_cv, parts.cv_idx),
                         (rec.sigma_test, parts.test_idx)):
            want = mpmath_held_out_error(ext, data, idx)
            assert abs(got - want) <= 1e-12 * want, (rec.x_log, got, want)


def _noisy_corpus():
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=3))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    return data, parts


SWEEP_CFG = FitConfig(max_columns=210, stop_rel_improvement=0.005)


def test_sweep_records_grid_and_trend():
    data, parts = _noisy_corpus()
    rep = lambda_sweep(data, parts, [10, 20, 30, 40], SWEEP_CFG)
    assert [r.x_log for r in rep.records] == [10, 20, 30, 40]
    assert [r.lambda_ for r in rep.records] == [math.exp(-x) for x in (10, 20, 30, 40)]
    sigmas = [r.sigma_tr for r in rep.records]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    assert rep.policy and rep.chosen is not None


def test_sweep_single_point_and_duplicates():
    data, parts = _noisy_corpus()
    one = lambda_sweep(data, parts, [15], SWEEP_CFG)
    assert len(one.records) == 1 and one.chosen == 0
    dup = lambda_sweep(data, parts, [20, 10, 20, 10], SWEEP_CFG)
    assert [r.x_log for r in dup.records] == [10, 20]
    with pytest.raises(ValueError):
        lambda_sweep(data, parts, [], SWEEP_CFG)


def test_sweep_deterministic_byte_identical():
    data, parts = _noisy_corpus()
    a = lambda_sweep(data, parts, [10, 25], SWEEP_CFG)
    b = lambda_sweep(data, parts, [10, 25], SWEEP_CFG)
    assert sweep_to_csv(a) == sweep_to_csv(b)
    assert sweep_to_json(a) == sweep_to_json(b)


def test_swapping_cv_and_test_swaps_the_degrees():
    data, parts = _noisy_corpus()
    swapped = DataSplit(train_idx=parts.train_idx, cv_idx=parts.test_idx,
                        test_idx=parts.cv_idx)
    a = lambda_sweep(data, parts, [15, 30], SWEEP_CFG)
    b = lambda_sweep(data, swapped, [15, 30], SWEEP_CFG)
    for ra, rb in zip(a.records, b.records):
        assert ra.gamma == rb.gamma_prime and ra.gamma_prime == rb.gamma
        assert ra.sigma_cv == rb.sigma_test and ra.sigma_test == rb.sigma_cv


def _records_from_table():
    # x, S, sigma_tr, sigma_cv, sigma_test from a published auto-stop sweep
    rows = [
        (10, 50, 0.528493e-02, 0.510816e-02, 0.531742e-02),
        (20, 78, 0.329224e-03, 0.420514e-03, 0.326656e-03),
        (30, 156, 0.568479e-05, 0.233510e-04, 0.524090e-05),
        (40, 201, 0.696329e-06, 0.273960e-05, 0.724544e-06),
    ]
    recs = []
    for x, S, tr, cv, te in rows:
        recs.append(ValidationRecord(
            x_log=float(x), lambda_=math.exp(-x), S=S, sigma_tr=tr,
            sigma_cv=cv, sigma_test=te, gamma=overfit_degree(tr, cv),
            gamma_prime=overfit_degree(tr, te)))
    return recs


def test_select_model_cap_policy_picks_the_knee():
    report = SweepReport(records=tuple(_records_from_table()))
    chosen = select_model(report, gamma_cap=1.0)
    assert chosen.records[chosen.chosen].x_log == 20
    assert "gamma" in chosen.policy


def test_select_model_fallback_when_all_exceed_cap():
    report = SweepReport(records=tuple(_records_from_table()))
    tight = select_model(report, gamma_cap=-5.0)
    rec = tight.records[tight.chosen]
    worst = [max(r.gamma, r.gamma_prime) for r in report.records]
    assert max(rec.gamma, rec.gamma_prime) == min(worst)


def test_select_model_skips_failed_records():
    recs = list(_records_from_table())
    recs.append(ValidationRecord(x_log=50.0, lambda_=math.exp(-50), S=-1,
                                 sigma_tr=math.nan, sigma_cv=math.nan,
                                 sigma_test=math.nan, gamma=math.nan,
                                 gamma_prime=math.nan, note="boom"))
    report = select_model(SweepReport(records=tuple(recs)))
    assert report.records[report.chosen].x_log == 20
    with pytest.raises(OrthofitError, match=r"x=50: boom"):
        select_model(SweepReport(records=tuple(recs[-1:])))


def test_serialization_schemas_and_consistency():
    data, parts = _noisy_corpus()
    rep = lambda_sweep(data, parts, [12, 22], SWEEP_CFG)
    text = sweep_to_csv(rep)
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert len(rows) == 3
    doc = json.loads(sweep_to_json(rep))
    assert doc["policy"] == rep.policy and doc["chosen"] == rep.chosen
    for row, jrec in zip(rows[1:], doc["records"]):
        for name, cell in zip(SWEEP_COLUMNS, row):
            want = jrec[name]
            got = float(cell) if isinstance(want, float) else int(cell)
            assert got == want


def test_sweep_csv_matches_the_reference_writer():
    # S reaches the reference writer as the record's int; x = -700 and a
    # failed record (S -1, nan cells) sit among the paper's table rows
    failed = ValidationRecord(x_log=-700.0, lambda_=math.exp(700), S=-1,
                              sigma_tr=math.nan, sigma_cv=math.nan,
                              sigma_test=math.nan, gamma=math.nan,
                              gamma_prime=math.nan, note="boom")
    table = tuple(_records_from_table())
    header = ",".join(SWEEP_COLUMNS) + "\n"
    for records in ((), (failed,), (failed,) + table):
        rows = [(r.x_log, r.lambda_, r.S, r.sigma_tr, r.sigma_cv,
                 r.sigma_test, r.gamma, r.gamma_prime) for r in records]
        assert sweep_to_csv(SweepReport(records=records)) == (
            header + reference_rows(rows, "\n"))


SHARED_SWEEPS = {
    "fixed": ([10, 20, 30, 40], FitConfig(fixed_columns=79)),
    "stall": ([10, 25, 40], FitConfig(max_columns=120,
                                      stop_rel_improvement=0.005)),
    "target": ([10, 20, 30, 40], FitConfig(target_error=1e-3)),
    "odd": ([5, 20, 40], FitConfig(odd_field_only=True)),
    "extended": ([10, 40], FitConfig(fixed_columns=11,
                                     precision=PrecisionMode.EXTENDED)),
    "failing": ([-700, 10], FitConfig(fixed_columns=11,
                                      precision=PrecisionMode.EXTENDED)),
    "failing_auto": ([-700, 10], FitConfig(precision=PrecisionMode.EXTENDED)),
    "budget": ([-700, 10], FitConfig(fixed_columns=5, max_columns=5,
                                     odd_field_only=True,
                                     precision=PrecisionMode.EXTENDED)),
}

# the note of the x=-700 record, which a failed sweep quotes: there the
# coefficients are made too large for the residual's square, from the
# first kept column on (flat tag 1 under --odd-field-only)
FAILED_NOTES = {
    "failing": "training error is not finite after column 0 ",
    "failing_auto": "training error is not finite after column 0 ",
    "budget": "training error is not finite after column 1 ",
}


def _rank_deficient_corpus():
    # x is constant, so the odd-x columns span only the 3 y levels and a
    # fixed size of 5 runs into the scan budget with 3 columns
    pts = [(0.5, 0.1 + 0.4 * (k % 3), 0.1 + 0.07 * k) for k in range(12)]
    data = unit_dataset(pts)
    return data, DataSplit(train_idx=np.arange(6), cv_idx=np.arange(6, 9),
                           test_idx=np.arange(9, 12))


def _sweep_outcome(sweep, data, parts, grid, cfg):
    try:
        report = sweep(data, parts, grid, cfg)
    except OrthofitError as exc:  # no usable record
        return str(exc)
    # repr spells every float exactly, NaN included
    return [repr(r) for r in report.records], report.chosen, report.policy


@pytest.mark.parametrize("case", sorted(SHARED_SWEEPS))
def test_shared_sweep_matches_one_refit_per_strength(case, monkeypatch):
    data, parts = (_rank_deficient_corpus() if case == "budget"
                   else _noisy_corpus())
    grid, cfg = SHARED_SWEEPS[case]
    overflow = contextlib.nullcontext()
    if case in FAILED_NOTES:
        monkeypatch.setattr(orthofit.fit, "regularized_coefficient",
                            overflow_above(math.exp(650)))
        overflow = np.errstate(over="ignore", invalid="ignore")
    with overflow:
        got = _sweep_outcome(lambda_sweep, data, parts, grid, cfg)
        assert got == _sweep_outcome(refit_sweep, data, parts, grid, cfg)
    if case in FAILED_NOTES:
        assert FAILED_NOTES[case] in str(got)


@pytest.mark.parametrize("case", ["fixed", "stall"])
def test_sweep_orthonormalizes_as_much_as_its_widest_fit(case, monkeypatch):
    data, parts = _noisy_corpus()
    grid, cfg = SHARED_SWEEPS[case]
    calls = []
    original = OrthoBuilder.add_column

    def counting(self, col, tag):
        calls.append(tag)
        return original(self, col, tag)

    monkeypatch.setattr(OrthoBuilder, "add_column", counting)
    report = lambda_sweep(data, parts, grid, cfg)
    swept = len(calls)
    widest = max(report.records, key=lambda r: r.S)
    del calls[:]
    fit = fit_surface(parts, data, cfg, widest.lambda_)
    assert fit.S == widest.S
    # every column the fit scanned was accepted or rejected, and no more
    assert swept == len(calls) == fit.S + 1 + len(fit.rejected)
