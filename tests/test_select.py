"""Validation errors, overfitting degree, sweeps, and selection."""

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
from orthofit.basis import basis_values
from orthofit.ddarith import comp_dot
from orthofit.fit import FitBasis, solve
from orthofit.model import _monomials
from orthofit.ortho import OrthoBuilder, PrecisionMode
from orthofit.select import (SWEEP_COLUMNS, group_errors, sweep_to_csv,
                             sweep_to_json)
from conftest import all_train_split, src_env
from oracles import reference_rows, refit_sweep, unit_dataset


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
    model = to_monomial(fit)
    idx = np.arange(data.n)
    assert group_error(model, data, idx) <= 1e-24
    assert group_error(model, data, idx) == pytest.approx(fit.sigma_tr, abs=1e-15)
    single = unit_dataset([(0.2, 0.2, 0.0), (0.4, 0.4, 0.0), (0.6, 0.6, 0.1)])
    zero = to_monomial(fit_surface(all_train_split(3), unit_dataset(
        [(0.2, 0.2, 0.0), (0.4, 0.8, 0.0), (0.8, 0.4, 0.0)]), FitConfig(max_columns=3)))
    assert group_error(zero, single, np.array([2])) == pytest.approx(0.01, rel=1e-10)
    with pytest.raises(ValueError):
        group_error(model, data, np.array([], dtype=int))


_GROUP_ERROR_BITS = """
import numpy as np
from orthofit import NormalizedDataset, group_error
from orthofit.dataset import NormalizationMap
from orthofit.model import SurfaceModel
from orthofit.select import group_errors
model = SurfaceModel(c=np.array([0.5, 0.25, -0.1]), kept=(0, 1, 2),
                     map=NormalizationMap(0, 1, 0, 1, 0, 1), S=3,
                     lambda_=0.0, sigma_tr=0.0)
nested = [SurfaceModel(c=np.array([0.5, -0.3, 0.2])[:k], kept=(0, 1, 2)[:k],
                       map=model.map, S=k, lambda_=0.0, sigma_tr=0.0)
          for k in (3, 1, 2)]
rng = np.random.default_rng(5)
for _ in range(10):
    data = NormalizedDataset(rng.random((16_667, 3)), model.map)
    print(group_error(model, data, np.arange(data.n)).hex())
    print([v.hex() for v in group_errors(nested, data, np.arange(data.n))])
"""


def test_group_error_bits_do_not_depend_on_blas_threads():
    # a cv or test group of the 100k corpus holds about 16,667 points;
    # a threaded BLAS dot of that length changes bits with the threads
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


def _sweep_models(grid, cfg):
    """The monomial models of one shared-basis sweep, with its data."""
    data, parts = _noisy_corpus()
    basis = FitBasis(parts, data, cfg)
    return data, parts, _monomials([solve(basis, math.exp(-x)) for x in grid])


def test_group_errors_match_one_call_per_model(monkeypatch):
    # an auto-size sweep's models differ in size; 13-row blocks of the
    # widest (210-wide) table split the 167 cv and 166 test points into
    # 12 full blocks and a short one
    data, parts, models = _sweep_models([5, 10, 15, 30], SWEEP_CFG)
    assert [len(m.kept) for m in models] == [21, 36, 153, 210]
    monkeypatch.setattr("orthofit.model.BLOCK_ELEMS", 13 * 210)
    tables = []

    def recording(x, y, L):
        tables.append(x.size)
        return basis_values(x, y, L)
    monkeypatch.setattr("orthofit.select.basis_values", recording)
    for idx in (parts.cv_idx, parts.test_idx):
        assert idx.size % 13 and idx.size > 13
        del tables[:]
        got = group_errors(models, data, idx)
        assert tables == [13] * (idx.size // 13) + [idx.size % 13]
        for model, err in zip(models, got):
            assert err.hex() == group_error(model, data, idx).hex()
            # the whole table in one block and a 1-D residual sum
            x, y, z = data.x[idx], data.y[idx], data.z[idx]
            r = comp_dot(basis_values(x, y, max(model.kept))[:, list(
                model.kept)], model.c, axis=1) - z
            assert err.hex() == (float(comp_dot(r, r)) / idx.size).hex()


def test_group_errors_need_one_basis_and_points():
    data, parts, models = _sweep_models([10, 15], SWEEP_CFG)
    narrow, wide = models
    assert len(narrow.kept) < len(wide.kept)
    kept = narrow.kept[:-2] + narrow.kept[-1:] + narrow.kept[-2:-1]
    swapped = replace(narrow, kept=kept)
    with pytest.raises(ValueError, match="share one basis"):
        group_errors([wide, swapped], data, parts.cv_idx)
    with pytest.raises(ValueError, match="share one basis"):
        group_errors([replace(wide, kept=wide.kept[1:] + (10 ** 4,)),
                      narrow], data, parts.cv_idx)
    with pytest.raises(ValueError, match="empty index group"):
        group_errors(models, data, np.array([], dtype=int))


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

# the note of the x=-700 record, which a failed sweep quotes
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
def test_shared_sweep_matches_one_refit_per_strength(case):
    data, parts = (_rank_deficient_corpus() if case == "budget"
                   else _noisy_corpus())
    grid, cfg = SHARED_SWEEPS[case]
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
