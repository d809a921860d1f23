"""Three-group validation, overfitting degree, and regularization sweeps.

The training / cross-validation / test errors are plain mean squared
residuals in normalized units.  Because all three decrease together as
the regularization weakens, the minimum of the cross-validation error by
itself picks nothing useful; the log-relative gap

    overfit_degree = ln |(sigma_other - sigma_tr) / sigma_tr|

is the quantity that moves: strongly negative means the held-out error
sits on top of the training error (underfit), strongly positive means
the model memorizes the training group (overfit).  Sweeps scan strengths
``lambda = exp(-x)`` over an x grid and pick the weakest regularization
whose overfitting degrees stay below a cap.

The held-out errors come from each fit's raw-basis coefficients
(``FitResult.c``), not from a monomial model: each group's table of raw
columns (``basis.raw_values``) is built once for the fits that keep the
same columns, in blocks of rows that stay within ``BLOCK_ELEMS``
doubles, and a fit's residuals there are one BLAS product with its
coefficients, whose squares ``comp_dot`` sums as it does the training
error's.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .basis import raw_values
from .dataset import DataSplit, NormalizedDataset, write_rows
from .ddarith import BLOCK_ELEMS, comp_dot
from .fit import FitBasis, FitConfig, FitResult, solve
from .errors import DegenerateFitError, FieldError, OrthofitError

GAMMA_CLAMP = 50.0

SWEEP_COLUMNS = ("x", "lambda", "S", "sigma_tr", "sigma_cv", "sigma_test",
                 "gamma", "gamma_prime")


def overfit_degree(sigma_tr: float, sigma_other: float) -> float:
    """Log-relative gap between a held-out error and the training error.

    Clamped to +/-50 at the singular points: equal errors pin the value
    at -50, a zero training error with a nonzero held-out error at +50.
    A NaN error gives NaN, so a broken record never passes as clamped.
    """
    if math.isnan(sigma_tr) or math.isnan(sigma_other):
        return math.nan
    if sigma_other == sigma_tr:
        return -GAMMA_CLAMP
    if sigma_tr == 0.0:
        return GAMMA_CLAMP
    val = math.log(abs((sigma_other - sigma_tr) / sigma_tr))
    return max(-GAMMA_CLAMP, min(GAMMA_CLAMP, val))


def group_error(fit: FitResult, data: NormalizedDataset, idx) -> float:
    """Mean squared residual of the fit over the listed points, summed
    by ``comp_dot`` as the training error is."""
    return group_errors([fit], data, idx)[0]


def group_errors(fits, data: NormalizedDataset, idx) -> list:
    """``group_error`` of each fit over one group of points.

    Fits with the same kept columns (the solves of a fixed-size sweep)
    share the group's raw table, built BLOCK_ELEMS // (L + 1) rows at a
    time with L their largest kept index, so no table holds more than
    BLOCK_ELEMS doubles where one row fits; the fits must share the odd-x
    rule (ValueError otherwise).  A fit's residual rows are the gemv
    ``T[:, kept] @ c - z`` with c its raw coefficients, the rounded
    ``fit.c`` of an extended fit too, summed by ``comp_dot``.  A gemv's
    row results change bits with its row count, but the blocks depend
    only on the kept columns, so a fit's error has the bits that a call
    for it alone gives; and a block is far below the size at which
    OpenBLAS splits a gemv between threads.
    """
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("empty index group")
    if len({fit.odd_x for fit in fits}) > 1:
        raise ValueError("the fits do not share one raw basis")
    x, y, z = data.x[idx], data.y[idx], data.z[idx]
    shared = {}
    for i, fit in enumerate(fits):
        shared.setdefault(tuple(fit.basis.kept), []).append(i)
    r = np.empty((idx.size, len(fits)), order="F")  # a column per fit
    for kept, members in shared.items():
        L = max(kept)
        height = max(1, BLOCK_ELEMS // (L + 1))
        for k in range(0, idx.size, height):
            rows = slice(k, k + height)
            table = raw_values(x[rows], y[rows], L, fits[0].odd_x)[
                :, list(kept)]
            for i in members:
                r[rows, i] = table @ fits[i].c - z[rows]
    return [float(v) / idx.size for v in comp_dot(r, r)]


@dataclass(frozen=True)
class ValidationRecord:
    """One sweep entry: errors and overfitting degrees at one strength."""

    x_log: float
    lambda_: float
    S: int
    sigma_tr: float
    sigma_cv: float
    sigma_test: float
    gamma: float
    gamma_prime: float
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    """Sweep records ordered by x exponent, with the selected entry."""

    records: tuple
    chosen: Optional[int] = None
    policy: str = ""


DEFAULT_POLICY = ("largest x with gamma <= {cap} and gamma_prime <= {cap}; "
                  "fallback: minimize max(gamma, gamma_prime)")


def select_model(report: SweepReport, gamma_cap: float = 1.0) -> SweepReport:
    """Apply the selection policy and return the report with `chosen` set.

    Picks the record with the largest x (weakest regularization) whose
    gamma and gamma_prime both stay at or below the cap; if none
    qualifies, falls back to the record minimizing max(gamma,
    gamma_prime).  Records carrying an error note are skipped; when no
    record is usable, the error quotes the first note.
    """
    usable = [(i, r) for i, r in enumerate(report.records)
              if not r.note and math.isfinite(r.gamma) and math.isfinite(r.gamma_prime)]
    if not usable:
        failed = next((r for r in report.records if r.note), None)
        cause = f" (x={failed.x_log:g}: {failed.note})" if failed else ""
        raise OrthofitError(f"no usable sweep records to select from{cause}")
    capped = [(i, r) for i, r in usable
              if r.gamma <= gamma_cap and r.gamma_prime <= gamma_cap]
    if capped:
        chosen = max(capped, key=lambda ir: ir[1].x_log)[0]
    else:
        chosen = min(usable, key=lambda ir: max(ir[1].gamma, ir[1].gamma_prime))[0]
    return replace(report, chosen=chosen, policy=DEFAULT_POLICY.format(cap=gamma_cap))


def _strengths(grid: Sequence[float], gamma_cap: float) -> tuple:
    """The sorted distinct x of a sweep grid and their lambda = exp(-x);
    ValueError for an empty grid, an entry that is not finite or whose
    exp(-x) overflows, or a NaN cap."""
    if len(grid) == 0:
        raise ValueError("empty x grid")
    if math.isnan(gamma_cap):
        raise FieldError("gamma_cap must not be NaN", "gamma_cap")
    for x in grid:
        if not math.isfinite(x):
            raise ValueError(f"x grid entry {x!r} is not finite")
    xs = sorted({float(x) for x in grid})
    lams = []
    for x in xs:
        try:
            lams.append(math.exp(-x))
        except OverflowError:
            raise ValueError(f"x grid entry {x!r} overflows exp(-x)") from None
    return xs, lams


def lambda_sweep(data: NormalizedDataset, split: DataSplit,
                 grid: Sequence[float], cfg: FitConfig,
                 gamma_cap: float = 1.0) -> SweepReport:
    """Fit once per x in the grid with lambda = exp(-x) and collect records.

    The basis is built once and shared: each strength only reruns the
    coefficient recurrence (``fit.solve``), which reads its raw-basis
    coefficients off the shared expansion, and each held-out group's raw
    table is built once and scores every strength (``group_errors``).
    Duplicate grid entries are dropped.  An entry that is not finite or
    whose exp(-x) overflows raises ValueError, as does a NaN cap, before
    any fit.  A DegenerateFitError annotates its record instead of
    aborting the sweep; input errors propagate.
    """
    xs, lams = _strengths(grid, gamma_cap)
    basis = FitBasis(split, data, cfg)
    fits = []
    for lam in lams:
        try:
            fits.append(solve(basis, lam))
        except DegenerateFitError as exc:
            fits.append(exc)
    solved = [fit for fit in fits if isinstance(fit, FitResult)]
    held_out = iter(())
    if solved:
        held_out = zip(group_errors(solved, data, split.cv_idx),
                       group_errors(solved, data, split.test_idx))
    records = []
    for x, lam, fit in zip(xs, lams, fits):
        if isinstance(fit, DegenerateFitError):
            records.append(ValidationRecord(
                x_log=x, lambda_=lam, S=-1, sigma_tr=math.nan,
                sigma_cv=math.nan, sigma_test=math.nan, gamma=math.nan,
                gamma_prime=math.nan, note=str(fit)))
            continue
        s_tr = fit.sigma_tr
        s_cv, s_te = next(held_out)
        records.append(ValidationRecord(
            x_log=x, lambda_=lam, S=fit.S, sigma_tr=s_tr, sigma_cv=s_cv,
            sigma_test=s_te, gamma=overfit_degree(s_tr, s_cv),
            gamma_prime=overfit_degree(s_tr, s_te)))
    report = SweepReport(records=tuple(records))
    return select_model(report, gamma_cap=gamma_cap)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _record_row(r: ValidationRecord) -> dict:
    return dict(zip(SWEEP_COLUMNS, (
        r.x_log, r.lambda_, r.S, r.sigma_tr, r.sigma_cv, r.sigma_test,
        r.gamma, r.gamma_prime)))


def sweep_to_csv(report: SweepReport) -> str:
    """CSV text: the ``SWEEP_COLUMNS`` header, then one row per record
    written by ``dataset.write_rows`` (``.17g`` cells, so ``S`` prints as
    an integer and a failed record's errors and degrees as ``nan``)."""
    table = np.array([list(_record_row(r).values()) for r in report.records],
                     dtype=float).reshape(-1, len(SWEEP_COLUMNS))
    buf = io.StringIO()
    buf.write(",".join(SWEEP_COLUMNS) + "\n")
    write_rows(buf, table, "\n")
    return buf.getvalue()


def sweep_to_json(report: SweepReport) -> str:
    """JSON text: the CSV fields per record plus policy and chosen index.

    A non-finite number (a failed record's errors) is written as null.
    """
    doc = {
        "records": [{k: None if isinstance(v, float) and not math.isfinite(v)
                     else v for k, v in _record_row(r).items()}
                    | ({"note": r.note} if r.note else {})
                    for r in report.records],
        "policy": report.policy,
        "chosen": report.chosen,
    }
    return json.dumps(doc, indent=1, allow_nan=False) + "\n"
