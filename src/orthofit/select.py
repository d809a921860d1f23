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
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dataset import DataSplit, NormalizedDataset
from .fit import FitConfig, fit_surface
from .model import eval_monomial, to_monomial
from .errors import DegenerateFitError, OrthofitError

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


def group_error(model, data: NormalizedDataset, idx) -> float:
    """Mean squared residual of the model over the listed points."""
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("empty index group")
    x, y, z = data.x[idx], data.y[idx], data.z[idx]
    f = eval_monomial(model, x, y)
    r = f - z
    return float(r @ r) / idx.size


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


def lambda_sweep(data: NormalizedDataset, split: DataSplit,
                 grid: Sequence[float], cfg: FitConfig,
                 gamma_cap: float = 1.0) -> SweepReport:
    """Fit once per x in the grid with lambda = exp(-x) and collect records.

    Duplicate grid entries are dropped.  An entry that is not finite or
    whose exp(-x) overflows raises ValueError, as does a NaN cap.  A
    DegenerateFitError annotates its record instead of aborting the
    sweep; input errors propagate.
    """
    if len(grid) == 0:
        raise ValueError("empty x grid")
    if math.isnan(gamma_cap):
        raise ValueError("gamma cap is NaN")
    for x in grid:
        if not math.isfinite(x):
            raise ValueError(f"x grid entry {x!r} is not finite")
    records = []
    for x in sorted({float(x) for x in grid}):
        try:
            lam = math.exp(-x)
        except OverflowError:  # the smallest x come first: before any fit
            raise ValueError(f"x grid entry {x!r} overflows exp(-x)") from None
        try:
            fit = fit_surface(split, data, replace(cfg, lambda_=lam))
            model = to_monomial(fit)
            s_tr = fit.sigma_tr
            s_cv = group_error(model, data, split.cv_idx)
            s_te = group_error(model, data, split.test_idx)
            records.append(ValidationRecord(
                x_log=x, lambda_=lam, S=fit.S, sigma_tr=s_tr, sigma_cv=s_cv,
                sigma_test=s_te, gamma=overfit_degree(s_tr, s_cv),
                gamma_prime=overfit_degree(s_tr, s_te)))
        except DegenerateFitError as exc:
            records.append(ValidationRecord(
                x_log=x, lambda_=lam, S=-1, sigma_tr=math.nan,
                sigma_cv=math.nan, sigma_test=math.nan, gamma=math.nan,
                gamma_prime=math.nan, note=str(exc)))
    report = SweepReport(records=tuple(records))
    return select_model(report, gamma_cap=gamma_cap)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _record_row(r: ValidationRecord) -> dict:
    return {
        "x": r.x_log, "lambda": r.lambda_, "S": r.S,
        "sigma_tr": r.sigma_tr, "sigma_cv": r.sigma_cv,
        "sigma_test": r.sigma_test, "gamma": r.gamma,
        "gamma_prime": r.gamma_prime,
    }


def sweep_to_csv(report: SweepReport) -> str:
    """CSV text with one row per record (17-significant-digit numbers)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for r in report.records:
        row = _record_row(r)
        writer.writerow([format(row[c], ".17g") if isinstance(row[c], float)
                         else row[c] for c in SWEEP_COLUMNS])
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
