"""Portable surface models: monomial conversion, evaluation, export.

A fitted surface can be evaluated two ways: through the orthonormal
polynomial recurrences (the arithmetic the fit itself used) or through
plain monomial coefficients obtained by back-substituting the triangular
expansion.  The monomial form is the cheap, portable artifact that gets
serialized; the conversion runs in double-double arithmetic by default
because the back-substitution cancels catastrophically for large models
when carried out in plain doubles -- the two evaluation paths then
visibly disagree.

Physical-unit helpers invert the size normalization, differentiate with
respect to the raw Y coordinate (e.g. temperature), and integrate that
derivative over X (e.g. field) for entropy-change style quantities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import basis_dy, basis_values, dd_basis_values
from .dataset import NormalizationMap
from .ddarith import dd_add, dd_matvec, dd_matvec_t, dd_mul
from .errors import ModelFormatError
from .fit import FitResult
from .ortho import PrecisionMode

MODEL_VERSION = 1
_BOUNDS = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")


@dataclass(frozen=True)
class SurfaceModel:
    """Monomial coefficients over the kept flat indices, plus the
    normalization bounds needed to evaluate in original units."""

    c: np.ndarray
    kept: tuple
    map: NormalizationMap
    S: int
    lambda_: float
    sigma_tr: float
    audit: Optional[dict] = None


def _dd_back_substitute(ah, al, bh, bl):
    """Monomial coefficients of sum(b_s P_s), dd throughout."""
    K = len(bh)
    gh = np.zeros((K, K))
    gl = np.zeros((K, K))
    for s in range(K):
        th = np.zeros(K)
        tl = np.zeros(K)
        if s:
            th, tl = dd_matvec_t(gh[:s], gl[:s], ah[s, :s], al[s, :s])
        eh, el = dd_add(th[s], tl[s], ah[s, s], al[s, s])
        th[s], tl[s] = eh, el
        gh[s], gl[s] = th, tl
    ch, cl = dd_matvec_t(gh, gl, bh, bl)
    return ch + cl


def _double_back_substitute(a, b):
    K = len(b)
    g = np.zeros((K, K))
    for s in range(K):
        row = g[:s].T @ a[s, :s] if s else np.zeros(K)
        row[s] += a[s, s]
        g[s] = row
    return g.T @ b


def to_monomial(fit: FitResult,
                precision: PrecisionMode = PrecisionMode.EXTENDED,
                include_audit: bool = False) -> SurfaceModel:
    """Convert a fit to monomial form.

    The back-substitution runs at the requested precision (extended by
    default, regardless of the fit's own precision); the final
    coefficients are stored as doubles either way.
    """
    basis = fit.basis
    K = basis.n_columns
    bh = fit.b
    bl = fit.b_lo if fit.b_lo is not None else np.zeros(K)
    if PrecisionMode(precision) is PrecisionMode.EXTENDED:
        ah = basis.a
        al = basis.a_lo if basis.a_lo is not None else np.zeros_like(ah)
        c = _dd_back_substitute(ah, al, bh, bl)
    else:
        c = _double_back_substitute(basis.a, bh + bl)
    audit = None
    if include_audit:
        audit = {"a": basis.a.tolist(), "b": (bh + bl).tolist()}
    return SurfaceModel(c=np.asarray(c, dtype=float), kept=basis.kept,
                        map=fit.nmap, S=fit.S, lambda_=fit.lambda_,
                        sigma_tr=fit.sigma_tr, audit=audit)


def eval_ortho(fit: FitResult, x, y):
    """Evaluate through the orthonormal recurrences at normalized (x, y).

    Rebuilds each polynomial's value from fresh basis values and the
    stored triangular coefficients, at the fit's own precision.
    """
    basis = fit.basis
    kept = np.asarray(basis.kept, dtype=int)
    K = basis.n_columns
    L = int(kept.max())
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    if basis.precision is PrecisionMode.EXTENDED:
        hh, hl = dd_basis_values(xs, ys, L)
        ah, al = basis.a, basis.a_lo
        ph = np.empty((xs.size, K))
        pl = np.empty((xs.size, K))
        for s in range(K):
            th, tl = dd_mul(hh[:, kept[s]], hl[:, kept[s]], ah[s, s], al[s, s])
            if s:
                mh, ml = dd_matvec(ph[:, :s], pl[:, :s], ah[s, :s], al[s, :s])
                th, tl = dd_add(th, tl, mh, ml)
            ph[:, s], pl[:, s] = th, tl
        bl = fit.b_lo if fit.b_lo is not None else np.zeros(K)
        fh, fl = dd_matvec(ph, pl, fit.b, bl)
        out = fh + fl
    else:
        vals = np.atleast_2d(basis_values(xs, ys, L))
        a = basis.a
        p = np.empty((xs.size, K))
        for s in range(K):
            col = a[s, s] * vals[:, kept[s]]
            if s:
                col = col + p[:, :s] @ a[s, :s]
            p[:, s] = col
        out = p @ fit.b
    return float(out[0]) if scalar else out


def eval_monomial(model: SurfaceModel, x, y):
    """Evaluate sum(c_t h_t) at normalized (x, y).

    Products and the sum are compensated, so accuracy is limited by the
    stored double coefficients rather than by summation order.
    """
    kept = np.asarray(model.kept, dtype=int)
    L = int(kept.max())
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    h = np.atleast_2d(basis_values(xs, ys, L))[:, kept]
    fh, fl = dd_matvec(h, np.zeros_like(h), model.c, np.zeros_like(model.c))
    out = fh + fl
    return float(out[0]) if scalar else out


def eval_physical(model: SurfaceModel, X, Y):
    """Evaluate in original units.

    Returns (Z, extrapolated): the flag marks inputs outside the measured
    rectangle, which are still evaluated (the polynomial extends).
    """
    nmap = model.map
    x, y = nmap.to_unit(X, Y)
    z = eval_monomial(model, x, y)
    Xa = np.asarray(X, dtype=float)
    Ya = np.asarray(Y, dtype=float)
    flag = ((Xa < nmap.x_min) | (Xa > nmap.x_max)
            | (Ya < nmap.y_min) | (Ya > nmap.y_max))
    _, _, Z = nmap.to_raw(x, y, z)
    if np.ndim(X) == 0 and np.ndim(Y) == 0:
        return float(Z), bool(flag)
    return Z, flag


def dZ_dY(model: SurfaceModel, X, Y):
    """Slope of the surface along raw Y, in original units per Y unit."""
    nmap = model.map
    if nmap.y_max == nmap.y_min:
        raise ValueError("degenerate Y range: derivative undefined")
    scale = (nmap.z_max - nmap.z_min) / (nmap.y_max - nmap.y_min)
    x, y = nmap.to_unit(X, Y)
    kept = np.asarray(model.kept, dtype=int)
    L = int(kept.max())
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    d = np.atleast_2d(basis_dy(xs, ys, L))[:, kept]
    gh, gl = dd_matvec(d, np.zeros_like(d), model.c, np.zeros_like(model.c))
    out = scale * (gh + gl)
    return float(out[0]) if np.ndim(X) == 0 and np.ndim(Y) == 0 else out


def entropy_change(model: SurfaceModel, Y, X_hi, n_steps: int = 200):
    """Integral of dZ/dY over X from the lower measured bound to X_hi.

    Composite Simpson quadrature on n_steps panels; an odd panel count is
    handled by one trapezoid panel at the upper end.  The integration
    deliberately starts at the dataset's lower X bound (the smallest
    measured field), not at zero.
    """
    nmap = model.map
    if nmap.x_max == nmap.x_min:
        raise ValueError("degenerate X range: nothing to integrate over")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    x_lo = nmap.x_min
    if X_hi == x_lo:
        return 0.0
    xs = np.linspace(x_lo, X_hi, n_steps + 1)
    g = dZ_dY(model, xs, np.full_like(xs, float(Y)))
    h = (X_hi - x_lo) / n_steps
    n_simpson = n_steps if n_steps % 2 == 0 else n_steps - 1
    w = np.zeros(n_steps + 1)
    w[0:n_simpson + 1:2] += 2.0
    w[1:n_simpson:2] += 4.0
    w[0] = 1.0
    w[n_simpson] = w[n_simpson] - 1.0
    total = float(np.dot(w[:n_simpson + 1], g[:n_simpson + 1])) * h / 3.0
    if n_simpson != n_steps:
        total += 0.5 * h * float(g[-2] + g[-1])
    return total


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def save_model(model: SurfaceModel, path) -> None:
    """Write the model as JSON; floats round-trip exactly."""
    nmap = model.map
    doc = {
        "version": MODEL_VERSION,
        "kept_indices": list(model.kept),
        "c": [float(v) for v in model.c],
        "normalization": {k: getattr(nmap, k) for k in _BOUNDS},
        "S": model.S,
        "lambda": model.lambda_,
        "sigma_tr": model.sigma_tr,
    }
    if model.audit is not None:
        doc["audit"] = model.audit
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> SurfaceModel:
    """Read a model file written by save_model."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"not a model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("not a model file: expected a JSON object")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {doc.get('version')!r} "
            f"(expected {MODEL_VERSION})")
    try:
        nm = doc["normalization"]
        nmap = NormalizationMap(*(float(nm[k]) for k in _BOUNDS))
        model = SurfaceModel(
            c=np.asarray(doc["c"], dtype=float),
            kept=tuple(doc["kept_indices"]),
            map=nmap, S=int(doc["S"]), lambda_=float(doc["lambda"]),
            sigma_tr=float(doc["sigma_tr"]), audit=doc.get("audit"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from None
    _check_model(model)
    return model


def _check_model(model: SurfaceModel) -> None:
    """Reject model contents that would evaluate wrongly or to NaN."""
    c, kept, nmap = model.c, model.kept, model.map
    if c.ndim != 1 or c.size != len(kept) or not kept:
        raise ModelFormatError(
            f"model field 'c' has {c.size} entries for {len(kept)} kept_indices")
    if not np.isfinite(c).all():
        raise ModelFormatError("model field 'c' holds a non-finite coefficient")
    if (not all(type(t) is int and t >= 0 for t in kept)
            or len(set(kept)) != len(kept)):
        raise ModelFormatError(
            "model field 'kept_indices' must hold distinct non-negative integers")
    if not (np.isfinite([getattr(nmap, k) for k in _BOUNDS]).all()
            and nmap.x_min < nmap.x_max and nmap.y_min < nmap.y_max
            and nmap.z_min <= nmap.z_max):
        raise ModelFormatError(
            "model field 'normalization' needs finite bounds with "
            "x_min < x_max, y_min < y_max and z_min <= z_max")
