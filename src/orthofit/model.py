"""Portable surface models: monomial conversion, evaluation, export.

A fitted surface can be evaluated two ways: through the orthonormal
polynomial recurrences (the arithmetic the fit itself used) or through
plain monomial coefficients.  Both come from one triangular expansion,
P_s = a_ss h_s + sum_{t<s} a_st P_t (``_expand``): applied to basis
values it evaluates the polynomials, applied to the identity it yields
their monomial coefficients.  The monomial form is the cheap, portable
artifact that gets serialized; the conversion runs in double-double
arithmetic by default because the expansion cancels catastrophically
for large models when carried out in plain doubles -- the two
evaluation paths then visibly disagree.

Physical-unit helpers invert the size normalization, differentiate with
respect to the raw Y coordinate (e.g. temperature), and integrate that
derivative over X (e.g. field) for entropy-change style quantities.  They
all take whole arrays of points.  The integral is Simpson's rule applied
once per x-power of the model rather than on a node grid per point, so
it costs one polynomial evaluation per point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .basis import basis_dy, basis_values, dd_basis_values, degree_block
from .dataset import NormalizationMap
from .ddarith import dd_add, dd_matvec, dd_matvec_t, dd_mul
from .errors import ModelFormatError
from .fit import FitResult
from .ortho import PrecisionMode

MODEL_VERSION = 1
SIMPSON_PANELS = 200  # composite Simpson panels of the entropy integral
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


def _expand(a, a_lo, h):
    """Orthonormal values P_s = a[s, s] h_s + sum_{t<s} a[s, t] P_t.

    ``h`` holds the raw columns h_s: an (n, K) array with ``a_lo`` None,
    or for double-double a (hi, lo) pair of them with ``a_lo`` the low
    parts of ``a``.  The result has the same form.  Expanding the
    identity gives the monomial coefficients of every P_s.
    """
    K = a.shape[0]
    if a_lo is None:
        p = np.empty(h.shape)  # C order: the gemv kernel, hence the bits
        np.multiply(h, np.diag(a), out=p)
        for s in range(1, K):
            p[:, s] += p[:, :s] @ a[s, :s]
        return p
    # One contiguous row per column; the sum over earlier rows is pairwise.
    ph, pl = (np.array(v.T, order="C")
              for v in dd_mul(*h, np.diag(a), np.diag(a_lo)))
    for s in range(1, K):
        ph[s], pl[s] = dd_add(ph[s], pl[s], *dd_matvec_t(
            ph[:s], pl[:s], a[s, :s], a_lo[s, :s]))
    return ph.T, pl.T


def _b_lo(fit: FitResult):
    return fit.b_lo if fit.b_lo is not None else np.zeros_like(fit.b)


def to_monomial(fit: FitResult,
                precision: PrecisionMode = PrecisionMode.EXTENDED,
                include_audit: bool = False) -> SurfaceModel:
    """Convert a fit to monomial form: c = sum_s b_s g_s, where g_s holds
    the monomial coefficients of P_s.

    The expansion runs at the requested precision (extended by default,
    regardless of the fit's own precision); the final coefficients are
    stored as doubles either way.
    """
    basis = fit.basis
    K = basis.n_columns
    bl = _b_lo(fit)
    b = fit.b + bl
    if PrecisionMode(precision) is PrecisionMode.EXTENDED:
        al = basis.a_lo if basis.a_lo is not None else np.zeros_like(basis.a)
        gh, gl = _expand(basis.a, al, (np.eye(K), np.zeros((K, K))))
        ch, cl = dd_matvec(gh, gl, fit.b, bl)
        c = ch + cl
    else:
        c = _expand(basis.a, None, np.eye(K)) @ b
    audit = {"a": basis.a.tolist(), "b": b.tolist()} if include_audit else None
    return SurfaceModel(c=c, kept=basis.kept, map=fit.nmap, S=fit.S,
                        lambda_=fit.lambda_, sigma_tr=fit.sigma_tr, audit=audit)


def _points(x, y):
    return (np.atleast_1d(np.asarray(x, dtype=float)),
            np.atleast_1d(np.asarray(y, dtype=float)),
            np.ndim(x) == 0 and np.ndim(y) == 0)


def eval_ortho(fit: FitResult, x, y):
    """Evaluate through the orthonormal recurrences at normalized (x, y).

    Rebuilds each polynomial's value from fresh basis values and the
    stored triangular coefficients, at the fit's own precision.
    """
    basis = fit.basis
    kept = np.asarray(basis.kept, dtype=int)
    L = int(kept.max())
    xs, ys, scalar = _points(x, y)
    if basis.precision is PrecisionMode.EXTENDED:
        hh, hl = dd_basis_values(xs, ys, L)
        ph, pl = _expand(basis.a, basis.a_lo, (hh[:, kept], hl[:, kept]))
        fh, fl = dd_matvec(ph, pl, fit.b, _b_lo(fit))
        out = fh + fl
    else:
        out = _expand(basis.a, None, basis_values(xs, ys, L)[:, kept]) @ fit.b
    return float(out[0]) if scalar else out


def _sum_terms(model: SurfaceModel, table, x, y):
    """Compensated sum_t c_t table_t(x, y) over the kept indices, where
    ``table`` is basis_values or basis_dy."""
    kept = np.asarray(model.kept, dtype=int)
    xs, ys, scalar = _points(x, y)
    t = table(xs, ys, int(kept.max()))[:, kept]
    fh, fl = dd_matvec(t, np.zeros_like(t), model.c, np.zeros_like(model.c))
    out = fh + fl
    return float(out[0]) if scalar else out


def eval_monomial(model: SurfaceModel, x, y):
    """Evaluate sum(c_t h_t) at normalized (x, y).

    Products and the sum are compensated, so accuracy is limited by the
    stored double coefficients rather than by summation order.
    """
    return _sum_terms(model, basis_values, x, y)


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
    scale = float((nmap.z_max - nmap.z_min) / (nmap.y_max - nmap.y_min))
    return scale * _sum_terms(model, basis_dy, *nmap.to_unit(X, Y))


def _simpson_moments(top: int) -> np.ndarray:
    """nu_i = sum_k w_k (k/n)^i for i = 0..top, with w_k the weights of
    composite Simpson on n = SIMPSON_PANELS panels of [0, 1]: the rule
    applied to x^i.  The sums are exact integers in units of 1/(6n), so
    each nu_i is rounded once."""
    n = SIMPSON_PANELS
    # node weights in units of h/6
    w = [2 if k in (0, n) else (8 if k % 2 else 4) for k in range(n + 1)]
    nu = []
    for i in range(top + 1):
        nu.append(sum(w) / (6 * n ** (i + 1)))
        w = [v * k for k, v in enumerate(w)]
    return np.array(nu)


def entropy_change(model: SurfaceModel, Y, X_hi):
    """Integral of dZ/dY over X from the lower measured bound to X_hi.

    Composite Simpson quadrature on n = SIMPSON_PANELS panels.  The rule
    is linear and its nodes sit at s k / n in unit x, with s = unit(X_hi),
    so it maps each term x^i to s^i nu_i (``_simpson_moments``): the
    result is (X_hi - x_min) times the slope of the model with
    coefficients c_t nu_{i(t)}, one compensated evaluation per point.
    Accepts arrays;
    the integration deliberately starts at the dataset's lower X bound
    (the smallest measured field), not at zero, and is exactly 0.0 there.
    """
    nmap = model.map
    if nmap.x_max == nmap.x_min:
        raise ValueError("degenerate X range: nothing to integrate over")
    xpow = [m - j for _, m, j in map(degree_block, model.kept)]
    c = model.c * _simpson_moments(max(xpow))[xpow]
    X_hi, Y = np.broadcast_arrays(np.asarray(X_hi, float), np.asarray(Y, float))
    width = X_hi - nmap.x_min
    ds = np.where(width == 0.0, 0.0,
                  width * dZ_dY(replace(model, c=c), X_hi, Y))
    return float(ds) if ds.ndim == 0 else ds


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
