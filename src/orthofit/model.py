"""Portable surface models: monomial conversion, evaluation, export.

A fitted surface can be evaluated two ways: through the orthonormal
polynomial recurrences (the arithmetic the fit itself used) or through
plain monomial coefficients.  Both come from one triangular expansion,
P_s = a_ss h_s + sum_{t<s} a_st P_t (``_expand``): applied to basis
values it evaluates the polynomials, applied to the identity it yields
their monomial coefficients.  The monomial form is the cheap, portable
artifact that gets serialized; the conversion always runs in
double-double arithmetic because the expansion cancels catastrophically
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

import functools
import json
import math
from dataclasses import dataclass, replace
from sys import float_info
from typing import Optional

import numpy as np

from .basis import (_as_rows, basis_dy, basis_values, columns_for_degree,
                    dd_basis_values, degree_block)
from .dataset import NormalizationMap
from .ddarith import BLOCK_ELEMS, comp_dot, dd_add, dd_dot, dd_mul
from .errors import ModelFormatError
from .fit import FitResult
from .ortho import PrecisionMode

MODEL_VERSION = 1
SIMPSON_PANELS = 200  # composite Simpson panels of the entropy integral
# Largest total degree of a model file: (m+1)(m+2)/2 <= BLOCK_ELEMS, so one
# row of an evaluation table fits one reduction block.
MAX_DEGREE = 360
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
        ph[s], pl[s] = dd_add(ph[s], pl[s], *dd_dot(
            ph[:s], pl[:s], a[s, :s, None], a_lo[s, :s, None]))
    return ph.T, pl.T


def to_monomial(fit: FitResult, include_audit: bool = False) -> SurfaceModel:
    """Convert a fit to monomial form: c = sum_s b_s g_s, where g_s holds
    the monomial coefficients of P_s.

    The expansion always runs in double-double, whatever the fit's own
    precision; the final coefficients are stored as doubles.
    """
    return _monomials([fit], include_audit)[0]


def _monomials(fits, include_audit=False):
    """``to_monomial`` for fits whose bases are column prefixes of one
    basis (the solves of one sweep): the expansion runs once, for the
    widest.  Row s of it depends only on rows < s, so its K-column
    prefix is the expansion of a K-column basis bit for bit."""
    widest = max((fit.basis for fit in fits), key=lambda basis: basis.n_columns)
    N = widest.n_columns
    a = widest.a
    al = widest.a_lo
    gh, gl = _expand(a, al, (np.eye(N), np.zeros((N, N))))
    models = []
    for fit in fits:
        basis = fit.basis
        K = basis.n_columns
        if not (np.array_equal(basis.a, a[:K, :K]) and np.array_equal(
                basis.a_lo, al[:K, :K])):
            raise ValueError("the fits do not share one basis")
        ch, cl = dd_dot(gh[:K, :K], gl[:K, :K], fit.b, fit.b_lo, axis=1)
        audit = ({"a": basis.a.tolist(), "b": (fit.b + fit.b_lo).tolist()}
                 if include_audit else None)
        models.append(SurfaceModel(
            c=ch + cl, kept=basis.kept, map=fit.nmap, S=fit.S,
            lambda_=fit.lambda_, sigma_tr=fit.sigma_tr, audit=audit))
    return models


def eval_ortho(fit: FitResult, x, y):
    """Evaluate through the orthonormal recurrences at normalized (x, y).

    Rebuilds each polynomial's value from fresh basis values and the
    stored triangular coefficients, at the fit's own precision.
    """
    basis = fit.basis
    kept = np.asarray(basis.kept, dtype=int)
    L = int(kept.max())
    xs, ys, scalar = _as_rows(x, y)
    if basis.precision is PrecisionMode.EXTENDED:
        hh, hl = dd_basis_values(xs, ys, L)
        ph, pl = _expand(basis.a, basis.a_lo, (hh[:, kept], hl[:, kept]))
        fh, fl = dd_dot(ph, pl, fit.b, fit.b_lo, axis=1)
        out = fh + fl
    else:
        out = _expand(basis.a, None, basis_values(xs, ys, L)[:, kept]) @ fit.b
    return float(out[0]) if scalar else out


def _sum_terms(models, table, x, y) -> np.ndarray:
    """Compensated sum_t c_t table_t(x, y) over each model's kept indices,
    where ``table`` is basis_values or basis_dy; one row of values per
    model, one column per point.

    Every model's ``kept`` must be a prefix of the widest one's (the
    models of one sweep, which share one basis), else ValueError.  The
    table is L + 1 wide, L the widest model's largest kept index, and is
    built BLOCK_ELEMS // (L + 1) rows at a time; each model's sum is a
    ``comp_dot`` over the first K kept columns of the block.  A table
    column does not depend on L (``basis_step`` is elementwise) and each
    point is its own sum, so a model gets the bits it gets alone.
    """
    widest = max(models, key=lambda model: len(model.kept))
    if any(tuple(model.kept) != tuple(widest.kept[:len(model.kept)])
           for model in models):
        raise ValueError("the models do not share one basis")
    kept = np.asarray(widest.kept, dtype=int)
    L = int(kept.max())
    xs, ys, _ = _as_rows(x, y)
    rows = max(1, BLOCK_ELEMS // (L + 1))
    out = np.empty((len(models), xs.size))
    for r in range(0, xs.size, rows):
        t = table(xs[r:r + rows], ys[r:r + rows], L)[:, kept]
        for row, model in zip(out, models):
            row[r:r + rows] = comp_dot(t[:, :len(model.kept)], model.c, axis=1)
    return out


def _sum_one(model: SurfaceModel, table, x, y):
    """``_sum_terms`` for one model: a float for scalar (x, y)."""
    out = _sum_terms([model], table, x, y)[0]
    return float(out[0]) if np.ndim(x) == 0 and np.ndim(y) == 0 else out


def eval_monomial(model: SurfaceModel, x, y):
    """Evaluate sum(c_t h_t) at normalized (x, y).

    Products and the sum are compensated, so accuracy is limited by the
    stored double coefficients rather than by summation order.
    """
    return _sum_one(model, basis_values, x, y)


def eval_physical(model: SurfaceModel, X, Y):
    """Evaluate Z in original units.  Points outside the measured
    rectangle are evaluated too: the polynomial extends."""
    nmap = model.map
    x, y = nmap.to_unit(X, Y)
    _, _, Z = nmap.to_raw(x, y, eval_monomial(model, x, y))
    return float(Z) if np.ndim(Z) == 0 else Z


def dZ_dY(model: SurfaceModel, X, Y):
    """Slope of the surface along raw Y, in original units per Y unit."""
    nmap = model.map
    if nmap.y_max == nmap.y_min:
        raise ValueError("degenerate Y range: derivative undefined")
    scale = float((nmap.z_max - nmap.z_min) / (nmap.y_max - nmap.y_min))
    return scale * _sum_one(model, basis_dy, *nmap.to_unit(X, Y))


@functools.cache
def _simpson_moments(top: int) -> np.ndarray:
    """nu_i = sum_k w_k (k/n)^i for i = 0..top, with w_k the weights of
    composite Simpson on n = SIMPSON_PANELS panels of [0, 1]: the rule
    applied to x^i.  The sums are exact integers in units of 1/(6n), so
    each nu_i is rounded once.  Built once per ``top`` and read-only."""
    n = SIMPSON_PANELS
    # node weights in units of h/6
    w = [2 if k in (0, n) else (8 if k % 2 else 4) for k in range(n + 1)]
    nu = []
    for i in range(top + 1):
        nu.append(sum(w) / (6 * n ** (i + 1)))
        w = [v * k for k, v in enumerate(w)]
    nu = np.array(nu)
    nu.flags.writeable = False
    return nu


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
    """Write the model as RFC 8259 JSON; floats round-trip exactly.
    A non-finite value raises ValueError and leaves no file."""
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
    text = json.dumps(doc, indent=1, allow_nan=False)  # may raise: no file yet
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> SurfaceModel:
    """Read a model file written by save_model."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"not a model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("not a model file: expected a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {version!r} "
                               f"(expected {MODEL_VERSION})")
    try:
        nm = _of("normalization", doc["normalization"], dict)
        S, audit = doc["S"], doc.get("audit")
        if type(S) is not int or S < 0:
            raise ModelFormatError("model field 'S' must hold an integer >= 0")
        if audit is not None:  # export writes it back, so it must be finite
            if set(_of("audit", audit, dict)) != {"a", "b"}:
                raise ModelFormatError("model field 'audit' must hold just "
                                       "'a' and 'b'")
            for row in [audit["b"], *_of("audit", audit["a"], list)]:
                [_finite("audit", v) for v in _of("audit", row, list)]
        model = SurfaceModel(
            c=np.array([_finite("c", v) for v in _of("c", doc["c"], list)]),
            kept=tuple(_of("kept_indices", doc["kept_indices"], list)),
            map=NormalizationMap(*(_finite(k, nm[k]) for k in _BOUNDS)),
            S=S, lambda_=_finite("lambda", doc["lambda"]),
            sigma_tr=_finite("sigma_tr", doc["sigma_tr"]), audit=audit)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from None
    _check_model(model)
    return model


def _of(name, value, kind):
    """value, if it is a JSON array (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        raise ModelFormatError(f"model field '{name}' has the wrong JSON type")
    return value


def _finite(name, value) -> float:
    """A model file's JSON number as a float, if it is finite; anything
    else (a bool, a string, an array) raises ModelFormatError naming it."""
    if not (type(value) in (int, float) and abs(value) <= float_info.max):
        raise ModelFormatError(f"model field '{name}' needs a finite number")
    return float(value)


def _check_model(model: SurfaceModel) -> None:
    """Reject model contents that disagree with each other or would
    evaluate wrongly or to NaN."""
    c, kept, nmap = model.c, model.kept, model.map
    if c.ndim != 1 or c.size != len(kept) or not kept:
        raise ModelFormatError(
            f"model field 'c' has {c.size} entries for {len(kept)} kept_indices")
    if model.S != len(kept) - 1:
        raise ModelFormatError(
            f"model field 'S' is {model.S}, but {len(kept)} coefficients "
            f"need S = {len(kept) - 1}")
    top = columns_for_degree(MAX_DEGREE) - 1
    if (not all(type(t) is int and 0 <= t <= top for t in kept)
            or len(set(kept)) != len(kept)):
        raise ModelFormatError(
            "model field 'kept_indices' must hold distinct integers in "
            f"0..{top} (total degree <= {MAX_DEGREE})")
    b = [getattr(nmap, k) for k in _BOUNDS]
    # a finite max - min also means finite bounds
    if not (all(math.isfinite(hi - lo) for lo, hi in zip(b[::2], b[1::2]))
            and nmap.x_min < nmap.x_max and nmap.y_min < nmap.y_max
            and nmap.z_min <= nmap.z_max):
        raise ModelFormatError(
            "model field 'normalization' needs finite bounds and ranges "
            "with x_min < x_max, y_min < y_max and z_min <= z_max")
