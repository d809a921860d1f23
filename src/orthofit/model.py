"""Portable surface models: monomial conversion, evaluation, export.

A fit is a sum of its coefficients c on the raw Chebyshev columns
(``FitResult.c``, ``basis.raw_values``), so it can be evaluated two
ways: through those columns at the fit's own precision (``eval_ortho``,
the arithmetic the fit and its held-out errors use) or through plain
monomial coefficients.  The monomial form is the portable artifact that
gets serialized, as model file version 1: ``to_monomial`` applies the
exact integer change of basis (``basis.raw_to_monomial``) to c in
double-double and rounds each coefficient once.  The Chebyshev
coefficients stay below 0.5 where the monomial ones reach 3.4e11 at
210 columns, so that one rounding is what a wide model file loses.

Physical-unit helpers invert the size normalization, differentiate with
respect to the raw Y coordinate (e.g. temperature), and integrate that
derivative over X (e.g. field) for entropy-change style quantities.  The
integral is Simpson's rule applied once per x-power of the model rather
than on a node grid per point, so it costs one polynomial evaluation per
point.  Every model-file evaluation is one kernel, ``_grid_sum``: a
tensor product in double-double, each y's polynomial in x once, then a
short sum over the x powers per point.  It broadcasts x against y, and
``grid_chunks`` and ``point_chunks`` walk grids and point sets through it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from sys import float_info
from typing import Optional

import numpy as np

from .basis import (_as_rows, columns_for_degree, degree_block,
                    raw_to_monomial, raw_values)
from .dataset import NormalizationMap
from .ddarith import (BLOCK_ELEMS, _dd_powers, dd_div_d, dd_dot, dd_mul_d,
                      dd_sub, two_prod)
from .errors import ModelFormatError
from .fit import FitResult
from .ortho import PrecisionMode

MODEL_VERSION = 1
SIMPSON_PANELS = 200  # composite Simpson panels of the entropy integral
# Largest total degree: (m+1)(m+2)/2 <= BLOCK_ELEMS, so one row of a
# held-out raw table (``select.group_errors``) fits one reduction block.
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


def to_monomial(fit: FitResult, include_audit: bool = False) -> SurfaceModel:
    """Convert a fit to monomial form over its kept indices: the exact
    change of basis (``basis.raw_to_monomial``) applied to the raw
    coefficients ``fit.c`` + ``fit.c_lo`` in double-double.

    The coefficients are rounded to double one degree block at a time
    from the top down, and each one's rounding error d is not dropped but
    replaced by the lower part of d h_s / B[s, s], h_s its raw column: a
    polynomial in the kept monomials of lower degree, exact in
    double-double because the leading entry B[s, s] is a power of two.
    What is left of the error is d h_s / B[s, s], at most |d| / B[s, s]
    on the unit square, with B[s, s] >= 4^(m-1) at degree m (2^(m-1)
    under the odd-x rule), so a wide model file keeps the fit to a few
    roundings of its value rather than one rounding of its largest
    coefficient.  Every fit's kept columns span the monomials they need,
    because a fit keeps no column above one it rejected (``_BlockGen``).
    """
    basis = fit.basis
    bh, bl = raw_to_monomial(basis.kept, fit.odd_x)
    ch, cl = dd_dot(fit.c[:, None], fit.c_lo[:, None], bh, bl)
    m = [degree_block(t).m for t in basis.kept]
    cuts = [0] + [s for s in range(1, len(m)) if m[s] != m[s - 1]]
    c = np.empty(len(m))
    for s, end in reversed(list(zip(cuts, cuts[1:] + [len(m)]))):
        c[s:end] = ch[s:end] + cl[s:end]
        dh, dl = dd_div_d(*dd_sub(ch[s:end], cl[s:end], c[s:end], 0.0),
                          np.diag(bh)[s:end])
        ch[:s], cl[:s] = dd_sub(ch[:s], cl[:s], *dd_dot(
            dh[:, None], dl[:, None], bh[s:end, :s], bl[s:end, :s]))
    audit = ({"a": basis.a.tolist(), "b": (fit.b + fit.b_lo).tolist()}
             if include_audit else None)
    return SurfaceModel(c=c, kept=basis.kept, map=fit.nmap, S=fit.S,
                        lambda_=fit.lambda_, sigma_tr=fit.sigma_tr,
                        audit=audit)


def eval_ortho(fit: FitResult, x, y):
    """Evaluate a fit at normalized (x, y) through its raw columns, at
    the fit's own precision: fresh raw values times ``fit.c``, in
    double-double (rounded once) for an extended fit."""
    basis = fit.basis
    kept = list(basis.kept)
    xs, ys, scalar = _as_rows(x, y)
    h = raw_values(xs, ys, max(kept), fit.odd_x, basis.precision)
    if basis.precision is PrecisionMode.EXTENDED:
        fh, fl = dd_dot(h[0][:, kept], h[1][:, kept], fit.c, fit.c_lo, axis=1)
        out = fh + fl
    else:
        out = h[:, kept] @ fit.c
    return float(out[0]) if scalar else out


def _block_rows(model: SurfaceModel, outputs: int, width: int) -> int:
    """Rows of ``width`` points per kernel call: the products of
    ``_grid_sum``, outputs n^2 per row and outputs n per point with n the
    degree + 1, then stay within BLOCK_ELEMS where one row's do."""
    n = 1 + max(degree_block(t).m for t in model.kept)
    return max(1, BLOCK_ELEMS // (outputs * n * max(width, n)))


def point_chunks(model: SurfaceModel, X, Y, slope, entropy):
    """(first row, X, Y, outputs) of the points (X[i], Y[i]) of 1-d X and
    Y of equal length: ``GridKernel``'s outputs, ``_block_rows`` points
    per kernel, so long inputs keep its bound and no bit moves."""
    rows = _block_rows(model, 1 + slope + entropy, 1)
    for lo in range(0, len(X), rows):
        Xs, Ys = X[lo:lo + rows], Y[lo:lo + rows]
        yield lo, Xs, Ys, GridKernel(model, Xs, slope, entropy)(Ys)


def grid_chunks(model: SurfaceModel, nx, ny, slope, entropy):
    """(first row, X, Y, outputs) of the NX x NY grid over the model's
    rectangle, whose row k nx + i is (X[i], Y[k]), from ``GridKernel``
    with Y as a column: chunks of whole Y rows, all from one kernel of
    the X axis, or pieces of one row when it alone is too wide, each from
    a kernel of its piece of X.  The kernel products of a chunk stay
    within BLOCK_ELEMS where one row's do (``_block_rows``), and a
    kernel's X power table, 2 (degree + 1) doubles per X value, within
    twice that."""
    nmap = model.map
    Xs = np.linspace(nmap.x_min, nmap.x_max, nx)
    Ys = np.linspace(nmap.y_min, nmap.y_max, ny)
    outputs = 1 + slope + entropy
    n = 1 + max(degree_block(t).m for t in model.kept)
    cols = max(1, BLOCK_ELEMS // (outputs * n))  # < nx: one row per chunk
    rows = _block_rows(model, outputs, nx)
    kernel = None
    for k in range(0, ny, rows):
        Y = Ys[k:k + rows]
        for i in range(0, nx, cols):
            X = Xs[i:i + cols]
            if kernel is None or nx > cols:
                kernel = GridKernel(model, X, slope, entropy)
            values = kernel(Y[:, None])
            yield (k * nx + i, np.tile(X, Y.size), np.repeat(Y, X.size),
                   [v.ravel() for v in values])


def _pointwise(model: SurfaceModel, X, Y, slope=False, entropy=False):
    """``GridKernel``'s last output at the points (X[i], Y[i]) of X and Y
    broadcast by numpy's rules, a float for scalars, from
    ``point_chunks``."""
    X, Y = np.broadcast_arrays(np.asarray(X, float), np.asarray(Y, float))
    out = np.empty(X.shape)
    flat = out.reshape(-1)
    for lo, Xs, _, values in point_chunks(model, X.reshape(-1),
                                          Y.reshape(-1), slope, entropy):
        flat[lo:lo + Xs.size] = values[-1]
    return float(out) if out.ndim == 0 else out


def eval_monomial(model: SurfaceModel, x, y):
    """Evaluate sum(c_t h_t) at normalized (x, y), faithfully to the stored
    coefficients: the kernel under the unit map, whose conversions are
    exact."""
    return _pointwise(replace(model, map=NormalizationMap(
        0.0, 1.0, 0.0, 1.0, 0.0, 1.0)), x, y)


def eval_physical(model: SurfaceModel, X, Y):
    """Evaluate Z in original units.  Points outside the measured
    rectangle are evaluated too: the polynomial extends."""
    return _pointwise(model, X, Y)


def dZ_dY(model: SurfaceModel, X, Y):
    """Slope of the surface along raw Y, in original units per Y unit."""
    return _pointwise(model, X, Y, slope=True)


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
    result is (X_hi - x_min) times one polynomial of the slope's
    coefficients, scaled by nu_i (``_grid_coefficients``), per point.
    Accepts arrays;
    the integration deliberately starts at the dataset's lower X bound
    (the smallest measured field), not at zero, and is exactly 0.0 there.
    """
    return _pointwise(model, X_hi, Y, entropy=True)


class GridKernel:
    """Z in original units at the points (X[i], Y[k]), then with the flags
    dZ/dY and the entropy change ``entropy_change(model, Y[k], X[i])``.

    Built once per model and X, with the work that depends on them alone:
    the coefficient stacks (``_grid_coefficients``) and the double-double
    power table of unit X (``_dd_powers``).  A call broadcasts Y against
    X by numpy's rules, one array per output: Y as a column gives the
    grid (len(Y), len(X)), Y as long as X the points (X[i], Y[i]).  The
    sums come from ``_grid_sum``, so each is faithful and depends only on
    its own X and Y.  A large set goes in pieces, one kernel per piece of
    X (``grid_chunks`` and ``point_chunks``).
    """

    def __init__(self, model: SurfaceModel, X, slope: bool = False,
                 entropy: bool = False):
        nmap = self.map = model.map
        X = np.atleast_1d(np.asarray(X, dtype=float))
        if (slope or entropy) and nmap.y_max == nmap.y_min:
            raise ValueError("degenerate Y range: derivative undefined")
        if entropy and nmap.x_max == nmap.x_min:
            raise ValueError("degenerate X range: nothing to integrate over")
        # raw Z per raw Y of a unit slope; the entropy's field window
        self.scale = ((nmap.z_max - nmap.z_min) / (nmap.y_max - nmap.y_min)
                      if slope or entropy else None)
        self.width = X - nmap.x_min
        self.slope, self.entropy = slope, entropy
        self.C = _grid_coefficients(model, slope, entropy)
        self.xpow = _dd_powers(nmap.to_unit(X, 0.0)[0], self.C[0].shape[-1])

    def __call__(self, Y) -> list:
        y = self.map.to_unit(0.0, Y)[1]
        sums = _grid_sum(self.C, self.xpow, y)
        out = [self.map.to_raw(0.0, 0.0, sums[0])[2]]
        if self.slope:
            out.append(self.scale * sums[1])
        if self.entropy:
            out.append(np.where(self.width == 0.0, 0.0,
                                self.width * (self.scale * sums[-1])))
        return out


def _grid_coefficients(model: SurfaceModel, slope: bool, entropy: bool):
    """The coefficients of ``_grid_sum`` as a (hi, lo) pair of (M, n, n)
    stacks, n the model's degree + 1: C[a, b] = c_t for the kept t of
    x^a y^b, then with the flags the slope's C'[a, b - 1] = b C[a, b],
    exact by ``two_prod``, and the Simpson sum's C'[a, b] nu_a (see
    ``entropy_change``)."""
    powers = np.array([(m - j, j) for _, m, j in map(degree_block,
                                                        model.kept)]).T
    n = 1 + int(powers.sum(axis=0).max())
    C = np.zeros((n, n))
    C[tuple(powers)] = model.c
    d = np.zeros((2, n, n))
    d[0, :, :-1], d[1, :, :-1] = two_prod(C[:, 1:], np.arange(1.0, n))
    stack = [(C, np.zeros((n, n)))]
    if slope:
        stack.append(d)
    if entropy:
        stack.append(dd_mul_d(*d, _simpson_moments(n - 1)[:, None]))
    return tuple(np.array(v) for v in zip(*stack))


def _grid_sum(C, xpow, y) -> np.ndarray:
    """sum over a, b of C[., a, b] x^a y^b at the points of x and y
    broadcast by numpy's rules (a column y against x is a grid), for a
    (hi, lo) pair C of (M, n, n) coefficient stacks and the power table
    ``xpow = _dd_powers(x, n)``: an (M, *shape) array.

    The tensor product Z(x, y) = sum_a x^a d_a(y), d_a(y) = sum_b C[a, b]
    y^b, in double-double: power tables of x and y (``_dd_powers``), each
    y's d_a once as a ``dd_dot`` over b, then each point as a ``dd_dot``
    over a, n terms in place of one per kept index, rounded once to
    double.  Every sum is its own pairwise tree, so a value depends only
    on its own x, y and C.  The products of one ``dd_dot`` number n^2 M
    y.size and n times the points.
    """
    n = C[0].shape[-1]
    shape = np.broadcast_shapes(xpow[0].shape[1:], np.shape(y))
    # the power axis, then the point axes of x and y aligned at the end
    xh, xl, yh, yl = (
        v.reshape(n, *(1,) * (1 + len(shape) - v.ndim), *v.shape[1:])
        for v in (*xpow, *_dd_powers(y, n)))
    # axis 0 of each product is the summed power: b, then a
    dh, dl = dd_dot(yh[:, None, None], yl[:, None, None], *(
        v.transpose(2, 0, 1).reshape(n, -1, n, *(1,) * len(shape)) for v in C))
    out = np.empty((len(C[0]), *shape))
    for m in range(len(out)):  # one output at a time: smaller operands
        zh, zl = dd_dot(xh, xl, dh[m], dl[m])
        out[m] = zh + zl
    return out


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
