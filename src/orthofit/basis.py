"""The graded bivariate basis: one home for the raw columns.

Columns come in the total-degree flat order

    1, x, y, x^2, xy, y^2, x^3, x^2 y, x y^2, y^3, ...

flat index ``t = m(m+1)/2 + j`` where ``m`` is the total degree and ``j``
the power of y, so entry t is ``x**(m-j) * y**j`` in the monomial basis
of the model file (``basis_values``, ``dd_basis_values`` and
``basis_dy``).  The fit's raw columns have the same order and leading
terms but are Chebyshev products, ``T_i(2x - 1) T_j(2y - 1)`` with
i = m - j (``raw_values``): on the unit square the monomials are
badly conditioned (condition 1.2e9 at 91 training columns of a 1k
corpus, 1.5e15 at 210), the shifted Chebyshev columns are not (12.6 and
167).  Under the odd-x rule of ``--odd-field-only`` the x factor is the
unshifted T_i(x): for odd i it spans exactly x, x^3, ..., where
T_i(2x - 1) would bring in even powers of x.

Values come from one step, ``basis_step``, that builds each degree block
from the previous two, in double and in double-double: the product step
of the monomials, and the three-term Chebyshev recurrence.  The fit
reads ``_BlockGen``'s columns, with their Laplacian sums and the odd-x
rule; ``raw_to_monomial`` is the exact integer change of basis to the
monomials of the model file.
"""

from __future__ import annotations

import functools
from math import isqrt
from typing import NamedTuple

import numpy as np

from .ddarith import DD, dd_dot, dd_mul, dd_sub, dd_sum, two_sum
from .errors import DegenerateFitError
from .ortho import PrecisionMode


class BasisIndex(NamedTuple):
    """Flat index t with its (degree, y-power) decomposition."""

    t: int
    m: int
    j: int


def degree_block(t: int) -> BasisIndex:
    """Invert the flat index: return (t, m, j) with t = m(m+1)/2 + j.

    Exact integer arithmetic; valid for arbitrarily large t.
    """
    if t < 0:
        raise ValueError("flat index must be non-negative")
    m = (isqrt(8 * t + 1) - 1) // 2
    return BasisIndex(t, m, t - m * (m + 1) // 2)


def block_start(m: int) -> int:
    """Flat index of the first entry (j = 0) of degree block m."""
    return m * (m + 1) // 2


def columns_for_degree(m: int) -> int:
    """Number of basis columns with total degree <= m."""
    return (m + 1) * (m + 2) // 2


def _as_rows(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    if x.shape != y.shape:
        raise ValueError("x and y must have matching shapes")
    return x, y, scalar


def basis_step(prev, prev2, u, v, out) -> None:
    """Fill degree block m, entry j = f_{m-j}(u) g_j(v), from blocks m-1
    (``prev``) and m-2 (``prev2``), whole blocks at a time.

    With ``prev2`` None it is the product step of the monomials, and of
    Chebyshev block 1: h_{m,0} = u h_{m-1,0} and h_{m,j} = v h_{m-1,j-1}.
    Otherwise it is the Chebyshev recurrence T_n(t) = 2t T_{n-1}(t) -
    T_{n-2}(t), in u for j = 0 and in v for j >= 2:

        h_{m,0} = 2u h_{m-1,0} - h_{m-2,0},   h_{m,1} = v h_{m-1,0},
        h_{m,j} = 2v h_{m-1,j-1} - h_{m-2,j-2}.

    ``out`` is the first w <= m+1 columns of block m.  The blocks are
    float arrays, or (hi, lo) pairs for double-double, where u and v are
    (hi, lo) pairs too.
    """
    if isinstance(out, tuple):
        (ph, pl), (uh, ul), (vh, vl) = prev, u, v
        w = out[0].shape[1]
        if prev2 is None:
            out[0][:, 0], out[1][:, 0] = dd_mul(ph[:, 0], pl[:, 0], uh, ul)
            out[0][:, 1:], out[1][:, 1:] = dd_mul(
                ph[:, :w - 1], pl[:, :w - 1], vh[:, None], vl[:, None])
            return
        k = max(w - 2, 0)  # entries j >= 2
        out[0][:, 0], out[1][:, 0] = dd_sub(
            *dd_mul(ph[:, 0], pl[:, 0], 2 * uh, 2 * ul),
            prev2[0][:, 0], prev2[1][:, 0])
        out[0][:, 1:2], out[1][:, 1:2] = dd_mul(
            ph[:, :min(w - 1, 1)], pl[:, :min(w - 1, 1)], vh[:, None],
            vl[:, None])
        out[0][:, 2:], out[1][:, 2:] = dd_sub(
            *dd_mul(ph[:, 1:1 + k], pl[:, 1:1 + k], 2 * vh[:, None],
                    2 * vl[:, None]), prev2[0][:, :k], prev2[1][:, :k])
        return
    w = out.shape[1]
    if prev2 is None:
        np.multiply(u, prev[:, 0], out=out[:, 0])
        np.multiply(v[:, None], prev[:, :w - 1], out=out[:, 1:])
        return
    k = max(w - 2, 0)
    np.multiply(2 * u, prev[:, 0], out=out[:, 0])
    out[:, 0] -= prev2[:, 0]
    np.multiply(v[:, None], prev[:, :min(w - 1, 1)], out=out[:, 1:2])
    np.multiply(2 * v[:, None], prev[:, 1:1 + k], out=out[:, 2:])
    out[:, 2:] -= prev2[:, :k]


def _block_slices(L: int):
    """Column slices of blocks (m-2, m-1, m) for m = 1, 2, ... through L,
    block m cut at L; block -1 is None."""
    m = 1
    while block_start(m) <= L:
        yield (slice(block_start(m - 2), block_start(m - 1)) if m > 1
               else None, slice(block_start(m - 1), block_start(m)),
               slice(block_start(m), min(block_start(m + 1), L + 1)))
        m += 1


def _table(u, v, L: int, chebyshev: bool):
    """Entries 0..L at the points of u and v: an (n, L+1) array, or a
    (hi, lo) pair of them when u and v are pairs."""
    ext = isinstance(u, tuple)
    n = (u[0] if ext else u).size
    parts = (np.empty((n, L + 1)), np.zeros((n, L + 1)))[:1 + ext]
    parts[0][:, 0] = 1.0

    def cut(cols):
        return tuple(p[:, cols] for p in parts) if ext else parts[0][:, cols]

    for prev2, prev, cur in _block_slices(L):
        basis_step(cut(prev), cut(prev2) if chebyshev and prev2 else None,
                   u, v, cut(cur))
    return parts if ext else parts[0]


def basis_values(x, y, L: int) -> np.ndarray:
    """Monomials x^i y^j of flat indices 0..L at (x, y).

    Parameters
    ----------
    x, y : float or 1-d arrays of equal length
    L : largest flat index

    Returns
    -------
    ndarray of shape (L+1,) for scalar input, else (n, L+1).
    """
    x, y, scalar = _as_rows(x, y)
    out = _table(x, y, L, False)
    return out[0] if scalar else out


def dd_basis_values(x, y, L: int):
    """Monomials in double-double; returns (hi, lo) of shape (n, L+1)."""
    x, y, _ = _as_rows(x, y)
    return _table((x, np.zeros(x.size)), (y, np.zeros(y.size)), L, False)


def basis_dy(x, y, L: int) -> np.ndarray:
    """First y-derivative of every monomial.

    Computed by the power rule: entry (m, j) is j * x**(m-j) * y**(j-1),
    i.e. j times entry j-1 of degree block m-1.
    """
    x, y, scalar = _as_rows(x, y)
    vals = basis_values(x, y, L)
    out = np.zeros((x.size, L + 1))
    for _, prev, cur in _block_slices(L):
        j = np.arange(1, cur.stop - cur.start)
        out[:, cur.start + 1:cur.stop] = j * vals[:, prev.start + j - 1]
    return out[0] if scalar else out


def _raw_args(x, y, odd_x: bool, ext: bool):
    """The arguments (u, v) of the raw columns T_i(u) T_j(v): v = 2y - 1,
    and u = 2x - 1, or x under the odd-x rule.  In double-double they are
    exact (hi, lo) pairs, whose hi parts are the rounded double ones."""
    if not ext:
        return (x if odd_x else 2 * x - 1), 2 * y - 1
    return ((x, np.zeros(x.size)) if odd_x else two_sum(2 * x, -1.0),
            two_sum(2 * y, -1.0))


def raw_values(x, y, L: int, odd_x: bool = False,
               precision: PrecisionMode = PrecisionMode.DOUBLE):
    """The fit's raw columns of flat indices 0..L at the points (x, y): an
    (n, L+1) array, or in extended precision a (hi, lo) pair of them.
    Column t depends only on t, so a narrower table is a column prefix
    of a wider one, bit for bit, and so are the columns ``_BlockGen``
    hands out."""
    x, y, _ = _as_rows(x, y)
    return _table(*_raw_args(x, y, odd_x, precision is PrecisionMode.EXTENDED),
                  L, True)


@functools.cache
def _second_derivative_terms(m: int, cx: float):
    """Where the Laplacian sums of degree block m come from: (index,
    coefficient) arrays of shape (m+1, 2R), R = m // 2, such that Q(h_{m,j})
    is the sum over a row of coefficient * M[index], M being the flat
    column sums of the blocks before m.

    T_n'' = sum over k <= n-2 with n-k even of n(n^2 - k^2)/c_k T_k, c_0 =
    2 and c_k = 1 otherwise, so with i = m - j and the chain factors cx of
    x and 4 of y, Q(T_i T_j) = cx sum_k alpha_ik M[k, j] + 4 sum_l alpha_jl
    M[i, l]; M[a, b] is entry b of block a + b, which is m - 2r for k =
    i - 2r and l = j - 2r.  Built once per (m, cx) and read-only."""
    j = np.arange(m + 1)[:, None]
    r = np.arange(1, m // 2 + 1)[None, :]
    start = (m - 2 * r) * (m - 2 * r + 1) // 2
    index, coef = [], []
    for n, k, scale, at in ((m - j, m - j - 2 * r, cx, start + j),
                            (j, j - 2 * r, 4.0, start + j - 2 * r)):
        ok = k >= 0
        alpha = n * (n * n - k * k) // np.where(k == 0, 2, 1)
        index.append(np.where(ok, at, 0))
        coef.append(np.where(ok, scale * alpha, 0.0))
    terms = np.hstack(index), np.hstack(coef)
    for v in terms:
        v.flags.writeable = False
    return terms


class _BlockGen:
    """Yields the raw columns one degree block at a time, each with the
    sum Q(h) of its Laplacian over the points.

    The blocks follow ``basis_step``'s Chebyshev recurrence from the last
    two, and the sums come from the T'' formula of
    ``_second_derivative_terms`` over the column sums of every earlier
    block, kept in double-double (O(degree^2) numbers), so memory stays
    O(n * degree) however far the fit runs.  ``odd_x`` takes u = x and
    hands out only the columns with an odd power of x; the others are
    still built for the recurrence and the sums.
    """

    def __init__(self, x, y, precision: PrecisionMode, odd_x: bool = False):
        x = np.asarray(x, dtype=float)
        self.n = x.size
        self.ext = precision is PrecisionMode.EXTENDED
        self.odd_x = odd_x
        self.u, self.v = _raw_args(x, np.asarray(y, dtype=float), odd_x,
                                   self.ext)
        self.m = 0
        self._blocks = [None, None]   # blocks m-2 and m-1
        self._sums = (np.empty(0), np.empty(0))  # dd column sums, flat

    def next_block(self):
        """Return [(flat_t, col, q)] for the next degree block, with q the
        DD curvature sum Q(h_t)."""
        m, n = self.m, self.n
        # column-major, so each column handed out is contiguous
        block = np.empty((m + 1, n)).T
        if self.ext:
            block = (block, np.zeros((m + 1, n)).T)
        if m == 0:
            (block[0] if self.ext else block)[:] = 1.0
        else:
            basis_step(self._blocks[1], self._blocks[0] if m > 1 else None,
                       self.u, self.v, block)
        qh, ql = np.zeros(m + 1), np.zeros(m + 1)
        if m >= 2:
            index, coef = _second_derivative_terms(m, 1.0 if self.odd_x
                                                   else 4.0)
            qh, ql = dd_dot(self._sums[0][index], self._sums[1][index],
                            coef, 0.0, axis=1)
        sums = dd_sum(*block) if self.ext else dd_sum(block, 0.0)
        self._sums = tuple(map(np.concatenate, zip(self._sums, sums)))
        self._blocks = [self._blocks[1], block]
        self.m += 1
        cols = zip(block[0].T, block[1].T) if self.ext else block.T
        return [(block_start(m) + j, col, DD(qh[j], ql[j]))
                for j, col in enumerate(cols)
                if not self.odd_x or (m - j) % 2]


@functools.cache
def _chebyshev_powers(n: int, shifted: bool) -> tuple:
    """Integer monomial coefficients of T_0 .. T_n, lowest power first:
    of T_i(2x - 1) if ``shifted``, else of T_i(x)."""
    c0, c1 = (-2, 4) if shifted else (0, 2)  # 2t as a polynomial in x
    rows = [(1,), (-1, 2) if shifted else (0, 1)]
    while len(rows) <= n:
        p, q = rows[-1], rows[-2]
        row = [c0 * a for a in p] + [0]
        for k, a in enumerate(p):
            row[k + 1] += c1 * a
        for k, a in enumerate(q):
            row[k] -= a
        rows.append(tuple(row))
    return tuple(rows[:n + 1])


@functools.lru_cache(maxsize=64)
def check_closure(kept: tuple, odd_x: bool) -> None:
    """Raise DegenerateFitError unless the monomials of the flat indices
    ``kept`` span the raw columns of ``kept``.

    Raw column (i, j) spans the monomials x^a y^b with a <= i and b <= j
    (a of the parity of i under ``odd_x``), all of them below it in the
    flat order, so ``kept`` must hold (i - 1, j), or (i - 2, j) under
    ``odd_x``, and (i, j - 1) with each (i, j); by induction it then
    holds every monomial it needs.  A fit keeps them all unless a rank
    decision rejected one below a kept column; the error names the first
    kept column that misses one, and that monomial.
    """
    have = set(kept)
    step = 2 if odd_x else 1
    for t in kept:
        _, m, j = degree_block(t)
        for a, b in ((m - j - step, j), (m - j, j - 1)):
            need = block_start(a + b) + b
            if a >= 0 and b >= 0 and need not in have:
                raise DegenerateFitError(
                    f"column {t} needs monomial {need}, which the fit does "
                    f"not keep: a monomial model cannot hold the fit")


def raw_to_monomial(kept, odd_x: bool):
    """The change of basis from the raw columns of the flat indices
    ``kept`` to the monomials of the same indices: a (hi, lo) pair of
    (K, K) matrices B, B[s, r] the integer coefficient of monomial kept[r]
    in raw column kept[s], with hi + lo equal to it within 2^-106 of its
    size (exactly up to 2^53, which holds through degree 22).
    DegenerateFitError (``check_closure``) when the monomials of ``kept``
    cannot span its raw columns.
    """
    check_closure(tuple(kept), odd_x)
    pos = {t: r for r, t in enumerate(kept)}
    top = max(degree_block(t).m for t in kept)
    fx = _chebyshev_powers(top, not odd_x)
    fy = _chebyshev_powers(top, True)
    hi, lo = np.zeros((len(kept), len(kept))), np.zeros((len(kept),) * 2)
    for s, t in enumerate(kept):
        _, m, j = degree_block(t)
        for a, ca in enumerate(fx[m - j]):
            for b, cb in enumerate(fy[j] if ca else ()):
                r = pos[block_start(a + b) + b]
                hi[s, r] = h = float(ca * cb)
                lo[s, r] = ca * cb - int(h)
    return hi, lo
