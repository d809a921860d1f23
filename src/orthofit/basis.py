"""The graded bivariate monomial basis: one home for the raw columns.

The basis is the total-degree-ordered monomial sequence

    1, x, y, x^2, xy, y^2, x^3, x^2 y, x y^2, y^3, ...

flat index ``t = m(m+1)/2 + j`` where ``m`` is the total degree and ``j``
the power of y, so entry t is ``x**(m-j) * y**j``.  Values come from one
recursion, ``basis_step``, that builds each degree block from the
previous one (one multiply per entry), cheap and exactly reproducible,
in double and in double-double.  Evaluation reads the values (and
``basis_dy`` their y-derivatives); the fit reads ``_BlockGen``'s
columns, with their Laplacian sums and the odd-x rule.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

import numpy as np

from .ddarith import DD, dd_add, dd_mul_d, dd_sum
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


def basis_step(prev, x, y, out) -> None:
    """Fill degree block m from block m-1, whole blocks at a time.

    h_{m,0} = x * h_{m-1,0} and h_{m,j} = y * h_{m-1,j-1} for j >= 1.
    ``prev`` is the (n, m) block m-1 and ``out`` the first w <= m+1
    columns of block m; both are float arrays, or (hi, lo) pairs for
    double-double, where x and y stay exact doubles.
    """
    if isinstance(out, tuple):
        w = out[0].shape[1]
        out[0][:, 0], out[1][:, 0] = dd_mul_d(prev[0][:, 0], prev[1][:, 0], x)
        out[0][:, 1:], out[1][:, 1:] = dd_mul_d(
            prev[0][:, :w - 1], prev[1][:, :w - 1], y[:, None])
    else:
        w = out.shape[1]
        np.multiply(x, prev[:, 0], out=out[:, 0])
        np.multiply(y[:, None], prev[:, :w - 1], out=out[:, 1:])


def _block_slices(L: int):
    """Column slices of (block m-1, block m) for m = 1, 2, ... through L."""
    m = 1
    while block_start(m) <= L:
        start = block_start(m)
        yield slice(start - m, start), slice(start, min(start + m, L) + 1)
        m += 1


def basis_values(x, y, L: int) -> np.ndarray:
    """Evaluate basis entries 0..L at (x, y).

    Parameters
    ----------
    x, y : float or 1-d arrays of equal length
    L : largest flat index

    Returns
    -------
    ndarray of shape (L+1,) for scalar input, else (n, L+1).
    """
    x, y, scalar = _as_rows(x, y)
    out = np.empty((x.size, L + 1))
    out[:, 0] = 1.0
    for prev, cur in _block_slices(L):
        basis_step(out[:, prev], x, y, out[:, cur])
    return out[0] if scalar else out


def dd_basis_values(x, y, L: int):
    """Basis values in double-double; returns (hi, lo) of shape (n, L+1)."""
    x, y, _ = _as_rows(x, y)
    hi = np.empty((x.size, L + 1))
    lo = np.zeros((x.size, L + 1))
    hi[:, 0] = 1.0
    for prev, cur in _block_slices(L):
        basis_step((hi[:, prev], lo[:, prev]), x, y, (hi[:, cur], lo[:, cur]))
    return hi, lo


def basis_dy(x, y, L: int) -> np.ndarray:
    """First y-derivative of every basis entry.

    Computed by the power rule: entry (m, j) is j * x**(m-j) * y**(j-1),
    i.e. j times entry j-1 of degree block m-1.
    """
    x, y, scalar = _as_rows(x, y)
    vals = basis_values(x, y, L)
    out = np.zeros((x.size, L + 1))
    for prev, cur in _block_slices(L):
        j = np.arange(1, cur.stop - cur.start)
        out[:, cur.start + 1:cur.stop] = j * vals[:, prev.start + j - 1]
    return out[0] if scalar else out


class _BlockGen:
    """Yields basis columns one degree block at a time, each with the sum
    Q(h) of its Laplacian over the points.

    For h = x^i y^j, Q(h) = i(i-1) M[i-2, j] + j(j-1) M[i, j-2] with the
    moment sums M[a, b] = sum x^a y^b, which are the column sums of degree
    block m-2.  Keeps only the previous block and the sums of the last two,
    so memory stays O(n * degree) regardless of how far the fit runs.
    ``odd_x`` hands out only the columns with an odd power of x.
    """

    def __init__(self, x, y, precision: PrecisionMode, odd_x: bool = False):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.ext = precision is PrecisionMode.EXTENDED
        self.odd_x = odd_x
        self.m = 0
        self._block = None
        self._sums = []   # dd column sums of the last two blocks

    def next_block(self):
        """Return [(flat_t, col, q)] for the next degree block, with q the
        DD curvature sum Q(h_t)."""
        m, n = self.m, self.x.size
        # column-major, so each column handed out is contiguous
        block = np.empty((m + 1, n)).T
        if self.ext:
            block = (block, np.zeros((m + 1, n)).T)
        if m == 0:
            (block[0] if self.ext else block)[:] = 1.0
        else:
            basis_step(self._block, self.x, self.y, block)
        qh, ql = np.zeros(m + 1), np.zeros(m + 1)
        if m >= 2:
            sh, sl = self._sums[0]
            j = np.arange(m - 1)
            qh[:m - 1], ql[:m - 1] = dd_mul_d(sh, sl, (m - j) * (m - j - 1.0))
            th, tl = dd_mul_d(sh, sl, (j + 2) * (j + 1.0))
            qh[2:], ql[2:] = dd_add(qh[2:], ql[2:], th, tl)
        self._sums.append(dd_sum(*block) if self.ext else dd_sum(block, 0.0))
        del self._sums[:-2]
        self._block = block
        self.m += 1
        cols = zip(block[0].T, block[1].T) if self.ext else block.T
        return [(block_start(m) + j, col, DD(qh[j], ql[j]))
                for j, col in enumerate(cols)
                if not self.odd_x or (m - j) % 2]
