"""Orthonormalization of basis columns against the sample inner product.

Columns are orthonormalized one at a time against ``<u, v> = sum_i u_i
v_i`` over the training points by iterated projection: the subtraction
pass repeats until the newly measured projections are negligible
relative to the incoming column (or a pass cap is hit), then the column
is normalized.  One extra pass is usually enough to restore the
orthogonality that a single pass progressively loses.

The expansion bookkeeping records, as it accepts each orthonormal column
s, coefficients ``a[s, s]`` (of the raw basis column) and ``a[s, t]`` (of
previous orthonormal columns t < s) such that

    P_s = a[s, s] * h_s + sum_{t < s} a[s, t] * P_t .

The orthonormal columns are stored column-major (Fortran order), as in
the scheme's original implementation: each column it reads or writes
is one contiguous block, and projections are gemv over contiguous
columns.

Everything runs at either plain double precision (BLAS reductions) or
software double-double ("extended") precision.  Extended inner products
and projections are BLAS products over slices of their operands: each
diagonal of slice products sums exactly in a double, and the diagonals
are added in double-double, so their bits do not depend on BLAS's
summation order or thread count.  Only the last pass has to be exact,
since each pass removes what the one before left along the stored
columns ("twice is enough": Giraud, Langou & Rozložník, *Comput. Math.
Appl.* 50, 2005).  So an extended column's first pass measures its
projections on the leading slices alone, and is never the last: its
subtraction, every later pass and the final norm use them all.  The pass
rule's scale, the incoming column's norm, is a plain double sum over the
high parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .ddarith import (BLOCK_ELEMS, DD, comp_dot, dd_add, dd_add_d, dd_mul,
                      dd_slices, dd_sub, slice_width, two_sum)

REORTH_TOL = 1e-14   # pass accepted when max |delta| <= tol * column norm
MAX_PASSES = 3
RANK_TOL = 1e-20     # post-projection norm below this rejects the column
DOUBLE_RANK_REL = 2.0 ** -44  # double: also reject below this * column norm
SLICE_BITS = 118     # extended projections: bits kept below the scale
DEFECT_CHUNK_ROWS = 4096  # rows per gemm of orthogonality_defect's Gram


class PrecisionMode(str, Enum):
    DOUBLE = "double"
    EXTENDED = "extended"


@dataclass(frozen=True)
class OrthoBasis:
    """Finished orthonormal system over the training points.

    P : (n_train, K) float64 values of the orthonormal polynomials (hi
        parts in extended mode), column-major (F-contiguous).
    a : (K, K) lower-triangular expansion coefficients (see module doc).
    kept : original flat basis index of each orthonormal column.
    a_lo : low parts of a; zeros in double mode.
    ``OrthoBuilder.to_basis`` fills every array with a read-only view.
    """

    P: np.ndarray
    a: np.ndarray
    kept: tuple
    precision: PrecisionMode
    a_lo: Optional[np.ndarray] = None

    @property
    def n_columns(self) -> int:
        return self.P.shape[1]


def orthogonality_defect(basis: OrthoBasis) -> float:
    """Largest off-diagonal |<P_t, P_s>| of the basis.

    The Gram matrix of P (the hi parts in extended mode) is summed over
    fixed chunks of ``DEFECT_CHUNK_ROWS`` rows: one double gemm per chunk,
    and the chunk partials added by ``two_sum`` into high and low parts.
    One gemm over all rows would round at every step of a sum of n
    terms, and at large n that rounding outgrows what it measures."""
    if basis.n_columns < 2:
        raise ValueError("need at least 2 columns to measure a defect")
    P = np.asfortranarray(basis.P)  # one layout, hence one set of bits
    hi = lo = 0.0
    for r in range(0, P.shape[0], DEFECT_CHUNK_ROWS):
        chunk = P[r:r + DEFECT_CHUNK_ROWS]
        hi, e = two_sum(hi, chunk.T @ chunk)
        lo = lo + e
    g = hi + lo
    np.fill_diagonal(g, 0.0)
    return float(np.abs(g).max())


class _DoubleCore:
    """Plain float64 storage; BLAS matvecs for projections.

    P is column-major, so ``measure`` and ``deflate`` are gemv over
    contiguous columns and every single-column read or write is one
    contiguous block.
    """

    def __init__(self, n: int, cap: int):
        self.P = np.empty((n, cap), order="F")
        self.k = 0

    def grow(self, cap):
        new = np.empty((self.P.shape[0], cap), order="F")
        new[:, :self.k] = self.P[:, :self.k]
        self.P = new

    def make_vec(self, arr):
        return np.array(arr, dtype=float, copy=True)

    def measure(self, v):
        return self.P[:, :self.k].T @ v

    def deflate(self, v, delta):
        v -= self.P[:, :self.k] @ delta
        return v

    def norm2(self, v):
        return DD(float(v @ v))

    def delta_max(self, delta):
        return float(np.abs(delta).max())

    def append(self, v, inv):
        np.multiply(v, float(inv), out=self.P[:, self.k])
        self.k += 1

    def column_dot(self, first, end, vec):
        # one comp_dot: vec split once, the columns split and summed in
        # groups of at most BLOCK_ELEMS products (one column at 100k)
        return comp_dot(self.P[:, first:end], vec[:, None])

    def subtract_scaled_columns(self, vec, first, coeffs):
        # rows: vec, then c_t * P_t for up to step columns, within
        # BLOCK_ELEMS doubles where two rows fit; each reduce subtracts its
        # rows in order, as vec - c_t * P_t one column at a time does
        n, c = vec.size, np.array(coeffs, dtype=float)
        step = max(1, BLOCK_ELEMS // n - 1)
        rows = np.empty((min(step, c.size) + 1, n))
        for i in range(0, c.size, step):
            k = c[i:i + step]
            rows[0] = vec
            np.multiply(self.P[:, first + i:first + i + k.size].T, k[:, None],
                        out=rows[1:k.size + 1])
            vec = np.subtract.reduce(rows[:k.size + 1], axis=0)
        return vec

    def vec_norm2(self, vec):
        return comp_dot(vec, vec)


class _ExtendedCore:
    """(hi, lo) pair storage; reductions in double-double.

    Every reduction (``column_dot``, whose range [0, k) is ``measure``,
    ``lead_measure``, ``deflate`` and ``norm2``) is a BLAS product over
    slices (see ``dd_slices``).  Every column has unit norm, so |P| <= 1
    and one grid of ``count`` slices of ``width`` bits, cut when a column
    is appended, serves every column; any other vector is sliced on its own
    power-of-two scale, each time it is reduced.  The products of slices p
    and q share one unit for each diagonal p + q, and ``slice_width`` lets
    count * n of them fit in a double (``deflate`` sums over the k <= n
    columns, the others over the n points), so ``_sum_diagonals`` sums each
    diagonal p + q < count exactly with one fixed 0/1 gemm, whatever BLAS
    does with order, blocking, FMA or threads, and adds the diagonals in
    double-double from the smallest up.  The rest, and the remainders left
    after ``count`` slices, lie about 2**-SLICE_BITS below the scale.

    ``lead_measure``, a column's first pass, cuts only the leading ``lead``
    = ceil(53 / width) + 1 slices of the vector and takes the products with
    p + q < lead on the same grid: exact diagonals again, and an error of
    about 2**(-lead * width) of the scale, which the exact second pass
    removes: ``add_column`` takes at least two passes in extended mode.

    The slices take count * n * cap doubles beside P.  Ph and Pl are
    column-major like the double core's P; Psl is C-ordered (count, n,
    cap), so ``deflate`` can view it as one (count * n, cap) matrix
    without a copy.
    """

    def __init__(self, n: int, cap: int):
        self.Ph = np.empty((n, cap), order="F")
        self.Pl = np.empty((n, cap), order="F")
        self.width = slice_width(n, SLICE_BITS)
        self.count = S = -(-SLICE_BITS // self.width)
        self.lead = -(-53 // self.width) + 1  # slices of a first pass
        self.Psl = np.empty((S, n, cap))
        # _diag[c][d, p * c + q] = 1 where p + q == d, for c slices
        self._diag = {}
        for c in (self.lead, S):
            pq = np.add.outer(np.arange(c), np.arange(c)).ravel()
            self._diag[c] = (pq == np.arange(c)[:, None]).astype(float)
        self.k = 0

    def grow(self, cap):
        for name in ("Ph", "Pl", "Psl"):
            buf = getattr(self, name)
            # empty_like keeps each layout: Ph/Pl column-major, Psl C-order
            new = np.empty_like(buf, shape=buf.shape[:-1] + (cap,))
            new[..., :self.k] = buf[..., :self.k]
            setattr(self, name, new)

    def make_vec(self, arr):
        if isinstance(arr, tuple):
            return (np.array(arr[0], dtype=float, copy=True),
                    np.array(arr[1], dtype=float, copy=True))
        return (np.array(arr, dtype=float, copy=True), np.zeros(len(arr)))

    def _slices(self, v, count):
        """The leading ``count`` slices, (count, len), of the dd vector v
        on its power-of-two scale."""
        exp = math.frexp(float(np.abs(v[0]).max()))[1]
        return dd_slices(v[0], v[1], self.width, count, exp)[0]

    def _sum_diagonals(self, terms):
        """dd sums over p + q < c of the exact slice products ``terms[p,
        q]`` (c, c, ...), c = count or lead: one 0/1 gemm sums each
        diagonal exactly, then dd additions gather the diagonals from the
        smallest up."""
        c = terms.shape[0]
        diag = self._diag[c] @ terms.reshape(c * c, -1)
        h, l = diag[-1], np.zeros_like(diag[-1])
        for d in diag[-2::-1]:
            h, l = dd_add_d(h, l, d)
        return h.reshape(terms.shape[2:]), l.reshape(terms.shape[2:])

    def _dot(self, first, end, vec, c):
        # terms[p, q, t] = <slice p of P_t, slice q of vec>, p, q < c
        return self._sum_diagonals(
            np.matmul(self._slices(vec, c), self.Psl[:c, :, first:end]))

    def column_dot(self, first, end, vec):
        return self._dot(first, end, vec, self.count)

    def measure(self, v):
        return self.column_dot(0, self.k, v)

    def lead_measure(self, v):
        """``measure`` from the leading ``lead`` slices alone, good to
        about lead * width bits below v's scale: a first pass's
        projections, which the next pass corrects."""
        return self._dot(0, self.k, v, self.lead)

    def deflate(self, v, delta):
        S, n, k = self.count, self.Ph.shape[0], self.k
        # terms[q, p, i] = sum_t (slice q of delta)_t (slice p of P_t)_i
        terms = self._slices(delta, S) @ self.Psl[:, :, :k].reshape(S * n, k).T
        return dd_sub(v[0], v[1], *self._sum_diagonals(terms.reshape(S, S, n)))

    def norm2(self, v):
        vs = self._slices(v, self.count)
        return DD(*self._sum_diagonals(vs @ vs.T))

    def delta_max(self, delta):
        return float(np.abs(delta[0]).max())

    def append(self, v, inv):
        k = self.k
        self.Ph[:, k], self.Pl[:, k] = dd_mul(v[0], v[1], inv.hi, inv.lo)
        self.Psl[:, :, k] = dd_slices(self.Ph[:, k], self.Pl[:, k],
                                      self.width, self.count)[0]
        self.k += 1

    def subtract_scaled_columns(self, vec, first, coeffs):
        for t, coeff in enumerate(coeffs, first):
            ch, cl = DD._coerce(coeff)
            sh, sl = dd_mul(self.Ph[:, t], self.Pl[:, t], ch, cl)
            vec = dd_sub(vec[0], vec[1], sh, sl)
        return vec

    def vec_norm2(self, vec):
        return float(self.norm2(vec))


class OrthoBuilder:
    """Incremental orthonormalization state: iterated projection, at most
    MAX_PASSES passes per column (see module doc).

    Parameters
    ----------
    n_train : number of training points (column length).
    precision : PrecisionMode for storage and reductions.
    capacity : columns to allocate for; the store doubles when full.
    """

    def __init__(self, n_train: int,
                 precision: PrecisionMode = PrecisionMode.DOUBLE,
                 capacity: int = 64):
        self.precision = PrecisionMode(precision)
        self._cap = max(capacity, 8)
        self._n = n_train
        core = _ExtendedCore if self.precision is PrecisionMode.EXTENDED else _DoubleCore
        self._core = core(n_train, self._cap)
        # expansion a and a_lo; add_column writes row k as it accepts column k
        self.expansion = np.zeros((2, self._cap, self._cap))
        self.kept: list[int] = []
        self.passes: list[int] = []   # projection passes spent per column

    @property
    def n_columns(self) -> int:
        return self._core.k

    def add_column(self, col, tag: int) -> bool:
        """Orthonormalize one raw column.

        Returns False and leaves the state untouched when the residual
        norm falls below the rank tolerance (numerically dependent
        column): below RANK_TOL, or in double mode also at or below
        DOUBLE_RANK_REL times the incoming column's norm.  Otherwise
        appends the new orthonormal column.
        """
        core = self._core
        if core.k == self._cap:
            self._cap *= 2
            core.grow(self._cap)
            self.expansion = np.pad(self.expansion,
                                    [(0, 0), (0, core.k), (0, core.k)])
        v = core.make_vec(col)
        k = core.k
        extended = isinstance(v, tuple)
        if (v[0] if extended else v).shape[0] != self._n:
            raise ValueError("column length does not match the training size")
        dtot = (np.zeros(k), np.zeros(k)) if extended else np.zeros(k)
        # the pass rule needs the incoming column's norm only as a scale,
        # so a plain sum of the high parts gives it in extended mode
        col_norm = (math.sqrt(float(np.sum(v[0] * v[0]))) if extended
                    else float(core.norm2(v)) ** 0.5)
        npasses = 0
        if k:
            # the next pass removes what a first pass leaves, so an
            # extended first pass measures on the leading slices alone,
            # and the pass rule never accepts it
            lead = extended
            for _ in range(MAX_PASSES):
                delta = (core.lead_measure if lead else core.measure)(v)
                v = core.deflate(v, delta)
                npasses += 1
                if extended:
                    dtot = dd_add(dtot[0], dtot[1], delta[0], delta[1])
                else:
                    dtot = dtot + delta
                # pass accepted once the newly measured projections are
                # negligible against the incoming column's scale
                if not lead and core.delta_max(delta) <= REORTH_TOL * col_norm:
                    break
                lead = False
        p = core.norm2(v).sqrt()
        # double rounding leaves a dependent column a residual near 1e-16
        # of its norm, far above RANK_TOL, so double mode also rejects on
        # the residual relative to the incoming column
        if float(p) < RANK_TOL or (
                not extended and float(p) <= DOUBLE_RANK_REL * col_norm):
            return False
        inv = 1.0 / p
        core.append(v, inv)
        # row k of a, from P_k = inv * (h_k - sum_{t < k} dtot_t P_t)
        a = self.expansion
        if extended:
            a[:, k, :k] = dd_mul(-dtot[0], -dtot[1], inv.hi, inv.lo)
            a[:, k, k] = inv.hi, inv.lo
        else:  # the coefficients exactly as applied to the stored column
            a[0, k, :k] = -dtot * float(inv)
            a[0, k, k] = float(inv)
        self.kept.append(tag)
        self.passes.append(npasses)
        return True

    # -- helpers used by the fitting loop ---------------------------------

    def make_vector(self, arr):
        return self._core.make_vec(arr)

    def column_dot(self, first: int, end: int, vec):
        """Projections <P_t, vec> for columns first <= t < end: an array
        of doubles (compensated sums) in double mode, a (hi, lo) pair of
        arrays in extended mode."""
        return self._core.column_dot(first, end, vec)

    def subtract_scaled_column(self, vec, t: int, coeff):
        return self.subtract_scaled_columns(vec, t, [coeff])

    def subtract_scaled_columns(self, vec, first: int, coeffs):
        """vec less coeffs[i] * P_{first + i} for each i, in order, with the
        bits of one column at a time; vec is never written.  Double mode
        stacks the columns in chunks within BLOCK_ELEMS doubles."""
        return self._core.subtract_scaled_columns(vec, first, coeffs)

    def vec_norm2(self, vec) -> float:
        return self._core.vec_norm2(vec)

    # ----------------------------------------------------------------------

    def to_basis(self, k: Optional[int] = None) -> OrthoBasis:
        """Freeze the first ``k`` columns (default: all) into an OrthoBasis.

        Every array of it is a read-only view of a builder store that
        later columns never change, so bases taken at different widths
        share storage: P (the hi parts in extended mode) is an F-contiguous
        prefix of the column-major columns, and a and a_lo the leading
        (k, k) block of the expansion, whose row s ``add_column`` writes
        when it accepts column s.
        """
        K = self._core.k if k is None else k
        c = self._core

        def view(buf):
            v = buf[:, :K]
            v.flags.writeable = False
            return v

        ext = self.precision is PrecisionMode.EXTENDED
        return OrthoBasis(
            P=view(c.Ph if ext else c.P), a=view(self.expansion[0, :K]),
            kept=tuple(self.kept[:K]), precision=self.precision,
            a_lo=view(self.expansion[1, :K]))
