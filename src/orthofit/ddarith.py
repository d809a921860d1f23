"""Error-free transformations and double-double ("dd") arithmetic.

A dd number is an unevaluated sum ``hi + lo`` of two IEEE doubles with
``|lo| <= 0.5 ulp(hi)``, giving roughly 32 significant decimal digits.
The elementwise routines work on scalars or ndarrays (``dd_sqrt`` on
scalars only), so a pair of equally shaped float64 arrays behaves as an
array of dd numbers.  Every operation is a fixed sequence of IEEE double
operations, hence results are bit-reproducible.

Conventions: functions prefixed ``dd_`` take and return (hi, lo) pairs;
``two_sum``/``two_prod`` are the classic error-free building blocks;
``dd_slices`` cuts dd values into slices of the width ``slice_width``
picks, so that BLAS sums each diagonal p + q of the products of slices p
and q exactly (the extended orthonormalization core's reductions).
Outside BLAS there are two product kernels, each of which also serves
as a matrix-vector product: ``dd_dot`` for dd operands, along any axis,
and ``comp_dot``, its compensated double form, along axis 0.  Both form exact
products and sum them in ``dd_sum``'s pairwise tree, whose nodes add the
high parts exactly and the low parts in plain double; ``comp_dot`` is
thus Dot2 with a pairwise Sum2 tree, rounded to double on return.  The
tree's error bound, with its proof and citation, is in ``_tree_sum``.
``dd_sum_list`` takes the same tree on lists of Python floats, for the
short sums where numpy's cost per call would dominate.
The training error of a double fit is one ``comp_dot``, and so is each
held-out error's sum of squares: ``select.group_errors`` forms the
residuals as BLAS gemv products of a raw-column table with the fit's
raw coefficients, then ``comp_dot`` sums their squares.

``comp_dot`` splits each operand for ``two_prod`` once, at its own
shape, and once in all when ``u is v`` (every sum of squares).  The
double core's z projections of one degree block are one ``comp_dot``,
so z is split once per block, not once per column.

``BLOCK_ELEMS`` caps the 2-D operands of the compensated reductions:
``dd_sum`` and ``comp_dot`` take a larger 2-D operand in groups of
columns (``comp_dot`` forms each group's products and splits there),
and ``select.group_errors`` builds its held-out raw tables, and
``model`` its kernel products, in blocks of rows.  Each sum keeps its
own pairwise tree, so the cap moves no bit.  It does not bound one
column or vector, which is one tree however long (the 66,667 training
rows of a 100k fit's training error, or of each of its z projections),
nor the products ``dd_dot`` forms over its whole operand before
``dd_sum`` groups it.  The double core's ``subtract_scaled_columns``
stacks the training residual's scaled columns in chunks within the cap,
each subtracted in order by one reduce, so no chunking moves a bit.
"""

from __future__ import annotations

import math
from operator import add

import numpy as np

# 2**27 + 1; splits a double into two 26-bit halves whose product is exact.
_SPLITTER = 134217729.0

# Doubles per 2-D operand of one reduction (512 KB), so that the
# temporaries of each tree level stay in cache.
BLOCK_ELEMS = 2 ** 16


def two_sum(a, b):
    """Return (s, e) with s = fl(a + b) and s + e == a + b exactly,
    for all finite a, b whose sum does not overflow."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def fast_two_sum(a, b):
    """two_sum under the precondition |a| >= |b|."""
    s = a + b
    e = b - (s - a)
    return s, e


def _split(a):
    hi = _SPLITTER * a
    hi -= hi - a  # c - (c - a), in place
    return hi, a - hi


def two_prod(a, b):
    """Return (p, e) with p = fl(a * b) and p + e == a * b exactly.

    Valid domain: |a|, |b| <= 2**995 (the splitter product stays finite),
    a * b finite, and |a * b| >= 2**-968 unless a or b is zero (the error
    term does not underflow).  Outside it ``e`` can be wrong or NaN.
    """
    return _two_prod(a, _split(a), b, _split(b))


def _two_prod(a, sa, b, sb):
    """``two_prod`` from the splits ``sa`` of a and ``sb`` of b: the error
    ((ah bh - p) + ah bl + al bh) + al bl, accumulated in place."""
    (ah, al), (bh, bl) = sa, sb
    p = a * b
    e = ah * bh
    e -= p
    e += ah * bl
    e += al * bh
    e += al * bl
    return p, e


# ---------------------------------------------------------------------------
# dd elementwise arithmetic
# ---------------------------------------------------------------------------

def dd_add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    t, f = two_sum(xl, yl)
    e = e + t
    s, e = fast_two_sum(s, e)
    e = e + f
    return fast_two_sum(s, e)


def dd_sub(xh, xl, yh, yl):
    return dd_add(xh, xl, -yh, -yl)


def dd_add_d(xh, xl, d):
    s, e = two_sum(xh, d)
    e = e + xl
    return fast_two_sum(s, e)


def dd_mul(xh, xl, yh, yl):
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return fast_two_sum(p, e)


def dd_mul_d(xh, xl, d):
    p, e = two_prod(xh, d)
    e = e + xl * d
    return fast_two_sum(p, e)


def dd_div(xh, xl, yh, yl):
    # Long division with two refinement steps: full dd accuracy.
    q1 = xh / yh
    rh, rl = dd_sub(xh, xl, *dd_mul_d(yh, yl, q1))
    q2 = rh / yh
    rh, rl = dd_sub(rh, rl, *dd_mul_d(yh, yl, q2))
    q3 = rh / yh
    h, l = fast_two_sum(q1, q2)
    return dd_add_d(h, l, q3)


def dd_div_d(xh, xl, d):
    q1 = xh / d
    p, e = two_prod(q1, d)
    r = ((xh - p) - e + xl) / d
    return fast_two_sum(q1, r)


def dd_sqrt(xh, xl):
    """Square root of a non-negative dd scalar, on Python floats
    (``math.sqrt`` rounds as ``np.sqrt`` does)."""
    y = math.sqrt(xh)
    if y == 0.0:  # 0/0 would poison the correction
        return 0.0, 0.0
    # One dd-corrected Newton step around the double estimate.
    p, e = two_prod(y, y)
    rh, rl = dd_sub(xh, xl, p, e)
    ch, cl = dd_div_d(rh, rl, 2.0 * y)
    return dd_add_d(ch, cl, y)


def _dd_powers(v, n: int):
    """v**0 .. v**(n-1) of the doubles ``v`` in double-double, the one
    power table of the model-file kernel and the monomial tables: a (hi,
    lo) pair of (n, *v.shape) arrays, each power one ``dd_mul_d`` step from
    the last.  A power that underflows loses its low part (``two_prod``'s
    domain) but stays finite."""
    hi, lo = np.ones((n, *np.shape(v))), np.zeros((n, *np.shape(v)))
    for a in range(1, n):
        hi[a], lo[a] = dd_mul_d(hi[a - 1], lo[a - 1], v)
    return hi, lo


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def dd_sum(xh, xl, axis=0):
    """Pairwise-tree dd sum along ``axis``; reduction order is fixed.

    Each node of the tree adds the high parts with one ``two_sum``, and
    the low parts plus that sum's error in plain double; the root is
    renormalized once.  See ``_tree_sum`` for the error bound.

    A 2-D operand of more than BLOCK_ELEMS doubles is summed
    max(1, BLOCK_ELEMS // n) columns at a time, n the length of ``axis``.
    The columns are independent sums, so the grouping moves no bit.
    """
    xh = np.asarray(xh, dtype=float)
    xl = np.asarray(xl, dtype=float) if np.ndim(xl) else np.broadcast_to(
        np.asarray(xl, dtype=float), xh.shape)
    if axis != 0:
        xh = np.moveaxis(xh, axis, 0)
        xl = np.moveaxis(xl, axis, 0)
    if xh.ndim != 2 or xh.size <= BLOCK_ELEMS:
        return _tree_sum(xh, xl)
    n, cols = xh.shape
    group = max(1, BLOCK_ELEMS // n)
    sh, sl = np.empty(cols), np.empty(cols)
    for k in range(0, cols, group):
        sh[k:k + group], sl[k:k + group] = _tree_sum(
            xh[:, k:k + group], xl[:, k:k + group])
    return sh, sl


def _tree_sum(xh, xl):
    """The pairwise dd tree of ``dd_sum`` along axis 0.

    Level by level, element i of the first half is paired with element
    i of the second, and an odd last element is carried up unchanged.
    A node adds the high parts exactly, ``s, e = two_sum(ah, bh)``, and
    keeps ``(s, (al + bl) + e)``: no high part is ever rounded, and every
    error goes into the low parts, which are summed in plain double.  One
    ``two_sum`` at the root restores ``|lo| <= 0.5 ulp(hi)``.  This is
    the Sum2 scheme of Ogita, Rump & Oishi ("Accurate sum and dot
    product", *SIAM J. Sci. Comput.* 26(6), 2005) on a pairwise tree.

    Error bound.  Let u = 2**-53, n leaves with ``|lo_i| <= c u |hi_i|``
    (c = 1 for ``two_prod`` leaves, about 3 for ``dd_dot``'s), A = sum
    |hi_i| and D = ceil(log2 n) passes.  A node of pass k covers a set T
    of leaves, disjoint from the other nodes' of that pass, with A_T =
    sum over T of |hi_i|.  Its high inputs are at most (1 + u)**(k-1) A_T
    in magnitude together, so its ``two_sum`` error is at most about
    u A_T.  Its low output holds the low parts of T (at most c u A_T)
    and the errors of its own and the earlier passes' nodes within T (at
    most about u A_T per pass): about (c + k) u A_T in all.  Its two
    plain additions round by at most u times their results: about
    (c + k - 1) u**2 A_T and (c + k) u**2 A_T.  Summed over the disjoint
    sets of pass k that is (2k + 2c - 1) u**2 A, and over k = 1..D it is
    D (D + 2c) u**2 A to first order; the root ``two_sum`` is exact.  For
    c = 1 and n below 2**1000 the error is within D (D + 3) u**2 A, far
    below the one rounding to double that ``comp_dot`` then applies.
    Non-finite leaves give a non-finite ``hi + lo``.
    """
    if not xh.shape[0]:  # the empty sum
        return tuple(np.zeros((2, *xh.shape[1:])))
    while xh.shape[0] > 1:
        n = xh.shape[0]
        half = n // 2
        sh, e = two_sum(xh[:half], xh[half:half + half])
        sl = (xl[:half] + xl[half:half + half]) + e
        if n % 2:
            sh = np.concatenate([sh, xh[-1:]], axis=0)
            sl = np.concatenate([sl, xl[-1:]], axis=0)
        xh, xl = sh, sl
    return two_sum(xh[0], xl[0])


def dd_dot(uh, ul, vh, vl, axis=0):
    """dd dot product: exact elementwise products, pairwise dd summation."""
    return dd_sum(*dd_dot_terms(uh, ul, vh, vl), axis=axis)


def dd_dot_terms(uh, ul, vh, vl):
    """The terms that ``dd_dot`` sums, elementwise: the exact product of
    the high parts, and its error plus the cross terms as the low part."""
    p, e = two_prod(uh, vh)
    return p, e + (uh * vl + ul * vh)


def dd_sum_list(xh, xl):
    """``dd_sum`` of a non-empty vector given as lists of Python floats:
    the tree and the bits of ``_tree_sum``, on Python floats, so that a
    short sum costs no numpy call per tree level."""
    while len(xh) > 1:
        h = len(xh) // 2
        sh = list(map(add, xh[:h], xh[h:]))
        sl = [(p + q) + ((a - (s - (bb := s - a))) + (b - bb))
              for s, a, b, p, q in zip(sh, xh, xh[h:], xl, xl[h:])]
        if len(xh) % 2:
            sh.append(xh[-1])
            sl.append(xl[-1])
        xh, xl = sh, sl
    return two_sum(xh[0], xl[0])


def comp_dot(u, v):
    """Compensated dot product of double vectors along axis 0: Dot2 with
    a pairwise Sum2 tree (``_tree_sum``), rounded once to double.

    u and v broadcast against each other, and each is split for
    ``two_prod`` once, at its own shape: once in all when ``u is v``.  A
    2-D product of more than BLOCK_ELEMS elements is formed and summed
    max(1, BLOCK_ELEMS // n) columns at a time, n its length: each group
    of columns of u is split on its own, and so is v's unless v is a
    single column (a broadcast vector, which goes second), split once for
    every group.  The columns are independent sums, so the grouping
    moves no bit.
    """
    same = v is u
    u = np.asarray(u, dtype=float)
    v = u if same else np.asarray(v, dtype=float)
    shape = np.broadcast(u, v).shape
    if len(shape) != 2 or math.prod(shape) <= BLOCK_ELEMS:
        return _comp_sum(u, v)
    n, cols = shape
    step = max(1, BLOCK_ELEMS // n)
    sv = _split(v) if v.shape[1] == 1 and not same else None
    out = np.empty(cols)
    for k in range(0, cols, step):
        uk = u[:, k:k + step]
        vk = uk if same else v if sv else v[:, k:k + step]
        out[k:k + step] = _comp_sum(uk, vk, sv)
    return out


def _comp_sum(u, v, sv=None):
    """Dot2 of u and v along axis 0 on one ``_tree_sum``, rounded to
    double; ``sv`` is v's split, made here when not given."""
    su = _split(u)
    sv = su if v is u else sv or _split(v)
    h, l = _tree_sum(*_two_prod(u, su, v, sv))
    return h + l


def slice_width(n: int, bits: int) -> int:
    """Slice width beta for cutting ``bits`` bits into S = ceil(bits /
    beta) slices whose products are summed over n terms.

    beta is the largest width with 2 beta + ceil(log2(S n)) + 2 <= 53.
    The products of slice p of one ``dd_slices`` vector and slice q of
    another share one unit for each diagonal p + q, and each is at most
    (2**(beta-1) + 1)**2 units, so the S * n products of a diagonal over
    n terms sum to at most 2**51 units: the sum is exact in a double in
    any summation order, blocking or use of FMA.
    """
    return next(w for w in range(26, 0, -1)
                if 2 * w + (-(-bits // w) * n - 1).bit_length() + 2 <= 53)


def dd_slices(hi, lo, width, count, exp=0):
    """Split dd values ``hi + lo`` with ``|hi + lo| <= 2**exp`` into
    ``count`` slices of ``width`` bits (error-free splitting: Ozaki,
    Ogita, Oishi & Rump, *Numer. Algorithms* 59, 2012).

    Returns ``(slices, rh, rl)``: ``slices[p - 1]``, p = 1..count, is a
    multiple of the unit 2**(exp + 1 - width*p) of magnitude at most
    2**(width - 1) + 1 units, and ``hi + lo == sum(slices) + rh + rl``
    exactly, with ``|rh + rl|`` at most the last unit.  Each slice is
    s = fl((rh + sigma) - sigma), sigma = 0.75 * 2**(exp + 54 - width*p),
    and the remainder is renormalized with ``fast_two_sum(rh - s, rl)``.

    That gives the (s, e) of ``two_sum``: ``rh - s`` is exact and a
    multiple of ulp(rh), since s is rh rounded to a multiple of the unit
    (rh itself when the unit is at most ulp(rh)).  So when it is nonzero
    it is at least ulp(rh) >= |rl|: for p = 1 the domain below gives
    |lo| <= ulp(hi), and later ``rl`` is the error of a rounding to
    nearest, at most 0.5 ulp(rh).  A zero first operand is exact too.
    Under |a| >= |b| or a = 0, ``fast_two_sum`` is error-free, and an
    error-free sum's (s, e) is unique, so the slices are the same bits;
    only a zero remainder can differ, in its sign, where ``lo`` is -0.0.

    Valid domain: 1 <= width <= 26, every sigma a normal double (-1021
    <= exp + 54 - width*count and exp + 54 - width <= 1023), and ``|lo|
    <= ulp(hi)``.  Products of two slices are exact unless they
    underflow into subnormals.
    """
    rh = np.array(hi, dtype=float)
    rl = np.array(lo, dtype=float)
    out = np.empty((count,) + rh.shape)
    for p in range(count):
        sigma = math.ldexp(0.75, exp + 54 - width * (p + 1))
        s = (rh + sigma) - sigma
        out[p] = s
        rh, rl = fast_two_sum(rh - s, rl)
    return out, rh, rl


# ---------------------------------------------------------------------------
# Scalar convenience wrapper
# ---------------------------------------------------------------------------

class DD:
    """Scalar double-double with operator overloading.

    Mixed expressions with plain floats promote the float exactly
    (hi = value, lo = 0), so code like ``(proj - lam * r * q) / (lam * q * q
    + 1.0)`` runs unchanged at either precision.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=0.0):
        self.hi = float(hi)
        self.lo = float(lo)

    @staticmethod
    def _coerce(x):
        if isinstance(x, DD):
            return x.hi, x.lo
        return float(x), 0.0

    def __float__(self):
        return self.hi + self.lo

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"

    def __add__(self, other):
        yh, yl = self._coerce(other)
        return DD(*dd_add(self.hi, self.lo, yh, yl))

    __radd__ = __add__

    def __sub__(self, other):
        yh, yl = self._coerce(other)
        return DD(*dd_sub(self.hi, self.lo, yh, yl))

    def __mul__(self, other):
        yh, yl = self._coerce(other)
        return DD(*dd_mul(self.hi, self.lo, yh, yl))

    __rmul__ = __mul__

    def __truediv__(self, other):
        yh, yl = self._coerce(other)
        return DD(*dd_div(self.hi, self.lo, yh, yl))

    def __rtruediv__(self, other):
        yh, yl = self._coerce(other)
        return DD(*dd_div(yh, yl, self.hi, self.lo))

    def sqrt(self):
        return DD(*dd_sqrt(self.hi, self.lo))
