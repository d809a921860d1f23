"""Error-free transforms and double-double arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orthofit.ddarith import (BLOCK_ELEMS, DD, comp_dot, dd_add, dd_div,
                              dd_dot, dd_mul, dd_slices, dd_sqrt, dd_sum,
                              fast_two_sum, slice_width, two_prod, two_sum)
from orthofit.synth import SplitMix64
from oracles import reference_comp_dot, reference_slices, reference_two_prod


def _rand_doubles(n, seed=42):
    rng = SplitMix64(seed)
    return [(float(rng.uniforms(1)[0]) - 0.5)
            * 2.0 ** (int(rng.block(1)[0]) % 40 - 20) for _ in range(n)]


def test_two_sum_exact():
    for a in _rand_doubles(50, 1):
        for b in _rand_doubles(3, int(abs(a * 1e6)) + 1):
            s, e = two_sum(a, b)
            assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


def test_two_prod_exact():
    for a in _rand_doubles(40, 2):
        for b in _rand_doubles(3, 7):
            p, e = two_prod(a, b)
            assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


# two_prod's valid domain (see its docstring)
_PROD_MAX = 2.0 ** 995
_PROD_MIN = 2.0 ** -968
_finite = st.floats(allow_nan=False, allow_infinity=False)
_prod_operand = st.floats(min_value=-_PROD_MAX, max_value=_PROD_MAX)
_property = settings(max_examples=300)


@_property
@given(_finite, _finite)
def test_two_sum_error_free_property(a, b):
    assume(math.isfinite(a + b))
    s, e = two_sum(a, b)
    assert s == a + b
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@_property
@given(_prod_operand, _prod_operand)
def test_two_prod_error_free_property(a, b):
    p = a * b
    assume(math.isfinite(p) and (a == 0 or b == 0 or abs(p) >= _PROD_MIN))
    p, e = two_prod(a, b)
    assert p == a * b
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


# ceil(log2(S n)) steps up from 13 to 14 between n = 1170 and 1171
@pytest.mark.parametrize("n, beta", [(3, 23), (667, 19), (1170, 19),
                                     (1171, 18), (66_667, 15), (2 ** 31, 8)])
def test_slice_width_keeps_n_slice_products_exact(n, beta):
    def rule(width):
        count = -(-118 // width)
        return 2 * width + math.ceil(math.log2(count * n)) + 2 <= 53

    width = slice_width(n, 118)
    assert rule(width) and not any(rule(w) for w in range(width + 1, 27))
    # S * n products of two slices of at most 2**(width-1) + 1 units each
    assert -(-118 // width) * n * (2 ** (width - 1) + 1) ** 2 <= 2 ** 53
    assert width == beta


@pytest.mark.parametrize("n", [667, 1170, 1171])
def test_each_diagonal_of_slice_products_sums_exactly(n):
    width = slice_width(n, 118)
    S = -(-118 // width)
    rng = np.random.default_rng(n)
    hi = rng.uniform(-1.0, 1.0, (2, n))
    lo = hi * rng.uniform(-2.0 ** -54, 2.0 ** -54, (2, n))
    a, b = (dd_slices(h, l, width, S)[0] for h, l in zip(hi, lo))
    # and the worst case: every slice at its largest magnitude, one sign
    top = np.full((S, n), 2.0 ** (width - 1) + 1)
    pq = np.add.outer(np.arange(S), np.arange(S)).ravel()
    ones = (pq == np.arange(S)[:, None]).astype(float)
    for x, y in ((a, b), (top, top)):
        sums = ones @ (x @ y.T).ravel()  # BLAS, in its own order
        for d in range(S):  # diagonal S - 1 holds S * n products
            prods = np.concatenate([x[p] * y[d - p] for p in range(d + 1)])
            exact = sum(map(Fraction, prods.tolist()))
            assert Fraction(sums[d]) == exact
            for order in (prods, prods[::-1], np.sort(prods)):
                assert Fraction(np.cumsum(order)[-1]) == exact


@_property
@given(st.sampled_from([slice_width(n, 118)
                        for n in (3, 667, 66_667, 2 ** 31)]),
       st.integers(-60, 60),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_dd_slices_are_error_free(width, exp, frac, lo_frac):
    hi = math.ldexp(frac, exp)
    lo = lo_frac * math.ulp(hi) / 2 if hi else 0.0
    hi, lo = two_sum(hi, lo)
    assume(abs(Fraction(hi) + Fraction(lo)) <= Fraction(2) ** exp)
    count = -(-118 // width)
    slices, rh, rl = dd_slices(hi, lo, width, count, exp)
    rest = Fraction(float(rh)) + Fraction(float(rl))
    assert sum(map(Fraction, slices.tolist())) + rest == Fraction(hi) + Fraction(lo)
    for p, s in enumerate(slices.tolist(), start=1):
        units = Fraction(s) / Fraction(2) ** (exp + 1 - width * p)
        assert units.denominator == 1
        assert abs(units) <= 2 ** (width - 1) + 1
    assert abs(rest) <= Fraction(2) ** (exp + 1 - width * count)


_SLICE_WIDTHS = [slice_width(n, 118) for n in (3, 667, 66_667, 2 ** 31)]


@st.composite
def _slice_cases(draw):
    """(hi, lo, width, count, exp) in ``dd_slices``' domain: hi random,
    zero or an exact multiple of one slice's unit; lo zero, +-ulp(hi) or
    below."""
    width = draw(st.sampled_from(_SLICE_WIDTHS))
    exp = draw(st.integers(-60, 60))
    count = -(-118 // width)
    kind = draw(st.sampled_from(["random", "zero", "unit"]))
    if kind == "random":
        hi = math.ldexp(draw(st.floats(-1.0, 1.0)), exp)
    elif kind == "zero":
        hi = draw(st.sampled_from([0.0, -0.0]))
    else:
        p = draw(st.integers(1, count))
        units = draw(st.integers(-2 ** min(52, width * p - 1),
                                 2 ** min(52, width * p - 1)))
        hi = math.ldexp(units, exp + 1 - width * p)
    ulp = math.ulp(hi)
    lo = draw(st.one_of(st.sampled_from([0.0, -0.0, ulp, -ulp]),
                        st.floats(-1.0, 1.0).map(lambda f: f * ulp)))
    assume(abs(Fraction(hi) + Fraction(lo)) <= Fraction(2) ** exp)
    return hi, lo, width, count, exp


@_property
@given(_slice_cases())
def test_dd_slices_match_the_two_sum_form(case):
    # fast_two_sum renormalizes each remainder exactly as two_sum does;
    # only a zero remainder may differ, in its sign (from lo = -0.0)
    hi, lo, width, count, exp = case
    got = dd_slices(hi, lo, width, count, exp)
    want = reference_slices(hi, lo, width, count, exp)
    assert got[0].tobytes() == want[0].tobytes()
    for a, b in zip(got[1:], want[1:]):
        assert (a + 0.0).tobytes() == (b + 0.0).tobytes()


def test_dd_slices_match_the_two_sum_form_on_arrays():
    rng = np.random.default_rng(118)
    hi = rng.uniform(-1.0, 1.0, 3000)
    hi[::7] = 0.0
    hi[1::7] = np.ldexp(rng.integers(-2 ** 20, 2 ** 20, hi[1::7].size), -20)
    ulp = np.spacing(np.abs(hi))
    lo = rng.uniform(-1.0, 1.0, 3000) * ulp
    lo[::5] = ulp[::5]
    lo[1::5] = -ulp[1::5]
    for width in _SLICE_WIDTHS:
        count = -(-118 // width)
        got = dd_slices(hi, lo, width, count)
        want = reference_slices(hi, lo, width, count)
        assert got[0].tobytes() == want[0].tobytes()
        for a, b in zip(got[1:], want[1:]):
            assert (a + 0.0).tobytes() == (b + 0.0).tobytes()


def test_fast_two_sum_ordered():
    s, e = fast_two_sum(1e16, 1.0)
    assert Fraction(s) + Fraction(e) == Fraction(1e16) + 1


def _dd_frac(h, l):
    return Fraction(float(h)) + Fraction(float(l))


@pytest.mark.parametrize("op,frac_op", [
    (dd_add, lambda a, b: a + b),
    (dd_mul, lambda a, b: a * b),
])
def test_dd_ops_match_fractions(op, frac_op):
    vals = _rand_doubles(12, 3)
    for a in vals[:6]:
        for b in vals[6:]:
            xh, xl = two_sum(a, b * 1e-18)
            yh, yl = two_sum(b, a * 1e-17)
            zh, zl = op(xh, xl, yh, yl)
            exact = frac_op(_dd_frac(xh, xl), _dd_frac(yh, yl))
            err = abs(_dd_frac(zh, zl) - exact)
            assert err <= abs(exact) * Fraction(1, 10 ** 30) + Fraction(1, 10 ** 300)


def test_dd_div_accuracy():
    ah, al = two_sum(1.0, 1e-20)
    bh, bl = two_sum(3.0, -1e-21)
    qh, ql = dd_div(ah, al, bh, bl)
    exact = _dd_frac(ah, al) / _dd_frac(bh, bl)
    assert abs(_dd_frac(qh, ql) - exact) < Fraction(1, 10 ** 30)


def test_dd_sqrt_accuracy():
    for v in (2.0, 3.0, 1e-8, 12345.678):
        h, l = dd_sqrt(v, 0.0)
        sq = _dd_frac(*dd_mul(h, l, h, l))
        assert abs(sq - Fraction(v)) < Fraction(v) * Fraction(1, 10 ** 29)
    assert dd_sqrt(0.0, 0.0) == (0.0, 0.0)


def test_dd_roundtrips_doubles_losslessly():
    for v in _rand_doubles(100, 5):
        d = DD(v)
        assert float(d) == v and d.hi == v and d.lo == 0.0


def test_dd_scalar_operators():
    a, b = DD(0.1), DD(0.2)
    assert abs(float(a + b - 0.3)) < 1e-16  # true double arithmetic residue
    assert float((a * 3 - DD(0.1) - DD(0.1) - DD(0.1))) == 0.0
    assert float(2.0 / DD(4.0)) == 0.5
    assert float(DD(9.0).sqrt()) == 3.0


def test_dd_sum_cancellation():
    xs = np.array([1e16, 1.0, -1e16])
    h, l = dd_sum(xs, 0.0)
    assert h + l == 1.0


def test_comp_dot_large_uniform():
    u = np.full(10 ** 5, 0.1)
    v = np.ones_like(u)
    assert abs(comp_dot(u, v) - 1e4) < 1e-10


def test_dd_dot_matches_fractions():
    rng = SplitMix64(9)
    u = rng.uniforms(64)
    v = rng.uniforms(64)
    h, l = dd_dot(u, np.zeros_like(u), v, np.zeros_like(v))
    exact = sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))
    assert abs(_dd_frac(h, l) - exact) < abs(exact) / Fraction(10 ** 28)


def test_dd_dot_along_either_axis_matches_fractions():
    # the matrix-vector products of the model layer: M @ v along axis 1,
    # M.T @ w along axis 0 with a broadcast column
    rng = SplitMix64(11)

    def dd(*shape):
        hi = rng.uniforms(math.prod(shape))
        lo = hi * (rng.uniforms(hi.size) - 0.5) * 2.0 ** -53
        return hi.reshape(shape), lo.reshape(shape)

    (M, ML), (v, vl), (w, wl) = dd(6, 4), dd(4), dd(6)
    F = np.vectorize(_dd_frac, otypes=[object])
    cases = [(dd_dot(M, ML, v, vl, axis=1), F(M, ML) @ F(v, vl)),
             (dd_dot(M, ML, w[:, None], wl[:, None]), F(w, wl) @ F(M, ML))]
    for (h, l), exact in cases:
        assert h.shape == exact.shape
        for got, want in zip(F(h, l), exact):
            assert abs(got - want) <= want * Fraction(1, 2 ** 100)


def test_dd_tree_sum_axis():
    arr = np.arange(12.0).reshape(3, 4)
    h, l = dd_sum(arr, np.zeros_like(arr), axis=0)
    assert np.array_equal(h + l, arr.sum(axis=0))
    h, l = dd_sum(arr, np.zeros_like(arr), axis=1)
    assert np.array_equal(h + l, arr.sum(axis=1))


@pytest.mark.parametrize("n, cols", [
    (3000, 50),              # groups of 21 columns: 21 + 21 + 8
    (BLOCK_ELEMS + 3, 2),    # one column per group
])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("with_lo", [True, False])
def test_dd_sum_column_groups_keep_every_bit(n, cols, order, axis, with_lo):
    # above BLOCK_ELEMS the columns are summed in groups; each must come
    # out as the 1-D sum of that column alone
    rng = np.random.default_rng(n + cols)
    hi = rng.standard_normal((n, cols)) * 2.0 ** rng.integers(-30, 30, (n, cols))
    lo = hi * rng.uniform(-2.0 ** -54, 2.0 ** -54, (n, cols))
    hi, lo = (np.asarray(v if axis == 0 else v.T, order=order) for v in (hi, lo))
    sums = dd_sum(hi, lo if with_lo else 0.0, axis=axis)
    cut = [(slice(None), k) if axis == 0 else (k, slice(None))
           for k in range(cols)]
    ref = [dd_sum(hi[c], lo[c] if with_lo else 0.0) for c in cut]
    for got, want in zip(sums, zip(*ref)):
        assert got.shape == (cols,)
        assert got.tobytes() == np.array(want).tobytes()


_U = Fraction(1, 2 ** 53)


def _leaves(rng, shape, cancel):
    """dd leaves along axis 0 with |lo| <= u |hi| (the form two_prod
    gives); with ``cancel`` the second half of the high parts negates the
    first half in another order, so only the low parts survive."""
    hi = rng.standard_normal(shape) * 2.0 ** rng.integers(-20, 21, shape)
    if cancel:
        half = shape[0] // 2
        hi[half:2 * half] = -hi[rng.permutation(half)]
    return hi, hi * rng.uniform(-2.0 ** -53, 2.0 ** -53, shape)


def _check_tree_bound(hi, lo, h, l):
    # the bound of ddarith._tree_sum: D (D + 3) u**2 sum|hi|, D = ceil(log2 n)
    depth = (len(hi) - 1).bit_length()
    exact = sum(map(Fraction, hi.tolist() + lo.tolist()), Fraction(0))
    scale = Fraction(math.fsum(np.abs(hi)))
    assert abs(Fraction(h) + Fraction(l) - exact) <= depth * (depth + 3) * _U ** 2 * scale
    assert abs(l) <= math.ulp(h) / 2  # the dd invariant callers rely on


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 255, 256, 257, 4095, 4096, 4097])
@pytest.mark.parametrize("cancel", [False, True])
def test_dd_sum_error_bound_across_odd_carries(n, cancel):
    hi, lo = _leaves(np.random.default_rng(n), (n,), cancel)
    h, l = dd_sum(hi, lo)
    _check_tree_bound(hi, lo, float(h), float(l))


@pytest.mark.parametrize("shape", [
    (257, 6),
    (3000, 22),  # above BLOCK_ELEMS: groups of 21 + 1 columns
])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("cancel", [False, True])
def test_dd_sum_error_bound_along_either_axis(shape, axis, cancel):
    hi, lo = _leaves(np.random.default_rng(shape[0] + axis), shape, cancel)
    sums = dd_sum(hi if axis == 0 else hi.T, lo if axis == 0 else lo.T, axis=axis)
    for k, (h, l) in enumerate(zip(*sums)):
        _check_tree_bound(hi[:, k], lo[:, k], h, l)


def test_non_finite_operands_give_non_finite_sums():
    # the CLI's refusal to print a non-finite value rests on this
    with np.errstate(over="ignore", invalid="ignore"):
        h, l = dd_sum(np.array([np.inf, 1.0]), 0.0)
        overflow = comp_dot(np.array([1e200, 1.0]), np.array([1e200, 1.0]))
    assert not math.isfinite(h + l)
    assert not math.isfinite(overflow)


def test_empty_reductions_give_the_empty_sum():
    # zeros of the output shape, as np.dot and math.fsum give
    got = comp_dot(np.empty(0), np.empty(0))
    assert got == np.dot(np.empty(0), np.empty(0)) == math.fsum([])
    assert not np.signbit(got)
    for h in dd_sum(np.empty((0, 3)), 0.0):
        assert h.shape == (3,) and not h.any() and not np.signbit(h).any()
    got = comp_dot(np.empty((2, 0)), np.empty((2, 0)), axis=1)
    assert got.shape == (2,) and not got.any() and not np.signbit(got).any()


def _same_bits(got, want):
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


# finite operands with signed zeros; any such products keep their bits
_operand = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(-2.0 ** 40, 2.0 ** 40))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 24), cols=st.integers(1, 6))
def test_split_once_kernels_keep_every_bit(data, n, cols):
    # two_prod's in-place error term and comp_dot's one split per operand
    # (per column group of a 2-D one) against their reference forms: F-
    # ordered column slices against an (n, 1) column, below and above a
    # small BLOCK_ELEMS, u is v, along either axis (a matrix against a
    # vector too), odd and even lengths
    M = np.asfortranarray(np.reshape(
        data.draw(st.lists(_operand, min_size=n * (cols + 2),
                           max_size=n * (cols + 2))), (n, cols + 2)))
    u, v, w = M[:, 1:1 + cols], M[:, :1], M[:, 0]
    assert not u.flags.owndata and u.flags.f_contiguous
    block = data.draw(st.integers(1, 2 * n * cols))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("orthofit.ddarith.BLOCK_ELEMS", block)
        for a, b in ((u, v), (w, w), (w, M[:, -1])):
            for got, want in zip(two_prod(a, b), reference_two_prod(a, b)):
                assert _same_bits(got, want)
        for a, b, axis in ((u, v, 0), (u, u, 0), (v, u, 0), (w, w, 0),
                           (w, M[:, -1], 0), (u.T, u.T, 1), (u.T, v.T, 1),
                           (u.T, w, 1), (u, M[:1, 1:1 + cols], 0)):
            got = comp_dot(a, b, axis=axis)
            assert _same_bits(got, reference_comp_dot(a, b, axis=axis))


def test_dd_precision_is_about_32_digits():
    # (1 + 1e-25) - 1 survives in dd, dies in double
    one_plus = dd_add(1.0, 0.0, 1e-25, 0.0)
    h, l = dd_add(*one_plus, -1.0, 0.0)
    assert math.isclose(h + l, 1e-25, rel_tol=1e-6)
