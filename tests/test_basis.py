"""Monomial and raw Chebyshev tables, block recursion, curvature sums,
the change of basis, index algebra."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from orthofit import basis
from orthofit.basis import (_BlockGen, basis_dy, basis_values, block_start,
                            columns_for_degree, dd_basis_values, degree_block,
                            raw_to_monomial, raw_values)
from orthofit.ddarith import BLOCK_ELEMS, dd_dot, dd_sum
from orthofit.errors import DegenerateFitError
from orthofit.ortho import PrecisionMode
from oracles import (chebyshev_coefficients, monomial_change, mpmath_basis,
                     mpmath_raw_curvature_sums, power_rule_d2x,
                     power_rule_d2y, power_rule_dy, power_rule_values,
                     sympy_laplacian_columns)
from conftest import generator_sums, raw_curvature_sums, uniform_xy


def test_values_examples():
    assert basis_values(2.0, 3.0, 9).tolist() == [1, 2, 3, 4, 6, 9, 8, 12, 18, 27]
    out = basis_values(0.0, 0.0, 20)
    assert out[0] == 1.0 and not out[1:].any()
    assert basis_values(1.0, 1.0, 27).tolist() == [1.0] * 28


def test_d2x_examples():
    # columns with y-power < 2 carry no y-curvature, so at one point their
    # Q(h) is the second x-derivative there: x^2 -> 2, x^3 -> 6x, x^2 y -> 2y
    q = raw_curvature_sums(2.0, 3.0, 9)
    assert q[[0, 1, 3, 4, 6, 7]].tolist() == [0, 0, 2, 0, 12, 6]
    x, y = uniform_xy(20, 3)
    assert not raw_curvature_sums(x, y, 9)[:3].any()
    assert raw_curvature_sums(1.0, 1.0, 14)[10] == 12.0  # x^4 column


def test_d2y_examples():
    # columns with x-power < 2: Q(h) is the second y-derivative
    q = raw_curvature_sums(2.0, 3.0, 9)
    assert q[[2, 5, 8, 9]].tolist() == [0, 2, 4, 18]
    q = raw_curvature_sums(1.0, 1.0, 14)
    assert q[14] == 12.0  # y^4 column
    assert q[12] == 4.0   # x^2 y^2: both second derivatives add


def test_d2y_mirrors_d2x():
    # swapping x and y swaps the two curvature parts: entry (m, j) of the
    # sums at points (x, y) equals entry (m, m-j) at points (y, x)
    x, y = uniform_xy(9, 5)
    L = columns_for_degree(7) - 1
    q_xy = raw_curvature_sums(x, y, L)
    q_yx = raw_curvature_sums(y, x, L)
    for t in range(L + 1):
        _, m, j = degree_block(t)
        mirror = block_start(m) + (m - j)
        assert q_xy[t] == pytest.approx(q_yx[mirror], rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("precision", list(PrecisionMode))
def test_curvature_sums_keep_every_bit_above_the_block_cap(monkeypatch, precision):
    # at 7,000 points the column sums of degree blocks 9 and up exceed
    # BLOCK_ELEMS and are taken in column groups; they must equal sums
    # taken one column at a time
    def per_column(xh, xl):
        xl = np.broadcast_to(xl, np.shape(xh))
        sums = [dd_sum(xh[:, k], xl[:, k]) for k in range(xh.shape[1])]
        return tuple(map(np.array, zip(*sums)))

    x, y = uniform_xy(7000, 8)
    L = columns_for_degree(13) - 1
    assert 7000 * 10 > BLOCK_ELEMS > 7000 * 9
    grouped = raw_curvature_sums(x, y, L, precision)
    monkeypatch.setattr(basis, "dd_sum", per_column)
    assert grouped.tobytes() == raw_curvature_sums(x, y, L, precision).tobytes()


def test_dy_examples():
    assert basis_dy(2.0, 3.0, 5).tolist() == [0, 0, 1, 0, 2, 6]
    x, y = uniform_xy(10, 4)
    out = np.atleast_2d(basis_dy(x, y, 20))
    for t in range(21):
        _, m, j = degree_block(t)
        if j == 0:
            assert not out[:, t].any()
    assert basis_dy(1.0, 1.0, 9)[9] == 3.0  # y^3 column


def test_degree_block_examples():
    assert degree_block(0) == (0, 0, 0)
    assert degree_block(4) == (4, 2, 1)
    assert degree_block(9) == (9, 3, 3)


def test_degree_block_inverts_flat_index_to_1e6():
    t = 0
    m = 0
    while t <= 10 ** 6:
        width = m + 1
        for j in range(width):
            if t > 10 ** 6:
                break
            got = degree_block(t)
            assert (got.m, got.j) == (m, j)
            assert got.m * (got.m + 1) // 2 + got.j == t
            t += 1
        m += 1


def test_degree_block_rejects_negative():
    with pytest.raises(ValueError):
        degree_block(-1)


def test_recursion_agrees_with_direct_powers_to_degree_25():
    x, y = uniform_xy(40, 17)
    L = 350
    got = basis_values(x, y, L)
    want = power_rule_values(x, y, L)
    scale = np.maximum(np.abs(want), 1e-300)
    assert (np.abs(got - want) / scale).max() < 1e-13


def test_second_derivatives_match_power_rule():
    x, y = uniform_xy(60, 23)
    L = columns_for_degree(12) - 1
    lap_sums = (power_rule_d2x(x, y, L) + power_rule_d2y(x, y, L)).sum(axis=0)
    assert np.allclose(raw_curvature_sums(x, y, L), lap_sums,
                       rtol=1e-12, atol=60 * 1e-14)
    assert np.allclose(basis_dy(x, y, L), power_rule_dy(x, y, L),
                       rtol=1e-12, atol=1e-14)


def test_derivatives_match_finite_differences():
    x, y = uniform_xy(30, 29)
    x = 0.3 + 0.5 * x  # interior points
    y = 0.3 + 0.5 * y
    L = columns_for_degree(10) - 1
    h = 1e-4
    fd_xx = (basis_values(x + h, y, L) - 2 * basis_values(x, y, L)
             + basis_values(x - h, y, L)) / h ** 2
    fd_yy = (basis_values(x, y + h, L) - 2 * basis_values(x, y, L)
             + basis_values(x, y - h, L)) / h ** 2
    fd_y = (basis_values(x, y + h, L) - basis_values(x, y - h, L)) / (2 * h)
    # per-point bounds rtol 1e-5, atol 1e-6, summed over the 30 points
    assert np.allclose(raw_curvature_sums(x, y, L), (fd_xx + fd_yy).sum(axis=0),
                       rtol=1e-5, atol=30 * 1e-6)
    assert np.allclose(basis_dy(x, y, L), fd_y, rtol=1e-5, atol=1e-7)


def test_laplacian_linearity_against_symbolic_oracle():
    x, y = uniform_xy(15, 31)
    L = columns_for_degree(6) - 1
    lap_sums = sympy_laplacian_columns(x, y, L).sum(axis=0)
    rng_c = np.linspace(-1.0, 1.0, L + 1)
    got = raw_curvature_sums(x, y, L) @ rng_c
    assert got == pytest.approx(lap_sums @ rng_c, rel=1e-13, abs=15 * 1e-13)


@pytest.mark.parametrize("n", [1, 37])
def test_block_generator_matches_raw_values(n):
    # the fit's columns come from the same recursion as raw_values, in
    # double and in double-double, bit for bit, with or without the odd-x
    # rule; the tables end inside blocks 0, 1, 1, 2 and 10, and blocks 0
    # and 1 are written, not stepped
    x, y = uniform_xy(n, 37 + n)
    for L, precision, odd_x in itertools.product(
            (0, 1, 2, 4, columns_for_degree(9) + 3), PrecisionMode,
            (False, True)):
        ref = raw_values(x, y, L, odd_x, precision)
        gen = _BlockGen(x, y, precision, odd_x)
        cols = {}
        while gen.m <= degree_block(L).m:
            cols.update((t, col) for t, col, _ in gen.next_block())
        cols = {t: col for t, col in cols.items() if t <= L}
        if precision is PrecisionMode.DOUBLE:
            ref = (ref,)
            cols = {t: (col,) for t, col in cols.items()}
        for t, col in cols.items():
            for g, r in zip(col, ref):
                assert g.tobytes() == np.ascontiguousarray(r[:, t]).tobytes()
        assert np.array_equal(ref[0][:, 0], np.ones(n))
    q = generator_sums(x, y, L, PrecisionMode.EXTENDED)
    assert not q[:3].any()
    assert np.allclose(q, generator_sums(x, y, L), rtol=1e-13, atol=0)


@pytest.mark.parametrize("odd_x", [False, True])
@pytest.mark.parametrize("precision", list(PrecisionMode))
def test_block_generator_sums_each_block_when_first_read(precision, odd_x):
    # block m is the first to read the column sums of block m - 2 and sums
    # it then: over 20 blocks the curvature sums equal, bit for bit, those
    # from eager column sums of the whole raw table, and after block M the
    # sums cover blocks 0 .. M - 2 alone
    x, y = uniform_xy(53, 7)
    table = raw_values(x, y, block_start(20) - 1, odd_x, precision)
    ext = precision is PrecisionMode.EXTENDED
    sh, sl = dd_sum(*table) if ext else dd_sum(table, 0.0)
    gen = _BlockGen(x, y, precision, odd_x)
    for M in range(20):
        got = gen.next_block()
        assert gen._sums[0].size == gen._sums[1].size == block_start(M - 1)
        qh, ql = np.zeros(M + 1), np.zeros(M + 1)
        if M >= 2:
            index, coef = basis._second_derivative_terms(
                M, 1.0 if odd_x else 4.0)
            qh, ql = dd_dot(sh[index], sl[index], coef, 0.0, axis=1)
        for t, _, q in got:
            j = t - block_start(M)
            assert (np.array([q.hi, q.lo]).tobytes()
                    == np.array([qh[j], ql[j]]).tobytes())


@pytest.mark.parametrize("precision", list(PrecisionMode))
def test_odd_x_rule_keeps_exactly_the_odd_x_columns(precision):
    # with the rule on, the generator hands out the columns T_i(x) T_j(2y-1)
    # with i odd, in flat order, and the full generator hands out every
    # column T_i(2x-1) T_j(2y-1)
    def tags(odd_x):
        gen = _BlockGen(x, y, precision, odd_x)
        return [t for _ in range(12) for t, _, _ in gen.next_block()]

    x, y = uniform_xy(29, 5)
    assert tags(False) == list(range(columns_for_degree(11)))
    odd = tags(True)
    assert odd == [t for t in range(columns_for_degree(11))
                   if degree_block(t).m % 2 != degree_block(t).j % 2]
    assert odd[:6] == [1, 4, 6, 8, 11, 13]


@pytest.mark.parametrize("odd_x", [False, True])
@pytest.mark.parametrize("precision", list(PrecisionMode))
def test_raw_curvature_sums_match_mpmath_laplacian(precision, odd_x):
    # the T'' formula over the earlier blocks' column sums, against the
    # Laplacian of sympy's integer Chebyshev polynomials at 50 digits,
    # through degree 19 at 40 points
    import mpmath

    x, y = uniform_xy(40, 61)
    gen = _BlockGen(x, y, precision, odd_x)
    got = [(t, q) for _ in range(20) for t, _, q in gen.next_block()]
    want = mpmath_raw_curvature_sums([t for t, _ in got], x, y, odd_x)
    scale = max(abs(float(w)) for w in want)
    with mpmath.workdps(50):
        worst = max(abs(mpmath.mpf(q.hi) + mpmath.mpf(q.lo) - w)
                    for (_, q), w in zip(got, want)) / scale
    assert worst <= (1e-28 if precision is PrecisionMode.EXTENDED
                     else 1e-15)


def test_raw_columns_match_sympy_chebyshev_polynomials():
    # double: the recurrence rounds once or twice a step; double-double
    # refines it to about 2^-100 of the columns' unit scale
    import mpmath

    x, y = uniform_xy(12, 43)
    L = columns_for_degree(19) - 1
    for odd_x in (False, True):
        vals = raw_values(x, y, L, odd_x)
        hi, lo = raw_values(x, y, L, odd_x, PrecisionMode.EXTENDED)
        with mpmath.workdps(50):
            for p in range(x.size):
                u = mpmath.mpf(x[p]) if odd_x else 2 * mpmath.mpf(x[p]) - 1
                v = 2 * mpmath.mpf(y[p]) - 1
                for t in range(L + 1):
                    _, m, j = degree_block(t)
                    ref = (mpmath.polyval(chebyshev_coefficients(
                        m - j, False)[::-1], u) * mpmath.polyval(
                        chebyshev_coefficients(j, False)[::-1], v))
                    assert abs(vals[p, t] - ref) <= 1e-13, (p, t)
                    assert abs(mpmath.mpf(hi[p, t]) + mpmath.mpf(lo[p, t])
                               - ref) <= 1e-29, (p, t)


@pytest.mark.parametrize("odd_x", [False, True])
def test_raw_to_monomial_is_the_exact_change_of_basis(odd_x):
    # against sympy's integer polynomials, through degree 23, where the
    # largest entry (3.9e16) no longer fits 53 bits
    kept = tuple(t for t in range(columns_for_degree(23))
                 if not odd_x or sum(degree_block(t)[1:]) % 2)
    hi, lo = raw_to_monomial(kept, odd_x)
    want = monomial_change(kept, odd_x)
    assert set(zip(*np.nonzero(hi))) == set(want)
    for (s, r), v in want.items():
        assert Fraction(hi[s, r]) + Fraction(lo[s, r]) == v


def test_a_kept_column_above_a_rejected_one_has_no_monomial_form():
    # x y needs x, which a fit keeping (1, y, xy) has rejected
    with pytest.raises(DegenerateFitError, match="column 4 needs monomial 1"):
        raw_to_monomial((0, 2, 4), False)
    # under the odd-x rule x^3 needs x, and x^2 is not needed
    with pytest.raises(DegenerateFitError, match="column 6 needs monomial 1"):
        raw_to_monomial((6,), True)
    assert raw_to_monomial((1, 6), True)[0].tolist() == [[1, 0], [-3, 4]]


def test_scalar_and_vector_shapes_agree():
    v = basis_values(0.2, 0.7, 9)
    assert v.shape == (10,)
    m = basis_values(np.array([0.2, 0.2]), np.array([0.7, 0.7]), 9)
    assert m.shape == (2, 10)
    assert np.array_equal(m[0], v)
    with pytest.raises(ValueError):
        basis_values(np.array([0.1, 0.2]), np.array([0.3]), 4)


def test_dd_tables_match_double_tables_and_refine_them():
    x, y = uniform_xy(12, 41)
    L = columns_for_degree(8) - 1
    vh, vl = dd_basis_values(x, y, L)
    assert np.allclose(vh, basis_values(x, y, L), rtol=1e-15, atol=0)
    t = L  # deepest column: longest product chain
    _, m, j = degree_block(t)
    for i in (0, 5):
        exact = Fraction(x[i]) ** (m - j) * Fraction(y[i]) ** j
        got = Fraction(vh[i, t]) + Fraction(vl[i, t])
        assert abs(got - exact) <= abs(exact) * Fraction(1, 10 ** 28)


@pytest.mark.parametrize("L", [0, 5, 78, 209])
def test_basis_tables_match_mpmath_oracle(L):
    # One rounding per recursion step: an entry of degree m errs by at most
    # m u relative in double (u = 2^-53), basis_dy adds one rounding to a
    # degree m-1 value, and double-double's dd_mul_d errs by at most 2 u^2
    # per step.  Zero entries must come out exactly zero.
    import mpmath

    x = np.array([0.0, 1.0, 0.1, 0.7, 0.9999999, 1.3, -0.45, 3.0, 0.37, 1e-3])
    y = np.array([0.5, 0.0, 0.9, 0.2, 1.0, -0.6, 0.33, 0.05, 2.5, 0.77])
    vals, (hi, lo), dys = (basis_values(x, y, L), dd_basis_values(x, y, L),
                           basis_dy(x, y, L))
    u = 2.0 ** -53
    with mpmath.workdps(50):
        for p in range(x.size):
            ref_v, ref_dy = mpmath_basis(x[p], y[p], L)
            for t in range(L + 1):
                m = degree_block(t).m
                checks = ((mpmath.mpf(vals[p, t]), ref_v[t], m * u),
                          (mpmath.mpf(hi[p, t]) + mpmath.mpf(lo[p, t]),
                           ref_v[t], 2 * m * u * u),
                          (mpmath.mpf(dys[p, t]), ref_dy[t], m * u))
                for got, ref, rel in checks:
                    assert abs(got - ref) <= rel * abs(ref), (p, t)
