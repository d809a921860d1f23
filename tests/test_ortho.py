"""Iterated orthonormalization, checked against the single-pass
classical and modified Gram-Schmidt baselines of ``oracles``; defect
measurement; coefficient algebra."""

import itertools
import math

import numpy as np
import pytest

from orthofit import (FitBasis, FitConfig, SplitConfig, SynthSpec, generate,
                      normalize, split)
from orthofit.basis import columns_for_degree, raw_values
from orthofit.ddarith import comp_dot, dd_add, dd_dot, dd_mul, dd_sub
from orthofit.ortho import (OrthoBasis, OrthoBuilder, PrecisionMode,
                            orthogonality_defect)
from oracles import single_pass_gs, sympy_laplacian_columns, unit_dataset
from conftest import (all_train_split, basis_columns, generator_sums,
                      single_pass_defect, uniform_xy)


def _feed_columns(builder, x, y, n_cols, extended=False):
    """Push basis columns into a builder until it holds n_cols."""
    precision = PrecisionMode.EXTENDED if extended else PrecisionMode.DOUBLE
    for t, col in basis_columns(x, y, precision):
        if builder.n_columns >= n_cols:
            break
        builder.add_column(col, tag=t)
    return builder


def _fit_basis(x, y, n_cols):
    """A double FitBasis over all of the points (x, y), grown to n_cols
    columns: its builder and its curvature sums ``q``."""
    data = unit_dataset(np.column_stack([x, y, x]))
    fb = FitBasis(all_train_split(x.size), data,
                  FitConfig(fixed_columns=n_cols))
    while fb.builder.n_columns < n_cols:
        fb.block(len(fb.blocks))
    return fb


def test_first_column_is_normalized_constant():
    x = np.array([0.0, 1.0, 0.0])
    y = np.array([0.0, 0.0, 1.0])
    b = OrthoBuilder(3)
    assert b.add_column(np.ones(3), tag=0)
    basis = b.to_basis()
    assert np.allclose(basis.P[:, 0], 1 / np.sqrt(3), rtol=0, atol=3e-16)
    assert basis.a[0, 0] == pytest.approx(1 / np.sqrt(3), rel=1e-15)


def test_duplicate_column_is_rejected_extended():
    # an exact repeat has zero residual; the iterated passes drive the
    # stored norm below the rank tolerance (needs dd headroom -- double
    # axpy noise floors out around 1e-16, far above the tolerance)
    x, y = uniform_xy(40, 5)
    b = _feed_columns(OrthoBuilder(40, precision=PrecisionMode.EXTENDED),
                      x, y, 4, extended=True)
    dup = (b._core.Ph[:, 2].copy(), b._core.Pl[:, 2].copy())
    assert not b.add_column(dup, tag=99)
    assert b.n_columns == 4 and 99 not in b.kept


def test_duplicate_column_in_double_mode_stays_harmless():
    # double mode cannot push the residual under the absolute tolerance;
    # whether the relative rule rejects the repeat or not, the basis stays
    # orthonormal
    x, y = uniform_xy(40, 5)
    b = _feed_columns(OrthoBuilder(40), x, y, 4)
    dup = b.to_basis().P[:, 2].copy()
    b.add_column(dup, tag=99)
    assert orthogonality_defect(b.to_basis()) <= 1e-13


@pytest.mark.parametrize("scheme", ["igs", "cgs", "mgs"])
def test_duplicate_column_is_rejected_double(scheme):
    # the repeat's residual is rounding noise near 1e-16 of its norm, far
    # above RANK_TOL but far below DOUBLE_RANK_REL; cgs and mgs are the
    # single-pass baselines, which share the builder's rank rule
    x, y = uniform_xy(40, 5)
    if scheme == "igs":
        b = _feed_columns(OrthoBuilder(40), x, y, 4)
        P = b.to_basis().P
        for dup in (P[:, 2].copy(), 3.0 * P[:, 0] - 0.5 * P[:, 3]):
            assert not b.add_column(dup, tag=99)
        assert b.n_columns == 4 and 99 not in b.kept
        return
    modified = scheme == "mgs"
    raw = [col for _, col in itertools.islice(basis_columns(x, y), 4)]
    P = single_pass_gs(raw, 40, 6, modified)
    dups = [P[:, 2].copy(), 3.0 * P[:, 0] - 0.5 * P[:, 3]]
    again = single_pass_gs(raw + dups, 40, 6, modified)
    assert P.shape == again.shape == (40, 4)
    assert again.tobytes() == P.tobytes()


def test_igs_defect_small_after_at_most_two_passes():
    x, y = uniform_xy(50, 7)
    b = _feed_columns(OrthoBuilder(50), x, y, 20)
    assert orthogonality_defect(b.to_basis()) <= 1e-13
    assert max(b.passes[1:]) <= 2


def test_schemes_agree_on_well_conditioned_columns():
    x, y = uniform_xy(30, 9)
    igs = _feed_columns(OrthoBuilder(30), x, y, 3).to_basis().P
    for modified in (False, True):
        one_pass = single_pass_gs((col for _, col in basis_columns(x, y)),
                                  30, 3, modified)
        assert np.allclose(igs, one_pass, rtol=0, atol=1e-14)


def test_single_column_identical_across_schemes():
    x = np.linspace(0, 1, 10)
    col = 1.0 + x
    b = OrthoBuilder(10)
    b.add_column(col, tag=0)
    for modified in (False, True):
        assert np.array_equal(single_pass_gs([col], 10, 1, modified),
                              b.to_basis().P)


def test_defect_of_a_tall_basis_matches_a_compensated_gram():
    # orthonormal Chebyshev columns over 200,000 sorted points: the running
    # sums of one gemm over all rows grow to O(1) and round there, while
    # 4,096-row chunks added by two_sum keep only each chunk's rounding
    K = 8
    x = np.linspace(-1.0, 1.0, 200_000)
    P = np.linalg.qr(np.polynomial.chebyshev.chebvander(x, K - 1))[0]
    basis = OrthoBasis(np.asfortranarray(P), np.eye(K), tuple(range(K)),
                       PrecisionMode.DOUBLE)
    gram = np.array([comp_dot(P, P[:, [t]], axis=0) for t in range(K)])
    one_gemm = np.asfortranarray(P).T @ P
    ref, old = (float(np.abs(g - np.diag(np.diag(g))).max())
                for g in (gram, one_gemm))
    new_error = abs(orthogonality_defect(basis) - ref)
    assert new_error <= 2.0 ** -53  # half an ulp of the unit diagonal
    assert abs(old - ref) > 4 * new_error


def test_defect_ordering_igs_beats_mgs_beats_cgs():
    x, y = uniform_xy(400, 13)
    igs = orthogonality_defect(
        _feed_columns(OrthoBuilder(400), x, y, 150).to_basis())
    cgs, mgs = (single_pass_defect(x, y, 150, modified)
                for modified in (False, True))
    assert igs < mgs < cgs
    assert igs <= 1e-12


def test_defect_trivial_cases():
    P = np.column_stack([np.ones(4) / 2.0, np.array([1, -1, 1, -1]) / 2.0])
    basis = OrthoBasis(P=P, a=np.eye(2), kept=(0, 1),
                       precision=PrecisionMode.DOUBLE)
    assert orthogonality_defect(basis) <= 1e-15
    dup = OrthoBasis(P=np.column_stack([P[:, 0], P[:, 0]]), a=np.eye(2),
                     kept=(0, 1), precision=PrecisionMode.DOUBLE)
    assert orthogonality_defect(dup) == pytest.approx(1.0, rel=1e-14)
    one = OrthoBasis(P=P[:, :1], a=np.eye(1), kept=(0,),
                     precision=PrecisionMode.DOUBLE)
    with pytest.raises(ValueError):
        orthogonality_defect(one)


@pytest.mark.parametrize("precision", list(PrecisionMode))
def test_add_column_rejects_a_column_of_the_wrong_length(precision):
    b = OrthoBuilder(4, precision=precision)
    with pytest.raises(ValueError, match="does not match the training size"):
        b.add_column(np.ones(5), tag=0)
    assert b.n_columns == 0 and b.add_column(np.ones(4), tag=0)


def test_columns_have_unit_norm():
    x, y = uniform_xy(150, 19)
    b = _feed_columns(OrthoBuilder(150), x, y, 45)
    g = b.to_basis().P.T @ b.to_basis().P
    assert np.abs(np.diag(g) - 1.0).max() < 1e-14


def test_second_pass_never_hurts():
    x, y = uniform_xy(200, 21)
    n_cols = columns_for_degree(10) - 1
    iterated = _feed_columns(OrthoBuilder(200), x, y, n_cols)
    assert (orthogonality_defect(iterated.to_basis())
            <= single_pass_defect(x, y, n_cols, modified=False))


def test_idempotent_on_already_orthonormal_columns():
    x, y = uniform_xy(60, 27)
    b = _feed_columns(OrthoBuilder(60), x, y, 10)
    P = b.to_basis().P
    refeed = OrthoBuilder(60)
    for t in range(10):
        assert refeed.add_column(P[:, t], tag=t)
        assert np.abs(refeed.to_basis().P[:, t] - P[:, t]).max() <= 1e-15


def _reconstruct(basis, raw, raw_q):
    """Independent expansion check: rebuild P and the curvature sums Q
    from a and the raw columns and their sums."""
    K = basis.n_columns
    P = np.zeros_like(basis.P)
    q = np.zeros(K)
    for s in range(K):
        P[:, s] = basis.a[s, s] * raw[:, s] + P[:, :s] @ basis.a[s, :s]
        q[s] = basis.a[s, s] * raw_q[s] + q[:s] @ basis.a[s, :s]
    return P, q


def test_reconstruction_from_expansion_coefficients_double():
    x, y = uniform_xy(80, 33)
    n_cols = columns_for_degree(7) - 1
    fb = _fit_basis(x, y, n_cols)
    basis = fb.builder.to_basis()
    P, q = _reconstruct(basis, raw_values(x, y, n_cols - 1),
                        generator_sums(x, y, n_cols - 1))
    assert np.abs(P - basis.P).max() < 1e-10
    assert np.abs(q - fb.q).max() < 1e-11 * max(1, np.abs(q).max())


def test_reconstruction_extended_mode_tight():
    # expansion replayed in dd so the check is limited by the stored
    # coefficients, not by the replay's own rounding
    x, y = uniform_xy(120, 39)
    n_cols = columns_for_degree(9) - 1
    hh, hl = raw_values(x, y, n_cols - 1, precision=PrecisionMode.EXTENDED)
    b = _feed_columns(OrthoBuilder(120, precision=PrecisionMode.EXTENDED),
                      x, y, n_cols, extended=True)
    basis = b.to_basis()
    ph = np.zeros_like(basis.P)
    pl = np.zeros_like(basis.P)
    for s in range(n_cols):
        th, tl = dd_mul(hh[:, s], hl[:, s], basis.a[s, s], basis.a_lo[s, s])
        if s:
            mh, ml = dd_dot(ph[:, :s], pl[:, :s], basis.a[s, :s],
                            basis.a_lo[s, :s], axis=1)
            th, tl = dd_add(th, tl, mh, ml)
        ph[:, s], pl[:, s] = th, tl
    assert np.abs(ph - basis.P).max() < 1e-13


def test_laplacian_cotransform_matches_symbolic_oracle():
    x, y = uniform_xy(40, 45)
    L = columns_for_degree(6) - 1
    lap_sums = sympy_laplacian_columns(x, y, L, raw=True).sum(axis=0)
    assert np.allclose(generator_sums(x, y, L), lap_sums,
                       rtol=1e-12, atol=40 * 1e-12)
    fb = _fit_basis(x, y, L + 1)
    basis = fb.builder.to_basis()
    # same triangular combination applied to the oracle's raw sums
    q = np.zeros(L + 1)
    for s in range(L + 1):
        q[s] = basis.a[s, s] * lap_sums[s] + q[:s] @ basis.a[s, :s]
    assert np.allclose(q, fb.q, rtol=1e-11, atol=1e-11 * np.abs(q).max())


def test_extended_defect_at_double_resolution():
    x, y = uniform_xy(100, 51)
    b = _feed_columns(OrthoBuilder(100, precision=PrecisionMode.EXTENDED),
                      x, y, 30, extended=True)
    basis = b.to_basis()
    assert basis.a_lo is not None
    assert orthogonality_defect(basis) <= 1e-13


def _magnet_basis(K):
    """The extended FitBasis of the seed-1 40 x 25 magnet corpus, grown
    to K columns."""
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data = normalize(pts)
    fb = FitBasis(split(data, SplitConfig()), data,
                  FitConfig(fixed_columns=K,
                            precision=PrecisionMode.EXTENDED))
    fb.block(30)  # far past the cap
    assert fb.builder.n_columns == K
    return fb


@pytest.mark.parametrize("corpus, K, tol", [
    ("uniform", 12, 1e-27), ("orthogonal", 12, 1e-30),
    ("magnet", 120, 1e-30), ("magnet", 210, 1e-30),
], ids=["uniform-12", "orthogonal-12", "magnet-120", "magnet-210"])
def test_extended_columns_truly_orthonormal_in_dd(corpus, K, tol):
    # every column after the first takes exactly two passes, the first
    # measured on the leading slices alone, and the dd Gram is I.  The
    # last "orthogonal" column is already orthogonal in dd: its first
    # pass measures about 1e-20, negligible to the pass rule, but only an
    # exact pass may be the last one
    ext = PrecisionMode.EXTENDED
    if corpus == "magnet":
        b = _magnet_basis(K).builder
    else:
        x, y = uniform_xy(50, 57)
        b = _feed_columns(OrthoBuilder(50, precision=ext), x, y, K,
                          extended=True)
        if corpus == "orthogonal":
            last = (b._core.Ph[:, K - 1], b._core.Pl[:, K - 1])
            b = _feed_columns(OrthoBuilder(50, precision=ext), x, y, K - 1,
                              extended=True)
            assert b.add_column(last, tag=-1)
    assert b.passes == [0] + [2] * (K - 1)
    core = b._core
    worst = 0.0
    for s in range(K):
        h, l = dd_dot(core.Ph[:, :s + 1], core.Pl[:, :s + 1],
                      core.Ph[:, s, None], core.Pl[:, s, None])
        gram = h + l
        gram[s] -= 1.0
        worst = max(worst, float(np.abs(gram).max()))
    assert worst < tol


_SHIFT = 1100  # every double is a multiple of 2**-1074


def _exact(h, l=None):
    """Exact integer images, scaled by 2**_SHIFT, of float64 (dd) values."""
    ints = [num * (1 << _SHIFT) // den for num, den in
            map(float.as_integer_ratio, np.ravel(h).tolist())]
    out = np.array(ints, dtype=object).reshape(np.shape(h))
    return out if l is None else out + _exact(l)


def _worst_relative_error(got, exact, scale):
    return max(abs(a - b) / c for a, b, c in zip(got, exact, scale))


def test_extended_projections_match_exact_sums():
    # the first 100 columns of the 1k corpus's basis, against integer-exact
    # sums; measure, deflate, norm2 and column_dot must be no less accurate
    # than the elementwise dd kernels, and within u**2 (deflate: 2 u**2,
    # its dd_sub rounds once more) of the sum of the terms' magnitudes
    fb = _magnet_basis(100)
    core = fb.builder._core
    Ph, Pl = core.Ph[:, :100], core.Pl[:, :100]
    P = _exact(Ph, Pl)
    u2 = 2.0 ** -106
    raw = fb._z_vec
    nearly_orthogonal = core.deflate(raw, core.measure(raw))
    for v in (raw, nearly_orthogonal):
        V = _exact(*v)
        exact, scale = P.T @ V, np.abs(P).T @ np.abs(V)
        sliced = _worst_relative_error(_exact(*core.measure(v)) << _SHIFT,
                                       exact, scale)
        elementwise = _worst_relative_error(
            _exact(*dd_dot(Ph, Pl, v[0][:, None], v[1][:, None])) << _SHIFT,
            exact, scale)
        assert sliced <= min(elementwise, u2)

        # a first pass's measure, on the leading R slices: besides the
        # products with p + q >= R, what it drops are the remainders past
        # slice R of v (at most 2**(e + 1 - R w), e v's power-of-two scale)
        # and of P (at most 2**(1 - R w)), so per point about (R + 3)
        # 2**(e - R w)
        R, w = core.lead, core.width
        assert R == -(-53 // w) + 1
        e = math.frexp(float(np.abs(v[0]).max()))[1]
        lead_err = max(abs(a - b) for a, b in zip(
            _exact(*core.lead_measure(v)) << _SHIFT, exact))
        assert lead_err <= (len(V) * (R + 3)) << (2 * _SHIFT + e - R * w)

        d = core.measure(v)
        D = _exact(*d)
        exact = (V << _SHIFT) - P @ D
        scale = (np.abs(V) << _SHIFT) + np.abs(P) @ np.abs(D)
        sliced = _worst_relative_error(_exact(*core.deflate(v, d)) << _SHIFT,
                                       exact, scale)
        elementwise = _worst_relative_error(
            _exact(*dd_sub(*v, *dd_dot(Ph, Pl, *d, axis=1))) << _SHIFT,
            exact, scale)
        assert sliced <= min(elementwise, 2 * u2)

        exact, n2 = [(V * V).sum()], core.norm2(v)
        sliced = _worst_relative_error(
            [_exact(n2.hi, n2.lo) << _SHIFT], exact, exact)
        elementwise = _worst_relative_error(
            [_exact(*dd_dot(*v, *v)) << _SHIFT], exact, exact)
        assert sliced <= min(elementwise, u2)

        # column_dot over each degree block's columns, as the fit projects
        exact, scale = P.T @ V, np.abs(P).T @ np.abs(V)
        ends = [0] + fb.blocks
        dots = [np.concatenate(parts) for parts in zip(*(
            core.column_dot(first, end, v)
            for first, end in zip(ends, ends[1:]) if end > first))]
        sliced = _worst_relative_error(_exact(*dots) << _SHIFT, exact, scale)
        elementwise = _worst_relative_error(
            [_exact(*dd_dot(Ph[:, t], Pl[:, t], *v)) << _SHIFT
             for t in range(100)], exact, scale)
        assert sliced <= min(elementwise, u2)


def test_extended_storage_growth_keeps_every_bit():
    # capacity 8 grows twice on the way to 20 columns; the stored columns
    # and their slices must match a builder that never grew
    x, y = uniform_xy(60, 61)
    grown, fixed = (
        _feed_columns(OrthoBuilder(60, precision=PrecisionMode.EXTENDED,
                                   capacity=cap), x, y, 20, extended=True)
        for cap in (8, 64))
    assert grown._core.Psl.shape[2] == 32
    for name in ("Ph", "Pl", "Psl"):
        a, b = getattr(grown._core, name), getattr(fixed._core, name)
        assert np.array_equal(a[..., :20], b[..., :20]), name


@pytest.mark.parametrize("precision", list(PrecisionMode))
def test_basis_views_are_column_major_prefixes(precision):
    # capacity 8 grows once on the way to 13 columns, twice to 20
    x, y = uniform_xy(60, 61)
    extended = precision is PrecisionMode.EXTENDED
    for k in (1, 5, 8, 13, 20):
        b = _feed_columns(OrthoBuilder(60, precision=precision, capacity=8),
                          x, y, k, extended=extended)
        widest = b.to_basis()
        for K in (1, k // 2 or 1, k):
            basis = b.to_basis(K)
            assert basis.P.shape == (60, K) and basis.P.flags.f_contiguous
            # a and a_lo: read-only (K, K) views, the widest's prefix
            for a, wide in ((basis.a, widest.a), (basis.a_lo, widest.a_lo)):
                assert a.shape == (K, K) and not a.flags.writeable
                assert np.shares_memory(a, wide)
                assert a.tobytes() == wide[:K, :K].tobytes()


@pytest.mark.parametrize("block", [1, 3 * 60, 2 ** 16])
def test_double_projections_keep_every_bit_in_column_groups(monkeypatch,
                                                            block):
    # column_dot sums whole columns, BLOCK_ELEMS // n of them at a time;
    # each column is its own compensated sum, so no grouping moves a bit
    x, y = uniform_xy(60, 61)
    b = _feed_columns(OrthoBuilder(60), x, y, 20)
    monkeypatch.setattr("orthofit.ortho.BLOCK_ELEMS", block)
    P = b.to_basis().P
    want = np.array([comp_dot(P[:, t], y) for t in range(3, 17)])
    assert b.column_dot(3, 17, y).tobytes() == want.tobytes()


def test_double_storage_growth_keeps_every_bit():
    x, y = uniform_xy(60, 61)
    grown, fixed = (_feed_columns(OrthoBuilder(60, capacity=cap), x, y, 20)
                    for cap in (8, 64))
    assert grown._core.P.shape[1] == 32
    assert np.array_equal(grown._core.P[:, :20], fixed._core.P[:, :20])
    assert grown.to_basis().a.tobytes() == fixed.to_basis().a.tobytes()


def test_defect_does_not_depend_on_the_layout_of_p():
    x, y = uniform_xy(200, 17)
    basis = _feed_columns(OrthoBuilder(200), x, y, 30).to_basis()
    c_order = OrthoBasis(P=np.ascontiguousarray(basis.P), a=basis.a,
                         kept=basis.kept, precision=basis.precision)
    assert not c_order.P.flags.f_contiguous
    assert (np.float64(orthogonality_defect(basis)).tobytes()
            == np.float64(orthogonality_defect(c_order)).tobytes())
