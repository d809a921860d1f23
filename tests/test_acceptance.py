"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 1 checks the overfitting-degree arithmetic on reference
tables of published error triples against an mpmath oracle, and each
printed degree value against its printed inputs within display
rounding. Six of the thirty printed degree values are inconsistent with
their own printed inputs beyond what display rounding can explain; the
test pins them as documented errata, and the companion test pins the
arithmetic on the self-consistent entries.
"""

import math
import time
from decimal import Decimal

import mpmath
import numpy as np

from orthofit import (FitBasis, FitConfig, SplitConfig, SynthSpec,
                      fit_surface, generate, lambda_sweep, normalize,
                      overfit_degree, solve, split, to_monomial)
from orthofit.basis import columns_for_degree
from orthofit.model import eval_monomial, eval_ortho
from orthofit.ortho import OrthoBuilder, PrecisionMode, orthogonality_defect
from orthofit.synth import SplitMix64
from oracles import double_conversion, normal_equation_predictions
from conftest import (all_train_split, basis_columns, raw_curvature_sums,
                      single_pass_defect)


def _line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --- criterion 1 -----------------------------------------------------------
# Reference sweeps: (label, sigma_tr, sigma_cv, sigma_test, gamma, gamma')
REFERENCE_TABLE_1 = [  # model size sweep, no regularization
    ("S=2", 0.879011e-02, 0.898435e-02, 0.887978e-02, -3.81, -4.58),
    ("S=16", 0.868127e-03, 0.752606e-03, 0.918941e-03, -2.02, -2.84),
    ("S=50", 0.966997e-04, 0.873995e-04, 0.104586e-03, -2.34, -2.51),
    ("S=92", 0.934213e-05, 0.158334e-04, 0.901059e-05, -0.36, -3.34),
    ("S=230", 0.407959e-06, 0.162667e-04, 0.624748e-06, 3.66, -0.63),
]
REFERENCE_TABLE_2 = [  # strength sweep at fixed size S=78
    ("x=13", 0.357571e-02, 0.346652e-02, 0.363449e-02, -3.49, -4.11),
    ("x=15", 0.193027e-02, 0.184704e-02, 0.195522e-02, -3.14, -4.35),
    ("x=17", 0.903203e-03, 0.883599e-03, 0.907491e-03, -3.83, -5.35),
    ("x=19", 0.489599e-03, 0.535881e-03, 0.486862e-03, -2.36, -5.17),
    ("x=21", 0.200504e-03, 0.322430e-03, 0.201699e-03, -0.50, -5.34),
    ("x=23", 0.493752e-04, 0.845318e-04, 0.526989e-04, -0.34, -2.92),
]
REFERENCE_TABLE_3 = [  # strength sweep with auto-selected size
    ("x=10", 0.528493e-02, 0.510816e-02, 0.531742e-02, -3.40, -5.07),
    ("x=20", 0.329224e-03, 0.420514e-03, 0.326656e-03, -1.28, -4.82),
    ("x=30", 0.568479e-05, 0.233510e-04, 0.524090e-05, 1.13, -2.55),
    ("x=40", 0.696329e-06, 0.273960e-05, 0.724544e-06, 1.07, -3.19),
]
ALL_REFERENCE_ROWS = (REFERENCE_TABLE_1 + REFERENCE_TABLE_2
                      + REFERENCE_TABLE_3)

# gamma' entries whose printed values lie outside the defining formula's
# range over every input that displays as their printed sigmas, even
# allowing one unit in the printed last place; see the companion test and
# the repository notes
KNOWN_INCONSISTENT = {("x=19", "gamma_prime"), ("x=21", "gamma_prime"),
                      ("x=23", "gamma_prime"), ("x=10", "gamma_prime"),
                      ("x=20", "gamma_prime"), ("x=40", "gamma_prime")}

SIGMA_SIG_DIGITS = 6          # significant digits of each printed sigma
DEGREE_UNIT = 0.01            # one unit in the last place of a printed degree
ORACLE_DPS = 50


def _printed_degrees():
    """(label, kind, sigma_tr, sigma_other, printed degree), all 30."""
    for label, tr, cv, te, g, gp in ALL_REFERENCE_ROWS:
        yield label, "gamma", tr, cv, g
        yield label, "gamma_prime", tr, te, gp


def _gamma_deviations():
    return [(label, kind, overfit_degree(tr, other) - printed)
            for label, kind, tr, other, printed in _printed_degrees()]


def _mp(v):
    # repr of a float from a table literal with at most 15 significant
    # digits is that literal, so this reads the decimal value exactly
    return mpmath.mpf(repr(v))


def _oracle_degree(sigma_tr, sigma_other):
    """ln|(sigma_other - sigma_tr) / sigma_tr| at 50 digits."""
    with mpmath.workdps(ORACLE_DPS):
        tr = _mp(sigma_tr)
        return mpmath.log(abs((_mp(sigma_other) - tr) / tr))


def _display_half_unit(sigma):
    exponent = Decimal(repr(sigma)).adjusted() - SIGMA_SIG_DIGITS + 1
    return mpmath.mpf(10) ** exponent / 2


def _erratum_gap(sigma_tr, sigma_other, printed):
    """How far a printed degree lies outside what its inputs allow.

    The degree is ln|r - 1| with r = sigma_other / sigma_tr. Over the box
    of sigmas that display as the printed ones, r spans the ratio of the
    box corners, and ln|r - 1| is monotone on either side of r = 1, so
    the range of the degree follows from the two extreme ratios (down to
    -inf when the box holds r = 1). The range is widened by one unit in
    the printed last place; 0 means the printed degree lies inside it.
    """
    with mpmath.workdps(ORACLE_DPS):
        tr, h_tr = _mp(sigma_tr), _display_half_unit(sigma_tr)
        other, h_other = _mp(sigma_other), _display_half_unit(sigma_other)
        r_lo = (other - h_other) / (tr + h_tr)
        r_hi = (other + h_other) / (tr - h_tr)
        ends = (abs(r_lo - 1), abs(r_hi - 1))
        lo = mpmath.ninf if r_lo <= 1 <= r_hi else mpmath.log(min(ends))
        hi = mpmath.log(max(ends))
        p, unit = _mp(printed), mpmath.mpf(str(DEGREE_UNIT))
        return max(lo - unit - p, p - hi - unit, 0)


def test_criterion_1_gamma_arithmetic_full_reproduction():
    entries = list(_printed_degrees())
    t0 = time.perf_counter()
    got = [overfit_degree(tr, other) for _, _, tr, other, _ in entries]
    elapsed = time.perf_counter() - t0
    off_oracle, off_printed, errata = [], [], {}
    for (label, kind, tr, other, printed), value in zip(entries, got):
        if abs(value - _oracle_degree(tr, other)) > 1e-12:
            off_oracle.append((label, kind, value))
        gap = _erratum_gap(tr, other, printed)
        if gap > 0:
            errata[(label, kind)] = gap
        elif abs(value - printed) > DEGREE_UNIT:
            off_printed.append((label, kind, value - printed))
    n = len(entries)
    as_documented = set(errata) == KNOWN_INCONSISTENT
    listed = ", ".join(f"{label}/{kind} ({float(gap):.3f} outside)"
                       for (label, kind), gap in errata.items())
    detail = (f"{n - len(off_oracle)}/{n} degrees match the mpmath oracle; "
              f"{n - len(errata) - len(off_printed)}/{n} printed degrees "
              f"reproduced; {len(errata)} "
              f"{'documented' if as_documented else 'undocumented'} errata: "
              f"{listed} in {elapsed:.3f}s")
    _line(1, not off_oracle and not off_printed and as_documented, detail)
    assert elapsed < 1.0
    assert not off_oracle, f"degrees off the mpmath oracle: {off_oracle}"
    assert not off_printed, ("consistent printed degrees not reproduced "
                             f"to +/-{DEGREE_UNIT}: {off_printed}")
    assert as_documented, (f"errata {sorted(errata)} differ from the "
                           f"documented {sorted(KNOWN_INCONSISTENT)}")


def test_criterion_1_companion_self_consistent_entries():
    bad = [(label, kind, dev) for label, kind, dev in _gamma_deviations()
           if abs(dev) > 0.01 and (label, kind) not in KNOWN_INCONSISTENT]
    assert not bad
    # and the flagged entries really are irreproducible from the printed
    # inputs: no inputs that display as the printed sigmas give a degree
    # within one printed unit of the printed value
    for label, kind, tr, other, printed in _printed_degrees():
        if (label, kind) in KNOWN_INCONSISTENT:
            assert _erratum_gap(tr, other, printed) > 0, (label, kind)


# --- criterion 2 -----------------------------------------------------------

def _scheme_defect(seed, scheme, n=2000, n_cols=201):
    # igs is the library's builder; cgs and mgs are the single-pass
    # baselines of tests/oracles.py
    rng = SplitMix64(seed)
    x = rng.uniforms(n)
    y = rng.uniforms(n)
    if scheme != "igs":
        return single_pass_defect(x, y, n_cols, modified=scheme == "mgs")
    b = OrthoBuilder(n, capacity=n_cols)
    for t, col in basis_columns(x, y):
        if b.add_column(col, tag=t) and b.n_columns >= n_cols:
            break
    return orthogonality_defect(b.to_basis())


def test_criterion_2_defect_ordering_across_schemes():
    t0 = time.perf_counter()
    wins = 0
    igs_worst = 0.0
    for seed in range(20):
        d_igs = _scheme_defect(1000 + seed, "igs")
        d_mgs = _scheme_defect(1000 + seed, "mgs")
        d_cgs = _scheme_defect(1000 + seed, "cgs")
        igs_worst = max(igs_worst, d_igs)
        if d_igs <= 1e-12 and d_mgs > d_igs and d_cgs > d_mgs:
            wins += 1
    elapsed = time.perf_counter() - t0
    ok = _line(2, wins >= 18 and igs_worst <= 1e-12,
               f"{wins}/20 trials ordered cgs>mgs>igs with igs defect "
               f"<= {igs_worst:.2e} in {elapsed:.0f}s")
    assert elapsed < 60.0
    assert wins >= 18
    assert igs_worst <= 1e-12


# --- criterion 3 -----------------------------------------------------------

def test_criterion_3_normal_equation_oracle_equivalence():
    t0 = time.perf_counter()
    rng = SplitMix64(777)
    worst = 0.0
    for _ in range(25):
        n = 35 + int(rng.block(1)[0]) % 26    # 35..60 points
        k = 10 + int(rng.block(1)[0]) % 19    # 10..28 columns
        x = rng.uniforms(n)
        y = rng.uniforms(n)
        z = np.array([math.sin(3 * a) * math.cos(2 * b)
                      + 0.1 * float(rng.uniforms(1)[0]) for a, b in zip(x, y)])
        data = normalize(np.column_stack([x, y, z]))
        fit = fit_surface(all_train_split(n), data,
                          FitConfig(fixed_columns=int(k), max_columns=int(k)))
        got = fit.basis.P @ fit.b
        want = normal_equation_predictions(data.x, data.y, data.z, int(k))
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    elapsed = time.perf_counter() - t0
    ok = _line(3, worst <= 1e-8,
               f"25 instances, worst relative prediction gap {worst:.2e} "
               f"in {elapsed:.0f}s")
    assert elapsed < 30.0
    assert ok


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_large_lambda_decay():
    t0 = time.perf_counter()
    pts, _ = generate(SynthSpec(surface="magnet", nx=80, ny=60,
                                noise_sigma=0.0, seed=7))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    cfg = FitConfig(fixed_columns=45, max_columns=45, odd_field_only=True)
    basis = FitBasis(parts, data, cfg)
    fit = solve(basis, 1e6)
    increments = fit.b * np.array(basis.q[:fit.S + 1])
    running = np.cumsum(increments)  # R after each column, in solve's order
    ratio = np.abs(running[10:]).max() / np.abs(increments).max()
    elapsed = time.perf_counter() - t0
    ok = _line(4, ratio <= 1e-3,
               f"running curvature sum stays {ratio:.2e} of the largest "
               f"step beyond column 10 in {elapsed:.0f}s")
    assert elapsed < 30.0
    assert ok


# --- criterion 5 -----------------------------------------------------------

def test_criterion_5_conversion_fidelity():
    t0 = time.perf_counter()
    pts, _ = generate(SynthSpec(surface="magnet", nx=60, ny=50,
                                noise_sigma=1e-4, seed=5))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    fit = fit_surface(parts, data,
                      FitConfig(fixed_columns=151, max_columns=151,
                                precision=PrecisionMode.EXTENDED))
    assert fit.S == 150
    rng = SplitMix64(99)
    px = rng.uniforms(100)
    py = rng.uniforms(100)
    ref = eval_ortho(fit, px, py)
    d_ext = np.abs(eval_monomial(to_monomial(fit), px, py) - ref).max()
    d_dbl = np.abs(eval_monomial(double_conversion(fit), px, py) - ref).max()
    elapsed = time.perf_counter() - t0
    ok = _line(5, d_ext <= 1e-9 and d_dbl >= 10 * d_ext,
               f"probe gap {d_ext:.2e} extended vs {d_dbl:.2e} double "
               f"({d_dbl / d_ext:.0f}x) in {elapsed:.0f}s")
    assert elapsed < 120.0
    assert d_ext <= 1e-9
    assert d_dbl >= 10 * d_ext


# --- criterion 6 -----------------------------------------------------------

def test_criterion_6_sweep_trend_shape():
    t0 = time.perf_counter()
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=3))
    data = normalize(pts)
    parts = split(data, SplitConfig("y", 3))
    cfg = FitConfig(max_columns=210, stop_rel_improvement=0.005)
    report = lambda_sweep(data, parts, [10, 20, 30, 40], cfg)
    sigmas = [r.sigma_tr for r in report.records]
    gammas = [r.gamma for r in report.records]
    decreasing = all(a > b for a, b in zip(sigmas, sigmas[1:]))
    crossing = gammas[0] < -1.0 and any(g > 0.0 for g in gammas)
    elapsed = time.perf_counter() - t0
    ok = _line(6, decreasing and crossing,
               f"sigma_tr {', '.join(f'{s:.2e}' for s in sigmas)}; gamma "
               f"{', '.join(f'{g:+.2f}' for g in gammas)} in {elapsed:.0f}s")
    assert elapsed < 180.0
    assert decreasing
    assert crossing


# --- criterion 7 -----------------------------------------------------------

def test_criterion_7_split_contract():
    t0 = time.perf_counter()
    worst_dev = 0
    for f in (2, 3, 4, 5):
        for n in range(2 * f, 201):
            pts = np.array([(i * 0.618 % 1.0, i / (n - 1), (i * 7 % 5) / 5.0)
                            for i in range(n)])
            data = normalize(pts)
            cfg = SplitConfig("x", f)
            a = split(data, cfg)
            b = split(data, cfg)
            assert np.array_equal(a.train_idx, b.train_idx)
            assert np.array_equal(a.cv_idx, b.cv_idx)
            assert np.array_equal(a.test_idx, b.test_idx)
            combined = np.sort(np.concatenate(
                [a.train_idx, a.cv_idx, a.test_idx]))
            assert np.array_equal(combined, np.arange(n))
            dev = abs(len(a.train_idx) - (n * (f - 1)) // f)
            worst_dev = max(worst_dev, dev)
            assert dev <= 1
    elapsed = time.perf_counter() - t0
    ok = _line(7, True, f"partition exact for f in 2..5, N in [2f, 200]; "
                        f"train size within {worst_dev} of floor(N(f-1)/f) "
                        f"in {elapsed:.1f}s")
    assert elapsed < 5.0
    assert ok


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_derivative_checks():
    t0 = time.perf_counter()
    from orthofit.basis import basis_dy, basis_values
    rng = SplitMix64(55)
    x = 0.3 + 0.5 * rng.uniforms(100)
    y = 0.3 + 0.5 * rng.uniforms(100)
    L = columns_for_degree(10) - 1
    h = 1e-4
    fd_xx = (basis_values(x + h, y, L) - 2 * basis_values(x, y, L)
             + basis_values(x - h, y, L)) / h ** 2
    fd_yy = (basis_values(x, y + h, L) - 2 * basis_values(x, y, L)
             + basis_values(x, y - h, L)) / h ** 2
    fd_y = (basis_values(x, y + h, L) - basis_values(x, y - h, L)) / (2 * h)
    # the curvature sums Q(h_t) the fit uses against the central-difference
    # Laplacians summed over the points (per-point atol 1e-6, summed)
    ok = (np.allclose(raw_curvature_sums(x, y, L), (fd_xx + fd_yy).sum(axis=0),
                      rtol=1e-5, atol=100 * 1e-6)
          and np.allclose(basis_dy(x, y, L), fd_y, rtol=1e-5, atol=1e-7))
    elapsed = time.perf_counter() - t0
    _line(8, ok, f"Laplacian sums and first derivatives match central "
                 f"differences at 100 interior points through degree 10 "
                 f"in {elapsed:.1f}s")
    assert elapsed < 5.0
    assert ok
