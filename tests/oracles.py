"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's fitting path: the
least-squares oracle assembles and solves dense normal equations with
full-pivot elimination in double-double scalars, derivative oracles use
the power rule or symbolic differentiation, and expected values frozen
into tests were produced by these routines.  The reference parser is
the plain form of the data-file row loop: every cell stripped before
``float()``, blank rows skipped before the arity check.  The reference
SplitMix64 draws one output at a time in Python integers, and the
reference writer formats every cell through ``csv.writer``.  The
reference slicer renormalizes each remainder with ``two_sum``.  The
single-pass Gram-Schmidt baselines (classical and modified) are plain
numpy in double, with the builder's rank rule.  The plain-double
monomial conversion is the baseline the double-double one beats.  The
first column with a training error that is not finite is found by
recomputing the residual from z after every column.  The raw Chebyshev
columns are built here from sympy's integer Chebyshev polynomials, not
from the library's recurrence or its change of basis.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace

import numpy as np

from orthofit import (DegenerateFitError, ParseError, SweepReport,
                      ValidationRecord, fit_surface, group_error,
                      overfit_degree, regularized_coefficient, select_model,
                      to_monomial)
from orthofit.basis import basis_values, block_start, degree_block
from orthofit.dataset import (HEADER_ALIASES, NormalizationMap,
                              NormalizedDataset, _point_array)
from orthofit.ddarith import DD, comp_dot, dd_dot, two_sum
from orthofit.ortho import DOUBLE_RANK_REL, RANK_TOL


def dd_solve_full_pivot(G, rhs):
    """Solve G c = rhs by Gaussian elimination with full pivoting, in DD.

    G is a list of DD rows, rhs a list of DD; both are consumed.
    """
    n = len(rhs)
    col_of = list(range(n))
    for k in range(n):
        # locate the largest remaining pivot
        pi, pj, best = k, k, -1.0
        for i in range(k, n):
            for j in range(k, n):
                mag = abs(float(G[i][j]))
                if mag > best:
                    pi, pj, best = i, j, mag
        if best == 0.0:
            raise ZeroDivisionError("singular system in oracle solve")
        G[k], G[pi] = G[pi], G[k]
        rhs[k], rhs[pi] = rhs[pi], rhs[k]
        if pj != k:
            for row in G:
                row[k], row[pj] = row[pj], row[k]
            col_of[k], col_of[pj] = col_of[pj], col_of[k]
        piv = G[k][k]
        for i in range(k + 1, n):
            f = G[i][k] / piv
            if float(f) == 0.0:
                continue
            for j in range(k, n):
                G[i][j] = G[i][j] - f * G[k][j]
            rhs[i] = rhs[i] - f * rhs[k]
    sol = [DD(0.0) for _ in range(n)]
    for k in range(n - 1, -1, -1):
        acc = rhs[k]
        for j in range(k + 1, n):
            acc = acc - G[k][j] * sol[j]
        sol[k] = acc / G[k][k]
    out = [DD(0.0)] * n
    for k in range(n):
        out[col_of[k]] = sol[k]
    return out


def normal_equation_predictions(x, y, z, n_cols):
    """Least-squares predictions at the data points via dense normal
    equations assembled and solved in double-double arithmetic."""
    H = np.atleast_2d(basis_values(np.asarray(x, float),
                                   np.asarray(y, float), n_cols - 1))
    z = np.asarray(z, float)
    zeros = np.zeros(H.shape[0])
    G = [[DD(*dd_dot(H[:, i], zeros, H[:, j], zeros)) for j in range(n_cols)]
         for i in range(n_cols)]
    rhs = [DD(*dd_dot(H[:, i], zeros, z, zeros)) for i in range(n_cols)]
    c = dd_solve_full_pivot(G, rhs)
    preds = []
    for irow in range(H.shape[0]):
        acc = DD(0.0)
        for j in range(n_cols):
            acc = acc + c[j] * H[irow, j]
        preds.append(float(acc))
    return np.array(preds)


def training_error(b, basis, z):
    """Mean squared residual of sum(b_t * P_t) over the first len(b)
    columns against targets z, from the basis's stored columns (the hi
    parts in extended precision) rather than from the fit's running
    residual."""
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    k = b.size
    if k > basis.n_columns:
        raise ValueError("more coefficients than basis columns")
    r = basis.P[:, :k] @ b - z
    return comp_dot(r, r) / z.size


def first_nonfinite_column(fb, z, lam):
    """Flat tag of the first column of the FitBasis ``fb`` after which the
    training error at strength ``lam`` is not finite, or None.  The
    coefficients come from the closed form over ``fb.proj`` and ``fb.q``
    (their overflow in double-double is what makes the error not finite),
    and after every column the residual is recomputed from the targets
    ``z`` with one product over the stored columns (hi parts in extended
    precision), not carried from column to column."""
    P = fb.builder.to_basis().P
    R, b = 0.0, []
    for s, (proj, q) in enumerate(zip(fb.proj, fb.q)):
        c = regularized_coefficient(proj, q, R, lam)
        R = R + c * q
        b.append(float(c))
        with np.errstate(over="ignore", invalid="ignore"):
            r = z - P[:, :s + 1] @ np.array(b)
            if not math.isfinite(float(r @ r) / z.size):
                return fb.builder.kept[s]
    return None


def refit_sweep(data, split, grid, cfg, gamma_cap=1.0):
    """``lambda_sweep`` as one independent fit per strength: fit_surface
    and two group_error calls per x, in ascending x order."""
    records = []
    for x in sorted({float(x) for x in grid}):
        lam = math.exp(-x)
        try:
            fit = fit_surface(split, data, cfg, lam)
            s_tr = fit.sigma_tr
            s_cv = group_error(fit, data, split.cv_idx)
            s_te = group_error(fit, data, split.test_idx)
            records.append(ValidationRecord(
                x_log=x, lambda_=lam, S=fit.S, sigma_tr=s_tr, sigma_cv=s_cv,
                sigma_test=s_te, gamma=overfit_degree(s_tr, s_cv),
                gamma_prime=overfit_degree(s_tr, s_te)))
        except DegenerateFitError as exc:
            records.append(ValidationRecord(
                x_log=x, lambda_=lam, S=-1, sigma_tr=math.nan,
                sigma_cv=math.nan, sigma_test=math.nan, gamma=math.nan,
                gamma_prime=math.nan, note=str(exc)))
    return select_model(SweepReport(records=tuple(records)), gamma_cap=gamma_cap)


def monomial_powers(L):
    """(x_power, y_power) per flat index up to L."""
    out = []
    for t in range(L + 1):
        _, m, j = degree_block(t)
        out.append((m - j, j))
    return out


def mpmath_basis(x, y, L, dps=50):
    """Basis values x^i y^j and y-derivatives j x^i y^(j-1) of flat indices
    0..L at one point (x, y), by direct powers at ``dps`` digits.  Returns
    two lists of mpf; compare against them inside ``mpmath.workdps``."""
    import mpmath

    with mpmath.workdps(dps):
        u, v = mpmath.mpf(float(x)), mpmath.mpf(float(y))
        vals = [u ** i * v ** j for i, j in monomial_powers(L)]
        dys = [j * u ** i * v ** (j - 1) if j else mpmath.mpf(0)
               for i, j in monomial_powers(L)]
        return vals, dys


def power_rule_values(x, y, L):
    """Direct power evaluation x**a * y**b (no recursion)."""
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    cols = [np.power(x, a) * np.power(y, b) for a, b in monomial_powers(L)]
    return np.column_stack(cols)


def power_rule_d2x(x, y, L):
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    cols = []
    for a, b in monomial_powers(L):
        if a < 2:
            cols.append(np.zeros_like(x))
        else:
            cols.append(a * (a - 1) * np.power(x, a - 2) * np.power(y, b))
    return np.column_stack(cols)


def power_rule_d2y(x, y, L):
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    cols = []
    for a, b in monomial_powers(L):
        if b < 2:
            cols.append(np.zeros_like(x))
        else:
            cols.append(b * (b - 1) * np.power(x, a) * np.power(y, b - 2))
    return np.column_stack(cols)


def power_rule_dy(x, y, L):
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    cols = []
    for a, b in monomial_powers(L):
        if b < 1:
            cols.append(np.zeros_like(x))
        else:
            cols.append(b * np.power(x, a) * np.power(y, b - 1))
    return np.column_stack(cols)


def sympy_laplacian_columns(x, y, L, raw=False):
    """Symbolically differentiated Laplacian columns (degree <= 6 use) of
    the monomials x^i y^j, or with ``raw`` of the raw columns
    T_i(2x - 1) T_j(2y - 1)."""
    import sympy as sp

    sx, sy = sp.symbols("x y")
    lap_cols = []
    for a, b in monomial_powers(L):
        expr = (sp.chebyshevt(a, 2 * sx - 1) * sp.chebyshevt(b, 2 * sy - 1)
                if raw else sx ** a * sy ** b)
        lap = sp.diff(expr, sx, 2) + sp.diff(expr, sy, 2)
        f = sp.lambdify((sx, sy), lap, "numpy")
        vals = np.broadcast_to(np.asarray(f(x, y), dtype=float), np.shape(x))
        lap_cols.append(np.array(vals, dtype=float))
    return np.column_stack(lap_cols)


def chebyshev_coefficients(n, shifted=True):
    """Integer monomial coefficients of T_n(2x - 1), or of T_n(x) when not
    ``shifted``, lowest power first, from sympy."""
    import sympy as sp

    sx = sp.Symbol("x")
    arg = 2 * sx - 1 if shifted else sx
    poly = sp.Poly(sp.chebyshevt(n, arg), sx)
    return [int(c) for c in poly.all_coeffs()[::-1]]


def monomial_change(kept, odd_x=False):
    """Exact change of basis from the raw columns of ``kept`` to the
    monomials: a dict {(s, r): integer coefficient of monomial kept[r] in
    raw column kept[s]}; KeyError if a monomial is not in ``kept``."""
    pos = {t: r for r, t in enumerate(kept)}
    out = {}
    for s, t in enumerate(kept):
        _, m, j = degree_block(t)
        for a, ca in enumerate(chebyshev_coefficients(m - j, not odd_x)):
            for b, cb in enumerate(chebyshev_coefficients(j)):
                if ca and cb:
                    out[s, pos[block_start(a + b) + b]] = ca * cb
    return out


def _mp_chebyshev(n, u, order=0):
    """T_n(u) (or its ``order``-th derivative) at the mpf u from sympy's
    integer coefficients in u."""
    coeffs = chebyshev_coefficients(n, shifted=False)
    for _ in range(order):
        coeffs = [k * c for k, c in enumerate(coeffs)][1:] or [0]
    acc = 0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def mpmath_raw_curvature_sums(kept, x, y, odd_x=False, dps=50):
    """Q(h) = sum over the points of the Laplacian of each raw column
    T_i(u) T_j(2y - 1) of ``kept``, u = 2x - 1 (or x with ``odd_x``), at
    ``dps`` digits from sympy's integer coefficients; a list of mpf."""
    import mpmath

    pairs = [(m - j, j) for _, m, j in map(degree_block, kept)]
    with mpmath.workdps(dps):
        q = [mpmath.mpf(0)] * len(kept)
        cx = 1 if odd_x else 4
        for px, py in zip(x, y):
            u = mpmath.mpf(float(px))
            u = u if odd_x else 2 * u - 1
            v = 2 * mpmath.mpf(float(py)) - 1
            for s, (i, j) in enumerate(pairs):
                q[s] += (cx * _mp_chebyshev(i, u, 2) * _mp_chebyshev(j, v)
                         + 4 * _mp_chebyshev(i, u) * _mp_chebyshev(j, v, 2))
        return q


def mpmath_curvature_sums(basis, x, y, odd_x=False, dps=50):
    """Curvature sums Q_s of a fit's orthonormal columns at ``dps`` digits.

    The raw columns' sums come from ``mpmath_raw_curvature_sums``; the
    columns then follow Q_s = a[s, s] Q(h_s) + sum_{t<s} a[s, t] Q_t with
    the stored expansion a (plus a_lo when present).  Returns a list of
    mpf.
    """
    import mpmath

    raw = mpmath_raw_curvature_sums(basis.kept, x, y, odd_x, dps)
    with mpmath.workdps(dps):
        a = _mp_values(basis.a, basis.a_lo)
        q = []
        for s in range(len(raw)):
            q.append(a[s][s] * raw[s]
                     + mpmath.fsum(a[s][r] * q[r] for r in range(s)))
        return q


def mpmath_raw_coefficients(fit, dps=50):
    """Raw-column coefficients c = g^T b of a fit at ``dps`` digits: row
    g_s holds the raw coefficients of P_s, g_s = a[s, s] e_s + sum_{t<s}
    a[s, t] g_t with the stored expansion a, and b is the stored
    coefficient vector (each plus its low part when present).  Returns a
    list of mpf, one per kept index."""
    import mpmath

    K = fit.basis.n_columns
    with mpmath.workdps(dps):
        a = _mp_values(fit.basis.a, fit.basis.a_lo)
        b = _mp_values(fit.b, fit.b_lo)
        g = []
        for s in range(K):
            g.append([mpmath.fdot((a[s][t], g[t][j]) for t in range(j, s))
                      for j in range(s)] + [a[s][s]])
        return [mpmath.fdot((b[s], g[s][j]) for s in range(j, K))
                for j in range(K)]


def mpmath_monomial_coefficients(fit, dps=50, raw=None):
    """Monomial coefficients of a fit at ``dps`` digits: its raw
    coefficients (``raw``, by default ``mpmath_raw_coefficients``) through
    the exact change of basis ``monomial_change``.  Returns a list of
    mpf, one per kept index."""
    import mpmath

    with mpmath.workdps(dps):
        raw = mpmath_raw_coefficients(fit, dps) if raw is None else raw
        out = [mpmath.mpf(0)] * len(raw)
        for (s, r), v in monomial_change(fit.basis.kept, fit.odd_x).items():
            out[r] += v * raw[s]
        return out


def mpmath_polynomial_gap(kept, c, want, x, y, dps=50):
    """Largest |sum_t (c_t - want_t) x^i y^j| over the points (x, y) at
    ``dps`` digits, kept[t] the flat index of x^i y^j: how far a model's
    monomial coefficients c lie from ``want`` (mpf) as polynomials."""
    import mpmath

    with mpmath.workdps(dps):
        gaps = [mpmath.fsum((mpmath.mpf(float(v)) - w) * mpmath.mpf(float(u))
                            ** (m - j) * mpmath.mpf(float(t)) ** j
                            for v, w, (_, m, j) in zip(
                                c, want, map(degree_block, kept)))
                for u, t in zip(x, y)]
        return float(max(abs(g) for g in gaps))


def double_conversion(fit):
    """``to_monomial`` with the expansion run in plain doubles, as a
    monomial expansion: the monomial coefficients of each P_s from P_s =
    a[s, s] h_s + sum_{t<s} a[s, t] P_t, starting from the raw columns'
    exact integer coefficients (``monomial_change``), then c = sum_s b_s
    P_s.  Those coefficients cancel at high order, where the
    double-double conversion does not.  Only ``c`` differs from
    ``to_monomial(fit)``."""
    a = fit.basis.a
    K = a.shape[0]
    g = np.zeros((K, K))
    for (s, r), v in monomial_change(fit.basis.kept, fit.odd_x).items():
        g[s, r] = v
    for s in range(K):
        g[s] = a[s, s] * g[s] + a[s, :s] @ g[:s]
    return replace(to_monomial(fit), c=(fit.b + fit.b_lo) @ g)


def mpmath_held_out_error(fit, data, idx, dps=50):
    """Mean squared residual of a fit over the listed points at ``dps``
    digits, from its stored raw coefficients c + c_lo and the raw columns
    evaluated from sympy's integer Chebyshev coefficients."""
    import mpmath

    pairs = [(m - j, j) for _, m, j in map(degree_block, fit.basis.kept)]
    top = max(i + j for i, j in pairs)
    with mpmath.workdps(dps):
        c = [mpmath.mpf(float(h)) + mpmath.mpf(float(l))
             for h, l in zip(fit.c, fit.c_lo)]
        total = mpmath.mpf(0)
        for k in np.asarray(idx):
            u = mpmath.mpf(float(data.x[k]))
            u = u if fit.odd_x else 2 * u - 1
            v = 2 * mpmath.mpf(float(data.y[k])) - 1
            tu = [_mp_chebyshev(n, u) for n in range(top + 1)]
            tv = [_mp_chebyshev(n, v) for n in range(top + 1)]
            pred = mpmath.fsum(cs * tu[i] * tv[j]
                               for cs, (i, j) in zip(c, pairs))
            total += (pred - mpmath.mpf(float(data.z[k]))) ** 2
        return float(total / len(idx))


def _mp_values(hi, lo):
    """Nested lists of mpf holding hi + lo exactly (lo may be None)."""
    import mpmath

    lo = np.zeros_like(hi) if lo is None else lo
    return (np.vectorize(mpmath.mpf, otypes=[object])(hi)
            + np.vectorize(mpmath.mpf, otypes=[object])(lo)).tolist()


def mpmath_unit_sums(model, x, y, dps=50):
    """The stored model's unit-coordinate z = sum_t c_t x^i y^j and
    dz/dy = sum_t c_t j x^i y^(j-1) at one point (x, y), at ``dps``
    digits: a (value, magnitude) pair of floats for each, the magnitude
    being the sum of the absolute terms."""
    import mpmath

    with mpmath.workdps(dps):
        x, y = mpmath.mpf(float(x)), mpmath.mpf(float(y))
        z, dz = [], []
        for t, c in zip(model.kept, model.c):
            _, m, j = degree_block(t)
            term = mpmath.mpf(float(c)) * x ** (m - j)
            z.append(term * y ** j)
            if j:
                dz.append(term * j * y ** (j - 1))
        return [(float(mpmath.fsum(v)), float(mpmath.fsum(abs(u) for u in v)))
                for v in (z, dz)]


def mpmath_simpson_entropy(model, Y, X_hi, panels=200, dps=50):
    """``entropy_change`` at ``dps`` digits: the same composite Simpson
    rule on an even number of panels, at exact nodes
    x_min + k h, summed over the terms c_t j x^i y^(j-1) of the model's
    stored coefficients.  Returns (value, magnitude) as floats, the
    magnitude being the sum of the absolute terms the rule adds."""
    import mpmath

    nm = model.map
    with mpmath.workdps(dps):
        mp = mpmath.mpf
        span = mp(nm.x_max) - mp(nm.x_min)
        y = (mp(Y) - mp(nm.y_min)) / (mp(nm.y_max) - mp(nm.y_min))
        scale = (mp(nm.z_max) - mp(nm.z_min)) / (mp(nm.y_max) - mp(nm.y_min))
        h = (mp(X_hi) - mp(nm.x_min)) / panels
        w = [h / 3 * (1 if k in (0, panels) else (4 if k % 2 else 2))
             for k in range(panels + 1)]
        terms = []
        for k, wk in enumerate(w):
            x = k * h / span
            for t, c in zip(model.kept, model.c):
                _, m, j = degree_block(t)
                if j:
                    terms.append(wk * scale * mp(float(c)) * j
                                 * x ** (m - j) * y ** (j - 1))
        return (float(mpmath.fsum(terms)),
                float(mpmath.fsum(abs(v) for v in terms)))


def unit_dataset(points):
    """Wrap (n, 3) points whose x and y already lie on [0, 1] with an
    identity map, for algebra-level tests where normalization bookkeeping
    would only obscure coefficients; z passes through untouched."""
    arr = _point_array(points)
    xy = arr[:, :2]
    if xy.min() < 0.0 or xy.max() > 1.0:
        raise ValueError("x and y must lie in [0, 1] for an identity map")
    return NormalizedDataset(arr, NormalizationMap(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))


def reference_read_columns(text, width):
    """``dataset._read_columns`` on decoded text, with the row loop in its
    plain form: each row counted as one line, blank rows skipped first,
    then the arity check, then each picked cell stripped and parsed."""
    fh = io.StringIO(text, newline="")
    header_line = fh.readline()
    if not header_line.strip():
        raise ParseError("empty input: no header row", line=1)
    delim = "\t" if "\t" in header_line else ","
    header = [h.strip() for h in next(csv.reader([header_line], delimiter=delim))]
    lower = [h.lower() for h in header]
    aliases = [a[:width] for a in HEADER_ALIASES]
    wanted = next((a for a in aliases if all(c in lower for c in a)), None)
    if wanted is None:
        known = " or ".join(",".join(a) for a in aliases)
        raise ParseError(f"header {header!r} does not contain the "
                         f"columns {known} (any case)", line=1)
    cols = [lower.index(c) for c in wanted]

    values = []
    for lineno, row in enumerate(csv.reader(fh, delimiter=delim), start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line=lineno)
        for c in cols:
            cell = row[c].strip()
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"non-numeric field {cell!r}", line=lineno) from None
            if not math.isfinite(v):
                raise ParseError(f"non-finite field {cell!r}", line=lineno)
            values.append(v)
    if not values:
        raise ParseError("no data rows", line=2)
    return np.array(values).reshape(-1, width)


_MASK64 = (1 << 64) - 1


class ReferenceSplitMix64:
    """SplitMix64 one output at a time in Python integers: the published
    increment and finalizer (Steele, Lea & Flood 2014), uniforms as the
    top 53 bits times 2^-53, normals as ``math.fsum`` of twelve uniforms
    minus six."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self):
        return math.fsum(self.uniform() for _ in range(12)) - 6.0


def reference_rows(rows, lineterminator):
    """The text ``csv.writer`` writes for the rows when each float cell is
    formatted with ``format(v, ".17g")`` and every other cell (an int, a
    string) is handed to it unchanged."""
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=lineterminator).writerows(
        [format(v, ".17g") if isinstance(v, float) else v for v in row]
        for row in rows)
    return buf.getvalue()


def reference_slices(hi, lo, width, count, exp=0):
    """``ddarith.dd_slices`` with every remainder renormalized by
    ``two_sum``, which needs no ordering of its operands."""
    rh = np.array(hi, dtype=float)
    rl = np.array(lo, dtype=float)
    out = np.empty((count,) + rh.shape)
    for p in range(count):
        sigma = np.ldexp(0.75, exp + 54 - width * (p + 1))
        s = (rh + sigma) - sigma
        out[p] = s
        rh, rl = two_sum(rh - s, rl)
    return out, rh, rl


def single_pass_gs(columns, n, n_cols, modified):
    """One Gram-Schmidt pass per column in double: classical (every
    projection measured against the incoming column) or, with
    ``modified``, modified (each measured against the running residual).
    Takes raw columns of length n until n_cols are accepted or the
    columns run out, rejects a column by ``OrthoBuilder``'s double rank
    rule, and returns the accepted orthonormal columns, column-major."""
    P = np.empty((n, n_cols), order="F")
    k = 0
    for col in columns:
        v = np.array(col, dtype=float)
        col_norm = float(v @ v) ** 0.5
        if modified:
            for t in range(k):
                v -= float(P[:, t] @ v) * P[:, t]
        elif k:
            v -= P[:, :k] @ (P[:, :k].T @ v)
        p = DD(float(v @ v)).sqrt()
        if float(p) < RANK_TOL or float(p) <= DOUBLE_RANK_REL * col_norm:
            continue
        P[:, k] = v * float(1.0 / p)
        k += 1
        if k == n_cols:
            break
    return P[:, :k]
