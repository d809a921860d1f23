"""Independent reference computations used by the tests.

Everything here deliberately avoids the library's fitting path: the
least-squares oracle assembles and solves dense normal equations with
full-pivot elimination in double-double scalars, derivative oracles use
the power rule or symbolic differentiation, and expected values frozen
into tests were produced by these routines.
"""

from __future__ import annotations

import numpy as np

from orthofit.basis import basis_values, degree_block
from orthofit.ddarith import DD, comp_dot, dd_dot, dd_matvec
from orthofit.ortho import PrecisionMode


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
    """Mean squared residual of sum(b_t * P_t) against targets z, from the
    basis's stored columns (with their low parts in extended precision)
    rather than from the fit's running residual."""
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.size != basis.n_columns:
        raise ValueError("coefficient count does not match basis columns")
    if basis.precision is PrecisionMode.EXTENDED:
        fh, fl = dd_matvec(basis.P, basis.P_lo, b, np.zeros_like(b))
        r = (fh - z) + fl
    else:
        r = basis.P @ b - z
    return comp_dot(r, r) / z.size


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


def sympy_laplacian_columns(x, y, L):
    """Symbolically differentiated Laplacian columns (degree <= 6 use)."""
    import sympy as sp

    sx, sy = sp.symbols("x y")
    lap_cols = []
    for a, b in monomial_powers(L):
        expr = sx ** a * sy ** b
        lap = sp.diff(expr, sx, 2) + sp.diff(expr, sy, 2)
        f = sp.lambdify((sx, sy), lap, "numpy")
        vals = np.broadcast_to(np.asarray(f(x, y), dtype=float), np.shape(x))
        lap_cols.append(np.array(vals, dtype=float))
    return np.column_stack(lap_cols)


def mpmath_curvature_sums(basis, x, y, dps=50):
    """Curvature sums Q_s of a fit's orthonormal columns at ``dps`` digits.

    Each kept raw column x^i y^j gets Q = i(i-1) M[i-2, j] + j(j-1)
    M[i, j-2] from exact moment sums M[a, b] = sum x^a y^b over the
    points; the columns then follow Q_s = a[s, s] Q(h_s) + sum_{t<s}
    a[s, t] Q_t with the stored expansion a (plus a_lo when present).
    Returns a list of mpf.
    """
    import mpmath

    with mpmath.workdps(dps):
        pts = [(mpmath.mpf(float(u)), mpmath.mpf(float(v))) for u, v in zip(x, y)]
        moments = {}

        def moment(a, b):
            if (a, b) not in moments:
                moments[a, b] = mpmath.fsum(u ** a * v ** b for u, v in pts)
            return moments[a, b]

        a = _mp_values(basis.a, basis.a_lo)
        q = []
        for s, t in enumerate(basis.kept):
            _, m, j = degree_block(t)
            i = m - j
            raw = mpmath.mpf(0)
            if i >= 2:
                raw += i * (i - 1) * moment(i - 2, j)
            if j >= 2:
                raw += j * (j - 1) * moment(i, j - 2)
            q.append(a[s][s] * raw
                     + mpmath.fsum(a[s][r] * q[r] for r in range(s)))
        return q


def mpmath_monomial_coefficients(fit, dps=50):
    """Monomial coefficients c = g^T b of a fit at ``dps`` digits.

    Row g_s holds the monomial coefficients of P_s: g_s = a[s, s] e_s +
    sum_{t<s} a[s, t] g_t with the stored expansion a, and b is the
    stored coefficient vector (each plus its low part when present).
    Returns a list of mpf, one per kept index.
    """
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


def _mp_values(hi, lo):
    """Nested lists of mpf holding hi + lo exactly (lo may be None)."""
    import mpmath

    lo = np.zeros_like(hi) if lo is None else lo
    return (np.vectorize(mpmath.mpf, otypes=[object])(hi)
            + np.vectorize(mpmath.mpf, otypes=[object])(lo)).tolist()


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
