"""Why the Chebyshev columns, the iterated scheme and the double-double
conversion exist.

Three numerical effects drive the design.  First, monomial columns on
the unit square are badly conditioned, and single-pass Gram-Schmidt
(classical or modified) loses orthogonality as they pile up; the fit's
shifted Chebyshev columns T_i(2x-1) T_j(2y-1) span the same spaces
and lose far less, and one extra projection pass restores either to
rounding level.  Second, the model file holds monomial coefficients,
which reach 1e6 and more at high order: converting to them in plain
doubles cancels, while the double-double conversion with its pushed-down
roundings keeps the two evaluation paths glued.
"""

from dataclasses import replace

import numpy as np

from orthofit import (DataSplit, FitConfig, SynthSpec, basis_values,
                      eval_monomial, eval_ortho, fit_surface, generate,
                      normalize, to_monomial)
from orthofit.ddarith import DD
from orthofit.basis import _BlockGen, raw_to_monomial
from orthofit.ortho import (DOUBLE_RANK_REL, RANK_TOL, OrthoBasis,
                            OrthoBuilder, PrecisionMode, orthogonality_defect)
from orthofit.synth import SplitMix64


def columns(x, y, raw):
    """The fit's raw columns, or with ``raw`` False the monomials."""
    if not raw:
        yield from enumerate(basis_values(x, y, 300).T)
        return
    gen = _BlockGen(x, y, PrecisionMode.DOUBLE)
    while True:
        for t, col, _ in gen.next_block():
            yield t, col


def single_pass(x, y, n_cols, modified, raw):
    """One classical (or modified) Gram-Schmidt pass per column in double,
    with OrthoBuilder's rank rule: the baselines the iterated scheme beats."""
    P = np.empty((x.size, n_cols), order="F")
    k = 0
    for _, col in columns(x, y, raw):
        v = col.copy()
        col_norm = float(v @ v) ** 0.5
        if modified:
            for t in range(k):
                v -= float(P[:, t] @ v) * P[:, t]
        elif k:
            v -= P[:, :k] @ (P[:, :k].T @ v)
        p = DD(float(v @ v)).sqrt()
        if float(p) >= RANK_TOL and float(p) > DOUBLE_RANK_REL * col_norm:
            P[:, k] = v * float(1.0 / p)
            k += 1
            if k == n_cols:
                return OrthoBasis(P, np.eye(k), tuple(range(k)),
                                  PrecisionMode.DOUBLE)


def iterated(x, y, n_cols, raw):
    builder = OrthoBuilder(x.size, capacity=n_cols)
    for t, col in columns(x, y, raw):
        if builder.add_column(col, tag=t) and builder.n_columns == n_cols:
            return builder.to_basis()


def double_conversion(fit):
    """The change of basis to monomials run in plain doubles: the baseline
    the double-double conversion of ``to_monomial`` beats."""
    hi, _ = raw_to_monomial(fit.basis.kept, fit.odd_x)
    return replace(to_monomial(fit), c=fit.c @ hi)


# --- orthogonality loss across schemes ---------------------------------------
rng = SplitMix64(2024)
n = 1500
x = rng.uniforms(n)
y = rng.uniforms(n)

print("orthogonality defect (largest off-diagonal inner product)")
print("  columns  basis        classical       modified        iterated")
for n_cols in (36, 91, 153):
    for raw, name in ((False, "monomial "), (True, "Chebyshev")):
        row = [orthogonality_defect(basis) for basis in (
            single_pass(x, y, n_cols, False, raw),
            single_pass(x, y, n_cols, True, raw), iterated(x, y, n_cols, raw))]
        print(f"  {n_cols:7d}  {name}    {row[0]:.3e}    {row[1]:.3e}    "
              f"{row[2]:.3e}")

# --- conversion drift ---------------------------------------------------------
points, _ = generate(SynthSpec(surface="magnet", nx=40, ny=30,
                               noise_sigma=1e-4, seed=6))
data = normalize(points)
idx = np.arange(data.n)
parts = DataSplit(train_idx=idx, cv_idx=idx[:0], test_idx=idx[:0])

print("\nmonomial-conversion drift vs model size (probed at 50 points)")
print("  columns    double conversion    double-double conversion")
probe_rng = SplitMix64(31)
px = probe_rng.uniforms(50)
py = probe_rng.uniforms(50)
for n_cols in (28, 66, 105):
    fit = fit_surface(parts, data,
                      FitConfig(fixed_columns=n_cols, max_columns=n_cols,
                                precision=PrecisionMode.EXTENDED))
    ref = eval_ortho(fit, px, py)
    drift_dd = np.abs(eval_monomial(to_monomial(fit), px, py) - ref).max()
    drift_dbl = np.abs(eval_monomial(double_conversion(fit), px, py)
                       - ref).max()
    print(f"  {n_cols:7d}    {drift_dbl:17.3e}    {drift_dd:24.3e}")

print("\nthe double-precision conversion error grows with the model size; "
      "the double-double one stays near one rounding of the surface.")
