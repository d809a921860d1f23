"""Magnetocaloric-style post-processing of a fitted sheet.

Once M(H, T) is fitted, the temperature slope dM/dT follows from the
basis derivative columns, and its field integral (the Maxwell-relation
entropy change) from composite Simpson quadrature, applied per x-power
of the model so that a whole array of fields costs one evaluation each
-- all evaluated on the portable monomial model, in original units.
"""

import numpy as np

from orthofit import (FitConfig, SplitConfig, SynthSpec, dZ_dY,
                      entropy_change, fit_surface, generate, normalize,
                      split, to_monomial)

points, _ = generate(SynthSpec(surface="magnet", nx=50, ny=40,
                               noise_sigma=2e-4, seed=8))
raw = [(x * 5.0, 250.0 + 100.0 * y, z) for x, y, z in points]
data = normalize(raw)
parts = split(data, SplitConfig(sample_axis="y", sample_factor=3))
fit = fit_surface(parts, data, FitConfig(target_error=1e-7, max_columns=210))
model = to_monomial(fit)
print(f"fitted S={fit.S}, training error {fit.sigma_tr:.2e}\n")

temps = np.linspace(255.0, 345.0, 10)
fields = np.array([1.0, 2.5, 5.0])

print("  T [K]   " + "   ".join(f"dS(0->{H:g} T)" for H in fields)
      + "     dM/dT @ 2.5 T")
for T in temps:
    ds = entropy_change(model, T, fields, n_steps=200)
    slope = dZ_dY(model, 2.5, T)
    print(f"  {T:6.1f}  " + "  ".join(f"{v:+12.5e}" for v in ds)
          + f"   {slope:+.5e}")

print("\nthe integral starts at the lowest measured field, and larger "
      "field windows accumulate a larger entropy change.")
