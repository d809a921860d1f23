"""Magnetocaloric-style post-processing of a fitted sheet.

Once M(H, T) is fitted, the temperature slope dM/dT follows from the
power rule on the monomial model, and its field integral (the
Maxwell-relation entropy change) from composite Simpson quadrature,
applied per x-power of the model so that it costs one evaluation per
point.  ``GridKernel`` evaluates both on a whole temperature x field grid
at once, in original units: it broadcasts the temperatures against the
fields, so a column of temperatures gives one row per temperature.
"""

import numpy as np

from orthofit import (FitConfig, GridKernel, SplitConfig, SynthSpec,
                      fit_surface, generate, normalize, split, to_monomial)

points, _ = generate(SynthSpec(surface="magnet", nx=50, ny=40,
                               noise_sigma=2e-4, seed=8))
raw = points * [5.0, 100.0, 1.0] + [0.0, 250.0, 0.0]
data = normalize(raw)
parts = split(data, SplitConfig(sample_axis="y", sample_factor=3))
fit = fit_surface(parts, data, FitConfig(target_error=1e-7, max_columns=210))
model = to_monomial(fit)
print(f"fitted S={fit.S}, training error {fit.sigma_tr:.2e}\n")

temps = np.linspace(255.0, 345.0, 10)
fields = np.array([1.0, 2.5, 5.0])

# one row per temperature, one column per field
_, slope, ds = GridKernel(model, fields, slope=True,
                          entropy=True)(temps[:, None])

print("  T [K]   " + "   ".join(f"dS(0->{H:g} T)" for H in fields)
      + f"     dM/dT @ {fields[1]:g} T")
for T, ds_row, slope_row in zip(temps, ds, slope):
    print(f"  {T:6.1f}  " + "  ".join(f"{v:+12.5e}" for v in ds_row)
          + f"   {slope_row[1]:+.5e}")

print("\nthe integral starts at the lowest measured field, and larger "
      "field windows accumulate a larger entropy change.")
