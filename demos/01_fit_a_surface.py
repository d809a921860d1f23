"""Fit a synthetic magnetization sheet end to end.

Walks the whole pipeline once: generate data, normalize onto the unit
cube, carve out training / cross-validation / test groups, run the
incremental orthogonal-polynomial fit, convert to monomial form, and
evaluate the exported model in original units.
"""

from orthofit import (FitConfig, SplitConfig, SynthSpec, eval_physical,
                      fit_surface, generate, group_error, normalize,
                      overfit_degree, save_model, split, to_monomial)

# --- 1. make a dataset we know the truth about ------------------------------
spec = SynthSpec(surface="magnet", nx=40, ny=30, noise_sigma=5e-4, seed=42)
points, truth = generate(spec)
print(f"generated {len(points)} samples of a smooth magnet-like sheet "
      f"with noise {spec.noise_sigma:g}")

# pretend the raw units are field in tesla and temperature in kelvin
raw = points * [5.0, 100.0, 1.0] + [0.0, 250.0, 0.0]
data = normalize(raw)
print(f"normalized: x in [{data.map.x_min}, {data.map.x_max}] T, "
      f"y in [{data.map.y_min}, {data.map.y_max}] K")

# --- 2. split along temperature with a sampling factor of 3 -----------------
parts = split(data, SplitConfig(sample_axis="y", sample_factor=3))
print(f"split sizes: train={len(parts.train_idx)} cv={len(parts.cv_idx)} "
      f"test={len(parts.test_idx)}")

# --- 3. fit -----------------------------------------------------------------
cfg = FitConfig(lambda_=0.0, target_error=1e-6, max_columns=210)
fit = fit_surface(parts, data, cfg)
print(f"fit stopped at S={fit.S} with training error {fit.sigma_tr:.3e}")

model = to_monomial(fit)
s_cv = group_error(model, data, parts.cv_idx)
s_te = group_error(model, data, parts.test_idx)
print(f"cross-validation error {s_cv:.3e}, test error {s_te:.3e}")
print(f"overfitting degrees: gamma={overfit_degree(fit.sigma_tr, s_cv):+.2f} "
      f"gamma'={overfit_degree(fit.sigma_tr, s_te):+.2f}")

# --- 4. evaluate in physical units -------------------------------------------
print("\n  H [T]   T [K]    M (model)   M (truth)")
for H, T in [(1.0, 275.0), (2.5, 300.0), (4.0, 325.0)]:
    Z = eval_physical(model, H, T)
    zt = truth(H / 5.0, (T - 250.0) / 100.0)
    print(f"  {H:5.2f}  {T:6.1f}   {Z:9.5f}   {zt:9.5f}")

save_model(model, "magnet.model.json")
print("\nwrote magnet.model.json; try:")
print("  orthofit eval --model magnet.model.json --grid 5x5 --with-slope")
