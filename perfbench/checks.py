"""Output checks for benchmark ops.

Every op's output is checked after the op, outside its timed region.
The checks hold for any seed: they test the exit code, the requested
model size, finiteness, the orthogonality defect against a ceiling per
precision, the sweep's overfitting degrees and selection recomputed from
its printed records, and sampled ``eval`` rows against an evaluation of
the model file that does not use ``orthofit.model``.  Each check returns
a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from math import fsum, isqrt

# The defect of a fixed-size basis depends only on the (x, y) grid, which
# is the same for every seed; the ceilings sit well above the values the
# benchmark's workloads reach (about 5e-15 double, 8e-16 extended).
DEFECT_CEILING = {"double": 1e-12, "extended": 1e-14}
# Relative to the sum of the magnitudes of the terms being added, which
# is the scale of the rounding error of any evaluation of the monomial
# form (it exceeds |Z| by up to 1e7 on the benchmark's models); the
# program and the reference agree to about 1e-16 of that scale.
EVAL_RTOL = 1e-13
GOLDEN_RTOL = 1e-9
SAMPLED_ROWS = 24
SAMPLED_ENTROPY_ROWS = 3
ENTROPY_STEPS = 200


def _powers(t: int) -> tuple[int, int]:
    """(x power, y power) of flat basis index t in graded order."""
    m = (isqrt(8 * t + 1) - 1) // 2
    j = t - m * (m + 1) // 2
    return m - j, j


class ReferenceSurface:
    """Model-file evaluation by ``math.fsum`` over ``c_t x^i y^j``."""

    def __init__(self, doc: dict):
        nm = doc["normalization"]
        self.x_min, self.x_max = float(nm["x_min"]), float(nm["x_max"])
        self.y_min, self.y_max = float(nm["y_min"]), float(nm["y_max"])
        self.z_min, self.z_max = float(nm["z_min"]), float(nm["z_max"])
        self.terms = [(float(c), *_powers(int(t)))
                      for t, c in zip(doc["kept_indices"], doc["c"])]

    def _unit(self, X, Y):
        return ((X - self.x_min) / (self.x_max - self.x_min),
                (Y - self.y_min) / (self.y_max - self.y_min))

    def z(self, X, Y):
        """(Z, magnitude) in raw units."""
        x, y = self._unit(X, Y)
        parts = [c * x ** i * y ** j for c, i, j in self.terms]
        zr = self.z_max - self.z_min
        return self.z_min + zr * fsum(parts), abs(zr) * fsum(map(abs, parts))

    def dzdy(self, X, Y):
        """(dZ/dY, magnitude) in raw units."""
        x, y = self._unit(X, Y)
        parts = [c * j * x ** i * y ** (j - 1) for c, i, j in self.terms if j]
        scale = (self.z_max - self.z_min) / (self.y_max - self.y_min)
        return scale * fsum(parts), abs(scale) * fsum(map(abs, parts))

    def entropy(self, Y, X_hi, steps=ENTROPY_STEPS):
        """(integral of dZ/dY over X from x_min to X_hi, magnitude) by
        composite Simpson on an even number of panels."""
        if X_hi == self.x_min:
            return 0.0, 0.0
        h = (X_hi - self.x_min) / steps
        vals, mags = [], []
        for k in range(steps + 1):
            g, mag = self.dzdy(self.x_min + k * h, Y)
            w = 1 if k in (0, steps) else (4 if k % 2 else 2)
            vals.append(w * g)
            mags.append(w * mag)
        return fsum(vals) * h / 3.0, fsum(mags) * abs(h) / 3.0


def _close(got: float, ref: float, mag: float, rtol: float = EVAL_RTOL) -> bool:
    return math.isfinite(got) and abs(got - ref) <= rtol * (abs(ref) + mag)


def _finite(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def _read_model(path) -> tuple[dict, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    c, kept = doc.get("c", []), doc.get("kept_indices", [])
    if len(c) != len(kept) or len(c) != doc.get("S", -2) + 1:
        problems.append(f"model file has {len(c)} coefficients, "
                        f"{len(kept)} indices, S={doc.get('S')}")
    if not _finite(*c):
        problems.append("model file has a non-finite coefficient")
    return doc, problems


def check_fit(code, stdout: str, model_path, fixed_s: int, precision: str,
              overfit_degree) -> tuple[list[str], dict]:
    """Check one ``fit --report json`` op; returns (problems, report)."""
    if code != 0:
        return [f"exit code {code}"], {}
    report = json.loads(stdout)
    problems = []
    if report["S"] != fixed_s:
        problems.append(f"S={report['S']} but --fixed-S {fixed_s}")
    sigmas = (report["sigma_tr"], report["sigma_cv"], report["sigma_test"])
    if not _finite(*sigmas):
        problems.append(f"non-finite sigma in {sigmas}")
    elif (report["gamma"] != overfit_degree(sigmas[0], sigmas[1])
          or report["gamma_prime"] != overfit_degree(sigmas[0], sigmas[2])):
        problems.append("gamma/gamma_prime do not follow from the sigmas")
    ceiling = DEFECT_CEILING[precision]
    if not (_finite(report["defect"]) and report["defect"] < ceiling):
        problems.append(f"defect {report['defect']} not below {ceiling}")
    _, model_problems = _read_model(model_path)
    return problems + model_problems, report


def check_sweep(code, stdout: str, x_grid: list[float], fixed_s: int,
                select) -> tuple[list[str], dict]:
    """Check one text-report ``sweep`` op.

    ``select`` is the ``orthofit.select`` module: gamma and gamma' are
    recomputed with its ``overfit_degree`` from the printed sigmas, and
    its ``select_model`` is reapplied to the printed records.
    """
    if code != 0:
        return [f"exit code {code}"], {}
    lines = stdout.splitlines()
    chosen_line = [ln for ln in lines if ln.startswith("# chosen:")]
    rows = list(csv.DictReader(io.StringIO(
        "\n".join(ln for ln in lines if not ln.startswith("#")))))
    problems = []
    xs = [float(r["x"]) for r in rows]
    if xs != [float(x) for x in x_grid]:
        problems.append(f"printed x values {xs} differ from the grid")
    records = []
    for r in rows:
        s_tr, s_cv, s_te = (float(r[k]) for k in ("sigma_tr", "sigma_cv",
                                                   "sigma_test"))
        if int(r["S"]) != fixed_s:
            problems.append(f"x={r['x']}: S={r['S']} but --fixed-S {fixed_s}")
        if not _finite(s_tr, s_cv, s_te):
            problems.append(f"x={r['x']}: non-finite sigma")
            continue
        gamma = select.overfit_degree(s_tr, s_cv)
        gamma_p = select.overfit_degree(s_tr, s_te)
        if float(r["gamma"]) != gamma or float(r["gamma_prime"]) != gamma_p:
            problems.append(f"x={r['x']}: gamma/gamma_prime do not follow "
                            "from the printed sigmas")
        records.append(select.ValidationRecord(
            x_log=float(r["x"]), lambda_=float(r["lambda"]), S=int(r["S"]),
            sigma_tr=s_tr, sigma_cv=s_cv, sigma_test=s_te, gamma=gamma,
            gamma_prime=gamma_p))
    chosen = {}
    if problems:
        return problems, chosen
    picked = select.select_model(select.SweepReport(records=tuple(records)))
    rec = records[picked.chosen]
    chosen = {"x": rec.x_log, "S": rec.S}
    expect = f"# chosen: x={rec.x_log:g} S={rec.S} "
    if len(chosen_line) != 1 or not chosen_line[0].startswith(expect):
        problems.append(f"chosen line {chosen_line} but the policy picks "
                        f"x={rec.x_log:g} S={rec.S}")
    return problems, chosen


def check_eval(code, stdout: str, model_path, nx: int, ny: int,
               rng) -> list[str]:
    """Check one ``eval --grid NXxNY --with-slope --with-entropy`` op.

    Every row must be finite and on the grid; ``rng`` picks the rows
    compared against ``ReferenceSurface``.
    """
    if code != 0:
        return [f"exit code {code}"]
    doc, problems = _read_model(model_path)
    ref = ReferenceSurface(doc)
    lines = stdout.splitlines()
    if lines[0] != "X,Y,Z,dZdY,dS":
        return problems + [f"header {lines[0]!r}"]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if len(rows) != nx * ny:
        return problems + [f"{len(rows)} rows for a {nx}x{ny} grid"]
    if not all(_finite(*r) for r in rows):
        problems.append("non-finite value in eval output")
    for k, (X, Y, *_rest) in enumerate(rows):
        gx = ref.x_min + (k % nx) * (ref.x_max - ref.x_min) / (nx - 1)
        gy = ref.y_min + (k // nx) * (ref.y_max - ref.y_min) / (ny - 1)
        if not (_close(X, gx, 0.0, 1e-12) and _close(Y, gy, 0.0, 1e-12)):
            problems.append(f"row {k}: ({X}, {Y}) is not grid point ({gx}, {gy})")
            break
    picks = rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows)))
    for n_pick, k in enumerate(picks):
        X, Y, Z, dzdy, ds = rows[k]
        compare = [("Z", Z, ref.z(X, Y)), ("dZdY", dzdy, ref.dzdy(X, Y))]
        if n_pick < SAMPLED_ENTROPY_ROWS:
            compare.append(("dS", ds, ref.entropy(Y, X)))
        for label, got, (want, mag) in compare:
            if not _close(got, want, mag):
                problems.append(f"row {k}: {label}={got!r}, reference {want!r}")
    return problems


def check_golden(golden: dict, observed: dict) -> list[str]:
    """Compare a workload's observed values with its stored golden record:
    floats within GOLDEN_RTOL, everything else exactly."""
    problems = []
    for key, want in golden.items():
        got = observed.get(key)
        if isinstance(want, float):
            ok = _finite(got) and abs(got - want) <= GOLDEN_RTOL * abs(want)
        else:
            ok = got == want
        if not ok:
            problems.append(f"golden {key}: got {got!r}, stored {want!r}")
    return problems
