import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property test draws the same examples on every run and keeps no
# example database; each sets only its own max_examples.
settings.register_profile("orthofit", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("orthofit")

from orthofit import DataSplit, regularized_coefficient
from orthofit.basis import _BlockGen, block_start, degree_block
from orthofit.ddarith import DD
from orthofit.ortho import OrthoBasis, PrecisionMode, orthogonality_defect
from orthofit.synth import SplitMix64
from oracles import single_pass_gs


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for
    tests that run the package in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def overflow_above(lam_min):
    """``fit.regularized_coefficient``, but DD(1e200) for every column at
    strengths above lam_min: an extended fit's training error then
    overflows from its first column on."""
    def coefficient(proj, q, r_acc, lam):
        if lam > lam_min:
            return DD(1e200)
        return regularized_coefficient(proj, q, r_acc, lam)
    return coefficient


def all_train_split(n):
    """Every point in the training group; cv/test empty."""
    return DataSplit(train_idx=np.arange(n), cv_idx=np.array([], dtype=int),
                     test_idx=np.array([], dtype=int))


def uniform_xy(n, seed):
    rng = SplitMix64(seed)
    x = rng.uniforms(n)
    y = rng.uniforms(n)
    return x, y


def near_line_points():
    """300 points off the line y = x by about 1e-14: the rank rule rejects
    the raw column of y (flat index 2), so the fit withholds every column
    above it, x y and y^2 (indices 4 and 5) first, and keeps only the
    powers of x."""
    rng = np.random.default_rng(0)
    x = rng.random(300)
    return np.column_stack([x, x + 1e-14 * rng.standard_normal(300),
                            np.cos(3 * x)])


def basis_columns(x, y, precision=PrecisionMode.DOUBLE):
    """The raw basis columns over the points (x, y) in flat order, as the
    fit's block generator hands them out: (flat index, column) pairs."""
    gen = _BlockGen(x, y, precision)
    while True:
        for t, col, _ in gen.next_block():
            yield t, col


def single_pass_defect(x, y, n_cols, modified):
    """Orthogonality defect of the first n_cols basis columns over the
    points (x, y) after one classical (or modified) Gram-Schmidt pass."""
    P = single_pass_gs((col for _, col in basis_columns(x, y)), x.size,
                       n_cols, modified)
    K = P.shape[1]
    return orthogonality_defect(OrthoBasis(P, np.eye(K), tuple(range(K)),
                                           PrecisionMode.DOUBLE))


def generator_sums(x, y, L, precision=PrecisionMode.DOUBLE):
    """Q(h_t) = sum over the points of the Laplacian of raw column t, for
    t = 0..L, as the fit's block generator computes them."""
    gen = _BlockGen(np.atleast_1d(x), np.atleast_1d(y), precision)
    q = []
    while len(q) <= L:
        q += [float(qt) for _, _, qt in gen.next_block()]
    return np.array(q[:L + 1])


def _monomial_weights(n):
    """beta[a][k] with x^a = sum_k beta[a][k] T_k(2x - 1): 2^(1-2a)
    binom(2a, a-k), the k = 0 term halved.  Dyadic, so exact doubles
    through a = 25."""
    return [[math.comb(2 * a, a - k) / (2.0 if k == 0 else 1.0)
             * 2.0 ** (1 - 2 * a) for k in range(a + 1)] for a in range(n + 1)]


def raw_curvature_sums(x, y, L, precision=PrecisionMode.DOUBLE):
    """Q(x^i y^j) = sum over the points of the Laplacian of monomial t,
    for t = 0..L, from the fit's block generator: its raw sums
    (``generator_sums``) weighted by x^a y^b = sum beta_ak beta_bl
    T_k(2x - 1) T_l(2y - 1), whose weights are non-negative."""
    q = generator_sums(x, y, L, precision)
    top = degree_block(L).m
    beta = _monomial_weights(top)
    out = np.empty(L + 1)
    for t in range(L + 1):
        _, m, j = degree_block(t)
        out[t] = math.fsum(beta[m - j][k] * beta[j][l]
                           * q[block_start(k + l) + l]
                           for k in range(m - j + 1) for l in range(j + 1))
    return out


@pytest.fixture
def plane_points():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
           (0.5, 0.25), (0.25, 0.75), (0.8, 0.4), (0.3, 0.9)]
    return [(x, y, 0.5 + 0.25 * x - 0.1 * y) for x, y in pts]
