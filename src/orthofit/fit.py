"""Incremental surface fitting on the training group.

Columns of the graded monomial basis are orthonormalized one at a time;
each new orthonormal polynomial receives its coefficient from the
curvature-regularized closed form

    b_t = (proj_t - lam * R_t * Q_t) / (lam * Q_t**2 + 1)

where ``proj_t`` is the projection of the targets onto the polynomial,
``Q_t`` the sum of its Laplacian over the training points, ``R_t`` the
running sum of earlier ``b_r * Q_r``, and ``lam >= 0`` the regularization
strength.  Coefficients are greedy: once computed they are never
revisited, so at ``lam = 0`` the procedure is exactly sequential
least-squares on an orthonormal system.

The loop stops on any of: reaching a target training error, the
training error stalling across consecutive degree blocks, or a column
budget.  With ``fixed_columns`` set, exactly that many columns are taken
and the stopping rules are bypassed (useful for comparing regularization
strengths at constant model size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .basis import basis_step, block_start, degree_block
from .ddarith import DD, dd_add, dd_mul_d, dd_sum
from .dataset import DataSplit, NormalizationMap, NormalizedDataset
from .errors import DegenerateFitError, InsufficientDataError
from .ortho import OrthoBasis, OrthoBuilder, PrecisionMode


@dataclass(frozen=True)
class FitConfig:
    """Knobs for a single fit.

    lambda_ : finite regularization strength (0: no curvature term).
    max_columns : hard cap on accepted polynomial columns (>= 3).
    target_error : stop once the training error drops this low (>= 0).
    stop_rel_improvement / stop_patience_blocks : stall rule -- stop after
        this many consecutive degree blocks each improving the training
        error by less than the given relative amount.
    precision : double or extended (software double-double) arithmetic.
    odd_field_only : restrict the basis to odd powers of x before
        orthogonalization (columns are dropped, not zeroed).
    fixed_columns : take exactly this many columns, ignoring the
        stopping rules.
    """

    lambda_: float = 0.0
    max_columns: int = 210
    target_error: Optional[float] = None
    stop_rel_improvement: float = 0.05
    stop_patience_blocks: int = 2
    precision: PrecisionMode = PrecisionMode.DOUBLE
    odd_field_only: bool = False
    fixed_columns: Optional[int] = None

    def __post_init__(self):
        if not math.isfinite(self.lambda_):
            raise ValueError(f"lambda_ must be finite, got {self.lambda_!r}")
        if self.lambda_ < 0:
            raise ValueError("lambda_ must be >= 0")
        if self.target_error is not None and not self.target_error >= 0:
            raise ValueError(
                f"target_error must be >= 0, got {self.target_error!r}")
        if self.max_columns < 3:
            raise ValueError("max_columns must be >= 3")
        if not 0.0 < self.stop_rel_improvement < 1.0:
            raise ValueError("stop_rel_improvement must lie in (0, 1)")
        if self.stop_patience_blocks < 1:
            raise ValueError("stop_patience_blocks must be >= 1")
        if self.fixed_columns is not None and self.fixed_columns < 1:
            raise ValueError("fixed_columns must be >= 1 when set")


def regularized_coefficient(proj, q, r_acc, lam: float):
    """Closed-form coefficient of one orthonormal polynomial.

    Arguments may be floats or DD scalars; the result follows the inputs.
    The denominator is at least 1, so the expression never degenerates.
    """
    return (proj - lam * r_acc * q) / (lam * q * q + 1.0)


class RegState:
    """Accumulator for the regularization recurrence.

    Tracks the running R (= sum of b_r * Q_r, r < t) and the
    coefficients; ``absorb`` advances the recurrence by one column.
    """

    def __init__(self, lam: float):
        self.lam = lam
        self.R = 0.0
        self.b: list = []

    def absorb(self, proj, q):
        b = regularized_coefficient(proj, q, self.R, self.lam)
        self.R = self.R + b * q
        self.b.append(b)
        return b


@dataclass(frozen=True)
class FitStep:
    """History record taken after accepting one column."""

    flat_index: int
    ortho_index: int
    b: float
    q: float
    r_next: float
    sigma_tr: float


@dataclass(frozen=True)
class FitResult:
    """Everything needed to evaluate or convert a fitted surface."""

    basis: OrthoBasis
    b: np.ndarray
    S: int
    lambda_: float
    sigma_tr: float
    history: tuple
    nmap: NormalizationMap
    b_lo: Optional[np.ndarray] = None
    rejected: tuple = field(default=())


class _BlockGen:
    """Yields basis columns one degree block at a time, each with the sum
    Q(h) of its Laplacian over the points.

    For h = x^i y^j, Q(h) = i(i-1) M[i-2, j] + j(j-1) M[i, j-2] with the
    moment sums M[a, b] = sum x^a y^b, which are the column sums of degree
    block m-2.  Keeps only the previous block and the sums of the last two,
    so memory stays O(n * degree) regardless of how far the fit runs.
    """

    def __init__(self, x, y, precision: PrecisionMode):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.ext = precision is PrecisionMode.EXTENDED
        self.m = 0
        self._block = None
        self._sums = []   # dd column sums of the last two blocks

    def next_block(self):
        """Return [(flat_t, col, q)] for the next degree block, with q the
        DD curvature sum Q(h_t)."""
        m, n = self.m, self.x.size
        # column-major, so each column handed out is contiguous
        block = np.empty((m + 1, n)).T
        if self.ext:
            block = (block, np.zeros((m + 1, n)).T)
        if m == 0:
            (block[0] if self.ext else block)[:] = 1.0
        else:
            basis_step(self._block, self.x, self.y, block)
        qh, ql = np.zeros(m + 1), np.zeros(m + 1)
        if m >= 2:
            sh, sl = self._sums[0]
            j = np.arange(m - 1)
            qh[:m - 1], ql[:m - 1] = dd_mul_d(sh, sl, (m - j) * (m - j - 1.0))
            th, tl = dd_mul_d(sh, sl, (j + 2) * (j + 1.0))
            qh[2:], ql[2:] = dd_add(qh[2:], ql[2:], th, tl)
        self._sums.append(dd_sum(*block) if self.ext else dd_sum(block, 0.0))
        del self._sums[:-2]
        self._block = block
        self.m += 1
        cols = zip(block[0].T, block[1].T) if self.ext else block.T
        return [(block_start(m) + j, col, DD(qh[j], ql[j]))
                for j, col in enumerate(cols)]


def fit_surface(split: DataSplit, data: NormalizedDataset,
                cfg: FitConfig) -> FitResult:
    """Run the incremental regularized fit on the training group.

    Returns a FitResult whose ``S`` is the largest accepted column index;
    ``history`` records (flat index, column index, coefficient, Laplacian
    sum, running R, training error) per accepted column.  A training
    error that is not finite (lambda too large) raises DegenerateFitError.
    """
    train = np.asarray(split.train_idx)
    ntr = train.size
    if ntr < 3:
        raise InsufficientDataError("need at least 3 training points")
    xt, yt, zt = data.x[train], data.y[train], data.z[train]

    cap = min(cfg.max_columns, ntr - 1)
    if cfg.fixed_columns is not None:
        if cfg.fixed_columns > cap:
            raise InsufficientDataError(
                f"fixed_columns={cfg.fixed_columns} exceeds the usable cap {cap}")
        cap = cfg.fixed_columns
    fixed = cfg.fixed_columns is not None

    builder = OrthoBuilder(ntr, scheme="igs", precision=cfg.precision,
                           capacity=min(cap, 256))
    reg = RegState(cfg.lambda_)
    z_vec = builder.make_vector(zt)
    residual = builder.make_vector(zt)
    sigma = builder.vec_norm2(residual) / ntr
    sigma_block_start = sigma

    gen = _BlockGen(xt, yt, cfg.precision)
    history: list[FitStep] = []
    rejected: list[int] = []
    stall = 0
    scanned = 0
    scan_budget = 10 * cap + 100
    done = False

    while not done and scanned < scan_budget:
        block = gen.next_block()
        accepted_in_block = 0
        for t, col, q_raw in block:
            scanned += 1
            if cfg.odd_field_only:
                _, m_t, j_t = degree_block(t)
                if (m_t - j_t) % 2 == 0:
                    continue
            if not builder.add_column(col, tag=t):
                rejected.append(t)
                continue
            accepted_in_block += 1
            s = builder.n_columns - 1
            q = builder.curvature_sum(q_raw)
            if cfg.precision is PrecisionMode.DOUBLE:
                q = float(q)
            proj = builder.column_dot(s, z_vec)
            b = reg.absorb(proj, q)
            residual = builder.subtract_scaled_column(residual, s, b)
            sigma = builder.vec_norm2(residual) / ntr
            if not math.isfinite(sigma):
                raise DegenerateFitError(
                    f"training error is not finite after column {t} "
                    f"at lambda={cfg.lambda_!r}")
            history.append(FitStep(t, s, float(b), float(q), float(reg.R), sigma))
            if builder.n_columns >= cap:
                done = True
                break
            if not fixed and cfg.target_error is not None and sigma <= cfg.target_error:
                done = True
                break
        if done:
            break
        if not fixed and accepted_in_block:
            if sigma_block_start > 0:
                improvement = (sigma_block_start - sigma) / sigma_block_start
            else:
                improvement = 0.0
            stall = stall + 1 if improvement < cfg.stop_rel_improvement else 0
            sigma_block_start = sigma
            if stall >= cfg.stop_patience_blocks:
                done = True

    if builder.n_columns == 0:
        raise DegenerateFitError("no basis column survived orthogonalization")
    if fixed and builder.n_columns < cap:
        raise DegenerateFitError(
            f"only {builder.n_columns} of the requested {cap} columns were usable")

    basis = builder.to_basis()
    if cfg.precision is PrecisionMode.EXTENDED:
        bh = np.array([c.hi for c in reg.b])
        bl = np.array([c.lo for c in reg.b])
    else:
        bh = np.array(reg.b)
        bl = None
    return FitResult(basis=basis, b=bh, S=builder.n_columns - 1,
                     lambda_=cfg.lambda_, sigma_tr=sigma,
                     history=tuple(history), nmap=data.map, b_lo=bl,
                     rejected=tuple(rejected))
