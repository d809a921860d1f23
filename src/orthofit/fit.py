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

Only b_t and the stopping point depend on lam, so a fit runs in two
steps: ``FitBasis`` orthonormalizes the columns and computes each
proj_t and Q_t, degree block by degree block as needed, and ``solve``
runs the recurrence and the stopping rules at one strength.  A sweep
builds once and solves per strength.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import basis_step, block_start, degree_block
from .ddarith import DD, dd_add, dd_dot, dd_mul, dd_mul_d, dd_sum
from .dataset import DataSplit, NormalizationMap, NormalizedDataset
from .errors import DegenerateFitError, InsufficientDataError
from .ortho import OrthoBasis, OrthoBuilder, PrecisionMode


@dataclass(frozen=True)
class FitConfig:
    """Knobs for a single fit.

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

    max_columns: int = 210
    target_error: Optional[float] = None
    stop_rel_improvement: float = 0.05
    stop_patience_blocks: int = 2
    precision: PrecisionMode = PrecisionMode.DOUBLE
    odd_field_only: bool = False
    fixed_columns: Optional[int] = None

    def __post_init__(self):
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
    The denominator is at least 1 (``solve`` admits only lam >= 0), so the
    expression never degenerates.
    """
    return (proj - lam * r_acc * q) / (lam * q * q + 1.0)


@dataclass(frozen=True)
class FitResult:
    """Everything needed to evaluate or convert a fitted surface.

    ``b_lo`` holds the dd low parts of ``b`` (zeros in double mode); each
    column's proj_t and Q_t stay on the ``FitBasis`` it was solved on.
    The fits solved on one ``FitBasis`` share the views of its builder's
    basis (``OrthoBuilder.to_basis``).
    """

    basis: OrthoBasis
    b: np.ndarray
    S: int
    lambda_: float
    sigma_tr: float
    nmap: NormalizationMap
    b_lo: np.ndarray
    rejected: tuple
    stop_reason: str


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


class FitBasis:
    """The half of a fit that does not depend on lambda, shared by every
    strength of a sweep.

    Holds the orthonormalization state (the builder keeps each column's
    flat tag) and, for each accepted column s, its projection ``proj[s]``
    onto the targets and its curvature sum ``q[s]``.  Degree blocks are
    scanned on demand (``block``), so the basis only grows as far as the
    longest solve needs.  It keeps the accepted-column count after each
    block and the rejected flat tags: the scan visits flat indices in
    order, so through block k - 1 it scanned ``block_start(k)`` columns,
    and before column s it rejected the tags below ``kept[s]``.

    The curvature sums come from the builder's expansion rows: the
    recurrence P_s = a[s, s] h_s + sum_{t < s} a[s, t] P_t, applied to
    sums over the training points, gives Q_s = a[s, s] Q(h_s) + sum_{t <
    s} a[s, t] Q_t from the raw column's Q(h_s), in double-double at
    either precision (the step of ``model._expand``), so no Laplacian
    columns are formed.
    """

    def __init__(self, split: DataSplit, data: NormalizedDataset,
                 cfg: FitConfig):
        """Raises InsufficientDataError for fewer than 3 training points
        or a ``fixed_columns`` beyond the usable cap."""
        train = np.asarray(split.train_idx)
        ntr = train.size
        if ntr < 3:
            raise InsufficientDataError("need at least 3 training points")
        cap = min(cfg.max_columns, ntr - 1)
        if cfg.fixed_columns is not None:
            if cfg.fixed_columns > cap:
                raise InsufficientDataError(
                    f"fixed_columns={cfg.fixed_columns} exceeds the usable cap {cap}")
            cap = cfg.fixed_columns
        self.cfg = cfg
        self.cap = cap
        self.scan_budget = 10 * cap + 100
        self.ntr = ntr
        self.nmap = data.map
        self.z = data.z[train]
        self.builder = OrthoBuilder(ntr, precision=cfg.precision,
                                    capacity=min(cap, 256))
        self._z_vec = self.builder.make_vector(self.z)
        self.sigma0 = self.builder.vec_norm2(self._z_vec) / ntr
        self._gen = _BlockGen(data.x[train], data.y[train], cfg.precision)
        self.proj: list = []
        self.q: list = []
        self._qh, self._ql = np.zeros(cap), np.zeros(cap)  # Q_s in dd
        self.rejected: list[int] = []  # flat tags, ascending
        self.blocks: list[int] = []    # accepted columns after each block

    def block(self, k: int) -> int:
        """Accepted columns after degree block k, scanning blocks up to k
        if needed.  A block stops early once the column cap is reached,
        and later blocks scan nothing."""
        while len(self.blocks) <= k:
            if self.builder.n_columns < self.cap:
                self._scan_block()
            self.blocks.append(self.builder.n_columns)
        return self.blocks[k]

    def _scan_block(self):
        bld, cfg = self.builder, self.cfg
        ext = cfg.precision is PrecisionMode.EXTENDED
        first = bld.n_columns
        for t, col, q_raw in self._gen.next_block():
            if cfg.odd_field_only:
                _, m_t, j_t = degree_block(t)
                if (m_t - j_t) % 2 == 0:
                    continue
            if not bld.add_column(col, tag=t):
                self.rejected.append(t)
                continue
            s = bld.n_columns - 1
            a, a_lo = bld.expansion[:, s, :s + 1]
            qh, ql = dd_mul(q_raw.hi, q_raw.lo, a[s], a_lo[s])
            if s:
                qh, ql = dd_add(qh, ql, *dd_dot(self._qh[:s], self._ql[:s],
                                                a[:s], a_lo[:s]))
            self._qh[s], self._ql[s] = qh, ql
            self.q.append(DD(qh, ql) if ext else float(qh + ql))
            if bld.n_columns >= self.cap:
                break
        if bld.n_columns > first:
            proj = bld.column_dot(first, bld.n_columns, self._z_vec)
            self.proj.extend(map(DD, *proj) if ext else proj)


def solve(basis: FitBasis, lam: float) -> FitResult:
    """Run the coefficient recurrence at strength ``lam`` over the shared
    basis, applying the stopping rules of the config it was built with.
    Raises ValueError unless ``lam`` is finite and >= 0.

    The training error is computed only where a rule reads it: after
    every column while ``target_error`` is set, at degree-block ends for
    the stall rule, and at the last column.  A training error that is not
    finite (lambda too large) raises DegenerateFitError naming the first
    column where it became so.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")
    # A residual entry that is not finite never turns finite again, and an
    # overflowing squared norm cannot shrink back (b_t never reads the
    # residual and the P_t are orthonormal): the first walk only detects
    # it, a second one with sigma after every column names the column.
    return _walk(basis, lam, False) or _walk(basis, lam, True)


def _walk(basis: FitBasis, lam: float, every_column: bool):
    """The loop of ``solve``.  Returns None when it finds the training
    error not finite without having computed it after every column."""
    bld, ntr, cap, cfg = basis.builder, basis.ntr, basis.cap, basis.cfg
    fixed = cfg.fixed_columns is not None
    watch = not fixed and cfg.target_error is not None
    each = watch or every_column
    R, bs = 0.0, []
    residual = bld.make_vector(basis.z)
    sigma = sigma_block_start = basis.sigma0
    stall = 0
    k = s = 0          # next degree block, next column
    reason = None
    while reason is None:
        # blocks before k were scanned whole: a capped block ends the walk
        if k and block_start(k) >= basis.scan_budget:
            reason = "scan_budget"
            break
        end = basis.block(k)
        first = s
        for s in range(first, end):
            q = basis.q[s]
            b = regularized_coefficient(basis.proj[s], q, R, lam)
            R = R + b * q
            bs.append(b)
            residual = bld.subtract_scaled_column(residual, s, b)
            sigma = None
            if each or s + 1 >= cap:
                sigma = bld.vec_norm2(residual) / ntr
                if not math.isfinite(sigma):
                    if not each:
                        return None
                    raise DegenerateFitError(
                        f"training error is not finite after column "
                        f"{bld.kept[s]} at lambda={lam!r}")
            if s + 1 >= cap:
                reason = "columns"
                break
            if watch and sigma <= cfg.target_error:
                reason = "target_error"
                break
        else:
            s = end
            if not fixed and end > first:
                if sigma is None:
                    sigma = bld.vec_norm2(residual) / ntr
                    if not math.isfinite(sigma):
                        return None
                if sigma_block_start > 0:
                    improvement = (sigma_block_start - sigma) / sigma_block_start
                else:
                    improvement = 0.0
                stall = stall + 1 if improvement < cfg.stop_rel_improvement else 0
                sigma_block_start = sigma
                if stall >= cfg.stop_patience_blocks:
                    reason = "stall"
            k += 1
    if sigma is None:  # a fixed size cut short by the scan budget
        sigma = bld.vec_norm2(residual) / ntr
        if not math.isfinite(sigma):
            return None

    K = len(bs)
    if K == 0:
        raise DegenerateFitError("no basis column survived orthogonalization")
    if fixed and K < cap:
        raise DegenerateFitError(
            f"only {K} of the requested {cap} columns were usable")
    stop = (bld.kept[K - 1] if reason in ("columns", "target_error")
            else block_start(k))
    rejected = basis.rejected[:bisect_left(basis.rejected, stop)]
    bh, bl = map(np.array, zip(*map(DD._coerce, bs)))
    return FitResult(basis=bld.to_basis(K), b=bh, S=K - 1, lambda_=lam,
                     sigma_tr=sigma, nmap=basis.nmap, b_lo=bl,
                     rejected=tuple(rejected), stop_reason=reason)


def fit_surface(split: DataSplit, data: NormalizedDataset,
                cfg: FitConfig, lam: float = 0.0) -> FitResult:
    """Run the incremental regularized fit on the training group at
    strength ``lam``.

    Returns a FitResult whose ``S`` is the largest accepted column index
    and whose ``stop_reason`` names the rule that ended the fit:
    "target_error", "stall", "columns" (the column cap or
    ``fixed_columns``) or "scan_budget".  ``rejected`` holds the flat
    indices rejected as dependent below the last column's, or below the
    next block's first at a block-end stop.  A training error that is not
    finite (lambda too large) raises DegenerateFitError.
    """
    return solve(FitBasis(split, data, cfg), lam)
