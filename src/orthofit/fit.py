"""Incremental surface fitting on the training group.

Raw basis columns (``basis``) are orthonormalized one at a time in flat
order; each new orthonormal polynomial receives its coefficient from the
curvature-regularized closed form

    b_t = (proj_t - lam * R_t * Q_t) / (lam * Q_t**2 + 1)

where ``proj_t`` is the projection of the targets onto the polynomial,
``Q_t`` the sum of its Laplacian over the training points, ``R_t`` the
running sum of earlier ``b_r * Q_r``, and ``lam >= 0`` the regularization
strength.  ``regularized_coefficient`` evaluates it as one expression
at every lam, both sides scaled by a power of two that keeps every
value in range.  Coefficients are greedy: once computed they are never
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
walks them once at one strength: the recurrence, the stopping rules
and, for a training error that is not finite, a replay of the residual
from z that names the column.  A sweep builds once and solves per
strength.  Neither step does per column what does not depend on the
column before: the scan forms the terms of a block's Q_t over the
earlier blocks at once, and the walk forms the training residual only
where a rule reads it, from every column pending since in one call.

``FitBasis`` also keeps the raw-basis coefficients W of every column
(P_s = sum_r W[s, r] h_r, the expansion of the identity), so ``solve``
hands each fit its coefficients on the raw Chebyshev columns, c = W^T b,
with |c| < 0.5 on the benchmark corpora: held-out errors, ``eval_ortho``
and the monomial conversion all start from them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import _BlockGen, block_start
from .ddarith import DD, dd_add, dd_dot, dd_dot_terms, dd_mul, dd_sum_list
from .dataset import DataSplit, NormalizationMap, NormalizedDataset
from .errors import DegenerateFitError, FieldError, InsufficientDataError
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
        orthogonalization (columns are dropped, not zeroed); the raw x
        factor is then the unshifted T_i(x), i odd.  x is the normalized
        field (H - H_min) / (H_max - H_min), so the basis is odd in H,
        matching M(-H) = -M(H), only when H_min = 0.
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
            raise FieldError(f"target_error must be >= 0, got "
                             f"{self.target_error!r}", "target_error")
        if self.max_columns < 3:
            raise ValueError("max_columns must be >= 3")
        if not 0.0 < self.stop_rel_improvement < 1.0:
            raise FieldError(f"stop_rel_improvement must lie in (0, 1), got "
                             f"{self.stop_rel_improvement!r}",
                             "stop_rel_improvement")
        if self.stop_patience_blocks < 1:
            raise FieldError(f"stop_patience_blocks must be >= 1, got "
                             f"{self.stop_patience_blocks}",
                             "stop_patience_blocks")
        if self.fixed_columns is not None and self.fixed_columns < 1:
            raise ValueError("fixed_columns must be >= 1 when set")


def regularized_coefficient(proj, q, r_acc, lam: float):
    """Closed-form coefficient of one orthonormal polynomial.

    Arguments may be floats or DD scalars; the result follows the inputs.
    Both sides are scaled by u = 2**-e, e the exponent of lam (lam =
    2**e * m, m in [0.5, 1)) clamped to [0, 969], with m = lam * u exact:
    below lam = 1 that is the unscaled form (u = 1, m = lam), and above it
    the bits of the unscaled form while every value stays normal.  The
    clamp keeps m below 2**55, so the double-double splits, which overflow
    above 2**995, never see a large lam.  The denominator is at least
    u > 0, so the expression never degenerates (``solve`` admits only
    finite lam >= 0).
    """
    e = min(max(math.frexp(lam)[1], 0), 969)
    u = math.ldexp(1.0, -e)
    m = lam * u
    return (proj * u - m * r_acc * q) / (m * q * q + u)


@dataclass(frozen=True)
class FitResult:
    """Everything needed to evaluate or convert a fitted surface.

    ``b_lo`` holds the dd low parts of ``b`` (zeros in double mode); each
    column's proj_t and Q_t stay on the ``FitBasis`` it was solved on.
    The fits solved on one ``FitBasis`` share the views of its builder's
    basis (``OrthoBuilder.to_basis``).  ``c`` and ``c_lo`` are the
    coefficients of the fit on its raw columns ``basis.raw_values(...,
    odd_x)``, one per kept index: sum_s b_s W[s], in double for a double
    fit (``c_lo`` zeros) and in double-double for an extended one.
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
    c: np.ndarray
    c_lo: np.ndarray
    odd_x: bool


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
    s} a[s, t] Q_t from the raw column's Q(h_s), which the block generator
    hands out with it, in double-double at either precision, so no
    Laplacian columns are formed.  Once a block's columns are added, the
    first term and the sum's terms over the earlier blocks' columns are
    one ``dd_mul`` and one ``dd_dot_terms`` for all its rows; row by row,
    the terms over the block's own earlier columns join them and
    ``dd_sum_list`` adds them up on Python floats, in ``dd_dot``'s tree,
    so each Q_s has the bits of one ``dd_dot`` per column.  The same
    recurrence applied to the identity gives each column's raw-basis
    coefficients, row s of W (``_raw_row``), at the fit's precision.
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
        self.builder = OrthoBuilder(ntr, precision=cfg.precision,
                                    capacity=min(cap, 256))
        self._z_vec = self.builder.make_vector(data.z[train])
        self.sigma0 = self.builder.vec_norm2(self._z_vec) / ntr
        self._gen = _BlockGen(data.x[train], data.y[train],
                              self.builder.precision, cfg.odd_field_only)
        self.proj: list = []
        self.q: list = []
        self._qh, self._ql = np.zeros(cap), np.zeros(cap)  # Q_s in dd
        self._w = np.zeros((2, 8, 8))  # W and its dd low parts, grown
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

    def _raw_row(self, s, a, a_lo):
        """Row s of W from row s of the expansion: W[s] = a[s] e_s +
        sum_{t<s} a[s, t] W[t], summed over t in double for a double fit
        (numpy's fixed order, not BLAS) and in double-double for an
        extended one.  Row s reads only the (s, s) block before it, so the
        first K rows are those of a K-column fit, bit for bit."""
        if s == self._w.shape[1]:
            self._w = np.pad(self._w, [(0, 0), (0, s), (0, s)])
        w = self._w
        w[:, s, s] = a[s], a_lo[s]
        if self._gen.ext:
            w[:, s, :s] = dd_dot(w[0, :s, :s], w[1, :s, :s], a[:s, None],
                                 a_lo[:s, None])
        else:
            w[0, s, :s] = (a[:s, None] * w[0, :s, :s]).sum(axis=0)

    def _scan_block(self):
        bld, ext = self.builder, self._gen.ext
        first = bld.n_columns
        q_raw = []
        for t, col, q in self._gen.next_block(self.rejected):
            if col is None or not bld.add_column(col, tag=t):
                self.rejected.append(t)
                continue
            s = bld.n_columns - 1
            q_raw.append((q.hi, q.lo))
            self._raw_row(s, *bld.expansion[:, s, :s + 1])
            if bld.n_columns >= self.cap:
                break
        end = bld.n_columns
        if end == first:
            return
        a, a_lo = bld.expansion[:, first:end, :end]
        d = np.arange(end - first)
        qh, ql = dd_mul(*np.array(q_raw).T, a[d, first + d], a_lo[d, first + d])
        # the terms a[s, t] Q_t of the earlier blocks' columns, all rows at
        # once; those of the block's own columns once their Q_t are known
        th, tl = dd_dot_terms(self._qh[:first], self._ql[:first],
                              a[:, :first], a_lo[:, :first])
        Qh, Ql = [], []
        for r, (h, l, xh, xl, v, v_lo) in enumerate(zip(
                qh.tolist(), ql.tolist(), th.tolist(), tl.tolist(),
                a[:, first:].tolist(), a_lo[:, first:].tolist())):
            for t in range(r):
                p, e = dd_dot_terms(Qh[t], Ql[t], v[t], v_lo[t])
                xh.append(p)
                xl.append(e)
            if xh:
                h, l = dd_add(h, l, *dd_sum_list(xh, xl))
            Qh.append(h)
            Ql.append(l)
            self.q.append(DD(h, l) if ext else h + l)
        self._qh[first:end], self._ql[first:end] = Qh, Ql
        proj = bld.column_dot(first, end, self._z_vec)
        self.proj.extend(map(DD, *proj) if ext else proj)


def solve(basis: FitBasis, lam: float) -> FitResult:
    """Run the coefficient recurrence at strength ``lam`` over the shared
    basis, applying the stopping rules of the config it was built with.
    Raises ValueError unless ``lam`` is finite and >= 0.

    The training error is computed only where a rule reads it: after
    every column while ``target_error`` is set, at degree-block ends for
    the stall rule, and at the last column or a scan-budget end.  Its
    residual is formed only then, by one ``subtract_scaled_columns`` over
    the pending columns, with the bits of subtracting them one by one.  A
    training error that is not finite (a coefficient or residual too
    large for a double) raises DegenerateFitError naming the first column
    where it became so, found by replaying the residual from z column by
    column.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")
    bld, ntr, cap, cfg = basis.builder, basis.ntr, basis.cap, basis.cfg
    fixed = cfg.fixed_columns is not None
    watch = not fixed and cfg.target_error is not None
    R, bs = 0.0, []
    residual, done = basis._z_vec, 0  # z less the first ``done`` columns

    def training_error():
        nonlocal residual, done
        if done < len(bs):  # a new vector: z itself is never written
            residual = bld.subtract_scaled_columns(residual, done, bs[done:])
            done = len(bs)
        sigma = bld.vec_norm2(residual) / ntr
        if not math.isfinite(sigma):
            # b_t never reads the residual: replaying it from z, one column
            # at a time, gives the walk's bits and reaches this column at
            # the latest
            replay = basis._z_vec
            for t, b in enumerate(bs):
                replay = bld.subtract_scaled_column(replay, t, b)
                if not math.isfinite(bld.vec_norm2(replay) / ntr):
                    raise DegenerateFitError(
                        f"training error is not finite after column "
                        f"{bld.kept[t]} at lambda={lam!r}")
        return sigma

    sigma = sigma_block_start = basis.sigma0
    stall = 0
    k = s = 0          # next degree block, next column
    reason = None
    while reason is None:
        # blocks before k were scanned whole: a capped block ends the walk
        if block_start(k) >= basis.scan_budget:
            reason = "scan_budget"
            break
        end = basis.block(k)
        first = s
        for s in range(first, end):
            q = basis.q[s]
            b = regularized_coefficient(basis.proj[s], q, R, lam)
            R = R + b * q
            bs.append(b)
            sigma = None
            if watch or s + 1 >= cap:
                sigma = training_error()
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
                    sigma = training_error()
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
        sigma = training_error()

    K = len(bs)
    if K == 0:
        raise DegenerateFitError("no basis column survived orthogonalization")
    if fixed and K < cap:
        raise DegenerateFitError(
            f"only {K} of the requested {cap} columns were usable")
    stop = (bld.kept[K - 1] if reason in ("columns", "target_error")
            else block_start(k))
    rejected = basis.rejected[:bisect_left(basis.rejected, stop)]
    w = basis._w[:, :K, :K]
    if basis._gen.ext:
        bh, bl = map(np.array, zip(*map(DD._coerce, bs)))
        ch, cl = dd_dot(w[0], w[1], bh[:, None], bl[:, None])
    else:
        bh, bl = np.array(bs, dtype=float), np.zeros(K)
        ch, cl = (bh[:, None] * w[0]).sum(axis=0), np.zeros(K)
    return FitResult(basis=bld.to_basis(K), b=bh, S=K - 1, lambda_=lam,
                     sigma_tr=sigma, nmap=basis.nmap, b_lo=bl,
                     rejected=tuple(rejected), stop_reason=reason, c=ch,
                     c_lo=cl, odd_x=cfg.odd_field_only)


def fit_surface(split: DataSplit, data: NormalizedDataset,
                cfg: FitConfig, lam: float = 0.0) -> FitResult:
    """Run the incremental regularized fit on the training group at
    strength ``lam``.

    Returns a FitResult whose ``S`` is the largest accepted column index
    and whose ``stop_reason`` names the rule that ended the fit:
    "target_error", "stall", "columns" (the column cap or
    ``fixed_columns``) or "scan_budget".  ``rejected`` holds the flat
    indices rejected below the last column's, or below the next block's
    first at a block-end stop: those found dependent, and those withheld
    unprojected as above a rejected one, so the set is closed upward.  A
    training error that is not finite (a coefficient or residual too
    large for a double) raises DegenerateFitError.
    """
    return solve(FitBasis(split, data, cfg), lam)
