"""Span tracer for the benchmark's traced run.

The program carries no spans of its own, so the tracer wraps the
boundaries listed in ``BOUNDARIES`` from the outside: public functions
and methods of the ``orthofit`` modules.  A function imported by name
(``from .ddarith import comp_dot``) is rebound in every ``orthofit``
namespace that holds it, not only in the defining module, so calls
through either name are seen.  A boundary whose module, class or name no
longer exists is recorded as absent and the run goes on without it.

Each call through a boundary while the tracer is active appends one span
``[boundary index, op id, parent span index, start ns, end ns]`` to an
in-memory list; spans are written out once, after the run.  Counts that
need the call's arguments or result (accepted columns, projection
passes, rows loaded) are taken by hooks at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Boundary:
    """One wrapped call site: its layer, its metric group within the
    layer, and ``module:attribute`` or ``module:Class.method``."""

    layer: str
    group: str
    target: str


def _b(layer, group, *targets):
    return [Boundary(layer, group, t) for t in targets]


BOUNDARIES = tuple(
    _b("synth", "generate", "orthofit.synth:generate")
    + _b("dataset", "load", "orthofit.dataset:load_dataset")
    + _b("dataset", "normalize", "orthofit.dataset:normalize")
    + _b("dataset", "split", "orthofit.dataset:split")
    + _b("dataset", "save", "orthofit.dataset:save_dataset")
    + _b("basis", "block", "orthofit.fit:_BlockGen.next_block")
    + _b("basis", "eval", "orthofit.basis:basis_values",
         "orthofit.basis:basis_dy", "orthofit.basis:dd_basis_values")
    + _b("ortho", "add_column", "orthofit.ortho:OrthoBuilder.add_column")
    + _b("ortho", "vec_ops", "orthofit.ortho:OrthoBuilder.make_vector",
         "orthofit.ortho:OrthoBuilder.column_dot",
         "orthofit.ortho:OrthoBuilder.subtract_scaled_column",
         "orthofit.ortho:OrthoBuilder.lap_column_sum",
         "orthofit.ortho:OrthoBuilder.vec_norm2")
    + _b("ortho", "to_basis", "orthofit.ortho:OrthoBuilder.to_basis")
    + _b("ortho", "defect", "orthofit.ortho:orthogonality_defect")
    + _b("ddarith", "matvec", "orthofit.ddarith:dd_matvec",
         "orthofit.ddarith:dd_matvec_t")
    + _b("ddarith", "reduce", "orthofit.ddarith:comp_dot",
         "orthofit.ddarith:dd_dot", "orthofit.ddarith:dd_sum",
         "orthofit.ddarith:comp_sum")
    + _b("fit", "fit", "orthofit.fit:fit_surface")
    + _b("model", "to_monomial", "orthofit.model:to_monomial")
    + _b("model", "eval", "orthofit.model:eval_physical",
         "orthofit.model:eval_monomial", "orthofit.model:eval_ortho",
         "orthofit.model:dZ_dY", "orthofit.model:entropy_change")
    + _b("model", "io", "orthofit.model:save_model",
         "orthofit.model:load_model")
    + _b("select", "sweep", "orthofit.select:lambda_sweep")
    + _b("select", "group_error", "orthofit.select:group_error")
    + _b("select", "select", "orthofit.select:select_model")
    + _b("select", "format", "orthofit.select:sweep_to_csv",
         "orthofit.select:sweep_to_json")
    + _b("cli", "main", "orthofit.cli:main")
    + _b("cli", "command", "orthofit.cli:cmd_fit", "orthofit.cli:cmd_sweep",
         "orthofit.cli:cmd_eval")
)

LAYERS = ("synth", "dataset", "basis", "ortho", "ddarith", "fit", "model",
          "select", "cli")

# Per-layer metrics reported by the traced run, with their units.  Times
# are seconds per op; counts are per op.
LAYER_UNITS = {
    "synth.generate_s": "s",
    "dataset.load_s": "s", "dataset.normalize_s": "s",
    "dataset.split_s": "s", "dataset.rows": "count",
    "basis.block_s": "s", "basis.block_calls": "count", "basis.eval_s": "s",
    "ortho.add_column_self_s": "s", "ortho.vec_ops_self_s": "s",
    "ortho.to_basis_s": "s", "ortho.defect_s": "s",
    "ortho.cols_attempted": "count", "ortho.cols_accepted": "count",
    "ortho.accept_ratio": "ratio", "ortho.passes": "count",
    "ortho.gemv_bytes": "B_computed",
    "ddarith.matvec_self_s": "s", "ddarith.matvec_calls": "count",
    "ddarith.reduce_self_s": "s", "ddarith.reduce_calls": "count",
    "fit.fit_s": "s", "fit.self_s": "s", "fit.calls": "count",
    "fit.columns": "count",
    "model.to_monomial_s": "s", "model.to_monomial_calls": "count",
    "model.eval_s": "s", "model.eval_calls": "count", "model.io_s": "s",
    "model.drift": "1",
    "select.sweep_s": "s", "select.self_s": "s", "select.group_error_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "B",
    "unattributed_s": "s",
    "trace.op_p50_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "trace.absent_boundaries": "count",
}

# Counts that must repeat exactly between ops and between traced runs of
# the same seed.  cli.bytes_out is left out: the fit report prints its own
# wall time, whose digit count varies.
REPEATING_COUNTS = (
    "dataset.rows", "basis.block_calls", "ortho.cols_attempted",
    "ortho.cols_accepted", "ortho.passes", "ortho.gemv_bytes",
    "ddarith.matvec_calls", "ddarith.reduce_calls", "fit.calls",
    "fit.columns", "model.to_monomial_calls", "model.eval_calls",
)


class Tracer:
    """Installs boundary wrappers and collects spans and per-op counts.

    Wrappers record only while ``active`` is true, so the harness can
    call into the program (checks, drift) without adding spans.
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.active = False
        self.op = -1
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.conversions: list[tuple] = []
        self._fit_inputs: dict[int, tuple] = {}
        self._arrays_per_pass = 3

    # -- installation --------------------------------------------------

    def install(self) -> None:
        hooks = {
            "orthofit.ortho:OrthoBuilder.add_column":
                (self._before_add_column, self._after_add_column),
            "orthofit.dataset:load_dataset": (None, self._after_load),
            "orthofit.fit:fit_surface": (None, self._after_fit),
            "orthofit.model:to_monomial": (None, self._after_to_monomial),
        }
        for bid, bnd in enumerate(self.boundaries):
            modname, _, path = bnd.target.partition(":")
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.absent.append(bnd.target)
                continue
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = (inspect.getattr_static(owner, name, None)
                        if owner is not None else None)
            if not callable(original):
                self.absent.append(bnd.target)
                continue
            if bnd.target == "orthofit.ortho:OrthoBuilder.add_column":
                # One gemv reads P to measure projections; deflation reads
                # P and, while the builder still carries Laplacian
                # columns, the Laplacian block too.
                params = inspect.signature(original).parameters
                self._arrays_per_pass = 3 if "lap_col" in params else 2
            before, after = hooks.get(bnd.target, (None, None))
            wrapper = self._wrap(bid, original, before, after)
            if outer:
                setattr(owner, name, wrapper)
                self._restore.append((owner, name, original))
            else:
                self._rebind_everywhere(original, wrapper)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "orthofit"
                                   or modname.startswith("orthofit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        self.active = False
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, bid, fn, before, after):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._hook(bid, before, args) if before else None
            rec = [bid, tracer.op, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after:
                tracer._hook(bid, after, state, args, result)
            return result

        return wrapper

    def _hook(self, bid, hook, *args):
        """Run a count hook; a hook that no longer fits the program (a
        renamed attribute, a changed signature) marks its boundary's
        counts absent instead of failing the op."""
        try:
            return hook(*args)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            note = f"{self.boundaries[bid].target} (counts: {exc!r})"
            if note not in self.absent:
                self.absent.append(note)
            return None

    # -- hooks ---------------------------------------------------------

    def _before_add_column(self, args):
        builder, col = args[0], args[1]
        n = len(col[0]) if isinstance(col, tuple) else len(col)
        return builder.n_columns, n

    def _after_add_column(self, state, args, accepted):
        if not accepted or state is None:
            return
        builder = args[0]
        k, n = state
        passes = builder.passes[-1]
        precision = getattr(builder.precision, "value", builder.precision)
        words = 2 if precision == "extended" else 1
        self._add("ortho.cols_accepted", 1)
        self._add("ortho.passes", passes)
        self._add("ortho.gemv_bytes",
                  passes * self._arrays_per_pass * words * n * k * 8)

    def _after_load(self, state, args, points):
        self._add("dataset.rows", len(points))

    def _after_fit(self, state, args, fit):
        self._add("fit.columns", fit.basis.n_columns)
        self._fit_inputs[id(fit)] = (args[0], args[1], fit)

    def _after_to_monomial(self, state, args, model):
        inputs = self._fit_inputs.get(id(args[0]))
        if inputs is not None:
            self.conversions.append(inputs + (model,))

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- ops -------------------------------------------------------------

    def begin_op(self, op: int) -> int:
        """Start recording for one op; returns its first span index."""
        self.op = op
        self.counts = {}
        self.conversions = []
        self._fit_inputs = {}
        self.active = True
        return len(self.spans)

    def end_op(self) -> int:
        self.active = False
        self._fit_inputs = {}
        return len(self.spans)

    def summarize(self, lo: int, hi: int, wall_ns: int) -> dict:
        """Per-layer times and counts for the spans ``lo:hi`` of one op.

        A span's self time is its duration minus its direct children's.
        A call from inside a span of the same layer (``dd_sum`` inside
        ``comp_dot``, ``eval_monomial`` inside ``eval_physical``) belongs
        to the outermost span of that layer: its time counts toward that
        span's group, and only the outermost span counts as a call.
        """
        bnds = self.boundaries
        spans = self.spans
        n = hi - lo
        child = [0] * n
        top = list(range(n))
        for k in range(n):
            bid, _, parent, start, end = spans[lo + k]
            if parent >= lo:
                p = parent - lo
                child[p] += end - start
                if bnds[spans[parent][0]].layer == bnds[bid].layer:
                    top[k] = top[p]
        incl_top: dict[tuple, int] = {}
        incl_any: dict[tuple, int] = {}
        calls: dict[tuple, int] = {}
        self_group: dict[tuple, int] = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        rooted = 0
        for k in range(n):
            bid, _, parent, start, end = spans[lo + k]
            dur = end - start
            b = bnds[bid]
            key = (b.layer, b.group)
            own = dur - child[k]
            layer_self[b.layer] = layer_self.get(b.layer, 0) + own
            incl_any[key] = incl_any.get(key, 0) + dur
            tkey = (b.layer, bnds[spans[lo + top[k]][0]].group)
            self_group[tkey] = self_group.get(tkey, 0) + own
            if top[k] == k:
                incl_top[key] = incl_top.get(key, 0) + dur
                calls[key] = calls.get(key, 0) + 1
            if parent < lo:
                rooted += dur

        def s(totals, layer, group):
            return totals.get((layer, group), 0) * 1e-9

        def c(layer, group):
            return calls.get((layer, group), 0)

        attempted = c("ortho", "add_column")
        accepted = self.counts.get("ortho.cols_accepted", 0)
        out = {
            "dataset.load_s": s(incl_top, "dataset", "load"),
            "dataset.normalize_s": s(incl_top, "dataset", "normalize"),
            "dataset.split_s": s(incl_top, "dataset", "split"),
            "dataset.rows": self.counts.get("dataset.rows", 0),
            "basis.block_s": s(incl_top, "basis", "block"),
            "basis.block_calls": c("basis", "block"),
            "basis.eval_s": s(incl_top, "basis", "eval"),
            "ortho.add_column_self_s": s(self_group, "ortho", "add_column"),
            "ortho.vec_ops_self_s": s(self_group, "ortho", "vec_ops"),
            "ortho.to_basis_s": s(incl_top, "ortho", "to_basis"),
            "ortho.defect_s": s(incl_top, "ortho", "defect"),
            "ortho.cols_attempted": attempted,
            "ortho.cols_accepted": accepted,
            "ortho.accept_ratio": accepted / attempted if attempted else 0.0,
            "ortho.passes": self.counts.get("ortho.passes", 0),
            "ortho.gemv_bytes": self.counts.get("ortho.gemv_bytes", 0),
            "ddarith.matvec_self_s": s(self_group, "ddarith", "matvec"),
            "ddarith.matvec_calls": c("ddarith", "matvec"),
            "ddarith.reduce_self_s": s(self_group, "ddarith", "reduce"),
            "ddarith.reduce_calls": c("ddarith", "reduce"),
            "fit.fit_s": s(incl_top, "fit", "fit"),
            "fit.self_s": layer_self["fit"] * 1e-9,
            "fit.calls": c("fit", "fit"),
            "fit.columns": self.counts.get("fit.columns", 0),
            "model.to_monomial_s": s(incl_top, "model", "to_monomial"),
            "model.to_monomial_calls": c("model", "to_monomial"),
            "model.eval_s": s(incl_top, "model", "eval"),
            "model.eval_calls": c("model", "eval"),
            "model.io_s": s(incl_top, "model", "io"),
            "select.sweep_s": s(incl_top, "select", "sweep"),
            "select.self_s": layer_self["select"] * 1e-9,
            "select.group_error_s": s(incl_any, "select", "group_error"),
            "cli.self_s": layer_self["cli"] * 1e-9,
            "unattributed_s": (wall_ns - rooted) * 1e-9,
            "trace.spans": n,
        }
        out["layer_self_ns"] = layer_self
        out["unattributed_ns"] = wall_ns - rooted
        out["wall_ns"] = wall_ns
        return out

    def setup_times(self, op: int, layer: str, group: str) -> list[float]:
        """Durations in seconds of the ``layer``/``group`` spans of one
        setup pass (recorded under a negative op id)."""
        return [(e - s) * 1e-9 for bid, o, _, s, e in self.spans
                if o == op and self.boundaries[bid].layer == layer
                and self.boundaries[bid].group == group]

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV: op, index, parent, name,
        layer, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,index,parent,name,layer,start_ns,end_ns\n")
            for i, (bid, op, parent, start, end) in enumerate(self.spans):
                b = self.boundaries[bid]
                fh.write(f"{op},{i},{parent},{b.target},{b.layer},{start},{end}\n")


def conversion_drift(conversions, eval_ortho, eval_monomial) -> float:
    """Largest |eval_ortho - eval_monomial| at the training points over
    the op's fit-to-monomial conversions (normalized z units)."""
    drift = 0.0
    for split, data, fit, model in conversions:
        idx = split.train_idx
        x, y = data.x[idx], data.y[idx]
        diff = abs(eval_ortho(fit, x, y) - eval_monomial(model, x, y))
        drift = max(drift, float(diff.max()))
    return drift
