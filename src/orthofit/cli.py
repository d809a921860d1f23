"""Command-line interface.

Subcommands: ``fit`` (fit one surface, write a model file and a report),
``sweep`` (scan regularization strengths over an x grid), ``eval``
(evaluate a model file on points or a grid), ``export`` (re-emit a model
as JSON or a coefficient CSV), ``synth`` (generate a synthetic dataset),
and ``split`` (inspect the train/cv/test partition).

Exit codes: 0 success (also when the reader of stdout closes it early),
2 usage or input error (bad flags, missing or unopenable files, a failed
write to an output file or stdout, a negative or non-finite
``--lambda``, a non-finite x grid, a ``synth`` grid over the point cap
or noise that overflows z), 3 data or model
error (unparseable or non-UTF-8 data, degenerate or overflowing axes,
model version mismatch or out-of-range model fields, a working set that
does not fit in memory), 4 numeric failure (non-finite training error
or ``eval`` output included, and a ``fit``, or every strength of a
``sweep``, whose kept columns need a monomial it rejected, which a model
file cannot hold).
Identical flags and input bytes give identical output, except that a
double-precision fit at about 100k points changes bits with OpenBLAS's
thread count (``OPENBLAS_NUM_THREADS``).  ``eval`` evaluates the model
as a tensor product in double-double (``model.GridKernel``), on a grid
and at scattered points alike, so its rows are faithful and a point
prints the same bytes under ``--grid`` and ``--points``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .ddarith import BLOCK_ELEMS
from .dataset import (SplitConfig, load_dataset, load_points, normalize,
                      save_dataset, split, write_rows)
from .errors import (DegenerateAxisError, FieldError, InsufficientDataError,
                     ModelFormatError, OrthofitError, ParseError)
from .fit import FitConfig, fit_surface
from .model import (MAX_DEGREE, GridKernel, _block_rows, load_model,
                    save_model, to_monomial)
from .basis import columns_for_degree, degree_block
from .ortho import PrecisionMode, orthogonality_defect
from .select import (_strengths, group_error, lambda_sweep, overfit_degree,
                     sweep_to_csv, sweep_to_json)
from .synth import SynthSpec, generate

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR = 2, 3, 4
MAX_GRID_POINTS = 100_000  # one fit per point: far beyond any real sweep
GRID_CHUNK_ELEMS = BLOCK_ELEMS  # eval --grid kernel products per chunk
MAX_GRID_AXIS = 10_000_000  # eval --grid counts: each axis is one array
# the flag that sets each field a range check names (``FieldError``)
FIELD_FLAGS = {
    "sample_factor": "--sample-factor", "target_error": "--target-error",
    "stop_rel_improvement": "--stop-rel-improvement",
    "stop_patience_blocks": "--stop-patience", "gamma_cap": "--gamma-cap",
    "noise_sigma": "--noise", "nx": "--nx", "ny": "--ny", "seed": "--seed"}


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sample-by", choices=("x", "y"), default="y",
                   help="coordinate used to sort before splitting")
    p.add_argument("--sample-factor", type=int, default=3,
                   help="f >= 2; training gets (f-1)/f of the data")
    p.add_argument("--max-degree", type=int, default=19,
                   help="largest total degree the fit may use")
    p.add_argument("--target-error", type=float, default=1e-28,
                   help="stop once the training error reaches this; the "
                        "default only triggers for exactly representable data")
    p.add_argument("--precision", choices=("double", "extended"),
                   default="double")
    p.add_argument("--odd-field-only", action="store_true",
                   help="keep only odd powers of x in the basis")
    p.add_argument("--fixed-S", dest="fixed_s", type=int, default=None,
                   help="use exactly S+1 polynomials, no early stopping")
    p.add_argument("--stop-rel-improvement", type=float, default=0.05)
    p.add_argument("--stop-patience", type=int, default=2)


def _fit_config(args) -> FitConfig:
    if args.max_degree < 1:
        raise ValueError(f"--max-degree must be >= 1, got {args.max_degree}")
    if args.max_degree > MAX_DEGREE:  # beyond it a model file does not load
        raise ValueError(
            f"--max-degree must be <= {MAX_DEGREE}, got {args.max_degree}")
    if args.fixed_s is not None and args.fixed_s < 0:
        raise ValueError(f"--fixed-S must be >= 0, got {args.fixed_s}")
    return FitConfig(
        max_columns=columns_for_degree(args.max_degree),
        target_error=args.target_error,
        stop_rel_improvement=args.stop_rel_improvement,
        stop_patience_blocks=args.stop_patience,
        precision=PrecisionMode(args.precision),
        odd_field_only=args.odd_field_only,
        fixed_columns=None if args.fixed_s is None else args.fixed_s + 1,
    )


def _parse_x_grid(text: str) -> list[float]:
    text = text.strip()
    if not text:
        raise ValueError("empty x grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("x grid range must be lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise ValueError("x grid range bounds and step must be finite")
        if step <= 0 or hi < lo:
            raise ValueError("x grid range must satisfy lo <= hi, step > 0")
        if lo + step == lo:
            raise ValueError(f"x grid range {text}: step {step!r} does "
                             f"not advance past {lo!r}")
        from fractions import Fraction  # only ranges pay for its import
        # exact rationals: the count and each lo + k step round once
        lo, hi, step = (Fraction(p) for p in parts)
        count = (hi - lo) // step + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"x grid range {text} holds more than "
                             f"{MAX_GRID_POINTS} points")
        out = [float(lo + k * step) for k in range(count)]
        stuck = [a for a, b in zip(out, out[1:]) if b <= a]
        if stuck:
            raise ValueError(f"x grid range {text}: step {float(step)!r} "
                             f"does not advance past {stuck[0]!r}")
        return out
    return [float(p) for p in text.split(",") if p.strip()]


@contextlib.contextmanager
def _writing(path):
    """Turn a failed write to ``path`` into a usage error that names it,
    removing the partial file (a device such as /dev/full stays); a path
    that cannot be opened keeps its OSError, which names it too."""
    try:
        yield
    except OSError as exc:
        if exc.filename is not None or isinstance(exc, BrokenPipeError):
            raise
        if os.path.isfile(path):
            os.remove(path)
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _emit_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=1) + "\n")
        return
    cells = {k: format(v, ".17g") if isinstance(v, float) else str(v)
             for k, v in report.items()}
    if fmt == "csv":  # no key or cell holds a comma, quote or newline
        sys.stdout.write(",".join(cells) + "\n"
                         + ",".join(cells.values()) + "\n")
    else:
        width = max(len(k) for k in cells)
        for k, v in cells.items():
            sys.stdout.write(f"{k:<{width}}  {v}\n")


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    cfg = _fit_config(args)
    if not (math.isfinite(args.lam) and args.lam >= 0):
        raise ValueError(f"--lambda must be finite and >= 0, got {args.lam!r}")
    split_cfg = SplitConfig(args.sample_by, args.sample_factor)
    data = normalize(load_dataset(args.input))
    parts = split(data, split_cfg)
    fit = fit_surface(parts, data, cfg, args.lam)
    model = to_monomial(fit, include_audit=args.audit)
    s_cv = group_error(fit, data, parts.cv_idx)
    s_te = group_error(fit, data, parts.test_idx)
    defect = (orthogonality_defect(fit.basis)
              if fit.basis.n_columns >= 2 else 0.0)
    model_out = args.model_out
    if model_out is None:
        stem = args.input[:-4] if args.input.lower().endswith(".csv") else args.input
        model_out = stem + ".model.json"
    with _writing(model_out):
        save_model(model, model_out)
    report = {
        "n_points": data.n,
        "n_train": len(parts.train_idx),
        "n_cv": len(parts.cv_idx),
        "n_test": len(parts.test_idx),
        "S": fit.S,
        "lambda": fit.lambda_,
        "sigma_tr": fit.sigma_tr,
        "sigma_cv": s_cv,
        "sigma_test": s_te,
        "gamma": overfit_degree(fit.sigma_tr, s_cv),
        "gamma_prime": overfit_degree(fit.sigma_tr, s_te),
        "defect": defect,
        "wall_time_s": time.perf_counter() - t0,
    }
    _emit_report(report, args.report)
    return 0


def cmd_sweep(args) -> int:
    grid = _parse_x_grid(args.x_grid)  # main maps ValueError to exit 2
    _strengths(grid, args.gamma_cap)
    cfg = _fit_config(args)
    split_cfg = SplitConfig(args.sample_by, args.sample_factor)
    data = normalize(load_dataset(args.input))
    parts = split(data, split_cfg)
    report = lambda_sweep(data, parts, grid, cfg, gamma_cap=args.gamma_cap)
    for path, fmt in ((args.csv_out, sweep_to_csv),
                      (args.json_out, sweep_to_json)):
        if path:
            with _writing(path), open(path, "w", encoding="utf-8") as fh:
                fh.write(fmt(report))
    if args.report == "json":
        sys.stdout.write(sweep_to_json(report))
    else:
        sys.stdout.write(sweep_to_csv(report))
        if args.report == "text" and report.chosen is not None:
            rec = report.records[report.chosen]
            sys.stdout.write(f"# chosen: x={rec.x_log:g} S={rec.S} "
                             f"gamma={rec.gamma:.2f} gamma_prime={rec.gamma_prime:.2f}\n")
    return 0


def cmd_eval(args) -> int:
    if args.grid:  # main maps ValueError to exit 2
        try:
            nx, ny = (int(p) for p in args.grid.lower().split("x"))
            if nx < 1 or ny < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad grid spec {args.grid!r}") from None
        if max(nx, ny) > MAX_GRID_AXIS:
            raise ValueError(f"--grid {args.grid!r}: NX and NY must each be "
                             f"at most {MAX_GRID_AXIS}")
    elif not args.points:
        raise ValueError("need --points or --grid")
    model = load_model(args.model)
    if args.grid:
        chunks = _grid_chunks(model, nx, ny, args)
    else:  # read before the header: a bad point file prints nothing
        chunks = _point_chunks(model, load_points(args.points), args)
    header = ["X", "Y", "Z"]
    if args.with_slope:
        header.append("dZdY")
    if args.with_entropy:
        header.append("dS")
    sys.stdout.write(",".join(header) + "\n")
    for first, cols in chunks:  # ``first``: the row number of cols' row 0
        table = np.column_stack(cols)
        bad = np.argwhere(~np.isfinite(table[:, 2:]))
        if bad.size:
            row, col = bad[0]
            raise FloatingPointError(
                f"{header[2 + col]} is not finite in output row "
                f"{first + row + 1} (X={table[row, 0]:.17g}, "
                f"Y={table[row, 1]:.17g})")
        write_rows(sys.stdout, table, "\n")
    return 0


def _point_chunks(model, points, args):
    """(first row, columns) of ``eval --points``: chunks of points, each
    from one ``GridKernel``, sized as ``_grid_chunks`` sizes rows."""
    rows = _block_rows(model, 1 + args.with_slope + args.with_entropy, 1,
                       GRID_CHUNK_ELEMS)
    for lo in range(0, len(points), rows):
        X, Y = points[lo:lo + rows].T
        with np.errstate(over="ignore", invalid="ignore"):  # cmd_eval checks
            values = GridKernel(model, X, args.with_slope,
                                args.with_entropy)(Y)
        yield lo, [X, Y, *values]


def _grid_chunks(model, nx, ny, args):
    """(first row, columns) of ``eval --grid NXxNY``, whose row k nx + i is
    (X[i], Y[k]), from ``GridKernel`` with Y as a column: chunks of whole
    Y rows, all from one kernel of the X axis, or pieces of one row when
    it alone is too wide, each from a kernel of its piece of X.  The
    kernel products of a chunk stay within GRID_CHUNK_ELEMS where one
    row's do (``model._block_rows``), and a kernel's X power table, 2
    (degree + 1) doubles per X value, within twice that."""
    nmap = model.map
    Xs = np.linspace(nmap.x_min, nmap.x_max, nx)
    Ys = np.linspace(nmap.y_min, nmap.y_max, ny)
    outputs = 1 + args.with_slope + args.with_entropy
    n = 1 + max(degree_block(t).m for t in model.kept)
    cols = max(1, GRID_CHUNK_ELEMS // (outputs * n))  # < nx: one row per chunk
    rows = _block_rows(model, outputs, nx, GRID_CHUNK_ELEMS)
    kernel = None
    for k in range(0, ny, rows):
        Y = Ys[k:k + rows]
        for i in range(0, nx, cols):
            X = Xs[i:i + cols]
            with np.errstate(over="ignore", invalid="ignore"):  # checked
                if kernel is None or nx > cols:
                    kernel = GridKernel(model, X, args.with_slope,
                                        args.with_entropy)
                values = kernel(Y[:, None])
            yield k * nx + i, [np.tile(X, Y.size), np.repeat(Y, X.size),
                               *(v.ravel() for v in values)]


def cmd_export(args) -> int:
    if args.audit and args.format == "csv":  # main maps ValueError to exit 2
        raise ValueError("--audit applies to --format json, not --format csv")
    model = load_model(args.model)
    if args.format == "json":
        if not args.audit:
            model = dataclasses.replace(model, audit=None)
        with _writing(args.out):
            save_model(model, args.out)
    else:
        table = np.array([(*degree_block(t), c)
                          for t, c in zip(model.kept, model.c)],
                         dtype=float).reshape(-1, 4)
        with _writing(args.out), open(args.out, "w", encoding="utf-8",
                                      newline="") as fh:
            fh.write("t,degree,y_power,c\n")
            write_rows(fh, table, "\n")
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(surface=args.surface, nx=args.nx, ny=args.ny,
                     noise_sigma=args.noise, seed=args.seed)
    points, _ = generate(spec)
    with _writing(args.out):
        save_dataset(points, args.out)
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def cmd_split(args) -> int:
    split_cfg = SplitConfig(args.sample_by, args.sample_factor)
    data = normalize(load_dataset(args.input))
    parts = split(data, split_cfg)
    report = {
        "n_points": data.n,
        "sample_by": args.sample_by,
        "sample_factor": args.sample_factor,
        "n_train": len(parts.train_idx),
        "n_cv": len(parts.cv_idx),
        "n_test": len(parts.test_idx),
    }
    if args.indices:
        report["train_idx"] = parts.train_idx.tolist()
        report["cv_idx"] = parts.cv_idx.tolist()
        report["test_idx"] = parts.test_idx.tolist()
        _emit_report(report, "json")
    else:
        _emit_report(report, args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthofit",
        description="Fit scattered (x, y, z) data with orthogonal polynomials "
                    "under curvature regularization.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one surface and write a model file")
    p.add_argument("input", help="CSV/TSV dataset with header x,y,z or H,T,M")
    p.add_argument("-o", "--model-out", default=None,
                   help="model file path (default: <input>.model.json)")
    p.add_argument("--report", choices=("text", "csv", "json"), default="text")
    p.add_argument("--audit", action="store_true",
                   help="embed the orthogonal expansion in the model file")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="regularization strength (default 0)")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="scan regularization strengths")
    p.add_argument("input")
    p.add_argument("--x-grid", required=True,
                   help="exponents as lo:hi:step or comma list; lambda=exp(-x)")
    p.add_argument("--gamma-cap", type=float, default=1.0)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--json-out", default=None)
    p.add_argument("--report", choices=("text", "csv", "json"), default="text")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a model file")
    p.add_argument("--model", required=True)
    where = p.add_mutually_exclusive_group()
    where.add_argument("--points", default=None, help="CSV of X,Y points")
    where.add_argument("--grid", default=None,
                       help="NXxNY over the data rectangle")
    p.add_argument("--with-slope", action="store_true", help="add a dZ/dY column")
    p.add_argument("--with-entropy", action="store_true",
                   help="add the field integral of dZ/dY")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="re-emit a model as JSON or CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--surface", default="magnet",
                   help="plane, poly:K, or magnet")
    p.add_argument("--nx", type=int, default=30)
    p.add_argument("--ny", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="inspect the train/cv/test partition")
    p.add_argument("input")
    p.add_argument("--sample-by", choices=("x", "y"), default="y")
    p.add_argument("--sample-factor", type=int, default=3)
    p.add_argument("--report", choices=("text", "csv", "json"), default="text")
    p.add_argument("--indices", action="store_true",
                   help="include the index lists (JSON report)")
    p.set_defaults(func=cmd_split)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe or full device fails here
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull (the
        # recipe of the Python signal docs) and end as a success
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        if exc.filename is None:  # not an output file (see _writing): stdout
            # drop what is still buffered, or the exit flush fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: cannot write stdout: {exc.strerror}",
                  file=sys.stderr)
        else:
            print(f"error: cannot open {exc.filename}: {exc.strerror}",
                  file=sys.stderr)
        return USAGE_ERROR
    except (ParseError, DegenerateAxisError, InsufficientDataError,
            ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (OrthofitError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except MemoryError as exc:  # numpy's message names the shape and size
        print(f"error: out of memory: {exc}".removesuffix(": "),
              file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        message = str(exc)
        for field in exc.fields if isinstance(exc, FieldError) else ():
            message = re.sub(rf"\b{field}\b", FIELD_FLAGS.get(field, field),
                             message)  # name the flag, not the field
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
