#!/usr/bin/env python3
"""Benchmark harness for orthofit.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client in one process: an op is
one in-process call of ``orthofit.cli.main(argv)`` with stdout captured
in memory, and the next op starts when the previous one returns.  Inputs
are SplitMix64 ``magnet`` corpora from ``orthofit.synth.generate``, built
from ``--seed``; the program itself only sees the generated files.

``--trace 0`` times ops untraced and prints the end-to-end metrics, with
times scaled to a reference host speed by the probes ``probe.py`` runs
between them (the raw times are in the result file).
``--trace 1`` alternates traced and untraced ops and prints the
per-layer metrics (see ``tracer.py``), including the tracing overhead.
Every op's output is checked (``checks.py``).  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result, with the environment stamp, goes to
``perfbench/results/BENCH_<workload>_s<seed>_t<trace>.json``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import checks
import envstamp
from probe import HostProbe
from tracer import (BOUNDARIES, LAYER_UNITS, REPEATING_COUNTS, Tracer,
                    conversion_drift)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_REPEATS = 3
MIN_OPS = 3
NOISE_SIGMA = 0.02
# Prints the CLOCK_MONOTONIC time at which the import finished, so the
# parent times the start without its own wait loop's 50 ms polling steps.
IMPORT_SCRIPT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "import orthofit.cli; print(time.monotonic())")

E2E_UNITS = {"op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "ok_frac": "ratio", "orth_defect": "1"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    command : the CLI subcommand each op runs ('fit', 'sweep' or 'eval').
    nx, ny : corpus grid, nx * ny points.
    fixed_s : ``--fixed-S`` of the op (fit, sweep) or of the set-up fit
        that writes the model (eval).
    """

    name: str
    command: str
    nx: int
    ny: int
    fixed_s: int
    precision: str = "double"
    x_grid: str = ""
    grid: tuple = (0, 0)

    def fit_argv(self, work: Path, model: str = "m.json") -> list:
        argv = ["fit", str(work / "data.csv"), "-o", str(work / model),
                "--fixed-S", str(self.fixed_s), "--report", "json"]
        if self.precision != "double":
            argv += ["--precision", self.precision]
        return argv

    def op_argv(self, work: Path) -> list:
        if self.command == "fit":
            return self.fit_argv(work)
        if self.command == "sweep":
            return ["sweep", str(work / "data.csv"), "--x-grid", self.x_grid,
                    "--fixed-S", str(self.fixed_s)]
        return ["eval", "--model", str(work / "m.json"),
                "--grid", f"{self.grid[0]}x{self.grid[1]}",
                "--with-slope", "--with-entropy"]

    def x_values(self) -> list:
        lo, hi, step = (int(v) for v in self.x_grid.split(":"))
        return [float(v) for v in range(lo, hi + 1, step)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {wl.name: wl for wl in (
    Workload("fit_100k_double", "fit", 400, 250, 90),
    Workload("fit_1k_extended", "fit", 40, 25, 119, precision="extended"),
    Workload("sweep_1k_double", "sweep", 40, 25, 78, x_grid="10:40:2"),
    Workload("eval_grid", "eval", 40, 25, 78, grid=(40, 40)),
)}


def import_program():
    """Import orthofit from this checkout's ``src/``.

    Returns None when the sources are not there.  Bytecode caching is
    off so that the harness writes nothing under ``src/``.
    """
    if not (SRC / "orthofit" / "cli.py").is_file():
        return None
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import orthofit
    import orthofit.cli  # noqa: F401
    if Path(orthofit.__file__).resolve().parent != (SRC / "orthofit").resolve():
        return None
    return orthofit


def src_fingerprint(root: Path = SRC) -> str:
    """sha256 over the relative paths and bytes of the source files."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class OpResult(NamedTuple):
    code: object
    out: str
    err: str
    wall_ns: int


def call_cli(cli, argv) -> OpResult:
    """One op: ``cli.main(argv)`` with stdout and stderr captured.

    An exception escaping the program is a failed op, not a failed run.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001 - reported as a failed op
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter_ns() - t0
    return OpResult(code, out.getvalue(), err.getvalue(), wall)


def _median(values):
    return statistics.median(values) if values else 0.0


class _Run:
    """State of one benchmark run of one workload."""

    def __init__(self, wl: Workload, seed: int, tracer, probe=None):
        from orthofit import cli, select
        self.wl, self.seed, self.tracer, self.probe = wl, seed, tracer, probe
        self.cli, self.select = cli, select
        self.work = WORK / f"{wl.name}-s{seed}-p{os.getpid()}"
        self.failures: list[str] = []
        self.fit_reports: list[dict] = []
        self.chosen: dict = {}

    def check(self, res: OpResult, op: int, argv) -> list:
        """Problems with one op's output (empty when it passed)."""
        wl, model = self.wl, self.work / "m.json"
        code, out, err = res.code, res.out, res.err
        try:
            if argv[0] == "fit":
                problems, report = checks.check_fit(
                    code, out, Path(argv[3]), wl.fixed_s, wl.precision,
                    self.select.overfit_degree)
                if not problems:
                    self.fit_reports.append(report)
            elif wl.command == "sweep":
                problems, self.chosen = checks.check_sweep(
                    code, out, wl.x_values(), wl.fixed_s, self.select)
            else:
                rng = random.Random(self.seed * 1_000_003 + op)
                problems = checks.check_eval(code, out, model, *wl.grid, rng)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems and err:
            problems.append("stderr: " + err.strip().splitlines()[-1])
        return problems

    def setup(self) -> list:
        """Build the corpus (and, for eval, the model) SETUP_REPEATS
        times; returns the wall time of each pass.  Probes, when on, run
        before each pass and after the last."""
        from orthofit import dataset, synth
        wl, tracer = self.wl, self.tracer
        spec = synth.SynthSpec("magnet", wl.nx, wl.ny, NOISE_SIGMA, self.seed)
        times = []
        for rep in range(SETUP_REPEATS):
            if self.probe:
                self.probe()
            if tracer:
                tracer.begin_op(-1 - rep)
            t0 = time.perf_counter()
            points, _ = synth.generate(spec)
            dataset.save_dataset(points, self.work / "data.csv")
            del points
            if wl.command == "eval":
                argv = wl.fit_argv(self.work)
                res = call_cli(self.cli, argv)
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op()
            if wl.command == "eval" and rep == 0:
                for p in self.check(res, -1, argv):
                    self.failures.append(f"set-up fit: {p}")
        if self.probe:
            self.probe()
        return times

    def loop(self, seconds: float) -> list:
        """Closed loop of ops for ``seconds`` (at least MIN_OPS ops).
        Traced runs trace every other op, starting with the first;
        untraced runs probe the host's speed after each op."""
        tracer, argv = self.tracer, self.wl.op_argv(self.work)
        ops = []
        start = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
            i = len(ops)
            traced = tracer is not None and i % 2 == 0
            if traced:
                lo = tracer.begin_op(i)
            res = call_cli(self.cli, argv)
            if traced:
                hi = tracer.end_op()
            problems = self.check(res, i, argv)
            rec = {"op": i, "traced": traced, "wall_s": res.wall_ns * 1e-9,
                   "ok": not problems, "problems": problems[:5]}
            if self.probe:
                self.probe()
                rec["scaled_s"] = self.probe.scaled(rec["wall_s"],
                                                    SETUP_REPEATS + i)
            if traced:
                rec["layers"] = self._layers(lo, hi, res)
            ops.append(rec)
        return ops

    def _layers(self, lo, hi, res: OpResult) -> dict:
        from orthofit import model
        summary = self.tracer.summarize(lo, hi, res.wall_ns)
        summary["model.drift"] = conversion_drift(
            self.tracer.conversions, model.eval_ortho, model.eval_monomial)
        self.tracer.conversions = []
        written = self.work / "m.json" if self.wl.command == "fit" else None
        summary["cli.bytes_out"] = (len(res.out.encode()) + (
            written.stat().st_size if written and written.exists() else 0))
        return summary

    def defect(self) -> float:
        """orth_defect: max over fit ops; the set-up fit for eval; for the
        sweep, a fit of the same corpus and size after the loop, whose
        basis is the one every strength of the sweep uses."""
        if self.wl.command == "sweep":
            argv = self.wl.fit_argv(self.work, "ref.json")
            for p in self.check(call_cli(self.cli, argv), -1, argv):
                self.failures.append(f"reference fit: {p}")
        return max((r["defect"] for r in self.fit_reports), default=0.0)

    def largest_array(self) -> tuple:
        wl = self.wl
        if wl.command == "eval":
            doc = json.loads((self.work / "m.json").read_text())
            cols = max(doc["kept_indices"]) + 1
            return ((checks.ENTROPY_STEPS + 1) * cols * 8,
                    f"basis_dy array of one entropy_change call "
                    f"({checks.ENTROPY_STEPS + 1} x {cols} float64)")
        n = self.fit_reports[0]["n_train"] if self.fit_reports else 0
        what = "P block" if wl.precision == "double" else \
            "each of the P and Laplacian hi/lo blocks"
        return n * (wl.fixed_s + 1) * 8, \
            f"{what} ({n} x {wl.fixed_s + 1} float64)"

    def golden_values(self) -> dict:
        if self.wl.command == "sweep":
            return {"chosen_x": self.chosen.get("x"),
                    "chosen_S": self.chosen.get("S")}
        key = "setup_sigma_tr" if self.wl.command == "eval" else "sigma_tr"
        return {key: self.fit_reports[0]["sigma_tr"] if self.fit_reports else None}


def import_times(reps: int = SETUP_REPEATS) -> list:
    """Wall time from process start until ``orthofit.cli`` is imported,
    measured in ``reps`` fresh interpreters; None marks a failed start."""
    times = []
    for _ in range(reps):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-B", "-c", IMPORT_SCRIPT, str(SRC)],
                              stdout=subprocess.PIPE, timeout=120, check=False,
                              text=True)
        ok = proc.returncode == 0
        times.append(float(proc.stdout.split()[-1]) - t0 if ok else None)
    return times


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 boundaries=BOUNDARIES, golden: dict | None = None):
    """Run one workload; returns (result dict, tracer or None)."""
    import numpy as np
    stamp = envstamp.stamp_start(np)
    tracer = Tracer(boundaries) if trace else None
    probe = None if trace else HostProbe(np)
    run = _Run(wl, seed, tracer, probe)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        starts = [] if tracer else import_times()
        if None in starts:
            run.failures.append("importing orthofit in a fresh interpreter failed")
        if tracer:
            tracer.install()
        setup_times = run.setup()
        ops = run.loop(seconds)
        defect = run.defect()
        largest = run.largest_array()
        observed = run.golden_values()
        if golden and wl.name in golden.get("workloads", {}) \
                and seed == golden.get("seed"):
            run.failures += checks.check_golden(golden["workloads"][wl.name],
                                                observed)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(run.work, ignore_errors=True)
    failed = sum(not op["ok"] for op in ops)
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    raw = {"op_p50_s": _median(untraced),
           "setup_s": _median([t for t in starts if t]) + _median(setup_times)}
    if tracer:
        metrics, counts = _layer_metrics(ops, tracer, run.failures)
    else:
        counts = {}
        metrics = {
            "op_p50_s": _median([op["scaled_s"] for op in ops]),
            "setup_s": raw["setup_s"] * probe.scale(0, SETUP_REPEATS),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (len(ops) - failed) / len(ops),
            "orth_defect": defect,
        }
    units = LAYER_UNITS if tracer else E2E_UNITS
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and not run.failures,
        "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "failures": run.failures,
        "counts": counts,
        "golden_values": observed,
        "absent_boundaries": tracer.absent if tracer else [],
        "setup_s_each": setup_times, "import_s_each": starts,
        "raw_wall": raw, "probe_s_each": probe.times if probe else [],
        "ops": ops,
        "src_sha256": src_fingerprint(),
        "stamp": envstamp.stamp_end(stamp, *largest),
        "notes": {
            "ortho.gemv_bytes": "computed from n, k and passes of each "
                                "accepted column, not measured",
            "unattributed_s": "op wall time outside every span",
            "op_p50_s, setup_s": "untraced: wall times at the reference "
                                 "speed of probe.py; raw_wall holds the "
                                 "unscaled medians",
        },
    }
    return result, tracer


def _layer_metrics(ops, tracer, failures):
    """Medians over the traced ops; counts must repeat across them."""
    traced = [op for op in ops if op["traced"]]
    metrics, counts = {}, {}
    for key in LAYER_UNITS:
        values = [op["layers"][key] for op in traced if key in op["layers"]]
        if key in REPEATING_COUNTS:
            metrics[key] = counts[key] = values[0]
            if len(set(values)) > 1:
                failures.append(f"count {key} differs between ops: {values}")
        else:
            metrics[key] = _median(values)
    gen = [t for rep in range(SETUP_REPEATS)
           for t in tracer.setup_times(-1 - rep, "synth", "generate")]
    traced_wall = _median([op["wall_s"] for op in traced])
    untraced_wall = _median([op["wall_s"] for op in ops if not op["traced"]])
    metrics.update({
        "synth.generate_s": _median(gen),
        "trace.op_p50_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.absent_boundaries": len(tracer.absent),
    })
    return metrics, counts


def compare_counts(result: dict, previous: dict | None) -> list:
    """Counts of a traced run against an earlier traced run of the same
    workload, seed and sources; any difference is a failure."""
    if not previous or previous.get("src_sha256") != result["src_sha256"]:
        return []
    return [f"count {k} was {v} in the earlier run, now {result['counts'].get(k)}"
            for k, v in previous.get("counts", {}).items()
            if result["counts"].get(k) != v]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if import_program() is None:
        print(f"error: no orthofit sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else None
    result, tracer = run_workload(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace),
                                  golden=golden)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_s{args.seed}"
    out_path = RESULTS / f"BENCH_{stem}_t{args.trace}.json"
    if tracer:
        previous = json.loads(out_path.read_text()) if out_path.is_file() else None
        mismatch = compare_counts(result, previous)
        if mismatch:
            result["failures"] += mismatch
            result["correct"] = False
        tracer.write_spans(RESULTS / f"SPANS_{stem}.csv.gz")
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    for problem in result["failures"]:
        print(f"FAIL {problem}", file=sys.stderr)
    for op in result["ops"]:
        if op["problems"]:
            print(f"FAIL op {op['op']}: {op['problems'][0]}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:<26} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
