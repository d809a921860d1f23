#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload shrunk to a few hundred points, untraced and
traced, and checks that:

* every metric named in BENCHMARK.json is reported with its unit;
* the self times of one traced op plus ``unattributed_s`` sum to its
  traced wall time;
* per-layer counts repeat exactly between two traced runs of one seed;
* a boundary that no longer exists is reported absent, not fatal;
* the output checks reject a corrupted op output and a wrong golden value;
* the harness leaves ``src/`` byte-identical.

Exits 0 when all of that holds.
"""

import hashlib
import json
import random
import shutil
import sys
from dataclasses import replace

import checks
import run
from tracer import BOUNDARIES, Boundary, Tracer

TINY = {
    "fit_100k_double": dict(nx=30, ny=20, fixed_s=20),
    "fit_1k_extended": dict(nx=12, ny=10, fixed_s=14),
    "sweep_1k_double": dict(nx=12, ny=10, fixed_s=9, x_grid="10:14:2"),
    "eval_grid": dict(nx=12, ny=10, fixed_s=9, grid=(4, 3)),
}
SEED = 7


class SelfTestError(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise SelfTestError(message)


def tree_digest(root):
    """Path -> sha256 of every file under root, caches included."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tiny(name):
    return replace(run.WORKLOADS[name], name=f"tiny_{name}", **TINY[name])


def check_metric_units(result, declared, label):
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: metrics/units {got} differ from "
                        f"BENCHMARK.json {want}")


def check_self_time_sum(result, label):
    op = next(op for op in result["ops"] if op["traced"])
    layers = op["layers"]
    own = layers["layer_self_ns"]
    expect(all(v >= 0 for v in own.values()) and layers["unattributed_ns"] >= 0,
           f"{label}: negative self time {own}")
    total = sum(own.values()) + layers["unattributed_ns"]
    expect(total == layers["wall_ns"],
           f"{label}: self times + unattributed = {total} ns, "
           f"traced wall = {layers['wall_ns']} ns")


def check_workloads(bench):
    for name in run.WORKLOADS:
        wl = tiny(name)
        plain, _ = run.run_workload(wl, SEED, 0, trace=False)
        expect(plain["correct"], f"{name}: untraced run failed: {plain['failures']}")
        check_metric_units(plain, bench["end_to_end"], f"{name} --trace 0")
        first, _ = run.run_workload(wl, SEED, 0, trace=True)
        second, _ = run.run_workload(wl, SEED, 0, trace=True)
        for res in (first, second):
            expect(res["correct"], f"{name}: traced run failed: {res['failures']}")
            expect(not res["absent_boundaries"],
                   f"{name}: absent boundaries {res['absent_boundaries']}")
        check_metric_units(first, bench["per_layer"], f"{name} --trace 1")
        check_self_time_sum(first, name)
        expect(first["counts"] == second["counts"]
               and not run.compare_counts(second, first),
               f"{name}: counts differ between runs: {first['counts']} vs "
               f"{second['counts']}")
        tampered = dict(first, counts=dict(first["counts"], **{"fit.calls": -1}))
        expect(run.compare_counts(second, tampered),
               f"{name}: compare_counts missed a changed count")
        print(f"ok  {name}: metrics, self-time sum, repeating counts")


def check_absent_boundaries():
    gone = (Boundary("basis", "block", "orthofit.fit:_NoSuchGenerator.next_block"),
            Boundary("ddarith", "reduce", "orthofit.ddarith:no_such_reduction"),
            Boundary("cli", "main", "orthofit.no_such_module:main"))
    res, _ = run.run_workload(tiny("fit_1k_extended"), SEED, 0, trace=True,
                              boundaries=BOUNDARIES + gone)
    expect(res["correct"], f"absent boundaries broke the run: {res['failures']}")
    expect(sorted(res["absent_boundaries"]) == sorted(b.target for b in gone),
           f"absent boundaries reported as {res['absent_boundaries']}")
    expect(res["metrics"]["trace.absent_boundaries"]["value"] == len(gone),
           "trace.absent_boundaries does not count them")
    tracer = Tracer()
    expect(tracer._hook(0, lambda: [][0]) is None and len(tracer.absent) == 1,
           "a failing count hook was not reported as absent")
    print("ok  absent boundaries are reported, not fatal")


def check_checks_reject():
    """The checks must fail on outputs that are wrong."""
    from orthofit import cli
    wl = tiny("eval_grid")
    work = run.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        from orthofit import dataset, synth
        points, _ = synth.generate(synth.SynthSpec("magnet", wl.nx, wl.ny, 0.02, SEED))
        dataset.save_dataset(points, work / "data.csv")
        code = run.call_cli(cli, wl.fit_argv(work)).code
        expect(code == 0, "tiny set-up fit failed")
        code, out, *_ = run.call_cli(cli, wl.op_argv(work))
        model = work / "m.json"
        rows = out.splitlines()
        X, Y, Z, *rest = rows[5].split(",")
        bad_z = format(float(Z) * (1 + 1e-6), ".17g")
        corrupt = "\n".join(rows[:5] + [",".join([X, Y, bad_z, *rest])] + rows[6:])
        for text, want_ok in ((out, True), (corrupt, False)):
            problems = checks.check_eval(code, text, model, *wl.grid, random.Random(0))
            expect((not problems) == want_ok,
                   f"check_eval on {'good' if want_ok else 'corrupted'} output: "
                   f"{problems}")
        expect(checks.check_eval(3, out, model, *wl.grid, random.Random(0)),
               "check_eval accepted exit code 3")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    expect(checks.check_golden({"sigma_tr": 1.0}, {"sigma_tr": 1.0 + 1e-6}),
           "check_golden accepted a sigma_tr off by 1e-6")
    expect(not checks.check_golden({"chosen_S": 78}, {"chosen_S": 78}),
           "check_golden rejected an equal value")
    print("ok  checks reject corrupted output and wrong golden values")


def main() -> int:
    before = tree_digest(run.SRC)
    if run.import_program() is None:
        print(f"error: no orthofit sources under {run.SRC}", file=sys.stderr)
        return 2
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    try:
        check_workloads(bench)
        check_absent_boundaries()
        check_checks_reject()
        expect(tree_digest(run.SRC) == before, "the harness changed src/")
        print("ok  src/ is byte-identical")
    except SelfTestError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
