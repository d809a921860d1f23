"""Command-line interface: commands, report formats, exit codes."""

import csv
import errno
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from operator import setitem
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orthofit import (GridKernel, SynthSpec, cli, dZ_dY, entropy_change,
                      eval_physical, generate, load_model, save_dataset)
from orthofit.basis import degree_block
from orthofit.cli import _parse_x_grid, main
from orthofit.model import _block_rows
from orthofit.synth import MAX_POINTS, MAX_POLY_DEGREE, SplitMix64
from conftest import near_line_points, src_env
from oracles import reference_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity tokens are errors."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def plane_csv(tmp_path):
    path = tmp_path / "plane.csv"
    rows = ["x,y,z"]
    for x in np.linspace(0, 1, 7):
        for y in np.linspace(0, 1, 5):
            rows.append(f"{x},{y},{0.5 + 0.25 * x - 0.1 * y}")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def magnet_csv(tmp_path):
    pts, _ = generate(SynthSpec(surface="magnet", nx=30, ny=20,
                                noise_sigma=1e-4, seed=1))
    path = tmp_path / "magnet.csv"
    save_dataset(pts, path)
    return path


@pytest.fixture
def noisy_csv(tmp_path):
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=3))
    path = tmp_path / "noisy.csv"
    save_dataset(pts, path)
    return path


def test_fit_plane_with_defaults(capsys, plane_csv, tmp_path):
    model_path = tmp_path / "plane.model.json"
    code, out, _ = run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path),
                           "--report", "json")
    assert code == 0
    report = json.loads(out)
    assert report["sigma_tr"] <= 1e-20
    assert report["S"] <= 3
    assert model_path.exists()
    doc = json.loads(model_path.read_text())
    assert doc["version"] == 1 and len(doc["c"]) == doc["S"] + 1


def test_fit_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fit", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "nope.csv" in err


def test_fit_magnet_band(capsys, magnet_csv):
    code, out, _ = run_cli(capsys, "fit", str(magnet_csv), "--lambda", "0",
                           "--target-error", "1e-6", "--report", "json")
    assert code == 0
    report = json.loads(out)
    assert 5 <= report["S"] <= 12  # frozen from the corpus oracle run
    assert report["sigma_tr"] <= 1e-6
    for key in ("n_points", "n_train", "n_cv", "n_test", "sigma_cv",
                "sigma_test", "gamma", "gamma_prime", "defect", "wall_time_s"):
        assert key in report


def test_fit_report_formats_carry_identical_numbers(capsys, plane_csv):
    code, out_json, _ = run_cli(capsys, "fit", str(plane_csv), "--report", "json")
    assert code == 0
    code, out_csv, _ = run_cli(capsys, "fit", str(plane_csv), "--report", "csv")
    assert code == 0
    code, out_text, _ = run_cli(capsys, "fit", str(plane_csv), "--report", "text")
    assert code == 0
    jrep = json.loads(out_json)
    jrep.pop("wall_time_s")
    rows = list(csv.reader(io.StringIO(out_csv)))
    crep = dict(zip(rows[0], rows[1]))
    crep.pop("wall_time_s")
    for k, v in jrep.items():
        got = float(crep[k])
        assert got == pytest.approx(float(v), rel=0, abs=0) or got == float(v)
    for k in jrep:
        assert k in out_text


@pytest.mark.parametrize("fmt", ["csv", "text"])
@pytest.mark.parametrize("command", ["fit", "split"])
def test_reports_match_the_reference_writer(capsys, monkeypatch, noisy_csv,
                                            tmp_path, command, fmt):
    # a fixed clock gives both runs the same wall_time_s; split's sample_by
    # is a string cell among the numbers
    argv = [command, str(noisy_csv), "--sample-by", "x"]
    if command == "fit":
        argv += ["-o", str(tmp_path / "m.json"), "--fixed-S", "20"]

    def report(kind):
        clock = itertools.count(2.0, 1 / 3)
        monkeypatch.setattr("orthofit.cli.time",
                            SimpleNamespace(perf_counter=lambda: next(clock)))
        code, out, err = run_cli(capsys, *argv, "--report", kind)
        assert code == 0, err
        return out

    doc = json.loads(report("json"))
    if fmt == "csv":
        want = reference_rows([list(doc), list(doc.values())], "\n")
    else:
        width = max(map(len, doc))
        want = "".join(
            f"{k:<{width}}  {format(v, '.17g') if isinstance(v, float) else v}\n"
            for k, v in doc.items())
    assert report(fmt) == want


def test_sweep_writes_consistent_csv_and_json(capsys, noisy_csv, tmp_path):
    csv_out = tmp_path / "sweep.csv"
    json_out = tmp_path / "sweep.json"
    code, out, _ = run_cli(capsys, "sweep", str(noisy_csv),
                           "--x-grid", "10:40:10",
                           "--stop-rel-improvement", "0.005",
                           "--csv-out", str(csv_out),
                           "--json-out", str(json_out))
    assert code == 0
    rows = list(csv.reader(io.StringIO(csv_out.read_text())))
    assert len(rows) == 5
    sigmas = [float(r[rows[0].index("sigma_tr")]) for r in rows[1:]]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    doc = json.loads(json_out.read_text())
    for row, rec in zip(rows[1:], doc["records"]):
        assert float(row[rows[0].index("sigma_cv")]) == rec["sigma_cv"]
        assert float(row[rows[0].index("gamma")]) == rec["gamma"]


def test_sweep_csv_report_is_the_csv_out_table(capsys, noisy_csv, tmp_path):
    csv_out = tmp_path / "sweep.csv"
    argv = ["sweep", str(noisy_csv), "--x-grid", "10:30:10", "--fixed-S",
            "20", "--csv-out", str(csv_out)]
    code, out, err = run_cli(capsys, *argv, "--report", "csv")
    assert code == 0, err
    assert out.encode() == csv_out.read_bytes()
    # the text report, the default, adds the chosen line after the table
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0 and text.startswith(out)
    assert re.fullmatch(r"# chosen: x=\S+ S=20 gamma=\S+ gamma_prime=\S+\n",
                        text[len(out):])


def test_sweep_empty_grid_usage_error(capsys, plane_csv):
    code, _, err = run_cli(capsys, "sweep", str(plane_csv), "--x-grid", "")
    assert code == 2
    assert "grid" in err


def test_sweep_bad_grid_spec(capsys, plane_csv):
    for spec, named in (("40:10:10", "lo <= hi"), ("-800", "-800"),
                        ("-inf", "-inf"), ("10,nan", "nan"),
                        ("0:inf:10", "finite"),
                        ("1e20:2e20:1", "does not advance"),
                        ("0:1e9:1", "more than 100000 points"),
                        ("1:2", "x grid range must be lo:hi:step\n"),
                        # each message names the exact value, not six digits
                        ("123456.5:123457:1e-12",
                         "step 1e-12 does not advance past 123456.5\n"),
                        ("123456.5:123456.5000000001:1e-11", "step 1e-11 "
                         "does not advance past 123456.50000000001\n"),
                        ("9007199254740988:9007199254740996:1", "step 1.0 "
                         "does not advance past 9007199254740992.0\n")):
        code, out, err = run_cli(capsys, "sweep", str(plane_csv),
                                 f"--x-grid={spec}")
        assert code == 2, spec
        assert named in err and not out, spec


def test_sweep_grid_range_counts_points_exactly(capsys, plane_csv):
    # the count comes from (hi - lo) / step, not from a running sum with
    # an absolute slack, so tiny steps neither add nor lose points
    for spec, want in (("0:1e-9:1e-10", [k * 1e-10 for k in range(11)]),
                       ("0:1e-13:1e-14", [k * 1e-14 for k in range(11)]),
                       ("10:40:2", list(range(10, 41, 2))),
                       ("0:1:0.1", [k / 10 for k in range(11)])):
        assert _parse_x_grid(spec) == pytest.approx(want, rel=1e-15, abs=0)
    assert _parse_x_grid("0:1:0.1")[3] == 0.3  # decimal steps round once
    code, out, err = run_cli(capsys, "sweep", str(plane_csv),
                             "--x-grid=0:1e-9:1e-10", "--report", "json")
    assert code == 0, err
    xs = [r["x"] for r in strict_json(out)["records"]]
    assert len(xs) == 11 and xs[-1] == 1e-9


@pytest.mark.parametrize("command", ["fit", "sweep"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_lambda_is_a_usage_error(capsys, plane_csv, tmp_path,
                                            command, value):
    # fit checks --lambda before it reads the (here missing) data file;
    # sweep draws its strengths from --x-grid and has no --lambda at all
    if command == "fit":
        code, out, err = run_cli(capsys, "fit", str(tmp_path / "missing.csv"),
                                 "-o", str(tmp_path / "m.json"),
                                 f"--lambda={value}")
        assert code == 2 and not out
        assert err == (f"error: --lambda must be finite and >= 0, "
                       f"got {float(value)!r}\n")
        assert not (tmp_path / "m.json").exists()
        return
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(plane_csv), "--x-grid", "10", f"--lambda={value}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and not out
    assert f"unrecognized arguments: --lambda={value}" in err


def test_nan_target_error_is_a_usage_error(capsys, plane_csv, tmp_path):
    code, out, err = run_cli(capsys, "fit", str(plane_csv), "-o",
                             str(tmp_path / "m.json"), "--target-error", "nan")
    assert code == 2 and not out
    assert err == "error: --target-error must be >= 0, got nan\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("argv, message", [
    (("fit", "--target-error", "nan"), "--target-error must be >= 0, got nan"),
    (("sweep", "--x-grid", "10", "--target-error", "nan"),
     "--target-error must be >= 0, got nan"),
    (("split", "--sample-factor", "1"), "--sample-factor must be >= 2, got 1"),
    (("sweep", "--x-grid", "10:5:1"), "lo <= hi"),
    (("sweep", "--x-grid", "nan"), "x grid entry nan is not finite"),
    (("sweep", "--x-grid=-1000"), "x grid entry -1000.0 overflows"),
    (("sweep", "--x-grid", "10", "--gamma-cap", "nan"),
     "--gamma-cap must not be NaN"),
    (("fit", "--max-degree", "0"), "--max-degree must be >= 1, got 0"),
    (("sweep", "--x-grid", "10", "--max-degree", "0"),
     "--max-degree must be >= 1, got 0"),
    (("fit", "--fixed-S", "-1"), "--fixed-S must be >= 0, got -1"),
    (("sweep", "--x-grid", "10", "--fixed-S", "-1"),
     "--fixed-S must be >= 0, got -1"),
    (("fit", "--max-degree", "361"), "--max-degree must be <= 360, got 361"),
    (("fit", "--lambda=-0.25"),
     "--lambda must be finite and >= 0, got -0.25"),
    (("fit", "--sample-factor", "1"), "--sample-factor must be >= 2, got 1"),
    (("fit", "--stop-rel-improvement", "2"),
     "--stop-rel-improvement must lie in (0, 1), got 2.0"),
    (("sweep", "--x-grid", "10", "--stop-patience", "0"),
     "--stop-patience must be >= 1, got 0")])
def test_flags_are_checked_before_the_data_file(capsys, tmp_path, argv,
                                                message):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run_cli(capsys, argv[0], missing, *argv[1:])
    assert code == 2 and not out
    assert message in err and "no such file" not in err


def test_non_finite_training_error_is_a_numeric_failure(capsys, noisy_csv,
                                                        tmp_path):
    # lambda beyond the double-double splitter's range turns the fit NaN
    model_path = tmp_path / "m.json"
    code, out, err = run_cli(capsys, "fit", str(noisy_csv), "-o", str(model_path),
                             "--precision", "extended", "--lambda", "1e300",
                             "--fixed-S", "10")
    assert code == 4
    assert "not finite" in err and "1e+300" in err
    assert not out and not model_path.exists()
    code, out, err = run_cli(capsys, "sweep", str(noisy_csv), "--precision",
                             "extended", "--x-grid=-700,-690", "--fixed-S", "10")
    assert code == 4
    assert "no usable sweep records" in err and "x=-700" in err
    assert "not finite" in err and not out
    json_path, csv_path = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", str(noisy_csv), "--precision",
                           "extended", "--x-grid=-700,10", "--fixed-S", "10",
                           "--report", "json", "--json-out", str(json_path),
                           "--csv-out", str(csv_path))
    assert code == 0
    doc = strict_json(out)
    assert strict_json(json_path.read_text()) == doc
    failed = doc["records"][0]
    assert "not finite" in failed["note"]
    assert failed["sigma_tr"] is None and failed["gamma_prime"] is None
    assert doc["chosen"] == 1 and math.isfinite(doc["records"][1]["sigma_tr"])
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert rows[0]["sigma_tr"] == "nan"


def test_sweep_gamma_cap_nan_is_a_usage_error(capsys, plane_csv):
    code, out, err = run_cli(capsys, "sweep", str(plane_csv), "--x-grid", "10",
                             "--gamma-cap", "nan")
    assert code == 2
    assert err == "error: --gamma-cap must not be NaN\n" and not out
    code, out, _ = run_cli(capsys, "sweep", str(plane_csv), "--x-grid", "10",
                           "--gamma-cap", "inf", "--report", "json")
    assert code == 0
    assert "gamma <= inf" in strict_json(out)["policy"]


def test_sweep_input_errors_match_fit(capsys, plane_csv, tmp_path):
    fit = run_cli(capsys, "fit", str(plane_csv), "-o", str(tmp_path / "m.json"),
                  "--fixed-S", "700")
    sweep = run_cli(capsys, "sweep", str(plane_csv), "--x-grid", "10,20",
                    "--fixed-S", "700")
    assert fit[0] == sweep[0] == 3
    assert fit[2] == sweep[2] and "fixed_columns=701" in sweep[2]


def test_eval_plane_model_point_and_grid(capsys, plane_csv, tmp_path):
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path))
    pts_path = tmp_path / "pts.csv"
    pts_path.write_text("x,y\n0,0\n1,1\n")
    code, out, _ = run_cli(capsys, "eval", "--model", str(model_path),
                           "--points", str(pts_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["X", "Y", "Z"]
    assert float(rows[1][2]) == pytest.approx(0.5, abs=1e-12)
    assert float(rows[2][2]) == pytest.approx(0.5 + 0.25 - 0.1, abs=1e-12)
    code, out, _ = run_cli(capsys, "eval", "--model", str(model_path),
                           "--grid", "11x11")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 121


def test_eval_slope_and_entropy_columns(capsys, plane_csv, tmp_path):
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path))
    code, out, _ = run_cli(capsys, "eval", "--model", str(model_path),
                           "--grid", "5x1", "--with-slope", "--with-entropy")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["X", "Y", "Z", "dZdY", "dS"]
    slopes = [float(r[3]) for r in rows[1:]]
    assert slopes == pytest.approx([-0.1] * 5, rel=1e-9)
    entropies = [float(r[4]) for r in rows[1:]]
    xs = [float(r[0]) for r in rows[1:]]
    # constant slope: the field integral grows linearly with X
    for x, s in zip(xs, entropies):
        assert s == pytest.approx(-0.1 * x, rel=1e-9, abs=1e-12)


def _fit_model(capsys, csv_path, tmp_path):
    model_path = tmp_path / "m.json"
    code, _, _ = run_cli(capsys, "fit", str(csv_path), "-o", str(model_path),
                         "--fixed-S", "44")
    assert code == 0
    return model_path, load_model(model_path)


def _eval_rows(capsys, model_path, *argv):
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                             "--with-slope", "--with-entropy", *argv)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "X,Y,Z,dZdY,dS"
    return [ln.split(",") for ln in lines[1:]]


def _write_points(path, X, Y):
    path.write_text("x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                                      for a, b in zip(X, Y)))
    return path


def _per_point_row(model, X, Y):
    Z = eval_physical(model, X, Y)
    return [format(v, ".17g") for v in (X, Y, Z, dZ_dY(model, X, Y),
                                        entropy_change(model, Y, X))]


def test_eval_points_outside_rectangle_and_at_x_min(capsys, noisy_csv,
                                                    tmp_path):
    model_path, model = _fit_model(capsys, noisy_csv, tmp_path)
    nm = model.map
    X = [nm.x_min, nm.x_min, nm.x_min, nm.x_max + 0.5, nm.x_min - 0.25,
         0.5 * (nm.x_min + nm.x_max), nm.x_max]
    Y = [nm.y_min, 0.5 * (nm.y_min + nm.y_max), nm.y_max + 0.3, nm.y_max,
         nm.y_min - 0.2, nm.y_min - 1.0, nm.y_max + 2.0]
    rows = _eval_rows(capsys, model_path, "--points",
                      str(_write_points(tmp_path / "p.csv", X, Y)))
    assert rows == [_per_point_row(model, x, y) for x, y in zip(X, Y)]
    assert [r[4] for r in rows[:3]] == ["0", "0", "0"]
    assert all(math.isfinite(float(v)) for r in rows for v in r)


def _grid_rows(model, X, Y):
    """The rows ``eval --grid`` prints for the grid X x Y with both
    flags, from one ``GridKernel`` call."""
    return [[format(float(v), ".17g") for v in row]
            for row in zip(np.tile(X, len(Y)), np.repeat(Y, len(X)),
                           *(v.ravel() for v in GridKernel(
                               model, X, True, True)(np.c_[Y])))]


def test_eval_grid_columns_match_the_kernel(capsys, noisy_csv, tmp_path):
    # row k nx + i is (X[i], Y[k]) with GridKernel's values, and those are
    # the per-point values bit for bit
    model_path, model = _fit_model(capsys, noisy_csv, tmp_path)
    nm = model.map
    X = np.linspace(nm.x_min, nm.x_max, 40)
    Y = np.linspace(nm.y_min, nm.y_max, 15)
    rows = _eval_rows(capsys, model_path, "--grid", "40x15")
    assert rows == _grid_rows(model, X, Y)
    assert not any(r[4] == "-0" for r in rows)
    XX, YY = np.tile(X, 15), np.repeat(Y, 40)
    got = np.array(rows, dtype=float)
    for col, want in ((2, eval_physical(model, XX, YY)),
                      (3, dZ_dY(model, XX, YY)),
                      (4, entropy_change(model, YY, XX))):
        assert got[:, col].tobytes() == want.tobytes()


@pytest.mark.parametrize("S", [78, 90, 209])
def test_eval_points_on_the_grid_print_the_grid_rows(capsys, tmp_path, S):
    # one kernel for grids and points: the 40 x 40 grid's own points, read
    # from a file, print the grid's rows byte for byte at 79, 91 and 210
    # columns, whose sums cancel more the wider they are
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    data_path = tmp_path / "d.csv"
    save_dataset(pts, data_path)
    model_path = tmp_path / "m.json"
    code, _, err = run_cli(capsys, "fit", str(data_path), "-o",
                           str(model_path), "--fixed-S", str(S))
    assert code == 0, err
    grid = _eval_rows(capsys, model_path, "--grid", "40x40")
    X, Y = np.array(grid, dtype=float)[:, :2].T
    points = _eval_rows(capsys, model_path, "--points",
                        str(_write_points(tmp_path / "p.csv", X, Y)))
    assert len(grid) == 1600 and points == grid


def test_eval_grid_rows_match_the_kernel_on_sub_grids(capsys, noisy_csv,
                                                      tmp_path):
    # each value depends on its own X and Y alone: sub-grids of the same
    # axes give the same bits, so the chunking of the kernel calls
    # cannot show
    model_path, model = _fit_model(capsys, noisy_csv, tmp_path)
    nm = model.map
    whole = _eval_rows(capsys, model_path, "--grid", "30x20")
    X = np.linspace(nm.x_min, nm.x_max, 30)
    Y = np.linspace(nm.y_min, nm.y_max, 20)
    table = [[None] * 30 for _ in Y]
    for k0, k1 in ((0, 1), (1, 8), (8, 20)):
        for i0, i1 in ((0, 17), (17, 18), (18, 30)):
            piece = _grid_rows(model, X[i0:i1], Y[k0:k1])
            for r, row in enumerate(piece):
                table[k0 + r // (i1 - i0)][i0 + r % (i1 - i0)] = row
    assert whole == [row for line in table for row in line]


@pytest.mark.parametrize("cap", [1, 81, 729])
def test_eval_grid_output_does_not_depend_on_the_chunk_size(
        capsys, monkeypatch, noisy_csv, tmp_path, cap):
    # 45 columns: degree 8, so 27 kernel products per point with both
    # flags.  A cap of 1 or 81 cuts each row of 7 into pieces of 1 or 3
    # points; 729 takes whole rows, 3 at a time
    model_path, _ = _fit_model(capsys, noisy_csv, tmp_path)
    argv = ["eval", "--model", str(model_path), "--grid", "7x11",
            "--with-slope", "--with-entropy"]
    code, default, _ = run_cli(capsys, *argv)
    assert code == 0 and default.count("\n") == 78
    monkeypatch.setattr(cli, "GRID_CHUNK_ELEMS", cap)
    assert run_cli(capsys, *argv) == (0, default, "")


def test_eval_grid_names_the_row_that_overflows(capsys, tmp_path):
    # Z = 1e290 x^20 y in unit coordinates times a z range of 1e20
    # overflows only where x > 0.85 and y = 0.5: in row 1 of 3, past the
    # first chunk of its 4,000 X values.  The row named is the one
    # printed there, k nx + i + 1
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps({
        "version": 1, "kept_indices": [0, 232], "c": [0.0, 1e290],
        "normalization": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0,
                          "y_max": 1.0, "z_min": 0.0, "z_max": 1e20},
        "S": 1, "lambda": 0.0, "sigma_tr": 0.0}))
    cols = cli.GRID_CHUNK_ELEMS // 22  # degree 21 + 1 terms per point
    X = np.linspace(0.0, 1.0, 4000).tolist()
    i = next(i for i, x in enumerate(X)
             if math.isinf(0.5e290 * x ** 20 * 1e20))
    assert i >= cols
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                             "--grid", "4000x3")
    assert code == 4
    assert out.count("\n") == 1 + 4000 + cols
    assert err == (f"error: Z is not finite in output row {4000 + i + 1} "
                   f"(X={X[i]:.17g}, Y=0.5)\n")


@pytest.mark.parametrize("where", ["grid", "points"])
def test_eval_output_matches_the_reference_writer(capsys, noisy_csv,
                                                  tmp_path, where):
    # 23 x 13 = 299 rows: the last chunk is short of a whole one, 105 Y
    # rows of the grid or 269 points
    model_path, model = _fit_model(capsys, noisy_csv, tmp_path)
    nm = model.map
    if where == "grid":
        X = np.tile(np.linspace(nm.x_min, nm.x_max, 23), 13)
        Y = np.repeat(np.linspace(nm.y_min, nm.y_max, 13), 23)
        argv = ["--grid", "23x13"]
    else:  # inside the rectangle and a margin around it
        u = SplitMix64(17).uniforms(2 * 299).reshape(2, -1) * 1.4 - 0.2
        X = nm.x_min + u[0] * (nm.x_max - nm.x_min)
        Y = nm.y_min + u[1] * (nm.y_max - nm.y_min)
        argv = ["--points", str(_write_points(tmp_path / "p.csv", X, Y))]
    width = 23 if where == "grid" else 1
    assert len(X) % (width * _block_rows(model, 3, width,
                                         cli.GRID_CHUNK_ELEMS))
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                             "--with-slope", "--with-entropy", *argv)
    assert code == 0, err
    if where == "grid":  # the kernel's values, row k * 23 + i
        values = [v.ravel() for v in GridKernel(model, X[:23], True,
                                                 True)(Y[::23, None])]
    else:
        values = [eval_physical(model, X, Y), dZ_dY(model, X, Y),
                  entropy_change(model, Y, X)]
    rows = list(zip(X.tolist(), Y.tolist(), *(v.tolist() for v in values)))
    assert out == "X,Y,Z,dZdY,dS\n" + reference_rows(rows, "\n")


def _first_grid_lines(model_path, grid, cap=2 * 1024 ** 3):
    """The header and first three rows of ``eval --grid GRID`` with both
    flags, run under an address-space cap of ``cap`` bytes, and its
    stderr."""
    import resource
    import threading

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = src_env()
    env["OPENBLAS_NUM_THREADS"] = "1"
    with subprocess.Popen(
            [sys.executable, "-m", "orthofit.cli", "eval", "--model",
             str(model_path), "--grid", grid, "--with-slope",
             "--with-entropy"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, preexec_fn=limit) as proc:
        hung = threading.Timer(120, proc.kill)  # ends the reads with EOF
        hung.start()
        try:
            lines = [proc.stdout.readline() for _ in range(4)]
        finally:
            hung.cancel()
            proc.kill()
            proc.wait(timeout=60)
        return lines, proc.stderr.read()


def test_eval_grid_streams_rows_under_an_address_space_cap(capsys, noisy_csv,
                                                          tmp_path):
    # 10**10 grid rows: whole X and Y arrays would take 160 GB, so under a
    # 2 GB cap the first rows come out only if each chunk makes its own
    model_path, model = _fit_model(capsys, noisy_csv, tmp_path)
    lines, err = _first_grid_lines(model_path, "100000x100000")
    assert lines[0] == "X,Y,Z,dZdY,dS\n", err[-2000:]
    nm = model.map
    X = np.linspace(nm.x_min, nm.x_max, 100000)[:3]
    assert [ln.rstrip("\n").split(",") for ln in lines[1:]] == _grid_rows(
        model, X, [nm.y_min])


def test_eval_grid_pieces_of_a_long_row_stay_under_the_cap(tmp_path):
    # degree 21: one X row of 10**7 values goes in pieces of 992, and the
    # power table of the whole X axis, 2 * 22 * 10**7 doubles, would take
    # 3.5 GB, so under a 2 GB cap each piece needs a kernel of its own
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps({
        "version": 1, "kept_indices": [0, 232], "c": [0.5, 2.0],
        "normalization": {"x_min": 0.0, "x_max": 2.0, "y_min": 1.0,
                          "y_max": 3.0, "z_min": -1.0, "z_max": 4.0},
        "S": 1, "lambda": 0.0, "sigma_tr": 0.0}))
    assert cli.GRID_CHUNK_ELEMS // (3 * 22) < 10 ** 7 // 10 ** 4
    lines, err = _first_grid_lines(model_path, "10000000x2")
    assert lines[0] == "X,Y,Z,dZdY,dS\n", err[-2000:]
    model = load_model(model_path)
    X = np.linspace(0.0, 2.0, 10 ** 7)[:3]
    assert [ln.rstrip("\n").split(",") for ln in lines[1:]] == _grid_rows(
        model, X, [1.0])


def test_eval_rejects_model_version_mismatch(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}')
    code, _, err = run_cli(capsys, "eval", "--model", str(bad), "--grid", "2x2")
    assert code == 3
    assert "version" in err


# Each edit breaks one field of a valid model file.
BAD_MODEL_EDITS = {
    "truncated_c": ("'c'", lambda d: d["c"].pop()),
    "nan_coefficient": ("'c'", lambda d: setitem(d["c"], 1, math.nan)),
    "repeated_index": ("'kept_indices'",
                       lambda d: setitem(d["kept_indices"], 1, d["kept_indices"][0])),
    "negative_index": ("'kept_indices'",
                       lambda d: setitem(d["kept_indices"], 1, -1)),
    "empty_x_range": ("'normalization'",
                      lambda d: setitem(d["normalization"], "x_max",
                                        d["normalization"]["x_min"])),
    # json reads the Infinity and NaN tokens; export would write them back
    "infinite_lambda": ("'lambda'", lambda d: setitem(d, "lambda", math.inf)),
    # finite bounds whose difference overflows
    "overflowing_y_range": ("'normalization'", lambda d: d["normalization"]
                            .update(y_min=-1e308, y_max=1e308)),
    # beyond the documented maximum flat index
    "huge_index": ("'kept_indices'",
                   lambda d: setitem(d["kept_indices"], 1, 10**18)),
    "nan_sigma_tr": ("'sigma_tr'", lambda d: setitem(d, "sigma_tr", math.nan)),
    # numbers beyond the double range
    "infinite_S": ("'S'", lambda d: setitem(d, "S", math.inf)),
    # the file format holds S + 1 coefficients
    "S_mismatch": ("'S'", lambda d: setitem(d, "S", d["S"] + 1)),
    "huge_int_c": ("'c'", lambda d: setitem(d["c"], 0, 10 ** 400)),
    "huge_int_lambda": ("'lambda'", lambda d: setitem(d, "lambda", 10 ** 400)),
    "huge_int_sigma_tr": ("'sigma_tr'",
                          lambda d: setitem(d, "sigma_tr", -10 ** 400)),
    "huge_int_x_min": ("'x_min'", lambda d: setitem(d["normalization"],
                                                    "x_min", -10 ** 400)),
    # export --audit writes the audit back, so it must be finite too
    "nan_audit": ("'audit'", lambda d: setitem(
        d, "audit", {"a": [[1.0, 0.0], [0.5, math.nan]], "b": [1.0, 2.0]})),
    # JSON values of the wrong type
    "fractional_S": ("'S'", lambda d: setitem(d, "S", 1.9)),
    "string_S": ("'S'", lambda d: setitem(d, "S", "3")),
    "bool_S": ("'S'", lambda d: setitem(d, "S", True)),
    "bool_version": ("version", lambda d: setitem(d, "version", True)),
    "float_version": ("version", lambda d: setitem(d, "version", 1.0)),
    "string_c": ("'c'", lambda d: setitem(d["c"], 0, "0.5")),
    "bool_c": ("'c'", lambda d: setitem(d["c"], 0, False)),
    "string_bound": ("'y_max'", lambda d: setitem(d["normalization"],
                                                  "y_max", "2")),
    "bool_bound": ("'x_max'", lambda d: setitem(d["normalization"],
                                                "x_max", True)),
    "string_lambda": ("'lambda'", lambda d: setitem(d, "lambda", "0")),
    "bool_sigma_tr": ("'sigma_tr'", lambda d: setitem(d, "sigma_tr", False)),
    # a scalar where the file holds a list, and the other way round
    "scalar_c": ("'c'", lambda d: setitem(d, "c", 0.5)),
    "list_lambda": ("'lambda'", lambda d: setitem(d, "lambda", [0.5])),
    "list_sigma_tr": ("'sigma_tr'", lambda d: setitem(d, "sigma_tr", [1])),
    "list_x_min": ("'x_min'", lambda d: setitem(d["normalization"], "x_min",
                                                [0.0, 1.0])),
    "empty_list_y_max": ("'y_max'", lambda d: setitem(d["normalization"],
                                                      "y_max", [])),
    "list_normalization": ("'normalization'",
                           lambda d: setitem(d, "normalization", [])),
    "scalar_kept_indices": ("'kept_indices'",
                            lambda d: setitem(d, "kept_indices", 5)),
    "flat_audit": ("'audit'", lambda d: setitem(
        d, "audit", {"a": [1.0, 2.0], "b": [1.0, 2.0]})),
    "scalar_audit_b": ("'audit'", lambda d: setitem(
        d, "audit", {"a": [[1.0, 0.0], [0.5, 1.0]], "b": 1.0})),
    "list_audit": ("'audit'", lambda d: setitem(d, "audit", [1.0])),
    "extra_audit_key": ("'audit'", lambda d: setitem(
        d, "audit", {"a": [[1.0]], "b": [1.0], "c": [0.0]})),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_EDITS))
def test_eval_rejects_invalid_model_file(capsys, plane_csv, tmp_path, case):
    field, edit = BAD_MODEL_EDITS[case]
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path))
    doc = json.loads(model_path.read_text())
    edit(doc)
    model_path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                             "--grid", "2x2")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert field in err


def test_export_refuses_a_non_finite_audit_and_writes_nothing(
        capsys, plane_csv, tmp_path):
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path), "--audit")
    doc = json.loads(model_path.read_text())
    doc["audit"]["b"][0] = math.nan
    model_path.write_text(json.dumps(doc))
    out_path = tmp_path / "exported.json"
    code, out, err = run_cli(capsys, "export", "--model", str(model_path),
                             "--out", str(out_path), "--audit")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "'audit'" in err
    assert not out_path.exists()


@pytest.mark.parametrize("axis", [0, 2], ids=["x", "z"])
def test_fit_rejects_an_overflowing_data_range(capsys, plane_csv, tmp_path,
                                               axis):
    # each value is finite, but max - min is not
    lines = plane_csv.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for k, row in enumerate(rows):
        row[axis] = "9e307" if k % 2 else "-9e307"
    path = tmp_path / "wide.csv"
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]))
    code, out, err = run_cli(capsys, "fit", str(path), "-o",
                             str(tmp_path / "m.json"))
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        f"error: the {'xyz'[axis]} range -9e+307 .. 9e+307 overflows; "
        "cannot normalize"]


@pytest.mark.parametrize("case", ["far_point", "huge_coefficients"])
def test_eval_refuses_to_print_non_finite_values(capsys, tmp_path, case):
    pts, _ = generate(SynthSpec(surface="magnet", nx=10, ny=8, seed=1))
    save_dataset(pts, tmp_path / "d.csv")
    model_path = tmp_path / "m.json"
    assert run_cli(capsys, "fit", str(tmp_path / "d.csv"), "-o",
                   str(model_path), "--fixed-S", "20")[0] == 0
    pts_path = tmp_path / "pts.csv"
    pts_path.write_text("x,y\n1e300,0.5\n")
    if case == "huge_coefficients":
        doc = json.loads(model_path.read_text())
        doc["c"] = [1e308] * len(doc["c"])
        model_path.write_text(json.dumps(doc))
        pts_path.write_text("x,y\n0.5,0.5\n")
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                             "--points", str(pts_path), "--with-slope",
                             "--with-entropy")
    assert (code, out) == (4, "X,Y,Z,dZdY,dS\n")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: Z is not finite in output row 1 (X=")


def test_eval_into_a_closed_pipe_ends_quietly(capsys, plane_csv, tmp_path):
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path))
    with subprocess.Popen(
            [sys.executable, "-m", "orthofit.cli", "eval", "--model",
             str(model_path), "--grid", "1000x1000"],
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        assert proc.stdout.readline() == "X,Y,Z\n"
        proc.stdout.close()  # long before the 60 MB of rows are written
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("body", ["x,y\n0.5,nan\n", "x,y\n1e400,3\n",
                                  "H,T\n0.5\n"],
                         ids=["nan_field", "overflow_field", "short_row"])
def test_eval_rejects_bad_point_file(capsys, plane_csv, tmp_path, body):
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path))
    pts_path = tmp_path / "pts.csv"
    pts_path.write_text(body)
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                             "--points", str(pts_path))
    assert code == 3 and out == ""
    assert "line 2" in err


def test_eval_requires_points_or_grid(capsys, plane_csv, tmp_path):
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path))
    code, _, err = run_cli(capsys, "eval", "--model", str(model_path))
    assert code == 2


def test_eval_rejects_grid_with_points(capsys, tmp_path):
    # refused by the parser, before the (missing) model file is opened
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", str(tmp_path / "missing.json"),
              "--grid", "2x2", "--points", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--grid" in err and "--points" in err and "missing" not in err


@pytest.mark.parametrize("flags, message", [
    (("--grid", "0x3"), "error: bad grid spec '0x3'"),
    (("--grid", "2x2x2"), "error: bad grid spec '2x2x2'"),
    (("--grid", "x"), "error: bad grid spec 'x'"),
    ((), "error: need --points or --grid"),
    # each axis is one array, which numpy could not allocate
    (("--grid", "99999999999999999999x1"), "error: --grid "
     "'99999999999999999999x1': NX and NY must each be at most 10000000"),
    (("--grid", "1x10000001"),
     "error: --grid '1x10000001': NX and NY must each be at most 10000000")])
def test_eval_flags_are_checked_before_the_model_file(capsys, tmp_path, flags,
                                                      message):
    code, out, err = run_cli(capsys, "eval", "--model",
                             str(tmp_path / "missing.json"), *flags)
    assert code == 2 and not out
    assert err == message + "\n"


def test_export_refuses_audit_with_csv_format(capsys, plane_csv, tmp_path):
    # the coefficient table has no place for the audit: refused, not
    # dropped, before the model file is read or the output file opened
    model_path, out_csv = tmp_path / "m.json", tmp_path / "coeffs.csv"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path), "--audit")
    for model in (model_path, tmp_path / "missing.json"):
        code, out, err = run_cli(capsys, "export", "--model", str(model),
                                 "--out", str(out_csv), "--format", "csv",
                                 "--audit")
        assert (code, out) == (2, "")
        assert err == ("error: --audit applies to --format json, "
                       "not --format csv\n")
        assert not out_csv.exists()


def test_export_json_and_csv(capsys, plane_csv, tmp_path):
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path), "--audit")
    out_json = tmp_path / "exported.json"
    code, _, _ = run_cli(capsys, "export", "--model", str(model_path),
                         "--out", str(out_json))
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert "audit" not in doc  # stripped unless requested
    code, _, _ = run_cli(capsys, "export", "--model", str(model_path),
                         "--out", str(out_json), "--audit")
    assert "audit" in json.loads(out_json.read_text())
    out_csv = tmp_path / "coeffs.csv"
    code, _, _ = run_cli(capsys, "export", "--model", str(model_path),
                         "--out", str(out_csv), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_csv.read_text())))
    assert rows[0] == ["t", "degree", "y_power", "c"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    # coefficients live in normalized units: z spans [0.4, 0.75] on this grid
    assert float(rows[2][3]) == pytest.approx(0.25 / 0.35, rel=1e-12)


def test_export_csv_matches_the_reference_writer(capsys, plane_csv,
                                                 tmp_path):
    # kept indices up to 65,340 (total degree 360): t, degree and y_power
    # reach the reference writer as ints
    model_path = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model_path))
    doc = json.loads(model_path.read_text())
    doc["kept_indices"] = [0, 65339, 65340]
    doc["c"][1] = -doc["c"][1] / 3
    model_path.write_text(json.dumps(doc))
    out_csv = tmp_path / "coeffs.csv"
    code, _, err = run_cli(capsys, "export", "--model", str(model_path),
                           "--out", str(out_csv), "--format", "csv")
    assert code == 0, err
    rows = [(0, 0, 0, doc["c"][0]), (65339, 360, 359, doc["c"][1]),
            (65340, 360, 360, doc["c"][2])]
    assert out_csv.read_bytes() == (
        "t,degree,y_power,c\n" + reference_rows(rows, "\n")).encode()


@pytest.mark.parametrize("argv", [
    ["synth", "--surface", "poly:3", "--nx", "6", "--ny", "5",
     "--out", "{out}"],
    ["eval", "--model", "{model}", "--grid", "7x5", "--with-slope",
     "--with-entropy"],
    ["sweep", "{data}", "--x-grid=-700,10,20", "--fixed-S", "10",
     "--precision", "extended", "--report", "csv"],
    ["sweep", "{data}", "--x-grid=-700,10,20", "--fixed-S", "10",
     "--precision", "extended", "--csv-out", "{out}"],
    ["export", "--model", "{model}", "--out", "{out}", "--format", "csv"],
    ["fit", "{data}", "-o", "{model}", "--report", "csv"],
    ["split", "{data}", "--report", "csv"],
], ids=["synth", "eval_grid", "sweep_report", "sweep_csv_out", "export",
        "fit_report", "split_report"])
def test_every_csv_the_cli_writes_is_a_rectangle(capsys, noisy_csv, tmp_path,
                                                 argv):
    model, out_csv = tmp_path / "m.json", tmp_path / "out.csv"
    run_cli(capsys, "fit", str(noisy_csv), "-o", str(model), "--fixed-S", "20")
    names = {"data": noisy_csv, "model": model, "out": out_csv}
    code, out, err = run_cli(capsys, *(a.format(**names) for a in argv))
    assert code == 0, err
    if "{out}" in argv:
        out = out_csv.read_bytes().decode()
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert len(rows) >= 2
    assert [len(r) for r in rows] == [len(rows[0])] * len(rows)


@pytest.mark.parametrize("surface", [
    "poly:-1", f"poly:{MAX_POLY_DEGREE + 1}", "poly:100000", "poly:2.5",
    "poly:", "plane:5", "magnet:1"])
def test_synth_rejects_bad_surface(capsys, tmp_path, monkeypatch, surface):
    # refused before anything is generated or allocated
    monkeypatch.setattr("orthofit.cli.generate",
                        lambda spec: pytest.fail("generate was called"))
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", "--surface", surface,
                             "--out", str(out_path))
    assert code == 2 and not out
    assert err.startswith(f"error: surface {surface!r}")
    assert not out_path.exists()


def test_synth_rejects_negative_grid_counts(capsys, tmp_path):
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", "--nx", "-2", "--ny", "-3",
                             "--out", str(out_path))
    assert code == 2 and not out
    assert err == "error: --nx and --ny must be >= 1, got --nx=-2 and --ny=-3\n"
    assert not out_path.exists()


@pytest.mark.parametrize("flags, message", [
    (("--noise", "nan"), "--noise must be finite and >= 0, got nan"),
    (("--seed", "-1"), "--seed must lie in [0, 2**64), got -1"),
    (("--seed", str(2 ** 64)), f"--seed must lie in [0, 2**64), got {2 ** 64}"),
    (("--nx", "1", "--ny", "1"),
     "--nx * --ny must be >= 6, got --nx=1 and --ny=1")])
def test_synth_names_a_bad_flag(capsys, tmp_path, flags, message):
    # a seed is not reduced modulo 2**64: -1 and 2**64 - 1 would give one file
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", *flags, "--out", str(out_path))
    assert code == 2 and not out
    assert err == f"error: {message}\n"
    assert not out_path.exists()


def test_synth_rejects_a_grid_over_the_point_cap(capsys, tmp_path,
                                                 monkeypatch):
    # refused before anything is generated or allocated
    monkeypatch.setattr("orthofit.cli.generate",
                        lambda spec: pytest.fail("generate was called"))
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", "--nx", "200000", "--ny",
                             "200000", "--out", str(out_path))
    assert code == 2 and not out
    assert err == (f"error: --nx * --ny must be <= {MAX_POINTS}, got "
                   f"--nx=200000 and --ny=200000 (40000000000 points)\n")
    assert not out_path.exists()


def test_synth_refuses_noise_that_overflows(capsys, tmp_path):
    out_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "synth", "--nx", "4", "--ny", "3",
                             "--noise", "1.7e308", "--out", str(out_path))
    assert code == 2 and not out
    assert err == "error: noise 1.7e+308 makes 5 of 12 z values overflow\n"
    assert not out_path.exists()


def test_synth_and_split_commands(capsys, tmp_path):
    data_path = tmp_path / "gen.csv"
    code, out, _ = run_cli(capsys, "synth", "--surface", "magnet", "--nx", "12",
                           "--ny", "10", "--noise", "0.01", "--seed", "4",
                           "--out", str(data_path))
    assert code == 0 and "120 points" in out
    code, out, _ = run_cli(capsys, "split", str(data_path),
                           "--sample-factor", "3", "--report", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["n_points"] == 120
    assert rep["n_train"] == 80 and rep["n_cv"] == 20 and rep["n_test"] == 20
    code, out, _ = run_cli(capsys, "split", str(data_path), "--indices")
    rep = json.loads(out)
    assert sorted(rep["train_idx"] + rep["cv_idx"] + rep["test_idx"]) == list(range(120))


def test_split_insufficient_data_exits_3(capsys, tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("x,y,z\n0,0,1\n1,1,2\n0.5,0.7,3\n")
    code, _, err = run_cli(capsys, "split", str(p), "--sample-factor", "5")
    assert code == 3


def test_parse_error_exits_3(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,z\n1,abc,3\n")
    code, _, err = run_cli(capsys, "fit", str(p))
    assert code == 3
    assert "line 2" in err


def test_cell_beyond_the_csv_field_limit_exits_3(capsys, tmp_path):
    p = tmp_path / "long.csv"
    p.write_text("x,y,z\n1,2,3\n" + "9" * 200_000 + ",2,3\n")
    code, out, err = run_cli(capsys, "fit", str(p))
    assert code == 3 and not out
    assert err == "error: line 3: field larger than field limit (131072)\n"


def test_out_of_memory_exits_3_with_numpys_message(capsys, monkeypatch,
                                                   magnet_csv, tmp_path):
    # P of 2**40 times the training points: numpy refuses the allocation
    # with a MemoryError that names the shape and the size
    def huge(self, n, cap):
        self.P = np.empty((n << 40, cap), order="F")
    monkeypatch.setattr("orthofit.ortho._DoubleCore.__init__", huge)
    code, out, err = run_cli(capsys, "fit", str(magnet_csv),
                             "-o", str(tmp_path / "m.json"))
    assert code == 3 and not out
    assert re.fullmatch(r"error: out of memory: Unable to allocate \S+ \w+ "
                        r"for an array with shape \(\d+, \d+\) and data "
                        r"type float64\n", err), err


def test_non_utf8_data_exits_3(capsys, tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes("H,T,M\n1,2,3\n1,2,é\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "fit", str(p))
    assert code == 3 and not out
    assert err == "error: line 3: not UTF-8: byte 0xe9\n"


@pytest.mark.parametrize("argv", [
    ["fit", "{dir}"],
    ["fit", "{data}", "-o", "{dir}/"],
    ["sweep", "{data}", "--x-grid", "10", "--csv-out", "{dir}"],
    ["sweep", "{data}", "--x-grid", "10", "--json-out", "{dir}"],
    ["eval", "--model", "{model}", "--points", "{dir}"],
    ["eval", "--model", "{dir}", "--grid", "2x2"],
    ["export", "--model", "{model}", "--out", "{dir}"],
    ["export", "--model", "{model}", "--out", "{dir}", "--format", "csv"],
], ids=["fit_input", "fit_model_out", "sweep_csv_out", "sweep_json_out",
        "eval_points", "eval_model", "export_json", "export_csv"])
def test_unopenable_path_is_a_usage_error(capsys, plane_csv, tmp_path, argv):
    model = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model))
    names = {"dir": tmp_path, "data": plane_csv, "model": model}
    target = next(a for a in argv if "{dir}" in a).format(**names)
    code, out, err = run_cli(capsys, *(a.format(**names) for a in argv))
    assert code == 2 and not out
    assert err == f"error: cannot open {target}: {os.strerror(errno.EISDIR)}\n"


FULL = "/dev/full"  # opens, but every write to it fails with ENOSPC
needs_full = pytest.mark.skipif(not os.path.exists(FULL),
                                reason=f"needs {FULL}")


@needs_full
@pytest.mark.parametrize("argv", [
    ["fit", "{data}", "-o", FULL],
    ["sweep", "{data}", "--x-grid", "10", "--csv-out", FULL],
    ["sweep", "{data}", "--x-grid", "10", "--json-out", FULL],
    ["export", "--model", "{model}", "--out", FULL],
    ["export", "--model", "{model}", "--out", FULL, "--format", "csv"],
    ["synth", "--nx", "3", "--ny", "2", "--out", FULL],
], ids=["fit", "sweep_csv", "sweep_json", "export_json", "export_csv",
        "synth"])
def test_a_failed_write_names_the_output(capsys, plane_csv, tmp_path, argv):
    model = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model))
    names = {"data": plane_csv, "model": model}
    code, out, err = run_cli(capsys, *(a.format(**names) for a in argv))
    assert code == 2 and not out
    assert err == f"error: cannot write {FULL}: {os.strerror(errno.ENOSPC)}\n"


@needs_full
@pytest.mark.parametrize("target", ["stdout", FULL])
def test_a_full_device_ends_with_one_error_line(capsys, plane_csv, tmp_path,
                                                target):
    # in a subprocess, where stdout is a real file and the exit flush runs
    model = tmp_path / "m.json"
    run_cli(capsys, "fit", str(plane_csv), "-o", str(model))
    if target == "stdout":
        argv = ["eval", "--model", str(model), "--grid", "3x3"]
    else:
        argv = ["synth", "--nx", "3", "--ny", "2", "--out", FULL]
    with open(FULL, "w") as full:
        proc = subprocess.run([sys.executable, "-m", "orthofit.cli", *argv],
                              env=src_env(), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: cannot write {target}: "
                           f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("argv", [
    ["synth", "--nx", "100", "--ny", "100", "--out", "{out}"],
    ["fit", "{data}", "--fixed-S", "78", "-o", "{out}"],
], ids=["synth", "fit"])
def test_a_write_over_the_file_size_limit_leaves_no_partial_file(
        noisy_csv, tmp_path, argv):
    # the child caps its own file size at 1 KiB and ignores SIGXFSZ, so
    # the write past the cap fails with EFBIG after 1,024 bytes are out
    pytest.importorskip("resource")
    if not hasattr(signal, "SIGXFSZ"):
        pytest.skip("needs SIGXFSZ")
    out = tmp_path / "out"
    child = ("import resource, signal, sys\n"
             "from orthofit.cli import main\n"
             "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
             "resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child,
         *(a.format(data=noisy_csv, out=out) for a in argv)],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr == (f"error: cannot write {out}: "
                           f"{os.strerror(errno.EFBIG)}\n")
    assert not out.exists()


def test_commands_are_deterministic(capsys, noisy_csv, tmp_path):
    argv = ["sweep", str(noisy_csv), "--x-grid", "12,24",
            "--stop-rel-improvement", "0.005", "--report", "json"]
    code, out_a, _ = run_cli(capsys, *argv)
    code, out_b, _ = run_cli(capsys, *argv)
    assert out_a == out_b
    code, eval_a, _ = run_cli(capsys, "synth", "--surface", "poly:3",
                              "--nx", "8", "--ny", "8", "--seed", "2",
                              "--out", str(tmp_path / "a.csv"))
    code, eval_b, _ = run_cli(capsys, "synth", "--surface", "poly:3",
                              "--nx", "8", "--ny", "8", "--seed", "2",
                              "--out", str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_extended_fit_does_not_depend_on_blas_threads(noisy_csv, tmp_path):
    # every BLAS sum of the extended projections is exact, so the thread
    # count cannot change a bit of the model or the report
    env = src_env()
    outputs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        model = tmp_path / f"m{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "orthofit.cli", "fit", str(noisy_csv),
             "-o", str(model), "--precision", "extended", "--fixed-S", "40"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        report = re.sub(r"(?m)^(wall_time_s\s+).*$", r"\1-", proc.stdout)
        outputs.append((model.read_bytes(), report, proc.stderr))
    assert "wall_time_s  -" in outputs[0][1]
    assert outputs[0] == outputs[1]


@pytest.fixture
def corpus_1k(tmp_path):
    """The benchmark's seed-1 1k corpus: 40 x 25, noise 0.02."""
    pts, _ = generate(SynthSpec(surface="magnet", nx=40, ny=25,
                                noise_sigma=0.02, seed=1))
    path = tmp_path / "d1k.csv"
    save_dataset(pts, path)
    return path


def test_double_fit_and_sweep_do_not_depend_on_blas_threads(corpus_1k,
                                                            tmp_path):
    # the scan, the raw-coefficient expansion and the held-out gemv
    # products of a 1k double fit and sweep give the same bytes under 1
    # and 2 OpenBLAS threads
    env = src_env()
    outputs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        model = tmp_path / f"m{threads}.json"
        runs = [subprocess.run(
            [sys.executable, "-m", "orthofit.cli", *argv, str(corpus_1k)],
            env=env, capture_output=True, text=True, timeout=300)
            for argv in (["fit", "-o", str(model), "--fixed-S", "209"],
                         ["sweep", "--x-grid", "10:40:2", "--fixed-S", "78"])]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append((model.read_bytes(), re.sub(
            r"(?m)^(wall_time_s\s+).*$", r"\1-", runs[0].stdout),
            runs[1].stdout))
    assert outputs[0] == outputs[1]


def test_fit_and_sweep_refuse_columns_a_model_file_cannot_hold(capsys,
                                                               tmp_path):
    # the near-line corpus keeps T_2(2y - 1) but rejects y: at four
    # columns `fit` writes no model and the sweep has no usable strength,
    # both with exit 4 and the conversion's message; at three both run
    data = tmp_path / "line.csv"
    save_dataset(near_line_points(), data)
    model = tmp_path / "line.json"
    need = "column 5 needs monomial 2, which the fit does not keep"
    code, _, err = run_cli(capsys, "fit", str(data), "--fixed-S", "3",
                           "-o", str(model))
    assert (code, err) == (4, f"error: {need}: a monomial model cannot "
                              f"hold the fit\n")
    assert not model.exists()
    code, _, err = run_cli(capsys, "sweep", str(data), "--fixed-S", "3",
                           "--x-grid", "5:10:5")
    assert code == 4 and err.startswith(
        f"error: no usable sweep records to select from (x=5: {need}")
    assert run_cli(capsys, "fit", str(data), "--fixed-S", "2",
                   "-o", str(model))[0] == 0
    assert run_cli(capsys, "sweep", str(data), "--fixed-S", "2",
                   "--x-grid", "5:10:5")[0] == 0


def test_odd_field_fit_writes_only_odd_powers_of_x(capsys, corpus_1k,
                                                  tmp_path):
    # the odd-x rule's raw x factor is the unshifted T_i(x), i odd, which
    # spans exactly x, x^3, ...; T_i(2x - 1) would need even powers of x
    # that the fit never keeps.  sigma_tr is the one the fit on the odd
    # monomials x^i y^j gave (0.0009930467475916963).
    model = tmp_path / "odd.json"
    code, out, err = run_cli(capsys, "fit", str(corpus_1k), "-o", str(model),
                             "--odd-field-only", "--fixed-S", "44",
                             "--report", "json")
    assert code == 0, err
    kept = json.loads(model.read_text())["kept_indices"]
    assert len(kept) == 45
    assert all(degree_block(t).m % 2 != degree_block(t).j % 2 for t in kept)
    assert json.loads(out)["sigma_tr"] == pytest.approx(
        0.0009930467475916963, rel=1e-9)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --- CLI boundary property --------------------------------------------------
# Every run ends with a documented exit code; a failure prints one error
# line and no traceback, and a success prints no non-finite number.

NON_FINITE = re.compile(r"(?i)(?<![a-z])(nan|inf|infinity)(?![a-z])")
FAILED_SWEEP_ROW = re.compile(r"(?m)^[^,\n]*,[^,\n]*,-1,.*$")
COMMON_FLAGS = {
    "--sample-by": ["x", "y"],
    "--sample-factor": ["2", "3", "9"],
    "--max-degree": ["1", "3", "6"],
    "--target-error": ["0", "1e-3"],
    "--precision": ["double", "extended"],
    "--fixed-S": ["0", "2", "9", "40"],
    "--stop-rel-improvement": ["0.01", "0.5"],
    "--stop-patience": ["1", "3"],
    "--report": ["text", "csv", "json"],
}
# the good values of each command's flags; grids stay in the hundreds
FLAGS = {
    "fit": {**COMMON_FLAGS, "--lambda": ["0", "1e-9", "2", "1e300"]},
    "sweep": {**COMMON_FLAGS, "--gamma-cap": ["1", "0", "-1", "inf"]},
    "split": {k: COMMON_FLAGS[k] for k in ("--sample-by", "--sample-factor",
                                           "--report")},
    "eval": {"--grid": ["1x1", "3x4", "20X10", "2x150"]},
    "export": {"--format": ["json", "csv"]},
    "synth": {"--surface": ["plane", "magnet", "poly", "poly:0", "poly:9"],
              "--nx": ["1", "2", "7", "20"], "--ny": ["1", "3", "20"],
              "--noise": ["0", "0.02", "1e300"],
              "--seed": ["0", "1", "7", "18446744073709551615"]},
}
SWITCHES = {"fit": ["--odd-field-only"], "split": ["--indices"],
            "eval": ["--with-slope", "--with-entropy"], "export": ["--audit"]}
BAD_FLAGS = ["--lambda=-1", "--lambda=nan", "--lambda=-inf",
             "--sample-factor=1", "--max-degree=0", "--max-degree=361",
             "--target-error=-1", "--target-error=nan", "--fixed-S=-1",
             "--stop-rel-improvement=1", "--stop-patience=0",
             "--gamma-cap=nan", "--grid=0x3", "--grid=2x2x2", "--grid=x",
             "--grid=99999999999999999999x1", "--surface=poly:41",
             "--surface=plane:1", "--surface=cubic", "--nx=0", "--ny=-3",
             "--nx=100000000", "--noise=-1", "--noise=nan", "--noise=1e308",
             "--seed=-1", "--seed=18446744073709551617"]
X_GRIDS = ["10", "0,40", "20,10,30", "0:20:5", "0:40:2", "-700,10", "-800",
           "10:5:1", "nan", "1e20:2e20:1", "1:2", ""]
HEADERS = {3: ["x,y,z", "H,T,M"], 2: ["x,y", "H,T"]}
BAD_ROWS = {3: ["nan,1,2", "1,inf,2", "1,2", "1,2,3,4", "a,b,c", ",,",
                "1e999,0,0"],
            2: ["nan,1", "1,inf", "1", "1,2,3", "a,b", ",", "1e999,0"]}


def _table(rng, width):
    """A data file (``width`` 3) or point file (2) of up to 30 points with x
    on six levels, x and z scaled towards the ends of the double range,
    sometimes with a bad row or a header that lacks its last column."""
    n = rng.randint(6, 30) if rng.random() < 0.8 else rng.randint(0, 5)
    sx, sz = (rng.choice([1.0, 1.0, 1e-300, 1e150, 1e300]) for _ in "xz")
    lines = [",".join(f"{v!r}" for v in (k % 6 * sx, rng.randint(0, 9),
                                          rng.uniform(-2, 2) * sz)[:width])
             for k in range(n)]
    if lines and rng.random() < 0.15:
        lines[rng.randrange(n)] = rng.choice(BAD_ROWS[width])
    header = rng.choice(HEADERS[width])
    if rng.random() < 0.05:
        header = header[:-2]
    return "".join(f"{line}\n" for line in [header, *lines])


def _run(rng, tmp, model_doc):
    """An argument list for one command, with the files it reads written
    to ``tmp``, and the files an exit-0 run writes.

    ``fit``, ``sweep`` and ``split`` read a data file, ``eval`` the model
    ``model_doc`` and a grid or a point file, ``export`` that model, and
    ``synth`` nothing.  Up to three flags take good values, each switch is
    set half the time, and sometimes one more flag takes a bad value.
    The odd cases are kept rare enough that most draws reach the work."""
    command = rng.choice(sorted(FLAGS))
    table = FLAGS[command]
    chosen = rng.sample(sorted(table), rng.randint(0, min(3, len(table))))
    argv = [command] + [f"{k}={rng.choice(table[k])}" for k in chosen]
    argv += [f for f in SWITCHES.get(command, []) if rng.random() < 0.5]
    bad = [f for f in BAD_FLAGS if f.partition("=")[0] in table]
    if bad and rng.random() < 0.15:
        argv.append(rng.choice(bad))
    data, model, out = tmp / "d.csv", tmp / "in.json", tmp / "out"
    if command in ("fit", "sweep", "split"):
        data.write_text(_table(rng, 3))
        argv.insert(1, str(data))
    if command in ("eval", "export"):
        model.write_text(json.dumps(model_doc))
        argv += ["--model", str(model)]
    if command == "sweep":
        argv.append(f"--x-grid={rng.choice(X_GRIDS)}")
    elif command == "eval" and not any(
            a.startswith("--grid") for a in argv) and rng.random() < 0.9:
        data.write_text(_table(rng, 2))
        argv.append(f"--points={data}")
    elif command in ("fit", "export", "synth"):
        argv += ["-o" if command == "fit" else "--out", str(out)]
        return argv, [out]
    return argv, []


def _check_run(capsys, argv, *outputs):
    """Run ``main`` and check the boundary rules; ``outputs`` are the files
    an exit-0 run writes, which may hold no non-finite number either."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert not caught, [str(w.message) for w in caught]
    if code:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    else:
        assert err == ""
        if argv[0] == "sweep":  # a failed record (S = -1) prints nan errors
            out = FAILED_SWEEP_ROW.sub("", out)
        for text in [out, *(p.read_text() for p in outputs)]:
            assert not NON_FINITE.search(text), (argv, text)


@settings(max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.randoms(use_true_random=True))
def test_data_and_flags_meet_the_cli_boundary_rules(capsys, tmp_path,
                                                    audited_model, rng):
    argv, outputs = _run(rng, tmp_path, audited_model)
    _check_run(capsys, argv, *outputs)


@pytest.fixture(scope="module")
def audited_model(tmp_path_factory):
    """A small model file with its audit, as a parsed JSON document."""
    root = tmp_path_factory.mktemp("audited")
    pts, _ = generate(SynthSpec(surface="magnet", nx=8, ny=6, seed=3))
    save_dataset(pts, root / "d.csv")
    assert main(["fit", str(root / "d.csv"), "-o", str(root / "m.json"),
                 "--fixed-S", "5", "--audit"]) == 0
    return json.loads((root / "m.json").read_text())


JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 7, 10 ** 400, -10 ** 400,
                     1e308, -1e308, 1e-300, 5e-324, math.nan, math.inf, "",
                     "1", [], {}, [1.0], [[1.0]], {"a": 1}]),
    st.floats(), st.integers(-10 ** 6, 10 ** 6))


@st.composite
def _mutated(draw, doc):
    """``doc`` with one or two fields replaced, deleted or added to.  Each
    edit walks down from the top, one key or index at a time, so every
    top-level field is as likely as the large audit."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (
                parent is None or draw(st.booleans())):
            parent, key = node, draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            node = parent[key]
        action = draw(st.sampled_from(["set", "delete", "add"]))
        if action == "set":
            parent[key] = draw(JSON_VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(node, list):
            node.append(draw(JSON_VALUES))
        elif isinstance(node, dict):
            node["extra"] = draw(JSON_VALUES)
    return doc


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_model_edits_meet_the_cli_boundary_rules(capsys, tmp_path,
                                                 audited_model, data):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(data.draw(_mutated(audited_model))))
    out_json, out_csv = tmp_path / "e.json", tmp_path / "e.csv"
    _check_run(capsys, ["eval", "--model", str(model), "--grid", "3x4",
                        "--with-slope", "--with-entropy"])
    _check_run(capsys, ["export", "--model", str(model), "--out",
                        str(out_json), "--audit"], out_json)
    _check_run(capsys, ["export", "--model", str(model), "--out",
                        str(out_csv), "--format", "csv"], out_csv)
