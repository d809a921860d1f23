"""Command-line interface: commands, report formats, exit codes."""

import csv
import errno
import io
import json
import math
import os
from operator import setitem

import numpy as np
import pytest

from orthofit import (SynthSpec, dZ_dY, entropy_change, eval_physical,
                      generate, load_model, save_dataset)
from orthofit.cli import _parse_x_grid, main


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


def test_sweep_empty_grid_usage_error(capsys, plane_csv):
    code, _, err = run_cli(capsys, "sweep", str(plane_csv), "--x-grid", "")
    assert code == 2
    assert "grid" in err


def test_sweep_bad_grid_spec(capsys, plane_csv):
    for spec, named in (("40:10:10", "lo <= hi"), ("-800", "-800"),
                        ("-inf", "-inf"), ("10,nan", "nan"),
                        ("0:inf:10", "finite"),
                        ("1e20:2e20:1", "does not advance"),
                        ("0:1e9:1", "more than 100000 points")):
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
    extra = (["-o", str(tmp_path / "m.json")] if command == "fit"
             else ["--x-grid", "10"])
    code, out, err = run_cli(capsys, command, str(plane_csv), *extra,
                             f"--lambda={value}")
    assert code == 2
    assert value.lstrip("-") in err and not out
    assert not (tmp_path / "m.json").exists()


def test_nan_target_error_is_a_usage_error(capsys, plane_csv, tmp_path):
    code, out, err = run_cli(capsys, "fit", str(plane_csv), "-o",
                             str(tmp_path / "m.json"), "--target-error", "nan")
    assert code == 2 and not out
    assert "target_error must be >= 0, got nan" in err
    assert not (tmp_path / "m.json").exists()


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
    assert "gamma cap is NaN" in err and not out
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
    Z, _ = eval_physical(model, X, Y)
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


def test_eval_columns_match_per_point_calls(capsys, noisy_csv, tmp_path):
    model_path, model = _fit_model(capsys, noisy_csv, tmp_path)
    nm = model.map
    rows = _eval_rows(capsys, model_path, "--grid", "40x15")
    X = np.tile(np.linspace(nm.x_min, nm.x_max, 40), 15).tolist()
    Y = np.repeat(np.linspace(nm.y_min, nm.y_max, 15), 40).tolist()
    assert rows == [_per_point_row(model, x, y) for x, y in zip(X, Y)]
    assert not any(r[4] == "-0" for r in rows)


def test_eval_grid_rows_match_point_subsets(capsys, noisy_csv, tmp_path):
    # rows are independent: the chunking of the array calls cannot show
    model_path, model = _fit_model(capsys, noisy_csv, tmp_path)
    whole = _eval_rows(capsys, model_path, "--grid", "30x20")
    assert len(whole) == 600
    X, Y = ([float(r[k]) for r in whole] for k in (0, 1))
    parts, start = [], 0
    for size in (1, 255, 256, 88):
        path = _write_points(tmp_path / f"p{start}.csv",
                             X[start:start + size], Y[start:start + size])
        parts += _eval_rows(capsys, model_path, "--points", str(path))
        start += size
    assert parts == whole


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
    assert field in err


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
