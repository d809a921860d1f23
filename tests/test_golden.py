"""Golden output digests: a fixed list of CLI commands, run in process
through ``cli.main`` on the seed-1 40x25 ``magnet`` corpus (noise 0.02),
must write the same bytes as when the table in ``golden_digests.json``
was computed.  Each command's stdout and every file it writes is hashed
with SHA-256; the one clock reading, the fit report's ``wall_time_s``,
is masked first.

The bytes depend on the platform: ``magnet`` values go through libm's
``tanh`` and double fits through BLAS kernels that differ by CPU.  So
the table is keyed by the fields of ``perfbench/envstamp.py``'s stamp
that decide them (CPU model, numpy version, BLAS name and version), and
on a platform with no entry the test skips and names the stamp.

At 1k points the outputs do not depend on ``OPENBLAS_NUM_THREADS`` (the
100k fit does, so it is not in the list).  An intended change to the
output adds or replaces the platform's entry, printed by

    PYTHONPATH=src python tests/test_golden.py

and names each digest that moved and why.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from orthofit.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_name("golden_digests.json")
WALL = re.compile(rb"^(wall_time_s\s+)\S+$", re.MULTILINE)

CORPUS = ("synth", "--surface", "magnet", "--nx", "40", "--ny", "25",
          "--noise", "0.02", "--seed", "1", "--out", "{dir}/d.csv")
# (name, argv); "{dir}" is the run's directory, and every file a command
# writes there is hashed under "name:file"
COMMANDS = (
    ("fit_S78", ("fit", "{dir}/d.csv", "--fixed-S", "78",
                 "-o", "{dir}/m78.json")),
    ("fit_S90", ("fit", "{dir}/d.csv", "--fixed-S", "90",
                 "-o", "{dir}/m90.json")),
    ("fit_S209", ("fit", "{dir}/d.csv", "--fixed-S", "209",
                  "-o", "{dir}/m209.json")),
    ("fit_extended_S119", ("fit", "{dir}/d.csv", "--precision", "extended",
                           "--fixed-S", "119", "-o", "{dir}/mext.json")),
    ("fit_odd_S44", ("fit", "{dir}/d.csv", "--odd-field-only",
                     "--fixed-S", "44", "-o", "{dir}/modd.json")),
    ("fit_auto_audit", ("fit", "{dir}/d.csv", "--audit",
                        "-o", "{dir}/maudit.json")),
    ("sweep_S78", ("sweep", "{dir}/d.csv", "--x-grid", "10:40:2",
                   "--fixed-S", "78")),
    ("sweep_auto", ("sweep", "{dir}/d.csv", "--x-grid", "10:40:10",
                    "--stop-rel-improvement", "0.005", "--report", "json")),
    ("eval_grid_S209", ("eval", "--model", "{dir}/m209.json", "--grid",
                        "40x40", "--with-slope", "--with-entropy")),
    ("eval_grid_extended", ("eval", "--model", "{dir}/mext.json", "--grid",
                            "40x40", "--with-slope", "--with-entropy")),
    ("eval_points_S90", ("eval", "--model", "{dir}/m90.json", "--points",
                         "{dir}/points.csv", "--with-slope",
                         "--with-entropy")),
    ("export_json", ("export", "--model", "{dir}/m90.json",
                     "--out", "{dir}/e90.json")),
    ("export_csv", ("export", "--model", "{dir}/m90.json", "--format", "csv",
                    "--out", "{dir}/e90.csv")),
)


def _points_file(path):
    """300 fixed (X, Y) points inside the corpus's unit square, written
    with ``repr`` so the file has one exact text."""
    X = np.linspace(0.01, 0.99, 20).tolist()
    Y = np.linspace(0.02, 0.97, 15).tolist()
    lines = ["X,Y"] + [f"{x!r},{y!r}" for y in Y for x in X]
    path.write_text("\n".join(lines) + "\n")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, directory):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.format(dir=directory) for a in argv])
    assert code == 0, argv
    return out.getvalue().encode()


def digests(directory) -> dict:
    """{name: SHA-256} of every output of CORPUS and COMMANDS, run in
    ``directory`` (empty but for what they write)."""
    directory = Path(directory)
    _run(CORPUS, directory)
    _points_file(directory / "points.csv")
    seen = {p.name for p in directory.iterdir()}
    table = {"corpus": _sha((directory / "d.csv").read_bytes())}
    for name, argv in COMMANDS:
        table[name] = _sha(WALL.sub(rb"\1-", _run(argv, directory)))
        for path in sorted(directory.iterdir()):
            if path.name not in seen:
                table[f"{name}:{path.name}"] = _sha(path.read_bytes())
                seen.add(path.name)
    return table


def platform_key() -> dict:
    """The stamp fields that decide the bytes, from perfbench/envstamp.py."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_envstamp", ROOT / "perfbench" / "envstamp.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stamp = module.stamp_start(np)
    return {"cpu": stamp["cpu"], "numpy": stamp["numpy"],
            "blas": stamp["blas"]}


def test_cli_outputs_match_the_golden_digests(tmp_path):
    key = platform_key()
    entries = [e for e in json.loads(TABLE.read_text())
               if e["platform"] == key]
    if not entries:
        pytest.skip(f"no golden digests for the platform {key}")
    want = entries[0]["digests"]
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    moved = sorted(name for name in want if got[name] != want[name])
    assert not moved, moved


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        print(json.dumps({"platform": platform_key(),
                          "digests": digests(scratch)}, indent=1))
