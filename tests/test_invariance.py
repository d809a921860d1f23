"""Invariance guards: transformations of the input file that must leave
the fit's coefficients and training error, and the sweep's records,
byte-identical.

Each case rewrites the seed-1 1k corpus (the benchmark's 40x25 magnet
grid, noise 0.02) and runs ``fit --fixed-S 78`` and ``sweep --x-grid
10:40:2 --fixed-S 78`` in process.  Row order and column order carry no
information, and scaling X or Z by a power of two is exact in
``normalize``; so none of them may move a bit of the normalized fit.
"""

import json

import numpy as np
import pytest

from orthofit import SynthSpec, generate
from orthofit.cli import main


def _write(path, header, rows):
    path.write_text(",".join(header) + "\n"
                    + "".join(",".join(map(repr, r)) + "\n" for r in rows))
    return path


def _outputs(tmp_path, name, header, rows):
    data = _write(tmp_path / f"{name}.csv", header, rows.tolist())
    model, table = tmp_path / f"{name}.json", tmp_path / f"{name}_sweep.csv"
    assert main(["fit", str(data), "-o", str(model), "--fixed-S", "78"]) == 0
    assert main(["sweep", str(data), "--x-grid", "10:40:2", "--fixed-S", "78",
                 "--csv-out", str(table)]) == 0
    m = json.loads(model.read_text())
    return (np.array(m["c"]).tobytes(), m["sigma_tr"].hex(),
            table.read_bytes())


@pytest.fixture(scope="module")
def corpus():
    pts, _ = generate(SynthSpec("magnet", 40, 25, 0.02, 1))
    return pts


@pytest.fixture(scope="module")
def reference(tmp_path_factory, corpus):
    return _outputs(tmp_path_factory.mktemp("ref"), "ref", "xyz", corpus)


def test_shuffled_rows_move_no_bit(tmp_path, corpus, reference):
    perm = np.random.default_rng(0).permutation(len(corpus))
    assert not np.array_equal(perm, np.arange(len(corpus)))
    got = _outputs(tmp_path, "shuffled", "xyz", corpus[perm])
    assert got == reference


def test_column_order_moves_no_bit(tmp_path, corpus, reference):
    got = _outputs(tmp_path, "zxy", "zxy", corpus[:, [2, 0, 1]])
    assert got == reference


def test_power_of_two_scaling_moves_no_bit(tmp_path, corpus, reference):
    got = _outputs(tmp_path, "scaled", "xyz",
                   corpus * np.array([4.0, 1.0, 8.0]))
    assert got == reference
