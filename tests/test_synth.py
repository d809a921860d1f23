"""Synthetic dataset generator and its deterministic random stream."""

import numpy as np
import pytest

from orthofit import (FitConfig, SynthSpec, fit_surface, generate,
                      load_dataset, normalize, save_dataset)
from orthofit.synth import SplitMix64
from conftest import all_train_split, unit_dataset


def test_splitmix64_reference_stream():
    # first outputs for seed 0 of the standard SplitMix64 finalizer
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_uniforms_in_unit_interval():
    rng = SplitMix64(123)
    us = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert 0.4 < sum(us) / len(us) < 0.6


def test_plane_surface_is_exact():
    pts, truth = generate(SynthSpec(surface="plane", nx=5, ny=4))
    assert pts.dtype == np.float64 and pts.shape == (20, 3)
    assert pts[:5, 0].tolist() == np.linspace(0, 1, 5).tolist()  # x fastest
    assert pts[::5, 1].tolist() == np.linspace(0, 1, 4).tolist()
    for x, y, z in pts.tolist():
        assert z == 0.5 + 0.25 * x - 0.1 * y
        assert truth(x, y) == z


def test_same_seed_same_dataset():
    spec = SynthSpec(surface="magnet", nx=7, ny=6, noise_sigma=0.05, seed=99)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert a.tobytes() == b.tobytes()
    c, _ = generate(SynthSpec(surface="magnet", nx=7, ny=6,
                              noise_sigma=0.05, seed=98))
    assert not np.array_equal(a, c)


def test_polynomial_surface_fits_exactly_after_its_degree():
    pts, _ = generate(SynthSpec(surface="poly:4", nx=9, ny=8, seed=13))
    data = unit_dataset(pts)
    fit = fit_surface(all_train_split(data.n), data,
                      FitConfig(fixed_columns=15, max_columns=15))
    assert fit.sigma_tr <= 1e-20


def test_noise_standard_deviation_tracks_request():
    spec = SynthSpec(surface="plane", nx=100, ny=100, noise_sigma=0.03, seed=5)
    pts, truth = generate(spec)
    resid = pts[:, 2] - [truth(x, y) for x, y, _ in pts.tolist()]
    assert abs(resid.std(ddof=1) - 0.03) < 0.05 * 0.03
    assert abs(resid.mean()) < 0.01 * 3


def test_magnet_monotone_up_in_x_down_in_y():
    _, truth = generate(SynthSpec(surface="magnet", nx=4, ny=4))
    xs = np.linspace(0.05, 1.0, 12)
    for y in (0.0, 0.4, 0.9):
        vals = [truth(x, y) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    ys = np.linspace(0.0, 1.0, 9)
    for x in (0.2, 0.6, 1.0):
        vals = [truth(x, y) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    assert truth(0.0, 0.3) == 0.0


def test_emitted_csv_round_trips_through_loader(tmp_path):
    pts, _ = generate(SynthSpec(surface="magnet", nx=6, ny=5,
                                noise_sigma=0.02, seed=7))
    path = tmp_path / "synthetic.csv"
    save_dataset(pts, path)
    back = load_dataset(path)
    assert back.tobytes() == pts.tobytes()
    normalize(back)  # ingestible by the pipeline


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(surface="magnet", nx=2, ny=2)
    with pytest.raises(ValueError):
        SynthSpec(surface="cube", nx=5, ny=5)
    with pytest.raises(ValueError):
        SynthSpec(surface="plane", nx=5, ny=5, noise_sigma=-0.1)
