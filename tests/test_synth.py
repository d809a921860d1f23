"""Synthetic dataset generator and its deterministic random stream."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthofit import (FitConfig, SynthSpec, fit_surface, generate,
                      load_dataset, normalize, save_dataset)
from orthofit.errors import FieldError
from orthofit.synth import MAX_POINTS, MAX_POLY_DEGREE, SplitMix64
from conftest import all_train_split
from oracles import ReferenceSplitMix64, unit_dataset

# first outputs for seed 0 of the standard SplitMix64 finalizer
SEED0_STREAM = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_reference_stream():
    rng = SplitMix64(0)
    assert [int(rng.block(1)[0]) for _ in range(3)] == SEED0_STREAM
    block = SplitMix64(0).block(3)
    assert block.dtype == np.uint64 and block.tolist() == SEED0_STREAM
    ref = ReferenceSplitMix64(0)
    assert [ref.next_u64() for _ in range(3)] == SEED0_STREAM


_seeds = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(-2 ** 70, -1),
                   st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1, -1]))
_counts = st.integers(0, 40)


@settings(max_examples=150)
@given(_seeds, _counts, _counts, _counts, _counts)
def test_block_stream_matches_reference_bit_for_bit(seed, first, second,
                                                    n_uniform, n_normal):
    rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
    # one draw split over two calls gives the stream of one call
    got = rng.block(first).tolist() + rng.block(second).tolist()
    assert got == [ref.next_u64() for _ in range(first + second)]
    got = rng.uniforms(n_uniform)
    want = np.array([ref.uniform() for _ in range(n_uniform)])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    got = rng.normals(n_normal)
    want = np.array([ref.normal() for _ in range(n_normal)])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    scalars = (int(rng.block(1)[0]), float(rng.uniforms(1)[0]),
               float(rng.normals(1)[0]))
    assert scalars == (ref.next_u64(), ref.uniform(), ref.normal())
    assert rng.state == ref.state


def test_uniforms_in_unit_interval():
    rng = SplitMix64(123)
    us = rng.uniforms(1000)
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


def test_overflowing_noise_is_refused():
    spec = SynthSpec(surface="magnet", nx=4, ny=3, noise_sigma=1.7e308)
    with pytest.raises(ValueError,
                       match=r"^noise 1\.7e\+308 makes 5 of 12 z values "
                             r"overflow$"):
        generate(spec)


def test_spec_validation():
    with pytest.raises(FieldError, match=r"^nx \* ny must be >= 6, got nx=2 "
                                         r"and ny=2$") as small:
        SynthSpec(surface="magnet", nx=2, ny=2)
    assert small.value.fields == ("nx", "ny")
    # the product passes nx * ny >= 6; each count alone must be positive
    with pytest.raises(ValueError, match="nx and ny must be >= 1"):
        SynthSpec(surface="magnet", nx=-2, ny=-3)
    with pytest.raises(ValueError):
        SynthSpec(surface="cube", nx=5, ny=5)
    with pytest.raises(ValueError):
        SynthSpec(surface="plane", nx=5, ny=5, noise_sigma=-0.1)
    for surface in ("poly", "poly:0", f"poly:{MAX_POLY_DEGREE}"):
        SynthSpec(surface=surface)  # the degree's bounds are accepted
    SynthSpec(nx=MAX_POINTS // 8, ny=8)  # at the cap; nothing is allocated
    with pytest.raises(FieldError,
                       match=f"^nx \\* ny must be <= {MAX_POINTS}, got "
                             f"nx={MAX_POINTS + 1} and ny=1 "
                             f"\\({MAX_POINTS + 1} points\\)$"):
        SynthSpec(nx=MAX_POINTS + 1, ny=1)
    # no reduction modulo 2**64, where -1 would repeat seed 2**64 - 1
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, "
                                             rf"2\*\*64\), got {seed}$"):
            SynthSpec(seed=seed)
    SynthSpec(seed=2 ** 64 - 1)
