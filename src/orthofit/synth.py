"""Synthetic magnetization-like datasets with known ground truth.

Randomness comes from SplitMix64, a 64-bit counter-based generator
(increment 0x9E3779B97F4A7C15, finalizer multipliers 0xBF58476D1CE4E5B9
and 0x94D049BB133111EB, shifts 30/27/31), chosen because its output is a
short fixed sequence of integer operations -- identical on every
platform.  Gaussian-ish noise is the sum of twelve uniforms minus six
(unit variance, no transcendental functions), which keeps datasets
bit-reproducible everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit stream; uniform doubles in [0, 1)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        # Irwin-Hall(12) - 6: zero mean, exactly unit variance.
        return math.fsum(self.uniform() for _ in range(12)) - 6.0


@dataclass(frozen=True)
class SynthSpec:
    """What to generate.

    surface : 'plane', 'poly:K' (random polynomial of total degree K), or
        'magnet' (smooth sigmoidal M(H, T)-like sheet).
    nx, ny : grid counts along x and y (nx * ny >= 6).
    noise_sigma : standard deviation of additive noise.
    seed : generator seed; same seed, same dataset, any platform.
    """

    surface: str = "magnet"
    nx: int = 30
    ny: int = 20
    noise_sigma: float = 0.0
    seed: int = 1

    def __post_init__(self):
        if self.nx * self.ny < 6:
            raise ValueError("need nx * ny >= 6")
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError("noise_sigma must be finite and >= 0")
        kind = self.surface.split(":")[0]
        if kind not in ("plane", "poly", "magnet"):
            raise ValueError(f"unknown surface {self.surface!r}")


def _plane(x, y):
    return 0.5 + 0.25 * x - 0.1 * y


def _magnet(x, y):
    # Saturation falls and the knee softens as y (temperature) rises.
    # Steepness is kept gentle so the spectrum decays fast past degree 3;
    # the large-regularization decay tests lean on that.
    return (1.0 - 0.2 * y) * math.tanh((0.6 + 0.2 * (1.0 - y)) * x)


def _poly_truth(degree: int, seed: int) -> Callable[[float, float], float]:
    rng = SplitMix64(seed ^ 0xC0FFEE)
    coeffs = []
    for m in range(degree + 1):
        for j in range(m + 1):
            coeffs.append((m, j, (2.0 * rng.uniform() - 1.0) / (m + 1)))

    def f(x, y):
        return math.fsum(c * x ** (m - j) * y ** j for m, j, c in coeffs)

    return f


def generate(spec: SynthSpec):
    """Build the dataset for a spec.

    Returns (points, truth): points is an (nx * ny, 3) float64 array of
    (x, y, z) rows over the regular nx-by-ny grid on [0, 1]^2, x varying
    fastest, with noise added to z; truth is the noise-free surface as a
    callable f(x, y).
    """
    kind, _, arg = spec.surface.partition(":")
    if kind == "plane":
        truth = _plane
    elif kind == "magnet":
        truth = _magnet
    else:
        truth = _poly_truth(int(arg or 3), spec.seed)
    X = np.tile(np.linspace(0.0, 1.0, spec.nx), spec.ny)
    Y = np.repeat(np.linspace(0.0, 1.0, spec.ny), spec.nx)
    Z = np.array([truth(x, y) for x, y in zip(X.tolist(), Y.tolist())])
    if spec.noise_sigma > 0:
        rng = SplitMix64(spec.seed)
        Z += spec.noise_sigma * np.array([rng.normal() for _ in range(Z.size)])
    return np.column_stack([X, Y, Z]), truth
