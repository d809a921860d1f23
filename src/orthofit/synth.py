"""Synthetic magnetization-like datasets with known ground truth.

Randomness comes from SplitMix64 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014), a counter-based 64-bit
generator: output i finalizes seed + i·γ mod 2^64 with a fixed sequence
of xor-shifts and wrapping multiplies, so a block of outputs is a few
uint64 array operations.  Uniforms are the top 53 bits times 2^-53, and
the noise is the sum of twelve such integers, added exactly, rounded
once to double, times 2^-53, minus six (Irwin-Hall: zero mean, unit
variance).  The grid, the stream, the uniforms and the noise are
integer or correctly rounded IEEE operations, identical on every
platform, and so are the 'plane' z values.  The other surfaces go
through libm: 'magnet' calls the platform's ``math.tanh`` and 'poly:K'
raises to integer powers with ``**``, so their z values, noisy or not,
can differ in the last bit between platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FieldError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the Weyl increment γ
MAX_POLY_DEGREE = 40  # 'poly:K' draws (K + 1)(K + 2)/2 coefficients
MAX_POINTS = 10_000_000  # nx * ny cap: 100 times the largest benchmark corpus


class SplitMix64:
    """Deterministic 64-bit stream; uniform doubles in [0, 1)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def block(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array.

        Every wrapping multiply is an array operation: numpy wraps uint64
        arrays silently but warns when a uint64 scalar overflows.
        """
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _GAMMA
        z += self.state
        self.state = (self.state + count * _GAMMA) & _MASK
        z ^= z >> 30
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        z ^= z >> 31
        return z

    def uniforms(self, count: int) -> np.ndarray:
        return (self.block(count) >> 11) * 2.0 ** -53

    def normals(self, count: int) -> np.ndarray:
        # Irwin-Hall(12) - 6: zero mean, exactly unit variance.  Twelve
        # 53-bit integers sum exactly in uint64 (below 12 * 2^53) and
        # round once to double, which is what math.fsum of the twelve
        # uniforms gives.
        k = (self.block(12 * count) >> 11).reshape(count, 12).sum(axis=1)
        return k * 2.0 ** -53 - 6.0


@dataclass(frozen=True)
class SynthSpec:
    """What to generate.

    surface : 'plane', 'poly:K' (random polynomial of total degree K,
        0 <= K <= MAX_POLY_DEGREE; 'poly' alone means K = 3), or 'magnet'
        (smooth sigmoidal M(H, T)-like sheet).
    nx, ny : grid counts along x and y (each >= 1, 6 <= nx * ny <=
        MAX_POINTS).
    noise_sigma : standard deviation of additive noise (finite, >= 0).
    seed : generator seed, an integer in [0, 2**64); same seed, same
        dataset, any platform.
    """

    surface: str = "magnet"
    nx: int = 30
    ny: int = 20
    noise_sigma: float = 0.0
    seed: int = 1

    def __post_init__(self):
        grid = f"got nx={self.nx} and ny={self.ny}"
        if self.nx < 1 or self.ny < 1:
            raise FieldError(f"nx and ny must be >= 1, {grid}", "nx", "ny")
        if self.nx * self.ny < 6:
            raise FieldError(f"nx * ny must be >= 6, {grid}", "nx", "ny")
        if self.nx * self.ny > MAX_POINTS:
            raise FieldError(f"nx * ny must be <= {MAX_POINTS}, {grid} "
                             f"({self.nx * self.ny} points)", "nx", "ny")
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise FieldError(f"noise_sigma must be finite and >= 0, got "
                             f"{self.noise_sigma!r}", "noise_sigma")
        if not 0 <= self.seed <= _MASK:
            raise FieldError(f"seed must lie in [0, 2**64), got {self.seed}",
                             "seed")
        kind, colon, arg = self.surface.partition(":")
        if kind not in ("plane", "poly", "magnet"):
            raise ValueError(f"unknown surface {self.surface!r}")
        if kind != "poly" and colon:
            raise ValueError(f"surface {self.surface!r}: {kind} takes no "
                             f"argument")
        if kind == "poly" and colon and not (
                arg.isdecimal() and int(arg) <= MAX_POLY_DEGREE):
            raise ValueError(f"surface {self.surface!r}: the degree must be "
                             f"an integer from 0 to {MAX_POLY_DEGREE}")


def _plane(x, y):
    return 0.5 + 0.25 * x - 0.1 * y


def _magnet(x, y):
    # Saturation falls and the knee softens as y (temperature) rises.
    # Steepness is kept gentle so the spectrum decays fast past degree 3;
    # the large-regularization decay tests lean on that.
    return (1.0 - 0.2 * y) * math.tanh((0.6 + 0.2 * (1.0 - y)) * x)


def _poly_truth(degree: int, seed: int) -> Callable[[float, float], float]:
    mj = [(m, j) for m in range(degree + 1) for j in range(m + 1)]
    u = SplitMix64(seed ^ 0xC0FFEE).uniforms(len(mj)).tolist()
    coeffs = [(m, j, (2.0 * v - 1.0) / (m + 1)) for (m, j), v in zip(mj, u)]

    def f(x, y):
        return math.fsum(c * x ** (m - j) * y ** j for m, j, c in coeffs)

    return f


def generate(spec: SynthSpec):
    """Build the dataset for a spec.

    Returns (points, truth): points is an (nx * ny, 3) float64 array of
    (x, y, z) rows over the regular nx-by-ny grid on [0, 1]^2, x varying
    fastest, with noise added to z; truth is the noise-free surface as a
    callable f(x, y).  Raises ValueError when the noise makes a z value
    overflow.
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
        with np.errstate(over="ignore"):  # checked below
            Z += spec.noise_sigma * SplitMix64(spec.seed).normals(Z.size)
        bad = np.count_nonzero(~np.isfinite(Z))
        if bad:
            raise ValueError(f"noise {spec.noise_sigma:g} makes {bad} of "
                             f"{Z.size} z values overflow")
    return np.column_stack([X, Y, Z]), truth
