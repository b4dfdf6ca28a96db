"""Seeded Laplace noise with a zero mode for testing.

Draws come from numpy's PCG64 via inverse-CDF transform of a single uniform,
so a seed pins the entire draw sequence bit-for-bit across platforms. Two
modes: ``standard`` (real noise) and ``zero`` (always 0, used by oracle
tests).

Caveat: floating-point Laplace samplers are known to leak information through
the binary representation of their outputs in adversarial settings. Hardening
against that class of attack (snapping, discrete noise) is intentionally out
of scope here; the privacy analysis treats noise as real-valued.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

MODES = ("standard", "zero")


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (fixed constants, 64-bit wrap)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(root: int, *lanes: int) -> int:
    """Derive a sub-seed by mixing lane indices into ``root``.

    The derivation is a fixed splitmix64 chain, documented so that seeds are
    reproducible across releases: each lane is mixed as
    ``state = splitmix64(state ^ splitmix64(lane))``.
    """
    state = root & _MASK64
    for lane in lanes:
        state = splitmix64(state ^ splitmix64(lane & _MASK64))
    return state


class NoiseSource:
    """Single-owner stream of Laplace draws rooted at a 64-bit seed.

    Instances are mutable single-owner state: never draw from one source
    concurrently. Independent sources (e.g. seeded via :func:`derive_seed`)
    may be used in parallel freely. In ``standard`` mode equal seeds produce
    identical draw sequences; ``zero`` mode returns 0 without consuming
    randomness.
    """

    def __init__(self, seed: int, mode: str = "standard"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.seed = seed & _MASK64
        self.mode = mode
        self._gen: np.random.Generator | None = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(self.seed))
        return self._gen

    def laplace(self, b: float) -> float:
        """One draw from Lap(``b``) (0 in zero mode).

        Inverse-CDF transform: draw U uniform on the open interval
        (-1/2, 1/2) and return ``-b * sign(U) * ln(1 - 2|U|)``. A draw landing
        exactly on the interval boundary is redrawn, so the result is always
        finite; U = 0 maps to the median 0.
        """
        if self.mode == "zero":
            return 0.0
        gen = self._generator()
        u = gen.random() - 0.5
        while u == -0.5:
            u = gen.random() - 0.5
        sign = (u > 0.0) - (u < 0.0)
        # np.log1p (not math.log1p): keeps single draws bit-identical to the
        # vectorized path in laplace_many.
        return -b * sign * float(np.log1p(-2.0 * abs(u)))

    def laplace_many(self, b: float, size: int) -> np.ndarray:
        """Vectorized draws; consumes the uniform stream exactly like
        ``size`` successive calls to :meth:`laplace` (boundary redraws aside,
        which occur with probability 2**-53 per draw)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if self.mode == "zero":
            return np.zeros(size)
        gen = self._generator()
        u = gen.random(size) - 0.5
        boundary = u == -0.5
        while boundary.any():
            u[boundary] = gen.random(int(boundary.sum())) - 0.5
            boundary = u == -0.5
        return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def laplace_tail(b: float, t: float) -> float:
    """P(|Lap(b)| > t) = exp(-t/b), the closed-form two-sided tail."""
    if not (b > 0 and math.isfinite(b)):
        raise ValueError(f"Laplace scale must be positive and finite, got {b}")
    if t < 0:
        raise ValueError(f"tail threshold must be non-negative, got {t}")
    return math.exp(-t / b)
