"""Seeded Laplace noise with a zero mode for testing.

Draws come from numpy's PCG64 via inverse-CDF transform of a single uniform.
A seed pins the uniforms on every platform, and the draws on one host; the
transform's ``np.log1p`` need not agree with the C library's ``log1p`` in the
last bits (on an AVX-512 host it differed from ``math.log1p`` on about 7.4%
of the sampler's inputs, 14,771 and 14,879 of two seeded sets of 200,000),
and numpy picks its loop by the CPU's features at import, so another host
may serve draws that differ in their last bits. Two modes:
``standard`` (real noise) and ``zero`` (always 0, used by oracle tests).

A source serves every draw from one numpy buffer of unit-Laplace values
(scale 1), multiplied by each call's scale. A refill transforms one block of
uniforms: as many as the source has transformed so far (so blocks double),
at least 32 (about what one noisy scan draws one at a time, its threshold
and up to 32 distances) and at most 4096, or the whole shortfall of a longer
peek. A uniform on the interval boundary is clamped to the smallest positive
uniform, 2**-53, so every draw consumes exactly one generator output. How
the stream is cut into blocks never changes a value: every draw equals the
one-uniform-at-a-time transform of the same uniform, in the same order, bit
for bit.

Vectorized consumers read the same stream through a cursor: ``units(count)``
peeks at the next ``count`` unit values as an array without serving them, and
``skip(count)`` serves the next ``count`` draws, peeked at or not. Scaling a
peeked unit by ``b`` gives the value ``laplace(b)`` would have returned for
it, so any interleaving of ``laplace`` with peeks and skips serves one stream.
A skip past the buffer jumps the generator over the rest with PCG64's
``advance`` (Brown's arbitrary-stride LCG jump, 1994), in O(log count), and
never draws them. A negative count would move the cursor back and serve
draws again, and a fractional one leave it between draws: each raises (see
`text.check_int`).

Every unit lies within ``UNIT_BOUND`` of 0: a uniform is a nonzero multiple
of 2**-53, so ``1 - 2|U| >= 2**-52`` and ``|unit| <= 52 ln 2``, about
36.0437. This is the bounded range of a floating-point sampler that Mironov
studied ("On Significance of the Least Significant Bits for Differential
Privacy", CCS 2012), whose deviations from the real Laplace law dwarf the
2**-53 of mass the clamp moves; the scan kernel uses the bound to skip
distances that no draw can bring below a noisy threshold, which changes no
answer.

Caveat: floating-point Laplace samplers are known to leak information through
the binary representation of their outputs in adversarial settings. Hardening
against that class of attack (snapping, discrete noise) is intentionally out
of scope here; the privacy analysis treats noise as real-valued.
"""

from __future__ import annotations

import numpy as np

from .text import check_int, check_real

# The largest seed, root or lane, and the 64-bit wrap of the seed mixing.
MAX_SEED = (1 << 64) - 1

# The smallest refill, and the largest unless a peek needs more (a skip
# never draws). Every source starts on the one shared (never written) empty
# buffer.
_MIN_BLOCK = 32
_MAX_BLOCK = 4096
_EMPTY = np.empty(0)

# An upper bound on |unit| for every unit a source serves: 52 ln 2 =
# 36.04365338911715 is the unit of the extreme uniforms 2**-53 and
# 1 - 2**-53, rounded up with room to spare for log1p's last bit.
UNIT_BOUND = 36.05

MODES = ("standard", "zero")


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer (fixed constants, 64-bit wrap)."""
    x = (x + 0x9E3779B97F4A7C15) & MAX_SEED
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MAX_SEED
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MAX_SEED
    return (z ^ (z >> 31)) & MAX_SEED


def derive_seed(root: int, *lanes: int) -> int:
    """Derive a sub-seed by mixing lane indices into ``root``, each of them
    an integer in [0, 2**64): one outside would silently run as the one it
    equals modulo 2**64.

    The derivation is a fixed splitmix64 chain, documented so that seeds are
    reproducible across releases: each lane is mixed as
    ``state = splitmix64(state ^ splitmix64(lane))``.
    """
    state = check_int("seed", root, 0, MAX_SEED)
    for lane in lanes:
        state = splitmix64(state ^ splitmix64(check_int("lane", lane, 0, MAX_SEED)))
    return state


class NoiseSource:
    """Single-owner stream of Laplace draws rooted at a 64-bit seed.

    Instances are mutable single-owner state: one owner may draw from a
    source across consecutive queries, but never concurrently. Independent
    sources (e.g. seeded via :func:`derive_seed`) may be used in parallel
    freely. In ``standard`` mode equal seeds produce identical draw sequences;
    ``zero`` mode returns 0 without consuming randomness.
    """

    def __init__(self, seed: int, mode: str = "standard"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.seed = check_int("seed", seed, 0, MAX_SEED)
        self.mode = mode
        self._gen: np.random.Generator | None = None
        # Buffered unit draws in one numpy array, _units[_next:] not yet
        # served. Only a refill replaces it, so views units() handed out stay
        # valid.
        self._units = _EMPTY
        self._next = 0
        self._drawn = 0  # unit draws transformed so far (not skipped)

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(self.seed))
        return self._gen

    def laplace(self, b: float) -> float:
        """One draw from Lap(``b``) (0 in zero mode).

        Inverse-CDF transform: draw U uniform on the open interval
        (-1/2, 1/2) and return ``-b * sign(U) * ln(1 - 2|U|)``. A uniform
        landing exactly on the interval boundary is clamped to the nearest
        one inside it, so the result is always finite; U = 0 maps to the
        median 0. The unit value ``-sign(U) * ln(1 - 2|U|)`` is the next one
        in the source's buffer (see the module docstring). Negating and
        taking signs is exact, so ``b`` times the unit rounds once, to the
        same double as the formula above. ``b`` must be positive and finite.
        """
        b = check_real("b", b)
        if self.mode == "zero":
            return 0.0
        try:
            unit = self._units.item(self._next)
        except IndexError:
            self._refill(1)
            unit = self._units.item(0)
        self._next += 1
        return b * unit

    def units(self, count: int) -> np.ndarray:
        """The next ``count`` unit draws, without serving them (zeros in zero
        mode). The array is a view of the buffer and must not be written;
        serve what was used with :meth:`skip`."""
        count = check_int("count", count)
        if self.mode == "zero":
            return np.zeros(count)
        while (short := count - len(self._units) + self._next) > 0:
            self._refill(short)
        return self._units[self._next : self._next + count]

    def skip(self, count: int) -> None:
        """Serve the next ``count`` unit draws, peeked at by :meth:`units` or
        not. Past the buffer it advances the generator by one output per
        draw and transforms none of them."""
        count = check_int("count", count)
        if self.mode == "zero":
            return
        short = count - len(self._units) + self._next
        if short <= 0:
            self._next += count
            return
        self._units, self._next = _EMPTY, 0
        self._generator().bit_generator.advance(short)

    def _refill(self, short: int) -> None:
        """Append the next block of unit draws to the unserved buffer, at
        least ``short`` of them, so a peek of any length copies the unserved
        buffer once."""
        size = max(short, _MIN_BLOCK, min(self._drawn, _MAX_BLOCK))
        u = self._generator().random(size)
        if not u.all():
            u[u == 0.0] = 2.0**-53  # raw 0.0 is U = -1/2, the boundary
        self._drawn += size
        # The unserved units (a peek reached past the buffer), then the new
        # ones, -sign(U) * log1p(-2|U|), computed in place behind them. The
        # log is never positive, so the unit is the log with U's sign, which
        # copysign writes in place (bit for bit, signed zeros too) with no
        # temporary.
        left = len(self._units) - self._next
        units = np.empty(left + size)
        units[:left] = self._units[self._next :]
        new = units[left:]
        u -= 0.5
        np.abs(u, out=new)
        new *= -2.0
        np.log1p(new, out=new)
        np.copysign(new, u, out=new)
        self._units, self._next = units, 0
