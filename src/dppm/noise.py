"""Seeded Laplace noise with a zero mode for testing.

Draws come from numpy's PCG64 via inverse-CDF transform of a single uniform.
A seed pins the uniforms on every platform, and the draws on one host; the
transform's ``np.log1p`` need not agree with the C library's ``log1p`` in the
last bits (on an AVX-512 host it differed from ``math.log1p`` on about 7.4%
of the sampler's inputs, 14,771 and 14,879 of two seeded sets of 200,000),
and numpy picks its loop by the CPU's features at import, so another host
may serve draws that differ in their last bits. Two modes:
``standard`` (real noise) and ``zero`` (always 0, used by oracle tests).

A source buffers its draws' U, the clamped uniform less 1/2 (exact, as a
uniform is a multiple of 2**-53), and their unit-Laplace values (scale 1),
transformed only when ``laplace`` or ``units`` asks for them. It draws
blocks as large as all it has drawn (so blocks double), at least 32 (about
what one scan draws one at a time) and at most 4096, or the whole shortfall
of a longer peek. A uniform on the interval boundary is clamped to 2**-53,
the smallest positive one, so every draw consumes exactly one generator
output. Blocks never change a value: every draw equals the
one-uniform-at-a-time transform of the same uniform, in the same order, bit
for bit.

Vectorized consumers read the same stream through a cursor: ``units(count)``
peeks at the next ``count`` unit values as an array without serving them,
``uniforms(count)`` peeks at their U, untransformed, and
``skip(count)`` serves the next ``count`` draws, peeked at or not. Scaling a
peeked unit by ``b`` gives the value ``laplace(b)`` would have returned for
it, so any interleaving of ``laplace`` with peeks and skips serves one stream.
A skip past the buffer jumps the generator over the rest with PCG64's
``advance`` (Brown's arbitrary-stride LCG jump, 1994), in O(log count), and
never draws them. A negative count would move the cursor back and serve
draws again, and a fractional one leave it between draws: each raises (see
`text.check_int`).

A unit has U's sign and magnitude ``-log1p(-2|U|)``, within ``+-L`` when
``|U| <= (1 - e**-L) / 2``. `uniform_bounds` shrinks that by a margin (L
less 2**-40 of itself, then the end less 2**-40 of itself): the transform is
exact up to ``log1p``, so with any ``log1p`` within 2**11 ulps (numpy's is
within a few) U decides, untransformed, that its unit lies within ``+-L``.

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

import math

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


def uniform_bounds(bound: float) -> tuple[float, float]:
    """``(lo, hi) = (-c, c)``: a draw whose U is at least lo has a unit of at
    least ``-bound``, one whose U is at most hi a unit of at most ``bound``."""
    if bound >= UNIT_BOUND:
        return -0.5, 0.5
    c = -math.expm1(-bound * (1 - 2.0**-40)) / 2 * (1 - 2.0**-40)
    return -c, c


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
        # U, _u[_next:] not yet served, and the units of the first
        # len(_units); only replaced, so views handed out stay valid.
        self._u, self._units, self._next = _EMPTY, _EMPTY, 0
        self._drawn = 0  # uniforms drawn so far (not skipped)

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
        if count > len(self._units) - self._next:
            self._refill(count)
        return self._units[self._next : self._next + count]

    def uniforms(self, count: int) -> np.ndarray:
        """:meth:`units`, but the draws' U, untransformed (0, whose unit is 0,
        in zero mode); see `uniform_bounds`."""
        count = check_int("count", count)
        if self.mode == "zero":
            return np.zeros(count)
        if (short := count - len(self._u) + self._next) > 0:
            self._draw(short)
        return self._u[self._next : self._next + count]

    def skip(self, count: int) -> None:
        """Serve the next ``count`` unit draws, peeked at by :meth:`units` or
        not. Past the buffer it advances the generator by one output per
        draw and transforms none of them."""
        count = check_int("count", count)
        if self.mode == "zero":
            return
        short = count - len(self._u) + self._next
        if short <= 0:
            self._next += count
            return
        self._u, self._units, self._next = _EMPTY, _EMPTY, 0
        self._generator().bit_generator.advance(short)

    def _draw(self, short: int) -> None:
        """Append the U of at least ``short`` new uniforms to the unserved."""
        size = max(short, _MIN_BLOCK, min(self._drawn, _MAX_BLOCK))
        u = self._generator().random(size)
        if not u.all():
            u[u == 0.0] = 2.0**-53  # raw 0.0 is U = -1/2, the boundary
        u -= 0.5
        self._drawn += size
        at = self._next
        if at < len(self._u):
            u = np.concatenate((self._u[at:], u))
        self._u, self._units, self._next = u, self._units[at:], 0

    def _refill(self, count: int) -> None:
        """Transform the unserved U not yet transformed, drawing a block
        first when fewer than ``count`` are unserved."""
        if (short := count - len(self._u) + self._next) > 0:
            self._draw(short)
        at = self._next
        left = max(len(self._units) - at, 0)  # transformed, unserved
        u = self._u[at:]
        units = np.empty(len(u))
        units[:left] = self._units[at:]
        # Behind them, -sign(U) * log1p(-2|U|): the log is never positive, so
        # copysign gives it U's sign in place (bit for bit, signed zeros too).
        new = units[left:]
        np.abs(u[left:], out=new)
        new *= -2.0
        np.log1p(new, out=new)
        np.copysign(new, u[left:], out=new)
        self._u, self._units, self._next = u, units, 0
