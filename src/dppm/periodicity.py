"""Public pattern preprocessing: close-period detection, primitivity testing,
and the dispatcher that selects the private matching regime.

Everything here reads only the (public) pattern and query parameters, never
the private text, so it consumes no privacy budget.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .text import check_bytes, hamming_distance, tile


@dataclass(frozen=True)
class PeriodicCandidate:
    """A short primitive string whose infinite repetition is close to the pattern.

    ``dist`` is the Hamming distance between the pattern and ``root`` tiled to
    the pattern's length; ``length == len(root)``.
    """

    length: int
    root: bytes
    dist: int

    def __post_init__(self) -> None:
        if self.length != len(self.root):
            raise ValueError("candidate length does not match root")
        if self.length < 1:
            raise ValueError("candidate root must be non-empty")
        if self.dist < 0:
            raise ValueError("candidate distance must be non-negative")


class Regime(str, Enum):
    """Algorithmic regime selected for a query."""

    PERIODIC_REPORTING = "PeriodicReporting"
    NON_PERIODIC_COUNTING = "NonPeriodicCounting"
    SMALL_K_COUNTING = "SmallKCounting"
    TRIVIAL_FALLBACK = "TrivialFallback"


@dataclass(frozen=True)
class DispatchDecision:
    """Outcome of pattern preprocessing.

    ``period_scale`` is the divisor bounding admissible period lengths for the
    reporting regime (``max(k, ceil(96(ln n + ln(6/beta))/epsilon))``);
    ``small_k_cutoff`` is the mismatch budget substituted for ``k`` by the
    small-k counting regime (``ceil(24 ln(6n/beta)/epsilon)``).
    ``effective_k`` equals ``k`` except in the small-k regime, where it is the
    cutoff.
    """

    regime: Regime
    candidate: Optional[PeriodicCandidate]
    effective_k: int
    period_scale: int
    small_k_cutoff: int


def is_primitive(seq: bytes) -> bool:
    """True iff ``seq`` is not a repetition of any shorter string."""
    check_bytes("seq", seq)
    seq, n = bytes(seq), len(seq)
    if n < 1:
        raise ValueError("primitivity is undefined for the empty string")
    for d in range(1, n // 2 + 1):
        if n % d == 0 and seq == seq[:d] * (n // d):
            return False
    return True


def shortest_close_period(
    pattern: bytes, k: int, max_period: int
) -> Optional[PeriodicCandidate]:
    """Shortest period length admitting distance at most ``2k``, if any.

    Uses block voting: if the pattern is within ``2k`` of some ``root`` tiled,
    then all but at most ``2k`` of its full length-``q`` blocks equal ``root``,
    so only block values surviving the vote need verifying; each survivor is
    checked by direct distance computation. When ``m / max_period >= 4k + 1``
    at most one root per length can verify, making the result exactly the
    columnwise optimum; with fewer blocks several may survive, and ties break
    to the lexicographically least verified root.

    Returns None when no period length in ``[1, max_period]`` qualifies.
    """
    check_bytes("pattern", pattern)
    pattern, m = bytes(pattern), len(pattern)
    if k < 0:
        raise ValueError("k must be non-negative")
    if max_period < 0 or max_period > m:
        raise ValueError(f"max_period {max_period} outside [0, {m}]")
    for q in range(1, max_period + 1):
        blocks = m // q
        votes = Counter(pattern[i * q : (i + 1) * q] for i in range(blocks))
        candidates = sorted(v for v, c in votes.items() if c >= blocks - 2 * k)
        for root in candidates:
            dist = hamming_distance(pattern, tile(root, m))
            if dist <= 2 * k:
                # The columnwise argument implies the minimal verified root is
                # primitive; a composite one would have verified at a shorter q.
                if not is_primitive(root):
                    raise AssertionError(
                        "internal error: minimal close period is not primitive"
                    )
                return PeriodicCandidate(q, root, dist)
    return None


def widest_close_period(pattern: bytes, k: int) -> Optional[PeriodicCandidate]:
    """:func:`shortest_close_period` over the widest exact range of lengths.

    Period lengths up to ``m // (4k + 1)`` leave at least ``4k + 1`` full
    blocks. A root that verifies differs from at most ``2k`` of them, so it
    wins a strict majority of the blocks and no other root can verify: the
    block vote then returns exactly the columnwise optimum: the root of column
    majorities, at the sum of the columns' minority counts. With fewer blocks
    two roots can tie.
    """
    return shortest_close_period(pattern, k, len(pattern) // (4 * k + 1))


def _ceil_finite(name: str, value: float, epsilon: float, beta: float) -> int:
    if not math.isfinite(value):
        raise ValueError(
            f"{name} is not finite at epsilon={epsilon!r}, beta={beta!r}"
        )
    return math.ceil(value)


def periodic_scale(k: int, n: int, epsilon: float, beta: float) -> int:
    """Period-length divisor for the reporting regime (rounded up to an int).

    Raises ValueError when epsilon or beta is so small that it overflows.
    """
    value = 96.0 * (math.log(n) + math.log(6.0 / beta)) / epsilon
    return max(k, _ceil_finite("period scale", value, epsilon, beta))


def small_k_cutoff(n: int, epsilon: float, beta: float) -> int:
    """Mismatch budget substituted for small ``k`` (rounded up to an int).

    Raises ValueError when epsilon or beta is so small that it overflows.
    """
    value = 24.0 * math.log(6.0 * n / beta) / epsilon
    return _ceil_finite("small-k cutoff", value, epsilon, beta)


def check_query(
    m: int, k: int, epsilon: float, beta: float, n: Optional[int] = None
) -> None:
    """Raise unless the query is valid: a non-empty pattern no longer than the
    text (when ``n`` is given), an integer ``k`` in ``[0, m]``, a positive
    finite ``epsilon`` and ``beta`` in ``(0, 1)``."""
    if m < 1:
        raise ValueError("pattern must be non-empty")
    if n is not None and m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    try:
        operator.index(k)
    except TypeError:
        raise TypeError(f"k must be an integer, got {k!r}") from None
    if not 0 <= k <= m:
        raise ValueError(f"k={k} outside [0, m={m}]")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < beta < 1:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def dispatch(
    pattern: bytes, k: int, n: int, epsilon: float, beta: float
) -> DispatchDecision:
    """Select the matching regime for a public pattern and query parameters.

    The checks run in order: a close period short enough for the reporting
    regime wins; otherwise the absence of any close period at scale
    ``m/(128k)`` certifies the counting regime's occurrence bound; otherwise,
    for ``k`` below the cutoff, the same certificate at the cutoff's scale
    enables counting with the cutoff substituted for ``k``. Queries with
    ``k = 0`` or ``m = 1`` take the trivial fallback (the counting regimes
    divide by ``k`` and the stride-``floor(m/2)`` cover degenerates at
    ``m = 1``). If no regime applies, the trivial fallback still yields a
    valid private answer with additive error at most ``m``.

    Deterministic: consumes no randomness. Raises ValueError on invalid
    parameters, including epsilon or beta so small that the period scale or
    cutoff is not finite, and TypeError when the pattern is not bytes-like.
    """
    check_bytes("pattern", pattern)
    m = len(pattern)
    check_query(m, k, epsilon, beta, n)
    scale = periodic_scale(k, n, epsilon, beta)
    cutoff = small_k_cutoff(n, epsilon, beta)

    def decision(
        regime: Regime,
        candidate: Optional[PeriodicCandidate] = None,
        effective_k: int = k,
    ) -> DispatchDecision:
        return DispatchDecision(regime, candidate, effective_k, scale, cutoff)

    if k == 0 or m == 1:
        return decision(Regime.TRIVIAL_FALLBACK)
    candidate = shortest_close_period(pattern, k, m // (32 * scale))
    if candidate is not None:
        return decision(Regime.PERIODIC_REPORTING, candidate)
    if shortest_close_period(pattern, k, m // (128 * k)) is None:
        return decision(Regime.NON_PERIODIC_COUNTING)
    if k < cutoff and shortest_close_period(pattern, cutoff, m // (128 * cutoff)) is None:
        return decision(Regime.SMALL_K_COUNTING, effective_k=cutoff)
    return decision(Regime.TRIVIAL_FALLBACK)
