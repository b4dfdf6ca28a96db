"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own implementations so that the
equivalence tests stay two-sided.
"""

from fractions import Fraction
from itertools import product

import numpy as np


def brute_hamming(a: bytes, b: bytes) -> int:
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if x != y)


def brute_sliding(text: bytes, pattern: bytes) -> list[int]:
    m = len(pattern)
    return [
        brute_hamming(text[i : i + m], pattern) for i in range(len(text) - m + 1)
    ]


def brute_first_at_most(text: bytes, pattern: bytes, thresh: float):
    for i, d in enumerate(brute_sliding(text, pattern)):
        if d <= thresh:
            return i
    return None


def spent_by_position(ledger) -> dict[int, Fraction]:
    """Fold a BudgetLedger's charge spans into position -> accumulated epsilon,
    in exact ``Fraction`` arithmetic: a charge of ``share`` costs
    ``epsilon / share`` on each position of its span."""
    out: dict[int, Fraction] = {}
    for start, stop, share in ledger._spans:
        eps = Fraction(ledger.epsilon) / share
        for p in range(start, stop):
            out[p] = out.get(p, Fraction(0)) + eps
    return out


def binary_strings(length: int):
    for symbols in product(b"ab", repeat=length):
        yield bytes(symbols)


def draws(src, b: float, size: int) -> np.ndarray:
    """``size`` successive ``src.laplace(b)`` draws as an array."""
    return np.array([src.laplace(b) for _ in range(size)])
