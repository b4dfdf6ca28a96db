"""Byte-string primitives: Hamming distances, the exact counting oracle, and the
overlapping window covers used by the private matchers.

A cover is an ordered tuple of closed index intervals ``(a, b)`` covering
``[0, n-1]`` such that every length-m interval lies in exactly one window,
which is what lets per-window privacy losses compose to the query budget.

Texts and patterns are plain ``bytes``; the alphabet is the full byte range.
All functions here are pure and deterministic, so they double as the
non-private reference oracles for the randomized matchers.
"""

from __future__ import annotations

from operator import ne
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Below this many byte comparisons the pure-Python path beats numpy call
# overhead (relevant for the audit harness, which runs millions of tiny scans).
_NUMPY_CUTOFF = 4096

# Rows of the sliding-window matrix materialized per chunk; bounds peak memory
# at roughly 64 KiB of comparisons regardless of text length.
_CHUNK_COMPARISONS = 65536


def hamming_distance(a: bytes, b: bytes) -> int:
    """Number of positions where ``a`` and ``b`` differ.

    Raises:
        ValueError: if the inputs have different lengths.
    """
    if len(a) != len(b):
        raise ValueError(
            f"hamming_distance requires equal lengths, got {len(a)} and {len(b)}"
        )
    if len(a) >= _NUMPY_CUTOFF:
        return int(
            np.count_nonzero(np.frombuffer(a, np.uint8) != np.frombuffer(b, np.uint8))
        )
    return sum(x != y for x, y in zip(a, b))


def distance_chunks(text: bytes, pattern: bytes) -> Iterator[Sequence[int]]:
    """Lazily yield the Hamming distance of ``pattern`` at every start position,
    in consecutive chunks.

    Below ``_NUMPY_CUTOFF`` byte comparisons the chunks are lists computed in
    pure Python, one distance first and then doubling, so a consumer that stops
    at the first distance computes only that one. Otherwise they are numpy int
    arrays of at most ``_CHUNK_COMPARISONS // m`` distances. Either way a
    consumer that stops early does not pay for the rest of the text.

    Raises:
        ValueError: if the pattern is empty or longer than the text.
    """
    n, m = len(text), len(pattern)
    if m < 1:
        raise ValueError("pattern must be non-empty")
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    count = n - m + 1
    if count * m <= _NUMPY_CUTOFF:
        start, stop = 0, 1
        while start < count:
            yield [
                sum(map(ne, text[i : i + m], pattern)) for i in range(start, stop)
            ]
            start, stop = stop, min(2 * stop, count)
        return
    tv = np.frombuffer(text, np.uint8)
    pv = np.frombuffer(pattern, np.uint8)
    chunk = max(1, _CHUNK_COMPARISONS // m)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        windows = sliding_window_view(tv[start : stop + m - 1], m)
        yield (windows != pv).sum(axis=1)


def distance_array(text: bytes, pattern: bytes) -> np.ndarray:
    """All distances of :func:`distance_chunks` as one numpy int array."""
    return np.concatenate(list(distance_chunks(text, pattern)))


def iter_sliding_distances(text: bytes, pattern: bytes) -> Iterator[int]:
    """Lazily yield the Hamming distance of ``pattern`` at every start position,
    as Python ints (see :func:`distance_chunks`)."""
    for chunk in distance_chunks(text, pattern):
        yield from chunk if isinstance(chunk, list) else chunk.tolist()


def sliding_distances(text: bytes, pattern: bytes) -> list[int]:
    """Hamming distance of ``pattern`` against every length-m window of ``text``.

    Entry ``i`` equals ``hamming_distance(text[i:i+m], pattern)``; the result
    has ``n - m + 1`` entries.

    Raises:
        ValueError: if the pattern is empty or longer than the text.
    """
    return distance_array(text, pattern).tolist()


def exact_count(text: bytes, pattern: bytes, x: int) -> int:
    """Number of start positions whose window is within distance ``x``."""
    if not 0 <= x <= len(pattern):
        raise ValueError(f"distance threshold {x} outside [0, {len(pattern)}]")
    return sum(1 for d in iter_sliding_distances(text, pattern) if d <= x)


def tile(unit: bytes, length: int) -> bytes:
    """``unit`` repeated and clipped to exactly ``length`` bytes."""
    if len(unit) < 1:
        raise ValueError("unit must be non-empty")
    if length < 0:
        raise ValueError("length must be non-negative")
    reps = -(-length // len(unit))
    return (unit * reps)[:length]


def periodic_cover(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Stride-``floor(m/2)`` cover used by the periodic-case reporter.

    Windows start at ``j * floor(m/2)`` and span ``floor(3m/2) - 1`` positions
    (clipped to the text), followed by a tail window reaching ``n - 1``.
    Consecutive windows overlap by ``m - 1``, so each pattern occurrence is
    contained in exactly one window and each position in at most three.

    Raises:
        ValueError: if ``m > n`` or ``m < 2`` (stride would degenerate).
    """
    if m < 2:
        raise ValueError(f"periodic cover needs m >= 2, got m={m}")
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    stride = m // 2
    length = (3 * m) // 2 - 1
    tail_index = (n - m) // stride
    windows = [
        (j * stride, min(j * stride + length - 1, n - 1)) for j in range(tail_index)
    ]
    windows.append((tail_index * stride, n - 1))
    return tuple(windows)


def counting_cover(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Stride-``m`` cover used by the non-periodic counter.

    Windows span ``[j*m, (j+2)*m - 2]`` plus a tail reaching ``n - 1``; each
    pattern occurrence is contained in exactly one window and each position in
    at most two.

    Raises:
        ValueError: if ``m > n`` or ``m < 1``.
    """
    if m < 1:
        raise ValueError(f"window cover needs m >= 1, got m={m}")
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    blocks = (n + 1) // m
    windows = [(j * m, (j + 2) * m - 2) for j in range(blocks - 1)]
    tail_start = (blocks - 1) * m
    if tail_start <= n - 1:
        windows.append((tail_start, n - 1))
    return tuple(windows)
