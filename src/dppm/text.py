"""Byte-string primitives: Hamming distances, the exact counting oracle, and the
overlapping window cover used by the private matchers.

A cover is an ordered tuple of closed index intervals ``(a, b)``, one for each
block of ``stride`` consecutive start positions, reaching the end of the
block's last length-m occurrence. Every occurrence lies in exactly one window
and every position in at most ``ceil((m - 1) / stride) + 1`` windows, which is
what lets per-window privacy losses compose to the query budget.

Sliding distances over any block of consecutive start positions come from
one kernel rule with three exact kernels, chosen by the block's size: pure
Python (returning a list) up to ``_NUMPY_CUTOFF`` byte comparisons, a compare
of the ``rows x m`` window matrix below ``_SHIFTED_ADD_ROWS`` rows, and a
per-symbol shifted add otherwise. The shifted add compares the text span with
each distinct pattern byte ``c`` once and adds the comparison, shifted by
every offset ``j`` with ``pattern[j] == c``, into a match counter: m
contiguous vector adds in place of a window matrix summed along its short
axis. All three give the same integers. ``distance_array`` applies the rule
once to every start position, ``distance_chunks`` once to each chunk.

Texts and patterns are bytes-like (``bytes``, ``bytearray`` or a
one-dimensional unsigned-byte ``memoryview``); anything else raises
``TypeError``. The alphabet is the full byte range. All functions here are
pure and deterministic, so they double as the non-private reference oracles
for the randomized matchers.
"""

from __future__ import annotations

from operator import ne
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Up to this many byte comparisons the pure-Python kernel beats numpy call
# overhead. The scans read an int64 array either way (a prepared existence
# query copies each chunk into its one array), so what it buys is cheaper
# distances for tiny texts: numpy at every size cost the audit-existence
# workload, which computes them once per audit lane, about 2% of its trials.
_NUMPY_CUTOFF = 4096

# The window-matrix compare materializes at most this many comparisons (or one
# window, when m is larger) at a time; it is also the size of the first chunk
# of distance_chunks.
_CHUNK_COMPARISONS = 65536

# Chunks double up to this many rows, which bounds a shifted-add chunk's
# working memory (counter, one symbol's comparison, int64 result: at most 17
# bytes a row, about 1 MiB) plus its text span, whatever the text length.
_MAX_CHUNK_ROWS = 1 << 16

# Below this many rows the window-matrix compare beats the shifted add, which
# makes one numpy call per pattern position.
_SHIFTED_ADD_ROWS = 1024


def check_bytes(name: str, value) -> None:
    """Raise TypeError unless ``value`` is ``bytes``, ``bytearray`` or a
    contiguous one-dimensional unsigned-byte ``memoryview``: a ``str`` or a
    wider buffer would compare item by item against bytes and give wrong
    distances, and numpy cannot read a strided buffer."""
    if isinstance(value, (bytes, bytearray)) or (
        isinstance(value, memoryview)
        and value.format == "B"
        and value.ndim == 1
        and value.contiguous
    ):
        return
    raise TypeError(
        f"{name} must be bytes, bytearray or a contiguous memoryview of "
        f"unsigned bytes, got {type(value).__name__}"
    )


def hamming_distance(a: bytes, b: bytes) -> int:
    """Number of positions where ``a`` and ``b`` differ.

    Raises:
        TypeError: if an input is not bytes-like.
        ValueError: if the inputs have different lengths.
    """
    check_bytes("a", a)
    check_bytes("b", b)
    if len(a) != len(b):
        raise ValueError(
            f"hamming_distance requires equal lengths, got {len(a)} and {len(b)}"
        )
    return int(
        np.count_nonzero(np.frombuffer(a, np.uint8) != np.frombuffer(b, np.uint8))
    )


def _lengths(text: bytes, pattern: bytes) -> tuple[int, int]:
    """``(n, m)`` after checking the inputs' types and lengths."""
    check_bytes("text", text)
    check_bytes("pattern", pattern)
    n, m = len(text), len(pattern)
    if m < 1:
        raise ValueError("pattern must be non-empty")
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    return n, m


def _symbol_offsets(pv: np.ndarray) -> list[tuple[int, list[int]]]:
    """The pattern's offsets grouped by byte: ``[(c, [j, ...]), ...]`` with
    ``pv[j] == c``."""
    order = np.argsort(pv, kind="stable")
    symbols = pv[order]
    bounds = [0, *(np.flatnonzero(np.diff(symbols)) + 1).tolist(), len(pv)]
    order, symbols = order.tolist(), symbols.tolist()
    return [(symbols[a], order[a:b]) for a, b in zip(bounds, bounds[1:])]


def _window_compare(
    tv: np.ndarray, pv: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Distances at start positions ``[start, stop)`` from the window matrix,
    at most ``_CHUNK_COMPARISONS`` comparisons (or one window) at a time."""
    m = len(pv)
    step = max(1, _CHUNK_COMPARISONS // m)
    return np.concatenate([
        (sliding_window_view(tv[a : min(a + step, stop) + m - 1], m) != pv).sum(axis=1)
        for a in range(start, stop, step)
    ])


def _shifted_add(
    tv: np.ndarray, m: int, offsets: list[tuple[int, list[int]]], start: int, stop: int
) -> np.ndarray:
    """Distances at start positions ``[start, stop)``: ``m`` minus the matches
    counted by one vector add per pattern offset. The counter is the narrowest
    unsigned type that holds m."""
    rows = stop - start
    span = tv[start : stop + m - 1]
    dtype = np.uint8 if m < 1 << 8 else np.uint16 if m < 1 << 16 else np.uint32
    matches = np.zeros(rows, dtype)
    add = np.add  # out passed positionally: on short chunks call overhead dominates
    for c, at in offsets:
        eq = (span == c).astype(dtype)
        for j in at:
            add(matches, eq[j : j + rows], matches)
    return np.subtract(m, matches, dtype=np.int64)


def _distances(
    text: bytes,
    pattern: bytes,
    start: int,
    stop: int,
    offsets: list[tuple[int, list[int]]],
) -> Sequence[int]:
    """Distances at start positions ``[start, stop)`` by the kernel rule: a
    list from pure Python up to ``_NUMPY_CUTOFF`` byte comparisons, otherwise
    a numpy int64 array from the window matrix below ``_SHIFTED_ADD_ROWS``
    rows and from the shifted add above. ``offsets`` holds the pattern's
    offset groups; the shifted add fills it when it is empty, so blocks of one
    stream that share the list build the groups once."""
    m = len(pattern)
    rows = stop - start
    if rows * m <= _NUMPY_CUTOFF:
        return [sum(map(ne, text[i : i + m], pattern)) for i in range(start, stop)]
    tv = np.frombuffer(text, np.uint8)
    pv = np.frombuffer(pattern, np.uint8)
    if rows < _SHIFTED_ADD_ROWS:
        return _window_compare(tv, pv, start, stop)
    if not offsets:
        offsets += _symbol_offsets(pv)
    return _shifted_add(tv, m, offsets, start, stop)


def distance_chunks(text: bytes, pattern: bytes) -> Iterator[Sequence[int]]:
    """Lazily yield the Hamming distance of ``pattern`` at every start position,
    in consecutive chunks: ``_CHUNK_COMPARISONS // m`` rows first (at least
    one), then doubling up to ``_MAX_CHUNK_ROWS``. Each chunk comes from the
    kernel rule of :func:`_distances`, so it is a list when it is at most
    ``_NUMPY_CUTOFF`` byte comparisons (a whole input that small is one list
    chunk) and a numpy int64 array otherwise. A consumer that stops early
    computes the first chunk, or at most about twice what it read.

    Raises:
        TypeError: if the text or pattern is not bytes-like.
        ValueError: if the pattern is empty or longer than the text.
    """
    n, m = _lengths(text, pattern)
    count = n - m + 1
    bounds, size = [0], max(1, _CHUNK_COMPARISONS // m)
    while bounds[-1] < count:
        bounds.append(min(bounds[-1] + size, count))
        size = min(2 * size, _MAX_CHUNK_ROWS)
    offsets: list[tuple[int, list[int]]] = []  # shared by every chunk
    return (
        _distances(text, pattern, a, b, offsets) for a, b in zip(bounds, bounds[1:])
    )


def distance_array(text: bytes, pattern: bytes) -> np.ndarray:
    """The distances of :func:`distance_chunks` as one numpy int64 array,
    from the kernel rule of :func:`_distances` applied once to every start
    position.

    Raises:
        TypeError: if the text or pattern is not bytes-like.
        ValueError: if the pattern is empty or longer than the text.
    """
    n, m = _lengths(text, pattern)
    return np.asarray(_distances(text, pattern, 0, n - m + 1, []), np.int64)


def sliding_distances(text: bytes, pattern: bytes) -> list[int]:
    """Hamming distance of ``pattern`` against every length-m window of ``text``.

    Entry ``i`` equals ``hamming_distance(text[i:i+m], pattern)``; the result
    has ``n - m + 1`` entries.

    Raises:
        TypeError: if the text or pattern is not bytes-like.
        ValueError: if the pattern is empty or longer than the text.
    """
    return distance_array(text, pattern).tolist()


def exact_count(text: bytes, pattern: bytes, x: int) -> int:
    """Number of start positions whose window is within distance ``x``."""
    if not 0 <= x <= len(pattern):
        raise ValueError(f"distance threshold {x} outside [0, {len(pattern)}]")
    return int(np.count_nonzero(distance_array(text, pattern) <= x))


def tile(unit: bytes, length: int) -> bytes:
    """``unit`` repeated and clipped to exactly ``length`` bytes."""
    if len(unit) < 1:
        raise ValueError("unit must be non-empty")
    if length < 0:
        raise ValueError("length must be non-negative")
    reps = -(-length // len(unit))
    return (unit * reps)[:length]


def window_cover(n: int, m: int, stride: int) -> tuple[tuple[int, int], ...]:
    """The closed windows ``(a, b)`` that split a length-``n`` text for a
    length-``m`` pattern: one window for each block of ``stride`` consecutive
    start positions, ``a = 0, stride, 2 * stride, ...`` up to ``n - m``,
    reaching the end of the block's last occurrence,
    ``b = min(a + stride + m - 1, n) - 1``.

    An occurrence lies wholly in a window exactly when it starts in the
    window's block, so every occurrence lies in exactly one window, and every
    window holds at least one start. A position lies in at most
    ``ceil((m - 1) / stride) + 1`` windows: 3 at the reporter's stride
    ``floor(m/2)``, 2 at the counter's stride ``m``.

    Raises:
        ValueError: if ``stride < 1``, ``m < 1`` or ``m > n``.
    """
    if stride < 1:
        raise ValueError(f"window cover needs stride >= 1, got stride={stride}")
    if m < 1:
        raise ValueError(f"window cover needs m >= 1, got m={m}")
    if m > n:
        raise ValueError(f"pattern length {m} exceeds text length {n}")
    return tuple(
        (a, min(a + stride + m - 1, n) - 1) for a in range(0, n - m + 1, stride)
    )
