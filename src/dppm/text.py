"""Byte-string primitives: Hamming distances, the exact counting oracle, and the
overlapping window cover used by the private matchers.

A cover is an ordered tuple of closed index intervals ``(a, b)``, one for each
block of ``stride`` consecutive start positions, reaching the end of the
block's last length-m occurrence. Every occurrence lies in exactly one window
and every position in at most ``ceil((m - 1) / stride) + 1`` windows, which is
what lets per-window privacy losses compose to the query budget.

Sliding distances over any block of consecutive start positions come from
one in-place fill rule, ``_fill``, which writes them into a caller's int64
array with one of three exact kernels, chosen by the block's size: pure
Python up to ``_NUMPY_CUTOFF`` byte comparisons, a compare of the
``rows x m`` window matrix below ``_SHIFTED_ADD_ROWS`` rows, and a shifted
add otherwise. The shifted add compares the text span with pattern bytes and
adds each comparison, shifted by a pattern offset, into a one-byte match
counter: contiguous vector adds in place of a window matrix summed along its
short axis. A byte pair ``(pattern[j], pattern[j + 1])`` at an even offset
that recurs in the pattern is compared once as a pair and counted by one add
per occurrence, so a pattern over few letters takes about m/2 adds, and one
whose pairs are all distinct takes m. All three kernels give the same
integers. ``distance_array`` applies the rule once to every start position.
``LazyDistances``, the lazy array an existence query scans, applies it once
to each chunk of its own array: a small first chunk, window-matrix chunks
that double, then shifted-add chunks of at least ``_SHIFTED_ADD_CHUNK_ROWS``
rows, since short shifted-add chunks pay mostly per-call overhead.

Texts and patterns are bytes-like (``bytes``, ``bytearray`` or a
one-dimensional unsigned-byte ``memoryview``); anything else raises
``TypeError``. The alphabet is the full byte range. Every distance here is
exact and deterministic, so these primitives double as the non-private
reference oracles for the randomized matchers.
"""

from __future__ import annotations

from operator import ne

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Up to this many byte comparisons the pure-Python kernel beats numpy call
# overhead. The scans read an int64 array either way (every kernel writes in
# place into the caller's int64 array), so what it buys is cheaper distances
# for tiny texts: numpy at every size cost the audit-existence workload, which
# computes them once per audit lane, about 2% of its trials.
_NUMPY_CUTOFF = 4096

# The window-matrix compare materializes at most this many comparisons (or one
# window, when m is larger) at a time; it is also the size of the first chunk
# of LazyDistances.
_CHUNK_COMPARISONS = 65536

# No chunk of LazyDistances has more than this many rows, which bounds a
# shifted-add chunk's working memory plus its text span, whatever the text
# length: a one-byte counter, one pair sum and up to two comparisons made
# afresh, one byte a row each, plus at most _COMPARISON_BYTES of kept
# comparisons, under 0.5 MiB in all.
_MAX_CHUNK_ROWS = 1 << 16

# The shifted add keeps at most this many bytes of byte comparisons (one byte
# a position of its text span) for reuse: all four of a four-letter pattern
# over a span of up to 32 KiB, while a pattern of many distinct bytes cannot
# make a chunk hold one comparison per byte.
_COMPARISON_BYTES = 1 << 17

# Below this many rows the window-matrix compare beats the shifted add, which
# makes one numpy call per pattern position or recurring pair.
_SHIFTED_ADD_ROWS = 1024

# A shifted-add chunk after the first has at least this many rows (unless it
# is the last). The shifted add makes m/2 to m numpy calls whatever its
# length, so short chunks are mostly call overhead: at m = 256 over a random
# four-letter text a chunk of 1024 / 4096 / 16384 / 32768 / 65536 rows took
# 0.08 / 0.09 / 0.12 / 0.17 / 0.29 ms (2-vCPU AMD EPYC, numpy 2.4).
# Doubling from 1024 rows would make five such chunks of a 3e4-row scan;
# this makes one.
_SHIFTED_ADD_CHUNK_ROWS = 1 << 15


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


def _window_compare(
    tv: np.ndarray, pv: np.ndarray, start: int, out: np.ndarray
) -> None:
    """Write the distances at start positions ``start, start + 1, ...`` into
    ``out`` from the window matrix, at most ``_CHUNK_COMPARISONS`` comparisons
    (or one window) at a time. Each row sums in uint16 (uint32 from
    m = 2**16 on), not int64: at m = 256 that halved the sum's time."""
    m, rows = len(pv), len(out)
    step = max(1, _CHUNK_COMPARISONS // m)
    dtype = np.uint16 if m < 1 << 16 else np.uint32
    for a in range(0, rows, step):
        b = min(a + step, rows)
        windows = sliding_window_view(tv[start + a : start + b + m - 1], m)
        unequal = (windows != pv).view(np.uint8)
        np.add.reduce(unequal, axis=1, dtype=dtype, out=out[a:b])


def _shifted_add(tv: np.ndarray, pv: np.ndarray, start: int, out: np.ndarray) -> None:
    """Write the distances at start positions ``start, start + 1, ...`` into
    ``out``: ``m`` minus the matches counted by vector adds of shifted
    comparisons (bool arrays read as uint8). The offset pairs ``(j, j + 1)``,
    ``j`` even, are grouped by their bytes ``(a, b)``. A pair that recurs is
    counted by one add per occurrence of ``(span == a)[:-1] + (span == b)[1:]``
    (built once, values 0 to 2); every other offset ``j``, an odd m's last
    among them, by one add of ``span == pattern[j]``, grouped by byte. The
    counter is uint8 and is subtracted from ``out``, which starts at m, before
    an add could wrap it. A byte's comparison is kept for reuse while the kept
    ones fit in ``_COMPARISON_BYTES``, and made again when used otherwise."""
    m, rows = len(pv), len(out)
    span = tv[start : start + rows + m - 1]
    p = pv.tobytes()
    pairs: dict[tuple[int, int], list[int]] = {}
    for j, key in zip(range(0, m - 1, 2), zip(p[0::2], p[1::2])):
        pairs.setdefault(key, []).append(j)
    singles: dict[int, list[int]] = {p[-1]: [m - 1]} if m % 2 else {}
    kept: dict[int, np.ndarray] = {}
    budget = _COMPARISON_BYTES

    def compare(c: int) -> np.ndarray:
        nonlocal budget
        eq = kept.get(c)
        if eq is None:
            eq = np.equal(span, c).view(np.uint8)
            if eq.nbytes <= budget:
                kept[c], budget = eq, budget - eq.nbytes
        return eq

    counter = np.zeros(rows, np.uint8)
    room = 255  # what the counter can still take without wrapping
    out.fill(m)
    # out passed positionally: on short chunks call overhead dominates
    add, subtract = np.add, np.subtract

    def count(values: np.ndarray, offsets: list[int], most: int) -> None:
        nonlocal room
        for j in offsets:
            if room < most:
                subtract(out, counter, out)
                counter.fill(0)
                room = 255
            add(counter, values[j : j + rows], counter)
            room -= most

    pair = None  # one buffer for every recurring pair
    for (a, b), at in pairs.items():
        if len(at) > 1:
            pair = add(compare(a)[:-1], compare(b)[1:], out=pair)
            count(pair, at, 2)
        else:
            singles.setdefault(a, []).append(at[0])
            singles.setdefault(b, []).append(at[0] + 1)
    for c, at in singles.items():
        count(compare(c), at, 1)
    subtract(out, counter, out)


def _fill(text: bytes, pattern: bytes, start: int, out: np.ndarray) -> None:
    """Write the distances at start positions ``start, start + 1, ...`` into
    the int64 array ``out``, one per entry, by the kernel rule: pure Python up
    to ``_NUMPY_CUTOFF`` byte comparisons, otherwise the window matrix below
    ``_SHIFTED_ADD_ROWS`` rows and the shifted add above."""
    m, rows = len(pattern), len(out)
    if rows * m <= _NUMPY_CUTOFF:
        stop = start + rows
        out[:] = [sum(map(ne, text[i : i + m], pattern)) for i in range(start, stop)]
        return
    kernel = _window_compare if rows < _SHIFTED_ADD_ROWS else _shifted_add
    kernel(np.frombuffer(text, np.uint8), np.frombuffer(pattern, np.uint8), start, out)


def distance_array(text: bytes, pattern: bytes) -> np.ndarray:
    """The Hamming distance of ``pattern`` at every start position, as one
    numpy int64 array filled by one application of the kernel rule.

    Raises:
        TypeError: if the text or pattern is not bytes-like.
        ValueError: if the pattern is empty or longer than the text.
    """
    n, m = _lengths(text, pattern)
    out = np.empty(n - m + 1, np.int64)
    _fill(text, pattern, 0, out)
    return out


class LazyDistances:
    """The distances of :func:`distance_array`, in one int64 array that the
    kernel rule fills chunk by chunk, in place: the first slice that reaches
    past what is filled fills it up to the end of the chunk that slice
    reaches into, so each chunk is computed once. The first chunk has
    ``_CHUNK_COMPARISONS // m`` rows (at least one), so an early hit computes
    little; chunks then double while below ``_SHIFTED_ADD_ROWS`` rows (a
    window-matrix chunk), and a longer chunk has at least
    ``_SHIFTED_ADD_CHUNK_ROWS`` rows, so a scan over the whole text pays the
    shifted add's per-call overhead on few chunks. No chunk exceeds
    ``_MAX_CHUNK_ROWS`` rows, and the last holds what remains. Every slice is
    a read-only view. ``sequence`` is what a scan reads: the object itself
    until every chunk is in, then the whole array, read-only, so later scans
    slice it without a Python call (which cost a tiny audit trial about 9%).

    Raises:
        TypeError: if the text or pattern is not bytes-like.
        ValueError: if the pattern is empty or longer than the text.
    """

    def __init__(self, text: bytes, pattern: bytes):
        n, m = _lengths(text, pattern)
        self._text, self._pattern = text, pattern
        self._array = np.empty(n - m + 1, np.int64)
        self._view = self._array.view()
        self._view.flags.writeable = False
        self._filled = 0
        self._size = max(1, _CHUNK_COMPARISONS // m)  # rows of the next chunk
        self.sequence: np.ndarray | LazyDistances = self

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, key: slice) -> np.ndarray:
        rows = range(*key.indices(len(self._array)))
        reach = max(rows[0], rows[-1]) + 1 if rows else 0  # one past the last row read
        if reach > self._filled:
            array = self._array
            while self._filled < reach:
                start = self._filled
                self._filled = min(start + self._size, len(array))
                _fill(self._text, self._pattern, start, array[start : self._filled])
                size = 2 * self._size
                if size >= _SHIFTED_ADD_ROWS:
                    size = min(max(size, _SHIFTED_ADD_CHUNK_ROWS), _MAX_CHUNK_ROWS)
                self._size = size
            if self._filled == len(array):
                self.sequence = self._view
        return self._view[key]


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
