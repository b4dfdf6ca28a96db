"""Tests for the string primitives and window covers."""

import array
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppm.text as text_module
from dppm.text import (
    distance_array,
    exact_count,
    hamming_distance,
    sliding_distances,
    tile,
    window_cover,
)

from dppm.periodicity import dispatch, is_primitive, shortest_close_period

from conftest import (
    binary_strings,
    brute_sliding,
    counting_cover,
    periodic_cover,
    ref_distances,
)

# Most windows any position may lie in, at the reporter's and the counter's
# strides.
PERIODIC_MULTIPLICITY = 3
COUNTING_MULTIPLICITY = 2


def check_cover(windows, n: int, m: int, multiplicity: int) -> None:
    """Check every structural invariant of a window cover of ``[0, n-1]``;
    raises ValueError on violation."""
    if not windows:
        raise ValueError("window family is empty")
    covered = [0] * n
    for a, b in windows:
        if not (0 <= a <= b <= n - 1):
            raise ValueError(f"window [{a}, {b}] outside [0, {n - 1}]")
        for p in range(a, b + 1):
            covered[p] += 1
    if any(c == 0 for c in covered):
        raise ValueError("windows do not cover [0, n-1]")
    if max(covered) > multiplicity:
        raise ValueError(
            f"position multiplicity {max(covered)} exceeds {multiplicity}"
        )
    for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
        overlap = min(b1, b2) - max(a1, a2) + 1
        if overlap > m - 1:
            raise ValueError(
                f"consecutive windows overlap by {overlap} > m-1 = {m - 1}"
            )
    for i in range(n - m + 1):
        containing = sum(1 for a, b in windows if a <= i and i + m - 1 <= b)
        if containing != 1:
            raise ValueError(
                f"occurrence interval [{i}, {i + m - 1}] lies in "
                f"{containing} windows, expected exactly 1"
            )


class TestHammingDistance:
    def test_identical(self):
        assert hamming_distance(b"abra", b"abra") == 0

    def test_single_difference(self):
        assert hamming_distance(b"abc", b"abd") == 1

    def test_positionwise(self):
        assert hamming_distance(b"brac", b"abra") == 4

    def test_empty(self):
        assert hamming_distance(b"", b"") == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal lengths"):
            hamming_distance(b"ab", b"abc")

    def test_long_inputs_use_same_semantics(self):
        a = b"ab" * 5000
        b = b"ba" * 5000
        assert hamming_distance(a, b) == 10000

    def test_symmetry_and_triangle_exhaustive_binary(self):
        # Exhaustive over binary strings of length <= 6, using a precomputed
        # pairwise table so the triple loop stays cheap.
        for length in range(7):
            strings = list(binary_strings(length))
            dist = {
                (x, y): hamming_distance(x, y) for x in strings for y in strings
            }
            for x in strings:
                for y in strings:
                    assert dist[x, y] == dist[y, x]
                    for z in strings:
                        assert dist[x, z] <= dist[x, y] + dist[y, z]


class TestSlidingDistances:
    def test_spec_example(self):
        assert sliding_distances(b"abracadabra", b"abra") == [0, 4, 3, 3, 3, 3, 4, 0]

    def test_self_match(self):
        assert sliding_distances(b"abra", b"abra") == [0]

    def test_disjoint_alphabets(self):
        assert sliding_distances(b"aaaa", b"bb") == [2, 2, 2]

    def test_pattern_longer_than_text(self):
        with pytest.raises(ValueError, match="exceeds text length"):
            sliding_distances(b"ab", b"abc")

    def test_empty_pattern(self):
        with pytest.raises(ValueError, match="non-empty"):
            sliding_distances(b"ab", b"")

    def test_matches_extracted_substring_distance(self):
        text, pattern = b"abracadabra", b"abra"
        m = len(pattern)
        for i, d in enumerate(sliding_distances(text, pattern)):
            assert d == hamming_distance(text[i : i + m], pattern)

    def test_numpy_and_python_paths_agree(self):
        # Large enough to hit the chunked numpy path.
        text = tile(b"abcab", 3000)
        pattern = tile(b"abc", 40)
        assert sliding_distances(text, pattern) == brute_sliding(text, pattern)

    @given(
        st.binary(min_size=1, max_size=60),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200)
    def test_agrees_with_brute_force(self, text, m):
        if m > len(text):
            m = len(text)
        pattern = text[:m][::-1]
        assert sliding_distances(text, pattern) == brute_sliding(text, pattern)


def edge_counts(m: int) -> list[int]:
    """Start-position counts just below, at and above each kernel switch (the
    pure-Python cutoff, one window-matrix step, the shifted add) and around
    the span of 32 KiB past which the four comparisons of a four-letter
    pattern no longer all fit in ``_COMPARISON_BYTES``, so some are made
    again; 1792 and 34560 are shifted-add row counts either side of it."""
    cutoff = text_module._NUMPY_CUTOFF // m
    step = max(1, text_module._CHUNK_COMPARISONS // m)
    switch = text_module._SHIFTED_ADD_ROWS
    kept = text_module._COMPARISON_BYTES // 4 - m + 1  # rows of a 32 KiB span
    counts = {1, 2 * step + 1}
    for at in (cutoff, step, switch, 1792, kept, 34560):
        counts |= {at - 1, at, at + 1}
    return sorted(c for c in counts if c >= 1)


def counting_dtype(m: int) -> type:
    """The dtype of ``distance_array``'s result, which its kernels count in:
    uint16 below m = 2**16, where a distance fits in it, and uint32 from
    there."""
    return np.uint16 if m < 1 << 16 else np.uint32


def random_text(rng: np.random.Generator, n: int, alphabet: str) -> bytes:
    if alphabet == "acgt":
        return np.frombuffer(b"acgt", np.uint8)[rng.integers(0, 4, n)].tobytes()
    return rng.integers(0, 256, n, dtype=np.uint8).tobytes()


class TestDistanceKernels:
    """``distance_array`` and ``sliding_distances`` equal the window-matrix
    reference at every kernel switch."""

    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 1024, 4096])
    @pytest.mark.parametrize("alphabet", ["acgt", "bytes"])
    def test_agree_with_reference(self, m, alphabet):
        rng = np.random.default_rng(m)
        for count in edge_counts(m):
            n = count + m - 1
            text = bytearray(random_text(rng, n, alphabet))
            pattern = random_text(rng, m, alphabet)
            if alphabet == "bytes":  # both ends of the byte range
                pattern = b"\x00\xff" + pattern[2:] if m >= 2 else b"\xff"
                text[: min(n, 4)] = b"\xff\x00\xff\x00"[: min(n, 4)]
            for at in (0, (n - m) // 2, n - m):  # exact occurrences
                text[at : at + m] = pattern
            text = bytes(text)
            expected = ref_distances(text, pattern)
            assert expected[-1] == 0
            got = distance_array(text, pattern)
            assert got.dtype == counting_dtype(m)
            assert np.array_equal(got, expected), count
            assert sliding_distances(text, pattern) == expected.tolist()

    def test_full_match_count_does_not_wrap(self):
        # Every window of a constant text matches a constant pattern of that
        # length: m matches, which wrap the uint8 counter unless it is
        # emptied in time (every 127 pair adds, or 255 single ones).
        for m in (254, 255, 256, 257, 510, 511, 512, 513):
            for byte in (b"\x00", b"\xff"):
                text, pattern = byte * (m + 2000), byte * m
                assert not distance_array(text, pattern).any()
                other = b"\x01" if byte == b"\x00" else b"\xfe"
                assert (distance_array(text, other * m) == m).all()
                assert (distance_array(text, byte * (m - 1) + other) == 1).all()

    @pytest.mark.parametrize("m", [255, 256, 65535, 65536])
    def test_window_compare_sum_does_not_wrap(self, m):
        # The window matrix sums each row in out's dtype, 16 bits below
        # m = 2^16 and 32 from there on: m mismatches wrap a 16-bit sum to 0
        # at m = 65536.
        rows = 20  # above the pure-Python cutoff, below the shifted add
        assert rows * m > text_module._NUMPY_CUTOFF
        assert rows < text_module._SHIFTED_ADD_ROWS
        for byte in (b"a", b"b"):  # all-match, then all-mismatch windows
            text, pattern = byte * (m + rows - 1), b"a" * m
            expected = ref_distances(text, pattern)
            assert expected.tolist() == [0 if byte == b"a" else m] * rows
            out = np.empty(rows, counting_dtype(m))
            text_module._window_compare(
                np.frombuffer(text, np.uint8), np.frombuffer(pattern, np.uint8), out
            )
            assert np.array_equal(out, expected)
            got = distance_array(text, pattern)
            assert got.dtype == counting_dtype(m)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("m", [65535, 65536])
    def test_shifted_add_total_does_not_wrap(self, m):
        # The shifted add subtracts its one-byte counter from out, which
        # starts at m, in out's dtype: 16 bits below m = 2^16 and 32 from
        # there on, where m itself no longer fits in 16 bits.
        rows = 1024
        assert rows >= text_module._SHIFTED_ADD_ROWS
        for byte in (b"a", b"b"):  # all-match, then all-mismatch windows
            text, pattern = byte * (m + rows - 1), b"a" * m
            expected = [0 if byte == b"a" else m] * rows
            assert self.shifted(text, pattern).tolist() == expected
            got = distance_array(text, pattern)
            assert got.dtype == counting_dtype(m)
            assert got.tolist() == expected

    @staticmethod
    def shifted(text: bytes, pattern: bytes) -> np.ndarray:
        """The shifted add alone over every start position, into an array of
        the dtype ``distance_array`` allocates."""
        out = np.empty(len(text) - len(pattern) + 1, counting_dtype(len(pattern)))
        text_module._shifted_add(
            np.frombuffer(text, np.uint8), np.frombuffer(pattern, np.uint8), out
        )
        return out

    def check_shifted(self, text: bytes, pattern: bytes) -> None:
        expected = ref_distances(text, pattern)
        assert np.array_equal(self.shifted(text, pattern), expected)
        if len(expected) >= text_module._SHIFTED_ADD_ROWS:
            assert np.array_equal(distance_array(text, pattern), expected)

    @pytest.mark.parametrize("m", [2, 3, 509, 510, 600, 1024])
    def test_one_pair_key(self, m):
        # A one-byte pattern has one pair key, added m // 2 times at weight 2:
        # the uint8 counter must be flushed every 127 adds.
        rng = np.random.default_rng(m)
        text = bytearray(random_text(rng, m + 2000, "acgt"))
        text[500 : 500 + m] = b"a" * m
        self.check_shifted(bytes(text), b"a" * m)

    @pytest.mark.parametrize("m", [2, 255, 256, 257, 512])
    def test_every_pair_distinct(self, m):
        # Pairs (0, 1), (2, 3), ... never recur, so every offset is added on
        # its own.
        pattern = (bytes(range(256)) + bytes(range(255, -1, -1)))[:m]
        rng = np.random.default_rng(m)
        text = bytearray(random_text(rng, m + 3000, "bytes"))
        text[1000 : 1000 + m] = pattern
        self.check_shifted(bytes(text), pattern)

    @pytest.mark.parametrize("m", [1, 3, 5, 63, 255, 257, 1023])
    def test_odd_length(self, m):
        # The last offset pairs with nothing and is added on its own.
        rng = np.random.default_rng(m)
        for alphabet in ("acgt", "bytes"):
            text = random_text(rng, m + 2000, alphabet)
            self.check_shifted(text, text[:m])
            self.check_shifted(text, text[7 : 7 + m - 1] + b"z")

    def test_recurring_and_single_pairs(self):
        # "ab" recurs (one pair sum added many times); "cd", "xy" and "\x00\xff"
        # occur once (their offsets are added on their own, with the
        # recurring pairs' bytes); the odd tail is a byte of a recurring pair.
        pattern = b"ab" * 150 + b"cd" + b"ab" * 3 + b"xy\x00\xff" + b"ba" * 2 + b"a"
        symbols = np.frombuffer(b"abcdxy\x00\xff", np.uint8)
        rng = np.random.default_rng(3)
        text = bytearray(symbols[rng.integers(0, 8, 5000)])
        for at in (0, 2000, len(text) - len(pattern)):
            text[at : at + len(pattern)] = pattern
        self.check_shifted(bytes(text), pattern)

    def test_extreme_bytes(self):
        rng = np.random.default_rng(5)
        symbols = np.frombuffer(b"\x00\xff", np.uint8)
        text = symbols[rng.integers(0, 2, 4000)].tobytes()
        for m in (1, 2, 255, 256, 511):
            self.check_shifted(text, text[100 : 100 + m])
            self.check_shifted(text, b"\xff\x00" * (m // 2) + b"\x00" * (m % 2))

    @given(
        st.sampled_from([1, 2, 4, 256]),
        st.integers(min_value=1, max_value=700),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_shifted_add_property(self, sigma, m, rows, seed):
        rng = np.random.default_rng(seed)
        symbols = rng.choice(256, sigma, replace=False).astype(np.uint8)
        text = symbols[rng.integers(0, sigma, m + rows - 1)].tobytes()
        unit = symbols[rng.integers(0, sigma, int(rng.integers(1, 9)))].tobytes()
        for pattern in (text[-m:], (unit * m)[:m]):  # an occurrence; few pairs
            expected = ref_distances(text, pattern)
            assert np.array_equal(self.shifted(text, pattern), expected)

    def test_working_memory_is_bounded(self):
        # Each byte of this m = 1024 pattern is in a recurring pair, so a
        # kernel that kept every comparison would hold 256 of them (about
        # 17 MiB over 2^16 rows). The kept ones are capped at
        # _COMPARISON_BYTES; the uint16-counter kernel this one replaced
        # peaked at about 500 KiB here.
        pattern = bytes(b for c in range(256) for b in (c, c ^ 0x55)) * 2
        rows = 1 << 16
        rng = np.random.default_rng(0)
        tv = rng.integers(0, 256, rows + len(pattern) - 1, dtype=np.uint8)
        out = np.empty(rows, counting_dtype(len(pattern)))
        tracemalloc.start()
        try:
            text_module._shifted_add(tv, np.frombuffer(pattern, np.uint8), out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024
        expected = ref_distances(tv[: 3000 + len(pattern) - 1].tobytes(), pattern)
        assert np.array_equal(out[:3000], expected)


class TestBytesLikeInputs:
    """A ``str`` or a wide buffer would compare item by item against bytes
    and give wrong distances, so it is refused on every path."""

    SMALL = (b"ababab", b"ba")
    LARGE = (tile(b"abcab", 3000), tile(b"abc", 40))

    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("which", ["text", "pattern"])
    def test_str_raises(self, size, which):
        text, pattern = self.SMALL if size == "small" else self.LARGE
        args = {"text": text, "pattern": pattern}
        args[which] = args[which].decode()
        for f in (sliding_distances, distance_array):
            with pytest.raises(TypeError, match=f"{which} must be bytes"):
                f(args["text"], args["pattern"])
        with pytest.raises(TypeError):
            exact_count(args["text"], args["pattern"], 0)

    @pytest.mark.parametrize("kind", ["str", "strided"])
    def test_pattern_preprocessing_refuses(self, kind):
        # A str pattern used to take the counting regime, and a str unit
        # tiled into a str.
        def bad(value: bytes):
            return value.decode() if kind == "str" else memoryview(value * 2)[::2]

        with pytest.raises(TypeError, match="pattern must be bytes"):
            dispatch(bad(b"abcd" * 20), 1, 1000, 1.0, 0.1)
        with pytest.raises(TypeError, match="pattern must be bytes"):
            shortest_close_period(bad(b"abab"), 0, 2)
        with pytest.raises(TypeError, match="seq must be bytes"):
            is_primitive(bad(b"ab"))
        with pytest.raises(TypeError, match="unit must be bytes"):
            tile(bad(b"ab"), 5)
        # A contiguous memoryview is read as bytes, a close period's search
        # included.
        assert tile(memoryview(b"ab"), 5) == b"ababa"
        assert is_primitive(memoryview(b"aba"))
        periodic = b"ab" * 128
        assert dispatch(memoryview(periodic), 1, 1000, 1.0, 0.1) == dispatch(
            periodic, 1, 1000, 1.0, 0.1
        )
        assert shortest_close_period(memoryview(periodic), 1, 2).root == b"ab"

    def test_hamming_distance_rejects_str(self):
        with pytest.raises(TypeError, match="a must be bytes"):
            hamming_distance("ab", b"ab")
        with pytest.raises(TypeError, match="b must be bytes"):
            hamming_distance(b"ab" * 5000, "ab" * 5000)

    def test_wide_buffer_raises(self):
        wide = memoryview(array.array("i", [97, 98, 97]))
        with pytest.raises(TypeError, match="text must be bytes"):
            sliding_distances(wide, b"ab")

    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("which", ["text", "pattern"])
    def test_strided_memoryview_raises(self, size, which):
        # One-dimensional unsigned bytes, but numpy cannot read a strided
        # buffer, so both paths refuse it alike.
        text, pattern = self.SMALL if size == "small" else self.LARGE
        args = {"text": text, "pattern": pattern}
        args[which] = memoryview(args[which] * 2)[::2]
        for f in (sliding_distances, distance_array):
            with pytest.raises(TypeError, match=f"{which} must be bytes"):
                f(args["text"], args["pattern"])

    @pytest.mark.parametrize("n", [4, 5000])
    def test_hamming_distance_rejects_strided_memoryview(self, n):
        strided = memoryview(b"ab" * n)[::2]
        with pytest.raises(TypeError, match="a must be bytes"):
            hamming_distance(strided, b"a" * n)
        with pytest.raises(TypeError, match="b must be bytes"):
            hamming_distance(b"a" * n, strided)

    @pytest.mark.parametrize("size", ["small", "large"])
    def test_bytes_like_accepted(self, size):
        text, pattern = self.SMALL if size == "small" else self.LARGE
        expected = brute_sliding(text, pattern)
        assert sliding_distances(bytearray(text), memoryview(pattern)) == expected
        assert sliding_distances(memoryview(text), bytearray(pattern)) == expected
        window = text[: len(pattern)]
        assert hamming_distance(bytearray(window), memoryview(pattern)) == expected[0]
        if size == "small":
            assert expected == [2, 0, 2, 0, 2]


class TestExactOracles:
    def test_count_exact_occurrences(self):
        assert exact_count(b"abracadabra", b"abra", 0) == 2

    def test_count_at_three(self):
        assert exact_count(b"abracadabra", b"abra", 3) == 6

    def test_count_at_m_is_all_windows(self):
        for text, pattern in [(b"abracadabra", b"abra"), (b"aaaa", b"ba")]:
            m = len(pattern)
            assert exact_count(text, pattern, m) == len(text) - m + 1

    def test_count_monotone_in_threshold(self):
        text, pattern = b"abracadabra", b"abra"
        counts = [exact_count(text, pattern, x) for x in range(len(pattern) + 1)]
        assert counts == sorted(counts)

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            exact_count(b"abc", b"ab", 3)


class TestReversal:
    @given(
        st.text(alphabet="abc", min_size=1, max_size=60).map(str.encode),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200)
    def test_reversed_distances(self, text, m):
        # The periodic reporter's backward scan reads a window's distances in
        # reverse; this identity makes that the same as scanning the reversed
        # window with the reversed pattern.
        pattern = tile(b"abca", min(m, len(text)))
        assert sliding_distances(text[::-1], pattern[::-1]) == sliding_distances(
            text, pattern
        )[::-1]


class TestTile:
    def test_exact_multiple(self):
        assert tile(b"ab", 6) == b"ababab"

    def test_clip(self):
        assert tile(b"abc", 7) == b"abcabca"

    def test_zero_length(self):
        assert tile(b"ab", 0) == b""


class TestPeriodicCover:
    """``window_cover`` at the reporter's stride ``m // 2``."""

    def test_spec_example(self):
        assert window_cover(10, 4, 2) == ((0, 4), (2, 6), (4, 8), (6, 9))

    def test_degenerate_single_window(self):
        assert window_cover(7, 7, 3) == ((0, 6),)

    def test_window_count_bound(self):
        # |family| <= 3n/m
        assert len(window_cover(10, 4, 2)) <= 3 * 10 / 4

    def test_rejects_m_one(self):
        with pytest.raises(ValueError, match="stride=0 outside"):
            window_cover(5, 1, 1 // 2)

    def test_rejects_m_greater_than_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            window_cover(3, 4, 2)


class TestCountingCover:
    """``window_cover`` at the counter's stride ``m``."""

    def test_spec_example(self):
        assert window_cover(10, 4, 4) == ((0, 6), (4, 9))

    def test_degenerate_single_window(self):
        assert window_cover(5, 5, 5) == ((0, 4),)

    def test_unit_pattern(self):
        check_cover(window_cover(4, 1, 1), 4, 1, COUNTING_MULTIPLICITY)

    def test_every_occurrence_in_exactly_one_window(self):
        windows = window_cover(10, 4, 4)
        for i in range(10 - 4 + 1):
            containing = [(a, b) for a, b in windows if a <= i and i + 3 <= b]
            assert len(containing) == 1

    def test_rejects_m_greater_than_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            window_cover(3, 4, 4)

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="m=0 outside"):
            window_cover(3, 0, 1)

    def test_no_window_without_a_start(self):
        # m >= 2 divides n + 1: the old counting formula ended in a tail
        # window (8, 8) that holds no start position.
        assert counting_cover(9, 2) == ((0, 2), (2, 4), (4, 6), (6, 8), (8, 8))
        assert window_cover(9, 2, 2) == ((0, 2), (2, 4), (4, 6), (6, 8))


class TestWindowFamilyInvariants:
    def test_exhaustive_sweep(self):
        # Full structural check at the reporter's, the counter's and the
        # unit stride over every (n, m) at desk scale.
        for n in range(1, 65):
            for m in range(1, n + 1):
                for stride, multiplicity in (
                    (m // 2, PERIODIC_MULTIPLICITY),
                    (m, COUNTING_MULTIPLICITY),
                    (1, m),
                ):
                    if stride >= 1:
                        windows = window_cover(n, m, stride)
                        check_cover(windows, n, m, multiplicity)
                        assert all(a <= n - m for a, _ in windows)  # a start each

    def test_equals_reference_covers(self):
        # The one rule gives the two old formulas, less only the old
        # counting tail that held no start position (a > n - m).
        for n in range(1, 65):
            for m in range(1, n + 1):
                if m >= 2:
                    assert window_cover(n, m, m // 2) == periodic_cover(n, m)
                starts = tuple(w for w in counting_cover(n, m) if w[0] <= n - m)
                assert window_cover(n, m, m) == starts

    def test_multiplicity_formula(self):
        # At every stride a position lies in at most ceil((m-1)/stride) + 1
        # windows.
        for n in range(1, 41):
            for m in range(1, n + 1):
                for stride in range(1, m + 1):
                    covered = [0] * n
                    for a, b in window_cover(n, m, stride):
                        for p in range(a, b + 1):
                            covered[p] += 1
                    assert max(covered) <= -(-(m - 1) // stride) + 1

    def test_validate_rejects_gap(self):
        with pytest.raises(ValueError, match="cover"):
            check_cover(((0, 3), (6, 9)), 10, 4, COUNTING_MULTIPLICITY)
