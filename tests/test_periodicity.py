"""Tests for close-period detection and the regime dispatcher."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppm.periodicity import (
    Regime,
    dispatch,
    is_primitive,
    periodic_scale,
    shortest_close_period,
    small_k_cutoff,
)
from dppm.text import hamming_distance, tile

from conftest import binary_strings, min_period_distance


class TestMinPeriodDistance:
    def test_exact_period(self):
        assert min_period_distance(b"abababab", 2) == 0

    def test_one_minority_cell(self):
        assert min_period_distance(b"abababac", 2) == 1

    def test_single_symbol_period(self):
        assert min_period_distance(b"abcd", 1) == 3

    def test_full_length_period_is_free(self):
        assert min_period_distance(b"abcd", 4) == 0

    def test_period_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            min_period_distance(b"abcd", 5)
        with pytest.raises(ValueError, match="outside"):
            min_period_distance(b"abcd", 0)

    def test_matches_exhaustive_minimum(self):
        # Columnwise majority equals the true minimum over all roots.
        from itertools import product

        pattern = b"abbaabab"
        for q in range(1, 5):
            best = min(
                hamming_distance(pattern, tile(bytes(root), len(pattern)))
                for root in product(b"ab", repeat=q)
            )
            assert min_period_distance(pattern, q) == best

    def test_true_period_gives_zero_distance(self):
        # Any length that is a genuine period and divides the pattern evenly
        # admits a perfect tiling.
        for m in range(1, 9):
            for pattern in binary_strings(m):
                for q in range(1, m + 1):
                    if m % q:
                        continue
                    if all(pattern[i] == pattern[i + q] for i in range(m - q)):
                        assert min_period_distance(pattern, q) == 0


class TestIsPrimitive:
    def test_two_distinct_symbols(self):
        assert is_primitive(b"ab")

    def test_square_is_not_primitive(self):
        assert not is_primitive(b"abab")

    def test_aab(self):
        assert is_primitive(b"aab")

    def test_single_symbol(self):
        assert is_primitive(b"a")
        assert not is_primitive(b"aa")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_primitive(b"")


class TestShortestClosePeriod:
    def test_exact_period(self):
        cand = shortest_close_period(b"abababab", 0, 4)
        assert (cand.length, cand.root, cand.dist) == (2, b"ab", 0)

    def test_one_mismatch(self):
        cand = shortest_close_period(b"abababac", 1, 2)
        assert (cand.length, cand.root, cand.dist) == (2, b"ab", 1)

    def test_no_close_period(self):
        assert shortest_close_period(b"abcdefgh", 0, 2) is None

    def test_zero_max_period(self):
        assert shortest_close_period(b"abcd", 1, 0) is None

    def test_small_block_count_still_verified(self):
        # m / max_period < 4k + 1: several roots can survive the vote; the
        # returned one must still verify against the distance bound.
        cand = shortest_close_period(b"abababab", 2, 4)
        assert cand.length == 1 and cand.dist <= 4

    def test_max_period_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            shortest_close_period(b"abcd", 1, 5)

    def test_exhaustive_oracle_equivalence(self):
        # Over all binary patterns of length <= 10 and k <= 2: existence and
        # distance agree with the columnwise oracle, and roots are primitive.
        for m in range(1, 11):
            for pattern in binary_strings(m):
                for k in (0, 1, 2):
                    max_period = m // (4 * k + 1)
                    cand = shortest_close_period(pattern, k, max_period)
                    oracle = {
                        q: min_period_distance(pattern, q)
                        for q in range(1, max_period + 1)
                    }
                    close = {q for q, d in oracle.items() if d <= 2 * k}
                    if cand is None:
                        assert not close
                    else:
                        assert cand.length == min(close)
                        assert cand.dist == oracle[cand.length]
                        assert is_primitive(cand.root)


class TestDispatchScales:
    def test_periodic_scale_at_least_k(self):
        assert periodic_scale(50, 100, 1e9, 0.5) == 50

    def test_small_k_cutoff_positive(self):
        assert small_k_cutoff(100, 1000.0, 0.1) >= 1


class TestDispatch:
    def test_all_distinct_pattern_is_non_periodic(self):
        decision = dispatch(b"abcdefgh", 1, 10**4, 1.0, 0.1)
        assert decision.regime is Regime.NON_PERIODIC_COUNTING
        assert decision.candidate is None
        assert decision.effective_k == 1

    def test_periodic_regime_at_large_epsilon(self):
        # period_scale = max(1, ceil(96 (ln 100 + ln 60)/1000)) = 1, so roots
        # of length <= m/32 = 2 qualify.
        pattern = tile(b"ab", 64)
        decision = dispatch(pattern, 1, 100, 1000.0, 0.1)
        assert decision.regime is Regime.PERIODIC_REPORTING
        assert decision.candidate.root == b"ab"
        assert decision.candidate.length <= 64 // (32 * decision.period_scale)
        assert decision.candidate.dist <= 2

    def test_periodic_pattern_at_unit_epsilon_falls_to_small_k(self):
        # At epsilon = 1 the period-length bound m/(32*scale) collapses to
        # zero, while the cutoff-scale certificate still holds vacuously.
        pattern = tile(b"ab", 4096)
        decision = dispatch(pattern, 1, 10**5, 1.0, 0.1)
        assert decision.regime is Regime.SMALL_K_COUNTING
        assert decision.effective_k == decision.small_k_cutoff
        assert decision.effective_k > 1

    def test_unit_length_pattern_is_trivial(self):
        decision = dispatch(b"a", 1, 10, 1.0, 0.1)
        assert decision.regime is Regime.TRIVIAL_FALLBACK

    def test_zero_k_is_trivial(self):
        decision = dispatch(b"abab", 0, 10, 1.0, 0.1)
        assert decision.regime is Regime.TRIVIAL_FALLBACK

    def test_deterministic(self):
        args = (b"abcabcabc", 1, 500, 2.0, 0.2)
        assert dispatch(*args) == dispatch(*args)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            dispatch(b"", 0, 10, 1.0, 0.1)
        with pytest.raises(ValueError):
            dispatch(b"abc", 4, 10, 1.0, 0.1)
        with pytest.raises(ValueError):
            dispatch(b"abc", 1, 2, 1.0, 0.1)
        with pytest.raises(ValueError):
            dispatch(b"abc", 1, 10, 0.0, 0.1)
        with pytest.raises(ValueError):
            dispatch(b"abc", 1, 10, 1.0, 1.5)

    @given(st.binary(min_size=2, max_size=32), st.integers(1, 3))
    @settings(max_examples=100)
    def test_small_k_certificate(self, pattern, k):
        # Whenever the dispatcher picks the small-k regime, the certificate it
        # claims must hold: k below the cutoff and no close period at the
        # cutoff's scale.
        if k > len(pattern):
            k = len(pattern)
        decision = dispatch(pattern, k, 10**4, 1.0, 0.1)
        if decision.regime is Regime.SMALL_K_COUNTING:
            cutoff = decision.small_k_cutoff
            assert k < cutoff
            assert (
                shortest_close_period(pattern, cutoff, len(pattern) // (128 * cutoff))
                is None
            )
