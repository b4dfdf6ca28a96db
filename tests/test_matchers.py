"""Tests for the private matchers and the budget ledger."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppm.matchers as matchers
from dppm.matchers import (
    BudgetLedger,
    CountOutcome,
    ExistenceOutcome,
    MatchQuery,
    ReportOutcome,
    VARIANTS,
    below_thresh,
    count_nonperiodic,
    error_contract,
    existence,
    match_auto,
    plan,
    report_periodic,
    trivial_all,
)
from dppm.noise import NoiseSource
from dppm.periodicity import PeriodicCandidate, Regime
from dppm.text import (
    distance_array,
    distance_chunks,
    exact_count,
    sliding_distances,
    tile,
)

from conftest import (
    RefLedger,
    binary_strings,
    brute_first_at_most,
    periodic_cover,
    ref_count_nonperiodic,
    ref_match,
    spent_by_position,
)


def zero_src() -> NoiseSource:
    return NoiseSource(0, mode="zero")


def ledger_for(epsilon: float) -> BudgetLedger:
    return BudgetLedger(epsilon)


# At this epsilon every contract threshold is k plus less than 1e-6, so a
# zero-noise scan hits exactly the windows within distance k.
SHARP_EPSILON = 1e12


class TestOutcomeTypes:
    def test_existence_witness_consistency(self):
        with pytest.raises(ValueError):
            ExistenceOutcome(found=True, witness=None)
        with pytest.raises(ValueError):
            ExistenceOutcome(found=False, witness=3)

    def test_count_witness_consistency(self):
        with pytest.raises(ValueError):
            CountOutcome(count=2, witness=None, raw_count=2)

    def test_report_positions_sorted_unique(self):
        with pytest.raises(ValueError):
            ReportOutcome((3, 1))
        with pytest.raises(ValueError):
            ReportOutcome((1, 1))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            MatchQuery(b"", 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            MatchQuery(b"abc", 4, 1.0, 0.1)
        with pytest.raises(ValueError):
            MatchQuery(b"abc", 1, -1.0, 0.1)
        with pytest.raises(ValueError):
            MatchQuery(b"abc", 1, 1.0, 0.0)

    def test_query_rejects_str_pattern(self):
        with pytest.raises(TypeError, match="pattern must be bytes"):
            MatchQuery("ba", 0, 1.0, 0.1)
        MatchQuery(bytearray(b"ba"), 0, 1.0, 0.1)
        MatchQuery(memoryview(b"ba"), 0, 1.0, 0.1)

    def test_query_rejects_fractional_k(self):
        for k in (1.5, 1.0, "1"):
            with pytest.raises(TypeError, match="k must be an integer"):
                MatchQuery(b"abcdefgh", k, 1.0, 0.1)
        assert MatchQuery(b"abcdefgh", np.int64(1), 1.0, 0.1).k == 1

    @pytest.mark.parametrize("variant", ["auto", "existence", "count", "report"])
    def test_match_rejects_str_text(self, variant):
        with pytest.raises(TypeError, match="text must be bytes"):
            match_auto("ababab", MatchQuery(b"ba", 1, 1.0, 0.1), zero_src(), variant)


class TestBudgetLedger:
    def test_exact_accumulation(self):
        ledger = BudgetLedger(1.0)
        ledger.charge_span(0, 10, 3)
        ledger.charge_span(5, 15, 3)
        ledger.charge_span(5, 10, 3)
        assert ledger.max_spent == Fraction(1)
        spent = spent_by_position(ledger)
        assert spent[0] == Fraction(1, 3)
        assert spent[7] == Fraction(1)
        assert spent[12] == Fraction(1, 3)
        ledger.assert_within_cap()

    def test_cap_violation_detected(self):
        ledger = BudgetLedger(1.0)
        ledger.charge_span(0, 4, 1)
        ledger.charge_span(2, 6, 2)
        with pytest.raises(RuntimeError, match="budget"):
            ledger.assert_within_cap()

    def test_per_position_matches_spans(self):
        ledger = BudgetLedger(1.0)
        ledger.charge_span(1, 3, 2)
        assert spent_by_position(ledger) == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger(1.0).charge_span(3, 3, 1)

    @pytest.mark.parametrize("share", [0, -1, 1.5, Fraction(1, 2)])
    def test_share_must_be_positive_int(self, share):
        with pytest.raises(ValueError, match="share"):
            BudgetLedger(1.0).charge_span(0, 1, share)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
    def test_epsilon_must_be_positive_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            BudgetLedger(epsilon)

    def test_shares_summing_to_epsilon_pass_exactly(self):
        # 1/2 + 1/3 + 1/6 of a non-dyadic epsilon is exactly epsilon; one
        # more counting-sized slice on the same position is over the cap.
        ledger = BudgetLedger(0.7)
        for share in (2, 3, 6):
            ledger.charge_span(4, 9, share)
        assert ledger.max_spent == Fraction(0.7)
        ledger.assert_within_cap()
        ledger.charge_span(8, 9, 6912)
        assert ledger.max_spent == Fraction(0.7) * 6913 / 6912
        with pytest.raises(RuntimeError, match="budget"):
            ledger.assert_within_cap()

    @given(
        epsilon=st.floats(min_value=1e-3, max_value=1e6),
        charges=st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(1, 12),
                st.sampled_from([1, 2, 3, 6, 2304, 6912]),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=200)
    def test_integer_sweep_matches_fraction_reference(self, epsilon, charges):
        ledger = BudgetLedger(epsilon)
        for start, length, share in charges:
            ledger.charge_span(start, start + length, share)
        peak = max(spent_by_position(ledger).values(), default=Fraction(0))
        assert ledger.max_spent == peak
        if peak > Fraction(epsilon):
            with pytest.raises(RuntimeError, match="budget"):
                ledger.assert_within_cap()
        else:
            ledger.assert_within_cap()


    @pytest.mark.parametrize(
        "start, stop, share, runs",
        [(0, 5, 1, 0), (0, 5, 1, -2), (0, 5, 1, 1.0), (2, 5, 1, 4), (0, 5, 1.5, 3)],
        ids=["zero-runs", "negative-runs", "float-runs", "stop-before-last-start",
             "float-share"],
    )
    def test_run_record_validated(self, start, stop, share, runs):
        with pytest.raises(ValueError):
            BudgetLedger(1.0).charge_span(start, stop, share, runs)

    def test_run_record_is_its_charges(self):
        # A run of 3 from 2 to 6 is the charges [2, 6), [3, 6) and [4, 6).
        run, spans = BudgetLedger(1.0), BudgetLedger(1.0)
        run.charge_span(2, 6, 4, runs=3)
        for start in (2, 3, 4):
            spans.charge_span(start, 6, 4)
        assert spent_by_position(run) == spent_by_position(spans)
        assert run.max_spent == spans.max_spent == Fraction(3, 4)

    @given(
        epsilon=st.floats(min_value=1e-3, max_value=1e6),
        records=st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(1, 6),
                st.integers(0, 8),
                st.sampled_from([1, 2, 3, 6, 2304, 6912]),
            ),
            max_size=10,
        ),
    )
    @settings(max_examples=300)
    def test_run_sweep_matches_fraction_fold(self, epsilon, records):
        # Mixed run records and single charges: the slope sweep's peak is the
        # per-position maximum of the brute-force Fraction fold, and the cap
        # check fails exactly when some position pays more than epsilon.
        ledger = BudgetLedger(epsilon)
        for start, runs, tail, share in records:
            ledger.charge_span(start, start + runs + tail, share, runs)
        peak = max(spent_by_position(ledger).values(), default=Fraction(0))
        assert ledger.max_spent == peak
        if peak > Fraction(epsilon):
            with pytest.raises(RuntimeError, match="budget"):
                ledger.assert_within_cap()
        else:
            ledger.assert_within_cap()


def scan(text, pattern, thresh, share, src, ledger, base=0):
    """One scan of ``text`` as if it started at position ``base`` of a longer
    text: the index of its hit, or None."""
    hits = below_thresh(
        distance_array(text, pattern), thresh, share, src, ledger,
        (base, base + len(text)),
    )
    return hits[0] if hits else None


class FixedUnits(NoiseSource):
    """A source whose every unit draw is 1.0, through ``laplace`` and through
    the cursor alike; it counts the peeks so a test can tell the batched
    path ran."""

    def __init__(self):
        super().__init__(0)
        self.peeks = 0

    def laplace(self, b):
        return b * 1.0

    def units(self, count):
        self.peeks += 1
        return np.ones(count)

    def skip(self, count):
        pass


class TestBelowThresh:
    def test_zero_noise_first_hit(self):
        hit = scan(b"abracadabra", b"abra", 1.0, 1, zero_src(), ledger_for(1.0))
        assert hit == 0

    def test_zero_noise_suffix(self):
        # d-sequence of the suffix is (4, 3, 3, 3, 3, 4, 0).
        hit = scan(b"bracadabra", b"abra", 2.5, 1, zero_src(), ledger_for(1.0))
        assert hit == 6

    def test_zero_noise_no_hit(self):
        hit = scan(b"aaaa", b"bb", 1.0, 1, zero_src(), ledger_for(1.0))
        assert hit is None

    def test_charges_whole_text(self):
        ledger = ledger_for(1.0)
        scan(b"aaaa", b"bb", 1.0, 1, zero_src(), ledger, base=10)
        assert spent_by_position(ledger) == {p: Fraction(1) for p in range(10, 14)}

    def test_validation(self):
        with pytest.raises(ValueError):
            below_thresh(np.array([0]), 1.0, 0, zero_src(), ledger_for(1.0), (0, 1))
        with pytest.raises(ValueError):
            below_thresh(np.array([0]), 1.0, 1, zero_src(), ledger_for(1.0), (1, 1))

    def test_noise_scale_is_the_paid_slice(self):
        # The slice charged and the scale drawn at come from one share, on
        # the one-at-a-time path and on the batched path alike. With every
        # unit at 1.0 a comparison is d + 4/eps <= 20 + 2/eps, i.e.
        # d <= 20 - 2/eps: at the paid slice (eps = 0.9/6, 2/eps = 13.3)
        # distance 0 hits and 10 misses; at the query's 0.9 both would hit.
        src = FixedUnits()
        ledger = ledger_for(0.9)
        distances = np.array([0] * 12 + [10] * 20)
        hits = below_thresh(distances, 20.0, 6, src, ledger, (0, 32), 100)
        assert hits == list(range(12))
        assert src.peeks > 0  # the first-distance batch ran
        slice_ = Fraction(0.9) / 6
        assert spent_by_position(ledger) == {
            p: slice_ * min(p + 1, 13) for p in range(32)
        }

    def test_resumes_one_past_the_hit(self):
        # The counter's restarts: a scan that hits at index i is followed by
        # one that starts at i + 1 and is charged from there. After the hit
        # at the last index no distance remains, so no further scan starts.
        distances = distance_array(b"abracadabra", b"abra")  # 0,4,3,3,3,3,4,0
        ledger = ledger_for(1.0)
        hits = below_thresh(distances, 0.0, 2, zero_src(), ledger, (0, 11), 5)
        assert hits == [0, 7]
        assert spent_by_position(ledger) == {
            p: Fraction(1, 2) * min(p + 1, 2) for p in range(11)
        }
        # A zero-noise counter window with a cap of one hit stops there.
        assert below_thresh(distances, 0.0, 2, zero_src(), ledger, (0, 11)) == [0]

    def test_no_scan_on_empty_distances(self):
        src, ledger = NoiseSource(0), ledger_for(1.0)
        assert below_thresh(np.array([], np.int64), 1.0, 1, src, ledger, (0, 1)) == []
        assert ledger._runs == []
        assert src.laplace(1.0) == NoiseSource(0).laplace(1.0)  # nothing drawn

    @pytest.mark.parametrize("mode, thresh", [("zero", 0.5), ("standard", 3.0)])
    def test_lazy_sequence_scans_as_the_array(self, mode, thresh):
        # m = 256 cuts distance_chunks after rows 256, 768 and 1792. A run of
        # 257 a's puts distance 0 just before and just after each cut, and the
        # distances fall away from 256 around it, so counting scans hit and
        # restart on both sides of every cut, and long scans cross the cuts
        # in numpy blocks.
        text = bytearray(b"b" * 4000)
        for cut in (256, 768, 1792):
            text[cut - 1 : cut + 256] = b"a" * 257
        text, pattern = bytes(text), b"a" * 256
        full = distance_array(text, pattern)
        bounds = np.cumsum([len(c) for c in distance_chunks(text, pattern)])
        assert bounds.tolist() == [256, 768, 1792, len(full)]

        def run(dist, seed, max_hits):
            src, ledger = NoiseSource(seed, mode), ledger_for(2.0)
            hits = below_thresh(dist, thresh, 1, src, ledger, (0, 4000), max_hits)
            return hits, ledger._runs, src.laplace(1.0)

        # One _Lazy across runs that read further each time, filling it chunk
        # by chunk, until a run reads to the end.
        lazy, filled = matchers._Lazy(text, pattern), []
        for seed, max_hits in enumerate([1, 2, 3, 4, 5, 6, 40, 40]):
            got = run(lazy.sequence, seed, max_hits)
            assert got == run(full, seed, max_hits), seed
            filled.append(lazy._filled)
        if mode == "zero":
            assert got[0] == [255, 256, 767, 768, 1791, 1792]
        assert len(set(filled)) >= 3 and filled[-1] == len(full)
        assert lazy.sequence is not lazy and np.array_equal(lazy.sequence, full)

    def test_head_is_listed_once(self):
        # Only a scan's head is listed, never a block or the whole sequence,
        # and scans that restart in the head's first half reuse its list.
        lengths = []

        class Listing(np.ndarray):
            def tolist(self):
                lengths.append(self.size)
                return super().tolist()

        rng = random.Random(4)
        text = bytes(rng.choice(b"acgt") for _ in range(30000))
        dist = distance_array(text, text[:256]).view(Listing)
        hits = below_thresh(dist, -100.0, 1, NoiseSource(1), ledger_for(2.0), (0, 30000))
        assert hits == [] and lengths and max(lengths) <= matchers._HEAD
        assert sum(lengths) < 2 * matchers._HEAD  # the head and the tail
        lengths.clear()
        zeros = np.zeros(64, np.int64).view(Listing)
        hits = below_thresh(zeros, 0.5, 2, zero_src(), ledger_for(1.0), (0, 127), 64)
        assert hits == list(range(64))
        assert lengths == [matchers._HEAD]

    def test_exhaustive_zero_noise_oracle(self):
        # Small version of the acceptance sweep: binary texts up to length 7.
        for n in range(1, 8):
            for text in binary_strings(n):
                for m in range(1, min(3, n) + 1):
                    for pattern in binary_strings(m):
                        for thresh in range(m + 1):
                            got = scan(
                                text,
                                pattern,
                                float(thresh),
                                1,
                                zero_src(),
                                ledger_for(1.0),
                            )
                            assert got == brute_first_at_most(text, pattern, thresh)

    def test_noisy_run_is_seed_deterministic(self):
        args = (b"abracadabra", b"abra", 2.0, 1)
        one = scan(*args, NoiseSource(5), ledger_for(1.0))
        two = scan(*args, NoiseSource(5), ledger_for(1.0))
        assert one == two


class TestExistence:
    def test_exact_occurrence_found(self):
        query = MatchQuery(b"abra", 0, 1.0, 0.1)
        outcome = existence(b"abracadabra", query, zero_src())
        assert outcome.found and outcome.witness == 0
        assert outcome.answer == "YES"

    def test_small_n_forces_yes(self):
        # Threshold ~ 60.6 exceeds m = 4, so every window qualifies even
        # over a disjoint alphabet.
        n, m = 100, 4
        thresh = error_contract("existence", n, m, 0, 1.0, 0.1).threshold
        assert thresh >= m
        query = MatchQuery(b"bbbb", 0, 1.0, 0.1)
        outcome = existence(b"a" * n, query, zero_src())
        assert outcome.found

    def test_large_text_disjoint_alphabet_says_no(self):
        n, m = 10**4, 300
        thresh = error_contract("existence", n, m, 0, 1.0, 0.1).threshold
        assert thresh < m
        query = MatchQuery(b"b" * m, 0, 1.0, 0.1)
        outcome = existence(b"a" * n, query, zero_src())
        assert not outcome.found and outcome.witness is None

    def test_budget_charged_exactly_epsilon(self):
        ledger = ledger_for(0.7)
        query = MatchQuery(b"ab", 1, 0.7, 0.1)
        existence(b"abab", query, NoiseSource(3), ledger)
        assert set(spent_by_position(ledger).values()) == {Fraction(0.7)}
        assert ledger.max_spent == Fraction(0.7)

    @pytest.mark.parametrize("epsilon, beta", [(1e-310, 0.1), (1.0, 1e-320)])
    def test_overflowing_threshold_rejected(self, epsilon, beta):
        # An infinite threshold would meet infinite noise (inf - inf = nan)
        # and answer NO despite the exact match.
        query = MatchQuery(b"ab", 0, epsilon, beta)
        for seed in range(4):
            with pytest.raises(ValueError, match="not finite"):
                existence(b"abab", query, NoiseSource(seed))


class TestReportPeriodic:
    def test_zero_noise_reports_exact_occurrences(self):
        text = tile(b"ab", 40)
        pattern = tile(b"ab", 8)
        query = MatchQuery(pattern, 0, 1.0, 0.1)
        candidate = PeriodicCandidate(2, b"ab", 0)
        outcome = report_periodic(text, query, candidate, zero_src())
        assert outcome.positions == tuple(range(0, 33, 2))
        assert set(outcome.positions) == {
            i for i, d in enumerate(sliding_distances(text, pattern)) if d <= 0
        }

    def test_window_without_hit_contributes_nothing(self):
        # Threshold k + tiny and a pattern absent everywhere: empty report.
        text = b"a" * 24
        pattern = b"bb" * 4
        query = MatchQuery(pattern, 0, SHARP_EPSILON, 0.1)
        candidate = PeriodicCandidate(2, b"bb", 0)
        outcome = report_periodic(text, query, candidate, zero_src())
        assert outcome.positions == ()

    def test_candidate_distance_validated(self):
        query = MatchQuery(tile(b"ab", 8), 0, 1.0, 0.1)
        bad = PeriodicCandidate(2, b"ab", 3)
        with pytest.raises(ValueError, match="candidate distance"):
            report_periodic(tile(b"ab", 16), query, bad, zero_src())

    def test_requires_m_at_least_two(self):
        query = MatchQuery(b"a", 0, 1.0, 0.1)
        with pytest.raises(ValueError, match="m >= 2"):
            report_periodic(b"aaaa", query, PeriodicCandidate(1, b"a", 0), zero_src())

    def test_budget_within_cap(self):
        text = tile(b"ab", 101)
        pattern = tile(b"ab", 8)
        query = MatchQuery(pattern, 1, 0.9, 0.1)
        ledger = ledger_for(0.9)
        report_periodic(text, query, PeriodicCandidate(2, b"ab", 0), NoiseSource(1), ledger)
        # Interior positions sit in 3 windows at 2 scans of epsilon/6 each,
        # so the exact rational maximum is the full query budget.
        assert ledger.max_spent == Fraction(0.9)

    def test_charges_every_window_position_twice(self):
        text = tile(b"ab", 101)
        query = MatchQuery(tile(b"ab", 8), 1, 0.9, 0.1)
        ledger = ledger_for(0.9)
        candidate = PeriodicCandidate(2, b"ab", 0)
        report_periodic(text, query, candidate, NoiseSource(1), ledger)
        expected: dict[int, Fraction] = {}
        for a, b in periodic_cover(len(text), query.m):
            for p in range(a, b + 1):
                expected[p] = expected.get(p, Fraction(0)) + 2 * Fraction(0.9) / 6
        assert spent_by_position(ledger) == expected


class TestCountNonPeriodic:
    def test_zero_noise_counts_exact(self):
        query = MatchQuery(b"abra", 1, SHARP_EPSILON, 0.1)
        outcome = count_nonperiodic(b"abracadabra", query, zero_src())
        assert outcome.count == 2
        assert outcome.witness in (0, 7)

    def test_zero_noise_disjoint_alphabet(self):
        query = MatchQuery(b"bbbb", 1, SHARP_EPSILON, 0.1)
        outcome = count_nonperiodic(b"a" * 40, query, zero_src())
        assert outcome.count == 0
        assert outcome.witness is None
        assert outcome.raw_count == 0

    def test_window_cap_reached(self):
        # A single window with more qualifying starts than the cap: the
        # window must contribute exactly 1152 * k.
        m = 1200
        text = b"a" * (2 * m - 1)
        query = MatchQuery(b"a" * m, 1, SHARP_EPSILON, 0.1)
        outcome = count_nonperiodic(text, query, zero_src())
        assert outcome.count == 1152

    def test_rejects_k_zero(self):
        query = MatchQuery(b"abra", 0, 1.0, 0.1)
        with pytest.raises(ValueError, match="k >= 1"):
            count_nonperiodic(b"abracadabra", query, zero_src())

    def test_count_clamped_to_window_count(self):
        # Real thresholds at tiny n are astronomically permissive, so every
        # start in every window hits; the clamp keeps the public contract.
        text = tile(b"ab", 64)
        query = MatchQuery(b"ab", 1, 1.0, 0.1)
        outcome = count_nonperiodic(text, query, NoiseSource(4))
        assert 0 <= outcome.count <= len(text) - 2 + 1
        assert outcome.raw_count >= outcome.count

    def test_budget_within_cap(self):
        query = MatchQuery(b"ab", 2, 1.3, 0.1)
        ledger = ledger_for(1.3)
        count_nonperiodic(tile(b"ab", 50), query, NoiseSource(9), ledger)
        assert ledger.max_spent <= Fraction(1.3)


class TestCountSmallK:
    def test_zero_noise_cutoff_bounds(self):
        text = tile(b"ab", 40) + b"cc" + tile(b"ab", 18)
        pattern = tile(b"ab", 6)
        query = MatchQuery(pattern, 1, SHARP_EPSILON, 0.1)
        cutoff = 3
        outcome = count_nonperiodic(text, query, zero_src(), effective_k=cutoff)
        assert outcome.count >= exact_count(text, pattern, query.k)
        assert outcome.count <= exact_count(text, pattern, min(cutoff, len(pattern)))


class TestDistancesOncePerQuery:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(text, pattern):
            calls.append((text, pattern))
            return distance_array(text, pattern)

        monkeypatch.setattr(matchers, "distance_array", counting)
        return calls

    def test_report_periodic(self, calls):
        text, pattern = tile(b"ab", 101), tile(b"ab", 8)
        query = MatchQuery(pattern, 1, 0.9, 0.1)
        report_periodic(text, query, PeriodicCandidate(2, b"ab", 0), NoiseSource(1))
        assert calls == [(text, pattern)]

    def test_count_nonperiodic(self, calls):
        text = tile(b"ab", 50)
        count_nonperiodic(text, MatchQuery(b"ab", 2, 1.3, 0.1), NoiseSource(9))
        assert calls == [(text, b"ab")]


class TestQueryLedger:
    """A passed ledger sets every scan's noise scale, so it must hold the
    query's epsilon."""

    QUERY = MatchQuery(tile(b"ab", 4), 1, 0.9, 0.1)
    RUNS = {
        "existence": lambda q, led: existence(tile(b"ab", 20), q, zero_src(), led),
        "report_periodic": lambda q, led: report_periodic(
            tile(b"ab", 20), q, PeriodicCandidate(2, b"ab", 0), zero_src(), led
        ),
        "count_nonperiodic": lambda q, led: count_nonperiodic(
            tile(b"ab", 20), q, zero_src(), led
        ),
    }

    @pytest.mark.parametrize("matcher", sorted(RUNS))
    def test_mismatched_epsilon_rejected(self, matcher):
        ledger = BudgetLedger(2 * self.QUERY.epsilon)
        with pytest.raises(ValueError, match="ledger epsilon"):
            self.RUNS[matcher](self.QUERY, ledger)
        assert ledger.max_spent == 0


class TestOneCapCheckPerQuery:
    @pytest.fixture
    def checked(self, monkeypatch):
        checked = []
        check = BudgetLedger.assert_within_cap

        def counting(ledger):
            checked.append(ledger)
            check(ledger)

        monkeypatch.setattr(BudgetLedger, "assert_within_cap", counting)
        return checked

    @pytest.mark.parametrize(
        "text, query, variant",
        [
            (b"abracadabra", MatchQuery(b"abra", 0, 1.0, 0.1), "existence"),
            (tile(b"ab", 100), MatchQuery(tile(b"ab", 64), 1, 1000.0, 0.1), "auto"),
            (b"a" * 200, MatchQuery(b"abcdefgh", 1, 1.0, 0.1), "count"),
        ],
        ids=["existence", "report_periodic", "count_nonperiodic"],
    )
    def test_scanning_matcher_checks_once(self, checked, text, query, variant):
        result = match_auto(text, query, NoiseSource(2), variant=variant)
        assert checked == [result.ledger]

    def test_trivial_path_checks_nothing(self, checked):
        query = MatchQuery(b"a", 1, 1.0, 0.1)
        result = match_auto(b"abcdefghij", query, NoiseSource(2))
        assert result.regime is Regime.TRIVIAL_FALLBACK
        assert checked == []


class TestTrivialAll:
    def test_all_positions(self):
        query = MatchQuery(b"abcd", 1, 1.0, 0.1)
        assert trivial_all(b"0123456789", query).positions == tuple(range(7))

    def test_single_position(self):
        query = MatchQuery(b"abcd", 1, 1.0, 0.1)
        assert trivial_all(b"wxyz", query).positions == (0,)


class TestMatchAuto:
    def test_periodic_regime_returns_report(self):
        text = tile(b"ab", 100)
        query = MatchQuery(tile(b"ab", 64), 1, 1000.0, 0.1)
        result = match_auto(text, query, NoiseSource(2))
        assert result.regime is Regime.PERIODIC_REPORTING
        assert isinstance(result.outcome, ReportOutcome)
        result.ledger.assert_within_cap()

    def test_trivial_fallback_costs_nothing(self):
        query = MatchQuery(b"a", 1, 1.0, 0.1)
        result = match_auto(b"abcdefghij", query, NoiseSource(2))
        assert result.regime is Regime.TRIVIAL_FALLBACK
        assert result.outcome.positions == tuple(range(10))
        assert result.ledger.max_spent == 0

    def test_non_periodic_regime_returns_count(self):
        query = MatchQuery(b"abcdefgh", 1, 1.0, 0.1)
        result = match_auto(b"a" * 5000, query, NoiseSource(2))
        assert result.regime is Regime.NON_PERIODIC_COUNTING
        assert isinstance(result.outcome, CountOutcome)

    def test_existence_variant(self):
        query = MatchQuery(b"abra", 0, 1.0, 0.1)
        result = match_auto(b"abracadabra", query, zero_src(), variant="existence")
        assert isinstance(result.outcome, ExistenceOutcome)
        assert result.outcome.found

    def test_count_variant_on_trivial_regime(self):
        query = MatchQuery(b"a", 1, 1.0, 0.1)
        result = match_auto(b"abcdef", query, NoiseSource(0), variant="count")
        assert isinstance(result.outcome, CountOutcome)
        assert result.outcome.count == 6

    def test_report_variant_on_counting_regime_falls_back(self):
        query = MatchQuery(b"abcdefgh", 1, 1.0, 0.1)
        result = match_auto(b"a" * 200, query, NoiseSource(1), variant="report")
        assert result.regime is Regime.TRIVIAL_FALLBACK
        assert isinstance(result.outcome, ReportOutcome)
        assert result.ledger.max_spent == 0

    def test_deterministic_for_fixed_seed(self):
        query = MatchQuery(b"abcabc", 2, 1.0, 0.1)
        text = tile(b"abcx", 200)
        one = match_auto(text, query, NoiseSource(42))
        two = match_auto(text, query, NoiseSource(42))
        assert one.outcome == two.outcome and one.regime == two.regime

    def test_record_field_set(self):
        query = MatchQuery(b"abra", 0, 1.0, 0.1)
        result = match_auto(b"abracadabra", query, zero_src(), variant="existence")
        record = result.to_record(query, seed=7)
        assert set(record) == {
            "regime",
            "answer",
            "witness",
            "epsilon",
            "beta",
            "k",
            "seed",
            "budget_max",
        }
        assert record["seed"] == 7
        assert record["budget_max"] <= query.epsilon

    def test_contract_of_the_matcher_that_ran(self):
        n, eps, beta = 400, 50.0, 0.1
        text = tile(b"ab", n)
        query = MatchQuery(tile(b"ab", 256), 1, eps, beta)
        counted = match_auto(text, query, NoiseSource(1), variant="count")
        assert counted.regime is Regime.SMALL_K_COUNTING
        cutoff = counted.decision.effective_k
        assert counted.contract == error_contract(
            "count_nonperiodic", n, 256, cutoff, eps, beta
        )
        exists = match_auto(text, query, NoiseSource(1), variant="existence")
        assert exists.regime is Regime.SMALL_K_COUNTING
        assert exists.contract == error_contract("existence", n, 256, 1, eps, beta)
        reported = match_auto(text, query, NoiseSource(1), variant="report")
        assert reported.regime is Regime.TRIVIAL_FALLBACK
        assert reported.contract.bound == 256.0

    def test_invalid_variant(self):
        query = MatchQuery(b"ab", 1, 1.0, 0.1)
        with pytest.raises(ValueError, match="variant"):
            match_auto(b"abab", query, zero_src(), variant="fancy")


def outcome_tuple(outcome):
    if isinstance(outcome, ExistenceOutcome):
        return ("existence", outcome.found, outcome.witness)
    if isinstance(outcome, CountOutcome):
        return ("count", outcome.count, outcome.witness, outcome.raw_count)
    return ("report", outcome.positions)


class TestSeedForSeedOracle:
    """The vectorized kernel answers as the one-distance-at-a-time reference
    scans in ``conftest`` do, seed for seed: same outcomes, same exact
    ``max_spent``."""

    QUERIES = 640

    @staticmethod
    def random_query(rng: random.Random):
        alphabet = rng.choice([b"ab", b"abc", b"acgt"])
        m = rng.choice([1, 1024, min(1024, int(2 ** rng.uniform(0, 10)))])
        n = m + rng.randint(0, 1500)

        def symbols(length):
            return bytes(rng.choice(alphabet) for _ in range(length))

        if rng.random() < 0.3:  # close to a short period: periodic reporting
            unit = symbols(rng.randint(1, 4))
            pattern, text = bytearray(tile(unit, m)), bytearray(tile(unit, n))
            for _ in range(rng.randint(0, 2)):
                pattern[rng.randrange(m)] = rng.choice(alphabet)
            for _ in range(rng.randint(0, n // 50)):
                text[rng.randrange(n)] = rng.choice(alphabet)
        else:
            pattern, text = bytearray(symbols(m)), bytearray(symbols(n))
        for _ in range(rng.randint(0, 3)):  # planted copies
            at = rng.randint(0, n - m)
            text[at : at + m] = pattern
        pattern, text = bytes(pattern), bytes(text)
        k = rng.randint(0, min(m, 8))
        regime = rng.choice(["all-hit", "mixed", "all-miss", "any"])
        if regime == "all-hit":
            epsilon = 1.0
        elif regime == "all-miss":
            epsilon = rng.choice([1e5, 1e6, 3e6])
        elif regime == "mixed" and k >= 1:
            # The counting threshold k + c/eps at the mean distance.
            c = error_contract("count_nonperiodic", n, m, k, 1.0, 0.1).threshold - k
            mean = sum(sliding_distances(text, pattern)) / (n - m + 1)
            epsilon = c / max(mean - k, 0.5) * rng.uniform(0.7, 1.4)
        else:
            epsilon = 10 ** rng.uniform(-1, 6.5)
        mode = "zero" if rng.random() < 0.1 else "standard"
        variant = rng.choice(["auto", "existence", "count", "report"])
        return text, MatchQuery(pattern, k, epsilon, 0.1), mode, variant

    def test_match_auto_equals_reference_scans(self):
        rng = random.Random(20261018)
        shapes = set()
        for seed in range(self.QUERIES):
            text, query, mode, variant = self.random_query(rng)
            expected, spent = ref_match(text, query, NoiseSource(seed, mode), variant)
            result = match_auto(text, query, NoiseSource(seed, mode), variant=variant)
            got = outcome_tuple(result.outcome)
            assert got == expected, (seed, query, mode, variant)
            assert result.ledger.max_spent == spent, (seed, query, mode, variant)
            if got[0] == "count" and result.regime in (
                Regime.NON_PERIODIC_COUNTING, Regime.SMALL_K_COUNTING
            ):
                ratio = got[3] / (len(text) - query.m + 1)
                shapes.add(
                    "all-hit" if ratio == 1 else "all-miss" if ratio == 0 else "mixed"
                )
            shapes.add(result.regime)
            shapes.add(("m", query.m))
            shapes.add(mode)
        assert {"all-hit", "mixed", "all-miss", "zero"} <= shapes
        assert {("m", 1), ("m", 1024)} <= shapes
        assert set(Regime) <= shapes

    def test_consecutive_queries_share_one_stream(self):
        # One source serves a run of queries, as an audit lane's does: a
        # kernel that served one unit too many or too few at a streak or
        # block boundary would shift every later query's draws.
        rng = random.Random(20261019)
        src, ref_src = NoiseSource(7), NoiseSource(7)
        for i in range(200):
            text, query, _, variant = self.random_query(rng)
            expected, spent = ref_match(text, query, ref_src, variant)
            result = match_auto(text, query, src, variant=variant)
            assert outcome_tuple(result.outcome) == expected, (i, query, variant)
            assert result.ledger.max_spent == spent, (i, query, variant)
            # Both cursors stand at the same unserved draw.
            assert src.units(1)[0] == ref_src.units(1)[0], (i, query, variant)

    def test_reused_plan_equals_fresh_calls(self):
        # A plan prepared once and run four times (the last for its outcome
        # alone) serves the same draws in the same order as four fresh
        # match_auto calls on one source.
        rng = random.Random(20261020)
        src, fresh_src = NoiseSource(11), NoiseSource(11)
        for i in range(200):
            text, query, _, _ = self.random_query(rng)
            for variant in VARIANTS:
                prepared = plan(text, query, variant)
                for run in range(3):
                    got = prepared.run(src)
                    want = match_auto(text, query, fresh_src, variant)
                    step = (i, variant, run)
                    assert got.regime == want.regime, step
                    assert got.outcome == want.outcome, step
                    assert got.ledger.max_spent == want.ledger.max_spent, step
                want = match_auto(text, query, fresh_src, variant)
                assert prepared.outcome(src) == want.outcome, (i, variant)

    def test_existence_plan_computes_each_chunk_once(self, monkeypatch):
        # Disjoint alphabets put every distance at m = 512, and the threshold
        # sits 90 below it, so the witness varies from run to run (from 10
        # to 896) and later runs read past the chunks earlier ones pulled.
        rng = random.Random(5)
        text = bytes(rng.choice(b"xyz") for _ in range(3000))
        pattern = bytes(rng.choice(b"ab") for _ in range(512))
        logs = math.log(len(text) - 512 + 1) + math.log(2.0 / 0.1)
        query = MatchQuery(pattern, 0, 8.0 * logs / (512 - 90), 0.1)
        assert error_contract(
            "existence", len(text), 512, 0, query.epsilon, 0.1
        ).threshold == pytest.approx(512 - 90)
        fresh_src = NoiseSource(3)
        expected = [match_auto(text, query, fresh_src, "existence") for _ in range(40)]
        pulled = []

        def counting(text, pattern):
            for chunk in distance_chunks(text, pattern):
                pulled.append(chunk)
                yield chunk

        received = []  # the distance sequence each run's scan reads

        def recording(dist, *args):
            received.append(dist)
            return below_thresh(dist, *args)

        monkeypatch.setattr(matchers, "distance_chunks", counting)
        monkeypatch.setattr(matchers, "below_thresh", recording)
        prepared, src = plan(text, query, "existence"), NoiseSource(3)
        growth = []
        for want in expected:
            before = len(pulled)
            got = prepared.run(src)
            assert got.outcome == want.outcome
            assert got.ledger.max_spent == want.ledger.max_spent
            growth.append(len(pulled) - before)
        assert len({want.outcome.witness for want in expected}) > 5
        assert growth[0] and sum(1 for g in growth[1:] if g) >= 2
        assert sum(map(len, pulled)) <= len(text) - 512 + 1  # each chunk once
        assert all(isinstance(chunk, np.ndarray) for chunk in pulled)
        # Until every chunk is in, the scan slices read-only partial views.
        assert all(dist is received[0] for dist in received)
        with pytest.raises(ValueError):
            received[0][0:1][0] = 0
        # A noiseless run misses everywhere, so it reads to the end; later
        # runs read the whole array itself, frozen once.
        assert prepared.outcome(NoiseSource(0, "zero")).witness is None
        assert sum(map(len, pulled)) == len(text) - 512 + 1
        prepared.run(src)
        prepared.run(src)
        full = received[-1]
        assert type(full) is np.ndarray and received[-2] is full
        assert len(full) == len(text) - 512 + 1 and not full.flags.writeable

    def test_no_phantom_counting_window(self):
        # m = 2 divides n + 1 = 4: no window without a start position is
        # scanned, so no position pays more than the 2 * 1152 * k slices of
        # its scans.
        query = MatchQuery(b"ab", 1, 1.0, 0.1)
        result = match_auto(b"aba", query, NoiseSource(0), "count")
        assert result.ledger.max_spent == Fraction(1, 1152)
        _, spent = ref_match(b"aba", query, NoiseSource(0), "count")
        assert spent == Fraction(1, 1152)

    @pytest.mark.parametrize("variant", ["auto", "existence", "count", "report"])
    @pytest.mark.parametrize(
        "pattern, n, k, epsilon",
        [
            (b"ab", 3, 1, 1.0),
            (b"abc", 5, 2, 1.0),
            (b"acgt", 7, 2, 1e3),
            (b"acgtt", 9, 2, 300.0),
            (b"acgtacgtac", 19, 2, 1.0),
            (b"ab", 9, 1, 1e5),
            (b"abca", 39, 2, 30.0),
            (b"acgtta", 305, 2, 2e4),
            (tile(b"ab", 64), 255, 1, 1e3),
        ],
    )
    def test_match_auto_equals_reference_where_m_divides_n_plus_one(
        self, pattern, n, k, epsilon, variant
    ):
        # The old counting cover ended in a window with no start position
        # exactly here; at n = 2m - 1 its phantom scan raised max_spent.
        assert (n + 1) % len(pattern) == 0
        rng = random.Random(n)
        text = bytearray(rng.choice(pattern) for _ in range(n))
        text[n - len(pattern) :] = pattern  # an occurrence at the last start
        text = bytes(text)
        query = MatchQuery(pattern, k, epsilon, 0.1)
        for seed in range(3):
            expected, spent = ref_match(text, query, NoiseSource(seed), variant)
            result = match_auto(text, query, NoiseSource(seed), variant=variant)
            assert outcome_tuple(result.outcome) == expected, seed
            assert result.ledger.max_spent == spent, seed

    @pytest.mark.parametrize("seed, epsilon", [(0, 1.0), (1, 10.0), (2, 3e4), (3, 1e5)])
    def test_per_window_cap(self, seed, epsilon):
        # m = 2000 > 1152 k: with every scan hitting at once, a window stops
        # at the cap of 1152 hits.
        rng = random.Random(seed)
        text = bytes(rng.choice(b"acgt") for _ in range(5000))
        pattern = bytes(rng.choice(b"acgt") for _ in range(2000))
        query = MatchQuery(pattern, 1, epsilon, 0.1)
        ledger = BudgetLedger(epsilon)
        outcome = count_nonperiodic(text, query, NoiseSource(seed), ledger)
        ref_ledger = RefLedger(epsilon)
        expected = ref_count_nonperiodic(text, query, NoiseSource(seed), ref_ledger, 1)
        assert outcome_tuple(outcome) == expected
        assert ledger.max_spent == ref_ledger.max_spent
        if epsilon == 1.0:
            assert outcome.raw_count == 1152 + (5000 - 2000 + 1 - 2000)
