"""Tests for the private matchers and the budget ledger."""

import math
from fractions import Fraction

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
    below_thresh,
    count_nonperiodic,
    error_contract,
    existence,
    match_auto,
    report_periodic,
    trivial_all,
)
from dppm.noise import NoiseSource
from dppm.periodicity import PeriodicCandidate, Regime
from dppm.text import (
    exact_count,
    iter_sliding_distances,
    periodic_cover,
    sliding_distances,
    tile,
)

from conftest import binary_strings, brute_first_at_most, spent_by_position


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


def scan(text, pattern, thresh, share, src, ledger, base=0):
    """Scan ``text`` as if it started at position ``base`` of a longer text."""
    distances = iter_sliding_distances(text, pattern)
    return below_thresh(
        distances, thresh, share, src, ledger, (base, base + len(text))
    )


class ScaleLog(NoiseSource):
    """Zero-noise source that records the Laplace scale of every draw."""

    def __init__(self):
        super().__init__(0, mode="zero")
        self.scales: list[float] = []

    def laplace(self, b):
        self.scales.append(b)
        return super().laplace(b)


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
            below_thresh([0], 1.0, 0, zero_src(), ledger_for(1.0), (0, 1))
        with pytest.raises(ValueError):
            below_thresh([0], 1.0, 1, zero_src(), ledger_for(1.0), (1, 1))

    def test_noise_scale_is_the_paid_slice(self):
        # The slice charged and the scale drawn at come from one share.
        src = ScaleLog()
        below_thresh([5, 5], 1.0, 6, src, ledger_for(0.9), (0, 2))
        eps = float(Fraction(0.9) / 6)
        assert src.scales == [2.0 / eps, 4.0 / eps, 4.0 / eps]

    def test_resumes_one_past_the_hit(self):
        # The counter's restarts rely on this: a hit at index i leaves the
        # iterator at d_{i+1}, and the next scan's indices count from there.
        distances = sliding_distances(b"abracadabra", b"abra")  # 0,4,3,3,3,3,4,0
        it = iter(distances)
        hit = below_thresh(it, 0.0, 2, zero_src(), ledger_for(1.0), (0, 11))
        assert hit == 0
        assert next(it) == distances[1]
        again = below_thresh(it, 0.0, 2, zero_src(), ledger_for(1.0), (2, 11))
        assert 2 + again == 7

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
            return sliding_distances(text, pattern)

        monkeypatch.setattr(matchers, "sliding_distances", counting)
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
