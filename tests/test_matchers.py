"""Tests for the private matchers and the budget ledger."""

import math
import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppm.matchers as matchers
import dppm.noise as noise_module
import dppm.text as text_module
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
from dppm.noise import UNIT_BOUND, NoiseSource
from dppm.periodicity import PeriodicCandidate, Regime
from dppm.text import (
    distance_array,
    exact_count,
    sliding_distances,
    tile,
    window_cover,
)

from conftest import (
    RefLedger,
    binary_strings,
    brute_first_at_most,
    periodic_cover,
    ref_below_thresh,
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


def whole(dist, base=0, n=None):
    """The one window over all of ``dist``, charged as a length-``n`` text
    that starts at position ``base`` of a longer one."""
    n = len(dist) if n is None else n
    return ((0, len(dist), (base, base + n)),)


def scan(text, pattern, thresh, share, src, ledger, base=0):
    """One scan of ``text`` as if it started at position ``base`` of a longer
    text: the index of its hit, or None."""
    dist = distance_array(text, pattern)
    _, hit = below_thresh(
        dist, thresh, share, src, ledger, whole(dist, base, len(text))
    )
    return hit


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
            below_thresh(np.array([0]), 1.0, 0, zero_src(), ledger_for(1.0), whole([0]))
        with pytest.raises(ValueError):
            below_thresh(
                np.array([0]), 1.0, 1, zero_src(), ledger_for(1.0), ((0, 1, (1, 1)),)
            )

    def test_noise_scale_is_the_paid_slice(self):
        # The slice charged and the scale drawn at come from one share, on
        # the one-at-a-time path and on the batched path alike. With every
        # unit at 1.0 a comparison is d + 4/eps <= 20 + 2/eps, i.e.
        # d <= 20 - 2/eps: at the paid slice (eps = 0.9/6, 2/eps = 13.3)
        # distance 0 hits and 10 misses; at the query's 0.9 both would hit.
        src = FixedUnits()
        ledger = ledger_for(0.9)
        distances = np.array([0] * 12 + [10] * 20)
        hits = below_thresh(distances, 20.0, 6, src, ledger, whole(distances), 100)
        # Twelve scans hit at their first distance; the thirteenth misses.
        assert hits == (12, 0)
        assert ledger._runs == [(0, 13, 32, 6)]
        assert src.peeks > 0  # the first-distance batch ran
        slice_ = Fraction(0.9) / 6
        assert spent_by_position(ledger) == {
            p: slice_ * min(p + 1, 13) for p in range(32)
        }

    def test_resumes_one_past_the_hit(self):
        # The counter's restarts: a scan that hits at index i is followed by
        # one that starts at i + 1 and is charged from there. The scans
        # start at 0 (hit at 0), 1 (hit at 7) and 8 (a miss).
        distances = distance_array(b"abracadabracad", b"abra")  # 0,4,3,3,3,3,4,0,4,3,3
        window = whole(distances, 0, 14)
        ledger = ledger_for(1.0)
        hits = below_thresh(distances, 0.0, 2, zero_src(), ledger, window, 5)
        assert hits == (2, 0)
        assert ledger._runs == [(0, 2, 14, 2), (8, 1, 14, 2)]
        assert spent_by_position(ledger) == {
            p: Fraction(1, 2) * (min(p + 1, 2) + (p >= 8)) for p in range(14)
        }
        # On b"abracadabra", after the hit at the last index no distance
        # remains, so no further scan starts.
        ledger = ledger_for(1.0)
        short = distances[:8]
        assert below_thresh(
            short, 0.0, 2, zero_src(), ledger, whole(short, 0, 11), 5
        ) == (2, 0)
        assert ledger._runs == [(0, 2, 11, 2)]
        # A zero-noise counter window with a cap of one hit stops there.
        ledger = ledger_for(1.0)
        assert below_thresh(distances, 0.0, 2, zero_src(), ledger, window) == (1, 0)
        assert ledger._runs == [(0, 1, 14, 2)]

    def test_no_scan_on_empty_distances(self):
        src, ledger = NoiseSource(0), ledger_for(1.0)
        empty = np.array([], np.int64)
        assert below_thresh(empty, 1.0, 1, src, ledger, ((0, 0, (0, 1)),)) == (0, None)
        assert ledger._runs == []
        assert src.laplace(1.0) == NoiseSource(0).laplace(1.0)  # nothing drawn

    def test_zero_noise_restarts_along_a_long_array(self):
        # A run of 257 a's puts distance 0 at two neighbouring starts, and the
        # distances fall away from 256 around it, so noiseless counting scans
        # hit and restart there, and long scans between runs read numpy
        # blocks.
        n = 36000
        text = bytearray(b"b" * n)
        for at in (256, 768, 33536):
            text[at - 1 : at + 256] = b"a" * 257
        dist = distance_array(bytes(text), b"a" * 256)
        ledger = ledger_for(2.0)
        hits = below_thresh(dist, 0.5, 1, zero_src(), ledger, whole(dist, 0, n), 40)
        # Hits at 255, 256, 767, 768, 33535 and 33536: the scans start at 0,
        # then at 256 and 257, 768 and 769, and 33536 and 33537 (the last one
        # misses).
        assert hits == (6, 255)
        assert ledger._runs == [
            (0, 1, n, 1), (256, 2, n, 1), (768, 2, n, 1), (33536, 2, n, 1)
        ]

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
        hits = below_thresh(
            dist, -100.0, 1, NoiseSource(1), ledger_for(2.0), whole(dist, 0, 30000)
        )
        assert hits == (0, None) and lengths and max(lengths) <= matchers._HEAD
        assert sum(lengths) < 2 * matchers._HEAD  # the head and the tail
        lengths.clear()
        zeros = np.zeros(64, np.int64).view(Listing)
        ledger = ledger_for(1.0)
        hits = below_thresh(zeros, 0.5, 2, zero_src(), ledger, whole(zeros, 0, 127), 64)
        assert hits == (64, 0) and ledger._runs == [(0, 64, 127, 2)]
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


def scans_as_reference(dist, thresh, epsilon, src, ref_src):
    """One scan over all of ``dist`` on ``src``, and with the one-at-a-time
    reference scan on ``ref_src``, a source of the same stream: the same
    hit, the same ledger run records and the same next draw. Returns the
    hit."""
    ledger, ref_ledger = BudgetLedger(epsilon), RefLedger(epsilon)
    hit = ref_below_thresh(dist.tolist(), thresh, 1, ref_src, ref_ledger, (0, len(dist)))
    got = below_thresh(dist, thresh, 1, src, ledger, whole(dist))
    assert got == (int(hit is not None), hit)
    assert ledger._runs == ref_ledger.run_records()
    assert src.laplace(1.0) == ref_src.laplace(1.0)
    return hit


class Uniforms:
    """A generator whose uniforms are all 0.5 (unit 0) but at chosen
    positions of the stream."""

    def __init__(self, chosen):
        self.chosen, self.position = chosen, 0

    def random(self, size):
        out = np.full(size, 0.5)
        for p, u in self.chosen.items():
            if self.position <= p < self.position + size:
                out[p - self.position] = u
        self.position += size
        return out


def uniform_source(chosen) -> NoiseSource:
    src = NoiseSource(0)
    src._gen = Uniforms(chosen)
    return src


class TestPrunedScan:
    """Past its head a scan serves the draws of distances that no draw can
    bring below the noisy threshold unpeeked, and compares the rest of a
    block from its first distance that might hit. At eps = 1 a distance of
    200 is far past the bound (200 - 4 * UNIT_BOUND > 55) and a distance of
    0 hits about half the time, so each case below meets hits and misses."""

    @pytest.mark.parametrize(
        "n, candidates",
        [
            (1000, [32]),  # the first index past the head
            (1000, [128]),  # the first index of a block
            (1000, [255]),  # the last index of a block
            (1000, [255, 256]),  # either side of a block boundary
            (1000, [999]),  # end - 1, the last index of the last block
            (1040, [1039]),  # end - 1, in the tail past the last block
            (1000, [300, 301, 302, 700]),  # a run, then a lone one
        ],
    )
    def test_lone_candidates_scan_as_the_reference(self, n, candidates):
        dist = np.full(n, 200, np.int64)
        dist[candidates] = 0
        hits = [
            scans_as_reference(dist, 0.0, 1.0, NoiseSource(seed), NoiseSource(seed))
            for seed in range(40)
        ]
        assert set(hits) == {None, *candidates}

    def test_distance_at_the_bound_is_compared(self, monkeypatch):
        # With the bound tightened to the largest unit there is, 52 ln 2, a
        # distance d with d - bound * d_scale == noisy hits on the one draw
        # that reaches the bound, so the kernel must compare it, not prune
        # it. eps = 4 gives d_scale = 1, and every unit but that draw is 0.
        bound = -uniform_source({0: 2.0**-53}).laplace(1.0)
        assert abs(bound) <= UNIT_BOUND
        monkeypatch.setattr(matchers, "UNIT_BOUND", bound)
        dist = np.full(100, 1000, np.int64)
        dist[40] = 100
        thresh = 100 - bound * 1.0  # noisy == thresh: its unit is 0
        assert dist[40] - bound * 1.0 == thresh
        chosen = {1 + 40: 2.0**-53}  # draw 0 is the threshold's
        hit = scans_as_reference(
            dist, thresh, 4.0, uniform_source(chosen), uniform_source(chosen)
        )
        assert hit == 40

    def test_hopeless_scan_transforms_only_its_head(self, monkeypatch):
        # 30,000 distances that no draw can bring below the threshold: the
        # threshold and head draws are transformed, and at most one more
        # block, while the rest are served as raw uniforms.
        transformed = []
        refill = NoiseSource._refill

        def spy(src, short):
            left = len(src._units) - src._next
            refill(src, short)
            transformed.append(len(src._units) - left)

        dist = np.full(30_000, 200, np.int64)
        src, ledger = NoiseSource(3), ledger_for(1.0)
        with monkeypatch.context() as patch:
            patch.setattr(NoiseSource, "_refill", spy)
            assert below_thresh(dist, 0.0, 1, src, ledger, whole(dist)) == (0, None)
        assert sum(transformed) <= 2 * matchers._HEAD + noise_module._MAX_BLOCK
        ref_src, ref_ledger = NoiseSource(3), RefLedger(1.0)
        assert ref_below_thresh(dist, 0.0, 1, ref_src, ref_ledger, (0, 30_000)) is None
        assert src.laplace(1.0) == ref_src.laplace(1.0)


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

    def test_long_scan_makes_one_kernel_call(self, monkeypatch):
        # Random distances (about 192) sit far above the threshold (about
        # 61), so the scan reads all 29,745 distances, which one shifted add
        # computed when the query was prepared.
        calls = []

        def counting(name, kernel):
            def wrapped(tv, pv, out):
                calls.append((name, len(out)))
                kernel(tv, pv, out)
            return wrapped

        for name in ("_window_compare", "_shifted_add"):
            kernel = getattr(text_module, name)
            monkeypatch.setattr(text_module, name, counting(name, kernel))
        rng = random.Random(18)
        text = bytes(rng.choice(b"acgt") for _ in range(30000))
        pattern = bytes(rng.choice(b"acgt") for _ in range(256))
        outcome = existence(text, MatchQuery(pattern, 8, 2.0, 0.1), NoiseSource(1))
        assert not outcome.found
        assert calls == [("_shifted_add", 29745)]

    def test_budget_charged_exactly_epsilon(self):
        ledger = ledger_for(0.7)
        query = MatchQuery(b"ab", 1, 0.7, 0.1)
        matchers._prepare_existence(b"abab", query)[1](NoiseSource(3), ledger)
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


class TestErrorContract:
    @pytest.mark.parametrize(
        "matcher, n, m, k, epsilon, beta, message",
        [
            ("count_nonperiodic", 5, 10, 1, 1.0, 0.1, "exceeds text length"),
            ("existence", 100, 10, 11, 1.0, 0.1, "outside"),
            ("report_periodic", 100, 10, -1, 1.0, 0.1, "outside"),
            ("count_nonperiodic", 100, 10, 0, 1.0, 0.1, "k >= 1"),
            ("trivial_all", 100, 0, 0, 1.0, 0.1, "non-empty"),
            ("existence", 100, 10, 1, 1.0, 1.5, "beta"),
            ("existence", 100, 10, 1, 1.0, 0.0, "beta"),
            ("trivial_all", 100, 10, 1, 1.0, 1.0, "beta"),
            ("report_periodic", 100, 10, 1, 0.0, 0.1, "epsilon"),
            ("existence", 100, 10, 1, math.inf, 0.1, "epsilon"),
            ("counting", 100, 10, 1, 1.0, 0.1, "matcher must be one of"),
        ],
    )
    def test_impossible_query_rejected(self, matcher, n, m, k, epsilon, beta, message):
        with pytest.raises(ValueError, match=message):
            error_contract(matcher, n, m, k, epsilon, beta)

    def test_counting_k_may_exceed_m(self):
        # The small-k regime evaluates the counting row at its cutoff.
        cutoff = 50
        contract = error_contract("count_nonperiodic", 100, 10, cutoff, 1.0, 0.1)
        assert contract.threshold > cutoff > 10

    @pytest.mark.parametrize("matcher", ["count_nonperiodic", "existence"])
    @pytest.mark.parametrize("k", [9.5, 12.5, "3"])
    def test_non_integer_k_rejected(self, matcher, k):
        # Also above m, where the counting row takes any integer k.
        with pytest.raises(TypeError):
            error_contract(matcher, 100, 10, k, 1.0, 0.1)


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
        _, scan = matchers._prepare_report(text, query, PeriodicCandidate(2, b"ab", 0))
        scan(NoiseSource(1), ledger)
        # Interior positions sit in 3 windows at 2 scans of epsilon/6 each,
        # so the exact rational maximum is the full query budget.
        assert ledger.max_spent == Fraction(0.9)

    def test_charges_every_window_position_twice(self):
        text = tile(b"ab", 101)
        query = MatchQuery(tile(b"ab", 8), 1, 0.9, 0.1)
        ledger = ledger_for(0.9)
        candidate = PeriodicCandidate(2, b"ab", 0)
        matchers._prepare_report(text, query, candidate)[1](NoiseSource(1), ledger)
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
        matchers._prepare_count(tile(b"ab", 50), query, 2)[1](NoiseSource(9), ledger)
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

    def test_effective_k_below_k_rejected(self):
        # One window at distance k = 3: a budget of 1 would lower the
        # threshold below it and count 0 in place of 1.
        text, query = b"abbb" + b"c" * 8, MatchQuery(b"aaaa", 3, 1e9, 0.1)
        assert count_nonperiodic(text, query, zero_src()).count == 1
        assert count_nonperiodic(text, query, zero_src(), effective_k=3).count == 1
        with pytest.raises(ValueError, match="effective_k 1 is below"):
            count_nonperiodic(text, query, zero_src(), effective_k=1)
        with pytest.raises(ValueError, match="effective_k 1 is below"):
            matchers._prepare_count(text, query, 1)


class TestDistancesOncePerQuery:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(text, pattern):
            calls.append((text, pattern))
            return distance_array(text, pattern)

        monkeypatch.setattr(matchers, "distance_array", counting)
        return calls

    def test_existence(self, calls):
        text = tile(b"ab", 50)
        existence(text, MatchQuery(b"ab", 1, 1.3, 0.1), NoiseSource(9))
        assert calls == [(text, b"ab")]

    def test_report_periodic(self, calls):
        text, pattern = tile(b"ab", 101), tile(b"ab", 8)
        query = MatchQuery(pattern, 1, 0.9, 0.1)
        report_periodic(text, query, PeriodicCandidate(2, b"ab", 0), NoiseSource(1))
        assert calls == [(text, pattern)]

    def test_count_nonperiodic(self, calls):
        text = tile(b"ab", 50)
        count_nonperiodic(text, MatchQuery(b"ab", 2, 1.3, 0.1), NoiseSource(9))
        assert calls == [(text, b"ab")]


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

    def test_existence_plan_fills_once(self, monkeypatch):
        # Disjoint alphabets put every distance at m = 512, and the threshold
        # sits 90 below it, so the witness varies from run to run (from 10
        # to 896), and every run reads the distances filled at prepare time.
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
        fills = []  # the (text, pattern) of every distance fill
        received = []  # the distance sequence each run's scan reads
        windows = []  # and the windows it scans

        def filling(text, pattern):
            fills.append((text, pattern))
            return distance_array(text, pattern)

        def recording(dist, *args):
            received.append(dist)
            windows.append(args[4])
            return below_thresh(dist, *args)

        monkeypatch.setattr(matchers, "distance_array", filling)
        monkeypatch.setattr(matchers, "below_thresh", recording)
        prepared, src = plan(text, query, "existence"), NoiseSource(3)
        assert fills == [(text, pattern)]  # one fill, at prepare time
        for want in expected:
            got = prepared.run(src)
            assert got.outcome == want.outcome
            assert got.ledger.max_spent == want.ledger.max_spent
        assert len({want.outcome.witness for want in expected}) > 5
        assert prepared.outcome(NoiseSource(0, "zero")).witness is None
        assert len(fills) == 1  # none during the runs
        # Every run reads one whole array, frozen once, and scans the one
        # window over the whole text, built once.
        full = received[0]
        assert len(received) == 41 and all(dist is full for dist in received)
        assert type(full) is np.ndarray and not full.flags.writeable
        assert len(full) == len(text) - 512 + 1
        with pytest.raises(ValueError):
            full[0] = 0
        assert windows[0] == ((0, len(full), (0, len(text))),)
        assert all(window is windows[0] for window in windows)

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
        outcome, _ = counts_as_reference(text, query, 1, NoiseSource(seed))
        if epsilon == 1.0:
            assert outcome.raw_count == 1152 + (5000 - 2000 + 1 - 2000)


class PeekLog(NoiseSource):
    """A real source that logs the length of every ``units`` peek."""

    def __init__(self, seed):
        super().__init__(seed)
        self.peeks = []

    def units(self, count):
        self.peeks.append(count)
        return super().units(count)


def counts_as_reference(text, query, k_eff, src):
    """Count on ``src`` and with the one-at-a-time reference counter on a
    fresh source of the same seed: the same outcome, the same ledger run
    records and the same next draw. Returns the outcome and the records."""
    ledger = BudgetLedger(query.epsilon)
    outcome = matchers._prepare_count(text, query, k_eff)[1](src, ledger)
    ref_src, ref_ledger = NoiseSource(src.seed), RefLedger(query.epsilon)
    expected = ref_count_nonperiodic(text, query, ref_src, ref_ledger, k_eff)
    assert outcome_tuple(outcome) == expected
    assert ledger._runs == ref_ledger.run_records()
    assert src.laplace(1.0) == ref_src.laplace(1.0)
    return outcome, ledger._runs


class TestBatchAcrossWindows:
    """Once enough scans in a row have hit at their first distance, the
    counter's first-distance batch runs on across window boundaries. Each
    case matches the one-at-a-time reference counter seed for seed."""

    @staticmethod
    def sharp_query(pattern, n, k):
        # The threshold is k + 1/2, about 30 distance-noise scales above k:
        # a distance of at most k hits at once, and one above k misses.
        offset = error_contract("count_nonperiodic", n, len(pattern), k, 1.0, 0.1)
        return MatchQuery(pattern, k, (offset.threshold - k) / 0.5, 0.1)

    def test_batch_ends_on_a_window_boundary(self):
        # Every distance is 0, so after six scans one at a time every batch
        # hits throughout, each peek serving two units a scan; with m = 8,
        # some batch ends where a window begins.
        n, m = 60, 8
        query = self.sharp_query(b"a" * m, n, 1)
        src = PeekLog(3)
        outcome, runs = counts_as_reference(b"a" * n, query, 1, src)
        assert outcome.raw_count == n - m + 1
        scans = accumulate((u // 2 for u in src.peeks), initial=matchers._STREAK)
        ends = list(scans)[1:]
        assert any(end % m == 0 for end in ends[:-1]), ends
        assert ends[-1] == n - m + 1
        share = 2 * 1152
        assert runs == [
            (a, min(a + m, n - m + 1) - a, b + 1, share)
            for a, b in window_cover(n, m, m)
        ]

    def test_miss_at_the_next_window_first_start(self):
        # The distance is the number of b's in a window: 0 up to start 6, 1 at
        # 7, 2 from 8 to 14 and 1 at 15. The batch from start 6 runs into
        # window 1 and misses at its first start, 8; that scan runs one
        # distance at a time in window 1, hits at 15 and stops at its end.
        text = b"a" * 14 + b"bb" + b"a" * 18
        query = self.sharp_query(b"a" * 8, len(text), 1)
        src = PeekLog(0)
        outcome, runs = counts_as_reference(text, query, 1, src)
        assert src.peeks[0] // 2 > 8 - matchers._STREAK  # past window 0's end
        share = 2 * 1152
        assert runs[:3] == [(0, 8, 15, share), (8, 1, 23, share), (16, 8, 31, share)]
        assert (outcome.raw_count, outcome.witness) == (len(text) - 8 + 1 - 7, 0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [4999, 5000])
    def test_where_the_noise_decides(self, n, seed):
        # About 11.5 b's in a window of 64 against a threshold of 13.9: the
        # noise decides many scans, batches cross windows and miss in them,
        # and (seed 1) one misses at the next window's first start.
        rng = random.Random(seed)
        text = bytes(b"b"[0] if rng.random() < 0.18 else b"a"[0] for _ in range(n))
        query = MatchQuery(b"a" * 64, 3, 1e5, 0.1)
        outcome, _ = counts_as_reference(text, query, 3, NoiseSource(seed))
        assert 0 < outcome.raw_count < n - 64 + 1

    def test_batches_keep_each_window_cap(self):
        # Every distance is 0 and the noise negligible, so each window's
        # scans hit at once up to its cap of 50. Long streaks meet a short
        # window followed by one longer than the cap, which a batch must not
        # run into, and a window the cap cuts, where a batch must stop at
        # the cap.
        bounds = [(0, 50), (50, 100), (100, 110), (110, 300), (300, 340),
                  (340, 380), (380, 480)]
        windows = tuple((lo, hi, (lo, hi + 7)) for lo, hi in bounds)
        src, ledger = PeekLog(1), BudgetLedger(1e9)
        hits = [min(hi - lo, 50) for lo, hi in bounds]
        scans = sum(hits)
        dist = np.zeros(480, np.int64)
        assert below_thresh(dist, 0.5, 1, src, ledger, windows, 50) == (scans, 0)
        assert ledger._runs == [(lo, h, hi + 7, 1) for (lo, hi), h in zip(bounds, hits)]
        assert len(src.peeks) < len(bounds)  # batches ran, some across windows
        ref = NoiseSource(1)
        ref.units(2 * scans)
        ref.skip(2 * scans)
        assert src.laplace(1.0) == ref.laplace(1.0)

    def test_batch_reaches_the_block_cap(self):
        # A desk query (m = 64, k = 3, eps = 1: every scan hits at once) long
        # enough that the batches, doubling with the streak, outgrow _BLOCK.
        rng = random.Random(6)
        n = 3 * matchers._BLOCK + 200
        text = bytes(rng.choice(b"acgt") for _ in range(n))
        query = MatchQuery(bytes(rng.choice(b"acgt") for _ in range(64)), 3, 1.0, 0.1)
        src = PeekLog(6)
        outcome, runs = counts_as_reference(text, query, 3, src)
        assert outcome.raw_count == n - 64 + 1
        assert len(runs) == len(window_cover(n, 64, 64))
        assert max(src.peeks) == 2 * matchers._BLOCK

    def test_one_kernel_call_per_counting_query(self, monkeypatch):
        # The count-desk query: 2437 scans over 39 windows, each hitting at
        # its first distance, are one kernel call, and past the first few
        # scans the batches double with the streak: O(log n) peeks.
        calls = []

        def recording(*args):
            calls.append(args[5])
            return below_thresh(*args)

        monkeypatch.setattr(matchers, "below_thresh", recording)
        rng = random.Random(2)
        text = bytes(rng.choice(b"acgt") for _ in range(2500))
        query = MatchQuery(bytes(rng.choice(b"acgt") for _ in range(64)), 3, 1.0, 0.1)
        prepared = plan(text, query, "count")
        assert prepared.matcher == "count_nonperiodic"
        src = PeekLog(1)
        assert prepared.run(src).outcome.raw_count == 2437
        assert len(calls) == 1 and len(calls[0]) == 39
        assert len(src.peeks) <= math.log2(2437)
