"""Tests for the private matchers and the budget ledger."""

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

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
    error_contract,
    match_auto,
    plan,
)
from dppm.noise import UNIT_BOUND, NoiseSource, uniform_bounds
from dppm.periodicity import PeriodicCandidate, Regime, small_k_cutoff
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
    cap_checks,
    counting_cover,
    lower_share,
    periodic_cover,
    ref_below_thresh,
    ref_count_nonperiodic,
    ref_existence,
    ref_match,
    ref_report_periodic,
    run_half,
    spent_by_position,
)


def zero_src() -> NoiseSource:
    return NoiseSource(0, mode="zero")


def scales(epsilon: float, share: int = 1) -> tuple[float, float]:
    """The kernel's noise scales for scans that pay ``epsilon / share``."""
    return matchers._scales(BudgetLedger(epsilon, share))


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
        for positions in [(3, 1), (1, 1), (0, 2, 2, 5), (0, 4, 3, 9), (7, 8, 0)]:
            with pytest.raises(ValueError):
                ReportOutcome(positions)
        for positions in [(), (4,), (0, 1, 5, 9)]:
            assert ReportOutcome(positions).positions == positions

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


class TestQueryNumbers:
    """A query stores plain numbers, whatever numeric types it was given."""

    def test_numpy_k_runs_the_counter(self):
        # A numpy k used to reach the counter's share, 2 * 1152 * k.
        query = MatchQuery(b"ab", np.int64(1), 1.0, 0.1)
        assert type(query.k) is int
        result = match_auto(b"abab" * 10, query, NoiseSource(1))
        assert result.regime is Regime.NON_PERIODIC_COUNTING
        assert type(result.ledger.share) is int and result.ledger.share == 2304
        assert result.to_record(query) == match_auto(
            b"abab" * 10, MatchQuery(b"ab", 1, 1.0, 0.1), NoiseSource(1)
        ).to_record(query)

    def test_bool_k_and_epsilon_print_as_numbers(self):
        query = MatchQuery(b"abra", True, True, 0.1)
        result = match_auto(b"abracadabra", query, NoiseSource(1), "existence")
        record = json.dumps(result.to_record(query))
        assert '"k": 1,' in record and '"epsilon": 1.0,' in record

    def test_float32_epsilon_gives_an_exact_budget(self):
        # Fraction refused a numpy float in max_spent.
        query = MatchQuery(b"abra", 1, np.float32(1.0), 0.1)
        assert type(query.epsilon) is float
        result = match_auto(b"abracadabra", query, NoiseSource(1), "existence")
        assert result.to_record(query)["budget_max"] == 1.0

    def test_float32_beta_serialises(self):
        query = MatchQuery(b"abra", 1, 1.0, np.float32(0.1))
        assert type(query.beta) is float
        result = match_auto(b"abracadabra", query, NoiseSource(1), "existence")
        assert json.loads(json.dumps(result.to_record(query)))["beta"] == query.beta


class TestBudgetLedger:
    def test_exact_accumulation(self):
        ledger = BudgetLedger(1.0, 3, [(0, 1, 10), (5, 1, 15), (5, 1, 10)])
        assert ledger.max_spent == Fraction(1)
        spent = spent_by_position(ledger)
        assert spent[0] == Fraction(1, 3)
        assert spent[7] == Fraction(1)
        assert spent[12] == Fraction(1, 3)
        ledger.assert_within_cap()

    def test_cap_violation_detected(self):
        # Three scans of share 2 cover position 3.
        BudgetLedger(1.0, 2, [(0, 1, 4), (2, 1, 6)]).assert_within_cap()
        ledger = BudgetLedger(1.0, 2, [(0, 1, 4), (2, 1, 6), (3, 1, 5)])
        with pytest.raises(RuntimeError, match="budget"):
            ledger.assert_within_cap()

    def test_per_position_matches_spans(self):
        ledger = BudgetLedger(1.0, 2, [(1, 1, 3)])
        assert spent_by_position(ledger) == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_empty_span_rejected(self):
        # The kernel starts no scan where no distance remains, so no record
        # it returns has an empty span: every scan of a run starts before its
        # stop, inside its window's span.
        rng = random.Random(3)
        for _ in range(200):
            dist = np.array([rng.randint(0, 3) for _ in range(rng.randint(0, 12))])
            cuts = sorted(rng.randint(0, len(dist)) for _ in range(3))
            bounds = list(zip([0, *cuts], [*cuts, len(dist)]))
            windows = tuple((lo, hi, (lo + 5, hi + 7)) for lo, hi in bounds)
            src = NoiseSource(rng.randrange(2**32))
            _, _, records = below_thresh(dist, 1.5, *scales(4.0), src, windows, 3)
            spans = [span for lo, hi, span in windows if hi > lo]
            for start, runs, stop in records:
                assert runs >= 1 and start + runs <= stop
                assert any(a <= start and stop == b for a, b in spans)

    @pytest.mark.parametrize(
        "share, error",
        [(0, ValueError), (-1, ValueError), (1.5, TypeError), (Fraction(1, 2), TypeError)],
    )
    def test_share_must_be_positive_int(self, share, error):
        with pytest.raises(error, match="share"):
            BudgetLedger(1.0, share)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
    def test_epsilon_must_be_positive_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            BudgetLedger(epsilon, 1)

    def test_shares_summing_to_epsilon_pass_exactly(self):
        # Six slices of 1/6 of a non-dyadic epsilon on one position are
        # exactly epsilon; one more slice on the same position is over the
        # cap.
        records = [(start, 1, 10) for start in range(4, 10)]
        ledger = BudgetLedger(0.7, 6, records)
        assert ledger.max_spent == Fraction(0.7)
        ledger.assert_within_cap()
        ledger = BudgetLedger(0.7, 6, [*records, (9, 1, 10)])
        assert ledger.max_spent == Fraction(0.7) * 7 / 6
        with pytest.raises(RuntimeError, match="budget"):
            ledger.assert_within_cap()

    @given(
        epsilon=st.floats(min_value=1e-3, max_value=1e6),
        share=st.sampled_from([1, 2, 3, 6, 2304, 6912]),
        charges=st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 12)), max_size=12
        ),
    )
    @settings(max_examples=200)
    def test_integer_sweep_matches_fraction_reference(self, epsilon, share, charges):
        ledger = BudgetLedger(
            epsilon, share, [(start, 1, start + length) for start, length in charges]
        )
        peak = max(spent_by_position(ledger).values(), default=Fraction(0))
        assert ledger.max_spent == peak
        if peak > Fraction(epsilon):
            with pytest.raises(RuntimeError, match="budget"):
                ledger.assert_within_cap()
        else:
            ledger.assert_within_cap()

    def test_run_record_is_its_charges(self):
        # A run of 3 from 2 to 6 is the charges [2, 6), [3, 6) and [4, 6).
        run = BudgetLedger(1.0, 4, [(2, 3, 6)])
        spans = BudgetLedger(1.0, 4, [(start, 1, 6) for start in (2, 3, 4)])
        assert spent_by_position(run) == spent_by_position(spans)
        assert run.max_spent == spans.max_spent == Fraction(3, 4)

    @given(
        epsilon=st.floats(min_value=1e-3, max_value=1e6),
        share=st.sampled_from([1, 2, 3, 6, 2304, 6912]),
        records=st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 6), st.integers(0, 8)),
            max_size=10,
        ),
    )
    @settings(max_examples=300)
    def test_run_sweep_matches_fraction_fold(self, epsilon, share, records):
        # Run records and single charges at one share: the sweep's peak is
        # the per-position maximum of the brute-force Fraction fold, and the
        # cap check fails exactly when some position pays more than epsilon.
        ledger = BudgetLedger(epsilon, share, [
            (start, runs, start + runs + tail) for start, runs, tail in records
        ])
        peak = max(spent_by_position(ledger).values(), default=Fraction(0))
        assert ledger.max_spent == peak
        if peak > Fraction(epsilon):
            with pytest.raises(RuntimeError, match="budget"):
                ledger.assert_within_cap()
        else:
            ledger.assert_within_cap()

    def test_peak_counts_the_scans_covering_a_position(self):
        # Random single-share ledgers: runs longer than one, overlapping
        # records out of order, stops drawn from a few shared values, and
        # the empty ledger. The one-pass peak is the most scans covering one
        # position, as the Fraction fold counts them.
        rng = random.Random(29)
        for trial in range(400):
            share = rng.choice([1, 2, 6, 2304])
            stops = [rng.randint(4, 24) for _ in range(3)]
            records = []
            for _ in range(rng.randint(0, 8)):
                stop = rng.choice(stops)
                start = rng.randint(0, stop - 1)
                records.append((start, rng.randint(1, stop - start), stop))
            ledger = BudgetLedger(0.3, share, records)
            spent = max(spent_by_position(ledger).values(), default=0)
            assert spent == Fraction(0.3) / share * ledger.peak
            assert ledger.peak == ledger._peak()
            assert (ledger.peak > share) == (spent > Fraction(0.3))
        empty = BudgetLedger(0.3, 6)
        assert empty.peak == 0 and empty.max_spent == 0
        empty.assert_within_cap()

    @given(
        positions=st.lists(st.integers(0, 20), min_size=2, max_size=4, unique=True),
        picks=st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=10),
        share=st.sampled_from([1, 3, 6912]),
    )
    @settings(max_examples=300)
    def test_peak_where_starts_ends_and_stops_tie(self, positions, picks, share):
        # Every start, climb end (start + runs) and stop is one of a few
        # shared positions, so one record's start or climb end often falls
        # on another's stop, or on its own stop; the records come in any
        # order, and the empty ledger is among them. The walk's peak is the
        # most scans the Fraction fold finds on one position.
        records = []
        for pick in picks:
            start, end, stop = sorted(positions[i % len(positions)] for i in pick)
            if start < end:
                records.append((start, end - start, stop))
        ledger = BudgetLedger(1.0, share, records)
        spent = max(spent_by_position(ledger).values(), default=0)
        assert spent == Fraction(ledger.peak, share)

    def test_ledger_keeps_its_own_records(self):
        # A ledger is a value: changing the list it was built from later
        # changes neither its records nor the peak swept from them.
        records = [(0, 1, 4), (2, 1, 6)]
        ledger = BudgetLedger(1.0, 2, records)
        records += [(3, 1, 5)] * 3
        records[0] = (0, 4, 8)
        assert ledger.records == ((0, 1, 4), (2, 1, 6))
        assert ledger.peak == ledger._peak() == 2
        ledger.assert_within_cap()


def whole(dist, base=0, n=None):
    """The one window over all of ``dist``, charged as a length-``n`` text
    that starts at position ``base`` of a longer one."""
    n = len(dist) if n is None else n
    return ((0, len(dist), (base, base + n)),)


def scan(text, pattern, thresh, src, base=0):
    """One scan of ``text`` at epsilon 1, as if it started at position
    ``base`` of a longer text: the index of its hit, or None, and its run
    records."""
    dist = distance_array(text, pattern)
    window = whole(dist, base, len(text))
    _, hit, records = below_thresh(dist, thresh, *scales(1.0), src, window)
    return hit, records


class FixedUnits(NoiseSource):
    """A source whose unit draws alternate ``first, second, first, ...``
    (every one 1.0 by default), through ``laplace`` and through the cursor
    alike, and whose U are theirs to within rounding: in a counting run
    whose scans each hit at their first distance, every threshold unit is
    ``first`` and every distance unit ``second``."""

    def __init__(self, first=1.0, second=1.0):
        super().__init__(0)
        self.pair, self.at = (first, second), 0

    def laplace(self, b):
        self.at += 1
        return b * self.pair[(self.at - 1) % 2]

    def units(self, count):
        return np.array([self.pair[(self.at + i) % 2] for i in range(count)])

    def uniforms(self, count):
        u = self.units(count)
        return np.where(u > 0, -np.expm1(-u) / 2, np.expm1(u) / 2)

    def skip(self, count):
        self.at += count


class TestBelowThresh:
    def test_zero_noise_first_hit(self):
        hit, _ = scan(b"abracadabra", b"abra", 1.0, zero_src())
        assert hit == 0

    def test_zero_noise_suffix(self):
        # d-sequence of the suffix is (4, 3, 3, 3, 3, 4, 0).
        hit, _ = scan(b"bracadabra", b"abra", 2.5, zero_src())
        assert hit == 6

    def test_zero_noise_no_hit(self):
        hit, _ = scan(b"aaaa", b"bb", 1.0, zero_src())
        assert hit is None

    def test_charges_whole_text(self):
        _, records = scan(b"aaaa", b"bb", 1.0, zero_src(), base=10)
        assert records == [(10, 1, 14)]
        spent = spent_by_position(BudgetLedger(1.0, 1, records))
        assert spent == {p: Fraction(1) for p in range(10, 14)}

    def test_validation(self):
        # The scales come from a ledger, which refuses a share of 0.
        with pytest.raises(ValueError):
            scales(1.0, 0)

    def test_noise_scale_is_the_paid_slice(self):
        # The slice charged and the scale drawn at come from one share, in
        # the kernel and in every compare of many scans at once. With every
        # unit at 1.0 a comparison is d + 4/eps <= 20 + 2/eps, i.e.
        # d <= 20 - 2/eps: at the paid slice (eps = 0.9/6, 2/eps = 13.3)
        # distance 0 hits and 10 misses; at the query's 0.9 both would hit.
        distances = np.array([0] * 12 + [10] * 20)
        window = whole(distances)
        hits, first, records = below_thresh(
            distances, 20.0, *scales(0.9, 6), FixedUnits(), window, 100
        )
        # Twelve scans hit at their first distance; the thirteenth misses.
        assert (hits, first) == (12, 0)
        assert records == [(0, 13, 32)]
        slice_ = Fraction(0.9) / 6
        assert spent_by_position(BudgetLedger(0.9, 6, records)) == {
            p: slice_ * min(p + 1, 13) for p in range(32)
        }
        # An existence tally's compare: every scan misses 10 and hits at 0.
        counts = matchers._first_hits(
            np.array([10, 0]), 20.0, *scales(0.9, 6), FixedUnits(), 5
        )
        assert counts == Counter({1: 5})
        # A counting run's compares, which draw at the scales of the ledger
        # the plan certified. Counting a^8 at k = 1 on a text of a's with
        # two b's, the threshold is 1 + c/eps; at eps = c - share, with every
        # unit at 1.0, a scan at the paid slice (eps / share) hits at a first
        # distance of 1 and misses at 2 (both b's in its window), while at
        # the query's eps it would hit at both, and the run would be uniform.
        share = 2 * matchers.WINDOW_OCCURRENCE_CAP

        def count_plan(before, after):
            text = b"a" * before + b"bb" + b"a" * after
            n = len(text)
            c = error_contract("count_nonperiodic", n, 8, 1, 1.0, 0.1).threshold - 1
            eps = c - share
            contract, scan, batch = matchers._prepare_count(
                text, MatchQuery(b"a" * 8, 1, eps, 0.1), 1
            )
            assert 2 + 4 / eps <= contract.threshold + 2 / eps  # at the query's eps
            assert not 2 + 4 * share / eps <= contract.threshold + 2 * share / eps
            return eps, scan, batch, CountOutcome(n - 7, 0, n - 7)

        # A lone run of one chunk, and lone runs of two chunks of _BLOCK
        # scans that miss in the first and in the second chunk.
        for before, after in [
            (40, 40),
            (100, matchers._BLOCK + 100),
            (matchers._BLOCK + 50, 50),
        ]:
            _, scan, _, uniform = count_plan(before, after)
            assert scan(FixedUnits())[0] != uniform
        # A tally's block of runs.
        _, _, batch, uniform = count_plan(40, 40)
        tally = batch(FixedUnits(), 3)
        assert uniform not in tally and sum(tally.values()) == 3

    def test_resumes_one_past_the_hit(self):
        # The counter's restarts: a scan that hits at index i is followed by
        # one that starts at i + 1 and is charged from there. The scans
        # start at 0 (hit at 0), 1 (hit at 7) and 8 (a miss).
        distances = distance_array(b"abracadabracad", b"abra")  # 0,4,3,3,3,3,4,0,4,3,3
        window = whole(distances, 0, 14)
        half = scales(1.0, 2)
        got = below_thresh(distances, 0.0, *half, zero_src(), window, 5)
        assert got == (2, 0, [(0, 2, 14), (8, 1, 14)])
        assert spent_by_position(BudgetLedger(1.0, 2, got[2])) == {
            p: Fraction(1, 2) * (min(p + 1, 2) + (p >= 8)) for p in range(14)
        }
        # On b"abracadabra", after the hit at the last index no distance
        # remains, so no further scan starts.
        short = distances[:8]
        assert below_thresh(
            short, 0.0, *half, zero_src(), whole(short, 0, 11), 5
        ) == (2, 0, [(0, 2, 11)])
        # A zero-noise counter window with a cap of one hit stops there.
        got = below_thresh(distances, 0.0, *half, zero_src(), window)
        assert got == (1, 0, [(0, 1, 14)])

    def test_no_scan_on_empty_distances(self):
        src = NoiseSource(0)
        empty = np.array([], np.int64)
        got = below_thresh(empty, 1.0, *scales(1.0), src, ((0, 0, (0, 1)),))
        assert got == (0, None, [])
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
        hits, first, records = below_thresh(
            dist, 0.5, *scales(2.0), zero_src(), whole(dist, 0, n), 40
        )
        # Hits at 255, 256, 767, 768, 33535 and 33536: the scans start at 0,
        # then at 256 and 257, 768 and 769, and 33536 and 33537 (the last one
        # misses).
        assert (hits, first) == (6, 255)
        assert records == [
            (0, 1, n), (256, 2, n), (768, 2, n), (33536, 2, n)
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
            dist, -100.0, *scales(2.0), NoiseSource(1), whole(dist, 0, 30000)
        )
        assert hits == (0, None, [(0, 1, 30000)])
        assert lengths and max(lengths) <= matchers._HEAD
        assert sum(lengths) < 2 * matchers._HEAD  # the head and the tail
        lengths.clear()
        zeros = np.zeros(64, np.int64).view(Listing)
        hits = below_thresh(
            zeros, 0.5, *scales(1.0, 2), zero_src(), whole(zeros, 0, 127), 64
        )
        assert hits == (64, 0, [(0, 64, 127)])
        # 64 scans, each hitting at its first distance: a list serves the
        # _HEAD // 2 scans that start in its first half.
        assert lengths == [matchers._HEAD] * 3 + [matchers._HEAD // 2]

    def test_exhaustive_zero_noise_oracle(self):
        # Small version of the acceptance sweep: binary texts up to length 7.
        for n in range(1, 8):
            for text in binary_strings(n):
                for m in range(1, min(3, n) + 1):
                    for pattern in binary_strings(m):
                        for thresh in range(m + 1):
                            got, _ = scan(text, pattern, float(thresh), zero_src())
                            assert got == brute_first_at_most(text, pattern, thresh)

    def test_noisy_run_is_seed_deterministic(self):
        args = (b"abracadabra", b"abra", 2.0)
        one = scan(*args, NoiseSource(5))
        two = scan(*args, NoiseSource(5))
        assert one == two


# Every pruned-scan case runs on int64 distances and on the uint16 and uint32
# ones that ``distance_array`` returns.
DTYPES = (np.int64, np.uint16, np.uint32)

# The reference scans already run, by the distances they read, their
# parameters and the stream their source draws: the dtype cases of one
# scan share one reference run.
_REFERENCE_RUNS = {}


def reference_run(key, values, run):
    """``run()`` once per ``key`` and the digest of ``values``; a repeat
    returns the first result."""
    key = (hashlib.sha256(np.ascontiguousarray(values).tobytes()).digest(), *key)
    if key not in _REFERENCE_RUNS:
        _REFERENCE_RUNS[key] = run()
    return _REFERENCE_RUNS[key]


def scans_as_reference(dist, thresh, epsilon, source, stream, dtype, view=lambda d: d):
    """One scan over all of ``view(dist)`` copied to ``dtype`` on
    ``source()``, and the one-at-a-time reference scan on a source of the
    same stream, named by ``stream``: the same hit, the same ledger run
    records and the same next draw. Returns the hit."""

    def reference():
        values, ref_src, ref_ledger = view(dist).tolist(), source(), RefLedger(epsilon)
        hit = ref_below_thresh(values, thresh, 1, ref_src, ref_ledger, (0, len(values)))
        return hit, ref_ledger, ref_src.laplace(1.0)

    hit, ref_ledger, after = reference_run((thresh, epsilon, stream), view(dist), reference)
    scanned = view(dist.astype(dtype))
    src = source()
    hits, first, records = below_thresh(
        scanned, thresh, *scales(epsilon), src, whole(scanned)
    )
    assert (hits, first) == (int(hit is not None), hit)
    ref_ledger.assert_matches(records, 1)
    assert src.laplace(1.0) == after
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


def windows_as_reference(dist, thresh, epsilon, windows, max_hits, seed, dtype):
    """``below_thresh`` over ``windows`` on ``dist`` copied to ``dtype``, and
    the one-at-a-time reference scans, each on a source of ``seed``: the
    same hits, first hit, ledger run records and next draw. Returns the hit
    count and the first hit."""

    def reference():
        values, ref_src, ref_ledger = dist.tolist(), NoiseSource(seed), RefLedger(epsilon)
        hits, first_hit = 0, None
        for lo, hi, (first, stop) in windows:
            at, got = lo, 0
            while at < hi and got < max_hits:
                span = (first + at - lo, stop)
                local = ref_below_thresh(values[at:hi], thresh, 1, ref_src, ref_ledger, span)
                if local is None:
                    break
                at += local + 1
                got += 1
                first_hit = at - 1 if first_hit is None else first_hit
            hits += got
        return (hits, first_hit), ref_ledger, ref_src.laplace(1.0)

    key = (thresh, epsilon, windows, max_hits, seed)
    want, ref_ledger, after = reference_run(key, dist, reference)
    src = NoiseSource(seed)
    hits, first, records = below_thresh(
        dist.astype(dtype), thresh, *scales(epsilon), src, windows, max_hits
    )
    assert (hits, first) == want
    ref_ledger.assert_matches(records, 1)
    assert src.laplace(1.0) == after
    return hits, first


@pytest.mark.parametrize("dtype", DTYPES)
class TestPrunedScan:
    """Past its head a scan jumps over the distances that no draw can bring
    below the noisy threshold, serving their draws unpeeked, and compares a
    block from the next distance that might hit. At eps = 1 a distance of
    200 is far past the bound (200 - 4 * UNIT_BOUND > 55) and a distance of
    0 hits about half the time, so each case below meets hits and misses.

    Each case runs the kernel on int64 distances and on the uint16 and
    uint32 ones that ``distance_array`` returns, whose compare with the
    integer bound must be exact even where the bound lies outside the
    dtype's range. The three share one pure-Python reference run a seed."""

    @pytest.mark.parametrize(
        "n, candidates",
        [
            (1000, [32]),  # the first index past the head: no jump
            (1000, [128]),  # where a jump lands
            (1000, [255]),
            (1000, [255, 256]),  # the block after a jump holds both
            # A jump that ends inside the final tail of fewer than _HEAD
            # distances, or just before it.
            (1000, [999]),
            (1040, [1039]),
            (1000, [300, 301, 302, 700]),  # a run, then a second jump
            (1000, [995]),
            (1000, [1000 - matchers._HEAD]),
            (1000, [1000 - matchers._HEAD - 1]),
            # The first jump starts at index _HEAD and compares _BLOCK
            # distances: the last of them, the first of the next jump, the
            # second.
            *(
                (matchers._HEAD + matchers._BLOCK + 40, [jump + d])
                for jump in [matchers._HEAD + matchers._BLOCK]
                for d in (-1, 0, 1)
            ),
        ],
    )
    def test_lone_candidates_scan_as_the_reference(self, dtype, n, candidates):
        dist = np.full(n, 200)
        dist[candidates] = 0
        hits = [
            scans_as_reference(dist, 0.0, 1.0, lambda: NoiseSource(seed), seed, dtype)
            for seed in range(40)
        ]
        assert set(hits) == {None, *candidates}

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_jump_stops_at_the_window_end(self, dtype, offset):
        # Counting windows of 100 starts, hopeless but for one distance at
        # offset -1, 0 or 1 from the first window's end, hi = 100. A search
        # that ran past hi would serve draws of the next window's distances
        # in this window's scan; the reference reads hi - lo draws at most.
        dist = np.full(400, 200)
        dist[100 + offset] = 0
        windows = tuple((a, a + 100, (a, a + 163)) for a in range(0, 400, 100))
        seen = {
            windows_as_reference(dist, 0.0, 1.0, windows, 5, seed, dtype)
            for seed in range(40)
        }
        assert seen == {(0, None), (1, 100 + offset)}

    def test_reversed_view(self, dtype):
        # A reporting window's backward scan reads a negative-stride view.
        base = np.full(3000, 200)
        base[[20, 1500, 1501, 2960]] = 0

        def view(dist):
            backward = dist[10:2990][::-1]
            assert backward.strides[0] < 0
            return backward

        hits = {
            scans_as_reference(base, 0.0, 1.0, lambda: NoiseSource(seed), seed, dtype, view)
            for seed in range(40)
        }
        assert hits == {None, 29, 1488, 1489, 2969}

    @pytest.mark.parametrize("thresh", [-1e20, -1e21])
    def test_tiny_epsilon_bound_past_int64(self, dtype, thresh):
        # At eps = 1e-18 the draws' reach, UNIT_BOUND * 4e18, is past the
        # int64 range. At thresh -1e20 a noisy threshold plus that reach is
        # above it and every distance might hit, so none is pruned; at
        # -1e21 it is below it and every distance is pruned. No scan hits
        # (a hit needs a unit below -24), and neither raises.
        refill = NoiseSource._refill
        dist = np.arange(5000) % 300
        for seed in range(4):
            made = []  # the units each source's refills transformed

            def source():
                src, transformed = NoiseSource(seed), []

                def spy(short):
                    left = len(src._units) - src._next
                    refill(src, short)
                    transformed.append(len(src._units) - left)

                src._refill = spy
                made.append(transformed)
                return src

            assert scans_as_reference(dist, thresh, 1e-18, source, seed, dtype) is None
            transformed = made[-1]  # the kernel's source is the last made
            if thresh == -1e20:
                assert sum(transformed) >= len(dist)
            else:  # the threshold and head, then the next draw's block
                assert sum(transformed) <= 4 * matchers._HEAD

    def test_bound_past_the_uint16_range(self, dtype):
        # At eps = 4 (distance noise scale 1) the bound lies about 36 above
        # the noisy threshold, 65,520: above 65,535, the uint16 maximum, so
        # no distance is pruned. The distances of 65,519 each hit about half
        # the time, and those of 65,535 never do. (The tiny-epsilon cases
        # put the bound past 2**64 and below 0.)
        dist = np.full(3000, 65_535)
        dist[[100, 2000]] = 65_519
        hits = {
            scans_as_reference(
                dist, 65_520.0, 4.0, lambda: NoiseSource(seed), seed, dtype
            )
            for seed in range(40)
        }
        assert hits == {None, 100, 2000}

    def test_infinite_reach(self, dtype):
        # At eps = 1e-307 the draws' reach overflows to inf, and so does a
        # draw past about 4.5 units (numpy warns of that overflow): every
        # distance might hit, nothing is pruned and the bound raises nothing.
        with np.errstate(over="ignore"):
            hits = [
                scans_as_reference(
                    np.zeros(2000, np.int64), -1.5e308, 1e-307,
                    lambda: NoiseSource(seed), seed, dtype,
                )
                for seed in range(40)
            ]
        assert any(hit is None or hit > matchers._HEAD for hit in hits)

    def test_huge_epsilon(self, dtype):
        # At eps = 1e12 the draws reach about 1.4e-10: a distance of 50
        # against the threshold 50 hits on about half the draws, 51 never.
        rng = np.random.default_rng(5)
        for seed in range(40):
            dist = rng.choice([50, 51, 51, 51, 60, 300], 3000)
            dist[:100] = 51
            hit = scans_as_reference(
                dist, 50.0, 1e12, lambda: NoiseSource(seed), seed, dtype
            )
            assert hit is None or dist[hit] == 50

    def test_distance_at_the_bound_is_compared(self, dtype, monkeypatch):
        # With the bound tightened to the largest unit there is, 52 ln 2, a
        # distance d with d - bound * d_scale == noisy hits on the one draw
        # that reaches the bound, so the kernel must compare it, not prune
        # it. eps = 4 gives d_scale = 1, and every unit but that draw is 0.
        bound = -uniform_source({0: 2.0**-53}).laplace(1.0)
        assert abs(bound) <= UNIT_BOUND
        monkeypatch.setattr(matchers, "UNIT_BOUND", bound)
        dist = np.full(100, 1000)
        dist[40] = 100
        thresh = 100 - bound * 1.0  # noisy == thresh: its unit is 0
        assert dist[40] - bound * 1.0 == thresh
        chosen = {1 + 40: 2.0**-53}  # draw 0 is the threshold's
        stream = ("uniform", tuple(chosen.items()))
        hit = scans_as_reference(
            dist, thresh, 4.0, lambda: uniform_source(chosen), stream, dtype
        )
        assert hit == 40

    def test_hopeless_scan_transforms_only_its_head(self, dtype, monkeypatch):
        # 30,000 distances that no draw can bring below the threshold: the
        # threshold and head draws are transformed, and at most one more
        # block, while the rest are skipped by jumping the generator.
        transformed = []
        refill = NoiseSource._refill

        def spy(src, short):
            left = len(src._units) - src._next
            refill(src, short)
            transformed.append(len(src._units) - left)

        dist = np.full(30_000, 200, dtype)
        src = NoiseSource(3)
        with monkeypatch.context() as patch:
            patch.setattr(NoiseSource, "_refill", spy)
            hits, first, records = below_thresh(dist, 0.0, *scales(1.0), src, whole(dist))
        assert (hits, first) == (0, None)
        assert sum(transformed) <= 2 * matchers._HEAD + noise_module._MAX_BLOCK
        ref_src, ref_ledger = NoiseSource(3), RefLedger(1.0)
        assert ref_below_thresh(dist.tolist(), 0.0, 1, ref_src, ref_ledger, (0, 30_000)) is None
        ref_ledger.assert_matches(records, 1)
        assert src.laplace(1.0) == ref_src.laplace(1.0)


class TestExistence:
    def test_exact_occurrence_found(self):
        query = MatchQuery(b"abra", 0, 1.0, 0.1)
        outcome = plan(b"abracadabra", query, "existence").outcome(zero_src())
        assert outcome.found and outcome.witness == 0
        assert outcome.answer == "YES"

    def test_small_n_forces_yes(self):
        # Threshold ~ 60.6 exceeds m = 4, so every window qualifies even
        # over a disjoint alphabet.
        n, m = 100, 4
        thresh = error_contract("existence", n, m, 0, 1.0, 0.1).threshold
        assert thresh >= m
        query = MatchQuery(b"bbbb", 0, 1.0, 0.1)
        outcome = plan(b"a" * n, query, "existence").outcome(zero_src())
        assert outcome.found

    def test_large_text_disjoint_alphabet_says_no(self):
        n, m = 10**4, 300
        thresh = error_contract("existence", n, m, 0, 1.0, 0.1).threshold
        assert thresh < m
        query = MatchQuery(b"b" * m, 0, 1.0, 0.1)
        outcome = plan(b"a" * n, query, "existence").outcome(zero_src())
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
        query = MatchQuery(pattern, 8, 2.0, 0.1)
        outcome = plan(text, query, "existence").outcome(NoiseSource(1))
        assert not outcome.found
        assert calls == [("_shifted_add", 29745)]

    def test_budget_charged_exactly_epsilon(self):
        query = MatchQuery(b"ab", 1, 0.7, 0.1)
        prepared = matchers._prepare_existence(b"abab", query)
        _, ledger = run_half(prepared, NoiseSource(3), 0.7)
        assert set(spent_by_position(ledger).values()) == {Fraction(0.7)}
        assert ledger.max_spent == Fraction(0.7)

    @pytest.mark.parametrize("epsilon, beta", [(1e-310, 0.1), (1.0, 1e-320)])
    def test_overflowing_threshold_rejected(self, epsilon, beta):
        # An infinite threshold would meet infinite noise (inf - inf = nan)
        # and answer NO despite the exact match. The deterministic half
        # refuses it, so no seed can run (dispatch refuses it first, on its
        # period scale).
        query = MatchQuery(b"ab", 0, epsilon, beta)
        with pytest.raises(ValueError, match="not finite"):
            matchers._prepare_existence(b"abab", query)


class TestErrorContract:
    @pytest.mark.parametrize(
        "matcher, n, m, k, epsilon, beta, message",
        [
            ("count_nonperiodic", 5, 10, 1, 1.0, 0.1, "exceeds text length"),
            ("existence", 100, 10, 11, 1.0, 0.1, "outside"),
            ("report_periodic", 100, 10, -1, 1.0, 0.1, "outside"),
            ("count_nonperiodic", 100, 10, 0, 1.0, 0.1, r"k=0 outside \[1, "),
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

    @pytest.mark.parametrize("epsilon", [0.5, 3.0])
    @pytest.mark.parametrize("n, m", [(64, 8), (300, 16)])
    def test_share_is_what_the_reference_scans_pay(self, n, m, epsilon):
        # Each row's share is the one conftest's one-at-a-time reference
        # scans pay: existence, periodic reporting, and counting at k = 1,
        # 2, the small-k cutoff and a k above m.
        def row(matcher, k):
            return error_contract(matcher, n, m, k, epsilon, 0.1).share

        rng = random.Random(n + m)
        text = bytes(rng.choice(b"ab") for _ in range(n))
        query = MatchQuery(text[:m], 1, epsilon, 0.1)
        ledger = RefLedger(epsilon)
        ref_existence(text, query, NoiseSource(3), ledger)
        assert ledger.shares() == {row("existence", 1)}
        periodic = MatchQuery(tile(b"ab", m), 1, epsilon, 0.1)
        candidate = PeriodicCandidate(2, b"ab", 0)
        ledger = RefLedger(epsilon)
        ref_report_periodic(tile(b"ab", n), periodic, candidate, NoiseSource(3), ledger)
        assert ledger.shares() == {row("report_periodic", 1)}
        for k in (1, 2, small_k_cutoff(n, epsilon, 0.1), m + 3):
            ledger = RefLedger(epsilon)
            ref_count_nonperiodic(text, query, NoiseSource(3), ledger, k)
            assert ledger.shares() == {row("count_nonperiodic", k)}
        # The trivial reporter scans nothing; its ledger holds no record.
        assert row("trivial_all", 1) == 1

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
        prepared = matchers._prepare_report(text, query, candidate)
        outcome, _ = run_half(prepared, zero_src(), query.epsilon)
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
        prepared = matchers._prepare_report(text, query, candidate)
        outcome, _ = run_half(prepared, zero_src(), query.epsilon)
        assert outcome.positions == ()

    def test_candidate_distance_validated(self):
        query = MatchQuery(tile(b"ab", 8), 0, 1.0, 0.1)
        bad = PeriodicCandidate(2, b"ab", 3)
        with pytest.raises(ValueError, match="candidate distance"):
            matchers._prepare_report(tile(b"ab", 16), query, bad)

    def test_requires_m_at_least_two(self):
        query = MatchQuery(b"a", 0, 1.0, 0.1)
        with pytest.raises(ValueError, match="m >= 2"):
            matchers._prepare_report(b"aaaa", query, PeriodicCandidate(1, b"a", 0))

    def test_budget_within_cap(self):
        text = tile(b"ab", 101)
        pattern = tile(b"ab", 8)
        query = MatchQuery(pattern, 1, 0.9, 0.1)
        prepared = matchers._prepare_report(text, query, PeriodicCandidate(2, b"ab", 0))
        _, ledger = run_half(prepared, NoiseSource(1), 0.9)
        # Interior positions sit in 3 windows at 2 scans of epsilon/6 each,
        # so the exact rational maximum is the full query budget.
        assert ledger.max_spent == Fraction(0.9)

    def test_charges_every_window_position_twice(self):
        text = tile(b"ab", 101)
        query = MatchQuery(tile(b"ab", 8), 1, 0.9, 0.1)
        candidate = PeriodicCandidate(2, b"ab", 0)
        prepared = matchers._prepare_report(text, query, candidate)
        _, ledger = run_half(prepared, NoiseSource(1), 0.9)
        expected: dict[int, Fraction] = {}
        for a, b in periodic_cover(len(text), query.m):
            for p in range(a, b + 1):
                expected[p] = expected.get(p, Fraction(0)) + 2 * Fraction(0.9) / 6
        assert spent_by_position(ledger) == expected


class TestCountNonPeriodic:
    def test_zero_noise_counts_exact(self):
        query = MatchQuery(b"abra", 1, SHARP_EPSILON, 0.1)
        outcome = plan(b"abracadabra", query, "count").outcome(zero_src())
        assert outcome.count == 2
        assert outcome.witness in (0, 7)

    def test_zero_noise_disjoint_alphabet(self):
        query = MatchQuery(b"bbbb", 1, SHARP_EPSILON, 0.1)
        outcome = plan(b"a" * 40, query, "count").outcome(zero_src())
        assert outcome.count == 0
        assert outcome.witness is None
        assert outcome.raw_count == 0

    def test_window_cap_reached(self):
        # A single window with more qualifying starts than the cap: the
        # window must contribute exactly 1152 * k. (Dispatch would report
        # this periodic pattern.)
        m = 1200
        text = b"a" * (2 * m - 1)
        query = MatchQuery(b"a" * m, 1, SHARP_EPSILON, 0.1)
        prepared = matchers._prepare_count(text, query, query.k)
        outcome, _ = run_half(prepared, zero_src(), query.epsilon)
        assert outcome.count == 1152

    def test_rejects_k_zero(self):
        query = MatchQuery(b"abra", 0, 1.0, 0.1)
        with pytest.raises(ValueError, match="k >= 1"):
            matchers._prepare_count(b"abracadabra", query, query.k)

    def test_count_clamped_to_window_count(self):
        # Real thresholds at tiny n are astronomically permissive, so every
        # start in every window hits; the clamp keeps the public contract.
        text = tile(b"ab", 64)
        query = MatchQuery(b"ab", 1, 1.0, 0.1)
        outcome = plan(text, query, "count").outcome(NoiseSource(4))
        assert 0 <= outcome.count <= len(text) - 2 + 1
        assert outcome.raw_count >= outcome.count

    def test_budget_within_cap(self):
        query = MatchQuery(b"ab", 2, 1.3, 0.1)
        prepared = matchers._prepare_count(tile(b"ab", 50), query, 2)
        _, ledger = run_half(prepared, NoiseSource(9), 1.3)
        assert ledger.max_spent <= Fraction(1.3)


class TestCountSmallK:
    def test_zero_noise_cutoff_bounds(self):
        text = tile(b"ab", 40) + b"cc" + tile(b"ab", 18)
        pattern = tile(b"ab", 6)
        query = MatchQuery(pattern, 1, SHARP_EPSILON, 0.1)
        cutoff = 3
        prepared = matchers._prepare_count(text, query, cutoff)
        outcome, _ = run_half(prepared, zero_src(), query.epsilon)
        assert outcome.count >= exact_count(text, pattern, query.k)
        assert outcome.count <= exact_count(text, pattern, min(cutoff, len(pattern)))

    def test_effective_k_below_k_rejected(self):
        # One window at distance k = 3: a budget of 1 would lower the
        # threshold below it and count 0 in place of 1.
        text, query = b"abbb" + b"c" * 8, MatchQuery(b"aaaa", 3, 1e9, 0.1)
        assert plan(text, query, "count").outcome(zero_src()).count == 1
        prepared = matchers._prepare_count(text, query, 3)
        assert run_half(prepared, zero_src(), query.epsilon)[0].count == 1
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
        plan(text, MatchQuery(b"ab", 1, 1.3, 0.1), "existence").outcome(NoiseSource(9))
        assert calls == [(text, b"ab")]

    def test_report_periodic(self, calls):
        text, pattern = tile(b"ab", 101), tile(b"ab", 8)
        query = MatchQuery(pattern, 1, 0.9, 0.1)
        prepared = matchers._prepare_report(text, query, PeriodicCandidate(2, b"ab", 0))
        run_half(prepared, NoiseSource(1), query.epsilon)
        assert calls == [(text, pattern)]

    def test_count_nonperiodic(self, calls):
        # A counting plan fills its distances when a run first needs them,
        # at most once: never while the noise bound decides every run (a
        # threshold of about 1.8e5 against m = 2), and once for every run
        # and tally the noise decides.
        text = tile(b"ab", 50)
        prepared = plan(text, MatchQuery(b"ab", 2, 1.3, 0.1), "count")
        src = NoiseSource(9)
        prepared.run(src)
        prepared.tally(src, 300)
        assert calls == []
        decided = noise_decided_count(300)
        src = NoiseSource(9)
        for _ in range(3):
            decided.run(src)
        decided.tally(src, 5)
        assert len(calls) == 1

    def test_count_fills_from_the_text_it_was_planned_on(self):
        # A counting plan fills its distances at its first run, from copies
        # of a mutable text and pattern taken when it was planned.
        text, query = noise_decided_query(300)
        mutable = bytearray(text), bytearray(query.pattern)
        prepared = plan(
            mutable[0], MatchQuery(mutable[1], query.k, query.epsilon, 0.1), "count"
        )
        mutable[0][:], mutable[1][:] = b"b" * 300, b"a" * 16
        want = plan(text, query, "count")
        for seed in range(3):
            got = prepared.run(NoiseSource(seed)).outcome
            assert got == want.run(NoiseSource(seed)).outcome


def noise_decided_query(n):
    """``n`` random binary bytes and a counting query whose threshold, at
    k = 2, sits among the distances (4 to 13, m = 16): the noise decides
    its scans, and no run is uniform."""
    rng = random.Random(3)
    text = bytes(rng.choice(b"ab") for _ in range(n))
    pattern = bytes(rng.choice(b"ab") for _ in range(16))
    cap = matchers.WINDOW_OCCURRENCE_CAP * 2
    logs = math.log(16) + math.log(2.0 * (n / 16) * cap / 0.1)
    return text, MatchQuery(pattern, 2, 16.0 * cap * logs / 3.0, 0.1)


def noise_decided_count(n):
    """The counting plan of `noise_decided_query`."""
    return plan(*noise_decided_query(n), "count")


class TestOneCapCheckPerQuery:
    """A scanning plan checks the cap once, while it is prepared, on the
    records that bound every run's, and a run whose records they are
    answers with that ledger; only a counting run that the noise decides
    builds and checks its own."""

    @pytest.fixture
    def checked(self):
        with cap_checks() as checked:
            yield checked

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
        # The checked records are the ones every run makes: the one
        # existence scan, both scans of every reporting window, the uniform
        # count. Each run answers with the checked ledger itself.
        prepared = plan(text, query, variant)
        [paid] = checked
        src = NoiseSource(2)
        assert prepared.run(src).ledger is paid
        assert prepared.run(src).ledger is paid
        prepared.tally(NoiseSource(2), 5)
        assert checked == [paid]
        assert (paid.epsilon, paid.share) == (query.epsilon, prepared.contract.share)

    def test_one_check_per_counting_shape(self, checked):
        # A counting plan certifies each public shape (n, m, k, epsilon,
        # beta and the contract row) once per process: a second plan of the
        # same shape, on another text, checks no cap and answers with the
        # same ledger; another epsilon is another shape.
        rng = random.Random(8)
        one, two = (bytes(rng.choice(b"acgt") for _ in range(600)) for _ in "12")
        query = MatchQuery(bytes(rng.choice(b"acgt") for _ in range(64)), 3, 1.0, 0.1)
        first = plan(one, query, "count")
        [paid] = checked
        second = plan(two, query, "count")
        assert checked == [paid]
        assert first.run(NoiseSource(1)).ledger is paid
        assert second.run(NoiseSource(1)).ledger is paid
        plan(two, MatchQuery(query.pattern, 3, 2.0, 0.1), "count")
        assert len(checked) == 2 and checked[1].epsilon == 2.0

    def test_trivial_path_checks_nothing(self, checked):
        # Every run of the trivial reporter answers with one empty ledger.
        query = MatchQuery(b"a", 1, 1.0, 0.1)
        prepared = plan(b"abcdefghij", query)
        one, two = prepared.run(NoiseSource(2)), prepared.run(NoiseSource(3))
        assert one.regime is Regime.TRIVIAL_FALLBACK
        assert one.ledger is two.ledger
        assert one.ledger.records == () and one.ledger.max_spent == 0
        assert checked == []

    def test_count_the_noise_decides_checks_each_run(self, checked, monkeypatch):
        # Through run and through tally, each run's own ledger is checked,
        # and a check that finds it overspent raises.
        prepared = noise_decided_count(400)
        [paid] = checked
        result = prepared.run(NoiseSource(1))
        assert result.outcome.raw_count < 385
        assert checked == [paid, result.ledger] and result.ledger is not paid
        del checked[:]
        prepared.tally(NoiseSource(1), 3)
        assert len(checked) == 3
        assert checked[0].records == result.ledger.records
        assert all(ledger.records != paid.records for ledger in checked)
        monkeypatch.setattr(BudgetLedger, "_peak", lambda ledger: ledger.share + 1)
        with pytest.raises(matchers.PrivacyBudgetExceeded):
            prepared.run(NoiseSource(1))
        with pytest.raises(matchers.PrivacyBudgetExceeded):
            prepared.tally(NoiseSource(1), 3)

    @pytest.mark.parametrize(
        "text, query, variant, budget_max",
        [
            (b"abracadabra", MatchQuery(b"abra", 0, 1.0, 0.1), "existence", 1.0),
            (tile(b"ab", 100), MatchQuery(tile(b"ab", 64), 1, 1000.0, 0.1), "auto",
             1000.0 * 4 / 6),
            (b"abcdefghij", MatchQuery(b"a", 1, 1.0, 0.1), "report", 0.0),
            (b"abababab", MatchQuery(b"ba", 1, 1.0, 0.1), "count", 3 / 2304),
        ],
        ids=["existence", "report_periodic", "trivial_all", "count_nonperiodic"],
    )
    def test_record_reads_the_checked_peak(
        self, monkeypatch, text, query, variant, budget_max
    ):
        # A run whose records the plan fixed answers with a ledger whose
        # peak was swept once, when it was built, so its record sweeps
        # nothing; a run the noise decides sweeps its own ledger once, when
        # it builds it.
        prepared = plan(text, query, variant)
        decided = noise_decided_count(400)
        swept = []
        sweep = BudgetLedger._peak

        def recording(ledger):
            swept.append(ledger)
            return sweep(ledger)

        monkeypatch.setattr(BudgetLedger, "_peak", recording)
        result = prepared.run(NoiseSource(2))
        assert result.to_record(query)["budget_max"] == budget_max
        assert swept == []
        ledger = result.ledger
        assert ledger.max_spent == Fraction(ledger.epsilon) * sweep(ledger) / ledger.share
        result = decided.run(NoiseSource(1))
        assert result.outcome.raw_count < 385
        result.to_record(query)
        assert swept == [result.ledger]

    @pytest.mark.parametrize(
        "prepare, n",
        [
            (lambda: plan(b"abracadabra", MatchQuery(b"abra", 0, 1.0, 0.1), "existence"),
             11),
            (lambda: plan(tile(b"ab", 100), MatchQuery(tile(b"ab", 64), 1, 1000.0, 0.1)),
             100),
            (lambda: plan(b"abcdefghij", MatchQuery(b"a", 1, 1.0, 0.1), "report"), 10),
            (lambda: plan(b"abababab", MatchQuery(b"ba", 1, 1.0, 0.1), "count"), 8),
            (lambda: plan(tile(b"ab", 400), MatchQuery(tile(b"ab", 256), 1, 50.0, 0.1),
                          "count"), 400),
            (lambda: noise_decided_count(400), 400),
        ],
        ids=["existence", "report_periodic", "trivial_all", "count_nonperiodic",
             "count_small_k", "count_noise_decided"],
    )
    def test_every_ledger_holds_well_formed_records(self, checked, prepare, n):
        # A ledger stores its records as given, unchecked, so the plans and
        # the kernel are what keep them well formed: plain ints, a run of at
        # least one scan, and every scan of a length-n text starting inside
        # it and before its stop, which is at most n.
        prepared = prepare()
        results = [prepared.run(NoiseSource(seed)) for seed in (1, 2)]
        prepared.tally(NoiseSource(3), 5)
        ledgers = [*checked, *(result.ledger for result in results)]
        for ledger in ledgers:
            assert type(ledger.records) is tuple
            for record in ledger.records:
                assert [type(value) for value in record] == [int, int, int]
                start, runs, stop = record
                assert 0 <= start and 1 <= runs and start + runs <= stop <= n


class TestRefusedAtPlanTime:
    """Where the cap binds, a `CONTRACTS` row whose share is one too small is
    refused while the query is prepared, before the source serves or peeks a
    draw."""

    @staticmethod
    def periodic():
        # Both scans of 3 windows cover the middle positions: 6 = the share.
        return tile(b"ab", 400), MatchQuery(tile(b"ab", 128), 2, 600.0, 0.1)

    @staticmethod
    def counting():
        # m = 2000 > 1152 k: each of 2 windows starts 1152 scans that cover
        # position 3151, 2304 = the share.
        rng = random.Random(4)
        text = bytes(rng.choice(b"acgt") for _ in range(6000))
        pattern = bytes(rng.choice(b"acgt") for _ in range(2000))
        return text, MatchQuery(pattern, 1, 1.0, 0.1)

    @pytest.mark.parametrize(
        "case, matcher",
        [(periodic, "report_periodic"), (counting, "count_nonperiodic")],
        ids=["periodic", "counting"],
    )
    def test_lowered_share_draws_nothing(self, monkeypatch, case, matcher):
        text, query = case()
        assert plan(text, query).matcher == matcher
        result = match_auto(text, query, NoiseSource(7))
        assert result.to_record(query)["budget_max"] == query.epsilon
        lower_share(monkeypatch, matcher)
        with pytest.raises(matchers.PrivacyBudgetExceeded):
            plan(text, query)
        src = PeekLog(7)
        with pytest.raises(matchers.PrivacyBudgetExceeded):
            match_auto(text, query, src)
        assert src.peeks == []
        assert src.laplace(1.0) == NoiseSource(7).laplace(1.0)


class TestNoRunOutspendsTheUniformRecords:
    """The certificate a counting plan checks: no run, whatever the noise,
    covers a position with more scans than the uniform run's records."""

    @given(
        size=st.integers(1, 60),
        m=st.integers(1, 6),
        cap=st.sampled_from([1, 2, 3, matchers.WINDOW_OCCURRENCE_CAP]),
        data=st.data(),
        above=st.floats(0.5, 3.5),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_cover_is_bounded(self, size, m, cap, data, above, seed):
        # Binary texts, a window cap that may cut windows, and a threshold
        # ``above`` over k, among the distances: the noise decides where
        # scans hit, so runs start their scans at many different places.
        k = data.draw(st.integers(1, m))
        text = data.draw(st.binary(min_size=size + m - 1, max_size=size + m - 1))
        text = bytes(b"ab"[c & 1] for c in text)
        pattern = data.draw(st.binary(min_size=m, max_size=m))
        pattern = bytes(b"ab"[c & 1] for c in pattern)
        n, scans = len(text), cap * k
        logs = math.log(m) + math.log(2.0 * (n / m) * scans / 0.1)
        query = MatchQuery(pattern, k, 16.0 * scans * logs / above, 0.1)
        with pytest.MonkeyPatch.context() as patch, cap_checks() as checked:
            patch.setattr(matchers, "WINDOW_OCCURRENCE_CAP", cap)
            prepared = matchers._prepare_count(text, query, k)
        [paid] = checked
        bound = spent_by_position(paid)
        src = NoiseSource(seed)
        for _ in range(4):
            _, ledger = run_half(prepared, src, query.epsilon)
            spent = spent_by_position(ledger)
            assert all(spent[p] <= bound.get(p, 0) for p in spent)


class TestTrivialAll:
    def test_all_positions(self):
        query = MatchQuery(b"abcd", 1, 1.0, 0.1)
        outcome, ledger = run_half(
            matchers._prepare_trivial(b"0123456789", query), None, query.epsilon
        )
        assert outcome.positions == tuple(range(7))
        assert ledger.max_spent == 0

    def test_single_position(self):
        query = MatchQuery(b"abcd", 1, 1.0, 0.1)
        prepared = matchers._prepare_trivial(b"wxyz", query)
        assert run_half(prepared, None, query.epsilon)[0].positions == (0,)


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

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "text, query, regime",
        [
            (tile(b"ab", 100), MatchQuery(tile(b"ab", 64), 1, 1000.0, 0.1),
             Regime.PERIODIC_REPORTING),
            (b"abab" * 10, MatchQuery(b"ab", 1, 1.0, 0.1), Regime.NON_PERIODIC_COUNTING),
            (tile(b"ab", 400), MatchQuery(tile(b"ab", 256), 1, 50.0, 0.1),
             Regime.SMALL_K_COUNTING),
            (b"abcdefghij", MatchQuery(b"a", 1, 1.0, 0.1), Regime.TRIVIAL_FALLBACK),
        ],
        ids=["periodic", "non-periodic", "small-k", "trivial"],
    )
    def test_ledger_share_is_the_contract_share(self, text, query, regime, variant):
        # A run's ledger, the one its plan checks and any a tally checks
        # are built for the share of the contract of the matcher that runs.
        with cap_checks() as checked:
            prepared = plan(text, query, variant)
            shares = [ledger.share for ledger in checked]
            scans = prepared.matcher != "trivial_all"
            assert shares == [prepared.contract.share] * scans
            result = prepared.run(NoiseSource(4))
            prepared.tally(NoiseSource(4), 3)
        assert plan(text, query).regime is regime
        assert result.ledger.share == prepared.contract.share
        assert result.contract is prepared.contract
        assert {ledger.share for ledger in checked} <= {prepared.contract.share}

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
        # kernel that served one unit too many or too few at a block
        # boundary would shift every later query's draws.
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
    """A real source that logs the length of every peek, at ``units`` or
    at raw ``uniforms``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.peeks = []

    def units(self, count):
        self.peeks.append(count)
        return super().units(count)

    def uniforms(self, count):
        self.peeks.append(count)
        return super().uniforms(count)


def counts_as_reference(text, query, k_eff, src):
    """Count on ``src`` and with the one-at-a-time reference counter on a
    fresh source of the same seed: the same outcome, the same ledger run
    records and the same next draw. Returns the outcome and the records."""
    prepared = matchers._prepare_count(text, query, k_eff)
    outcome, ledger = run_half(prepared, src, query.epsilon)
    ref_src, ref_ledger = NoiseSource(src.seed), RefLedger(query.epsilon)
    expected = ref_count_nonperiodic(text, query, ref_src, ref_ledger, k_eff)
    assert outcome_tuple(outcome) == expected
    ref_ledger.assert_matches(ledger.records, ledger.share)
    assert src.laplace(1.0) == ref_src.laplace(1.0)
    return outcome, ledger.records


def kernel_as_reference(text, query, k_eff, src):
    """`below_thresh` called directly over the counter's windows on ``src``
    (so it runs even where a counting run would be decided in one compare),
    and the one-at-a-time reference counter on a fresh source of the same
    seed: the same hits and first hit, the same ledger run records and the
    same next draw. Returns the hits, the first hit and the records."""
    n, m = len(text), query.m
    cap = matchers.WINDOW_OCCURRENCE_CAP * k_eff
    contract = error_contract(
        "count_nonperiodic", n, m, k_eff, query.epsilon, query.beta
    )
    windows = tuple((a, b - m + 2, (a, b + 1)) for a, b in counting_cover(n, m))
    hits, first, records = below_thresh(
        distance_array(text, query.pattern), contract.threshold,
        *scales(query.epsilon, contract.share), src, windows, cap,
    )
    ref_src, ref_ledger = NoiseSource(src.seed), RefLedger(query.epsilon)
    _, _, witness, total = ref_count_nonperiodic(text, query, ref_src, ref_ledger, k_eff)
    assert (hits, first) == (total, witness)
    ref_ledger.assert_matches(records, contract.share)
    assert src.laplace(1.0) == ref_src.laplace(1.0)
    return hits, first, records


class TestBatchAcrossWindows:
    """Counting scans across window boundaries: a counting run compares the
    first distances of all its windows' scans in one batch, and the kernel,
    called directly, runs them one at a time. Each case matches the
    one-at-a-time reference counter seed for seed."""

    @staticmethod
    def sharp_query(pattern, n, k):
        # The threshold is k + 1/2, about 30 distance-noise scales above k:
        # a distance of at most k hits at once, and one above k misses.
        offset = error_contract("count_nonperiodic", n, len(pattern), k, 1.0, 0.1)
        return MatchQuery(pattern, k, (offset.threshold - k) / 0.5, 0.1)

    def test_batch_ends_on_a_window_boundary(self):
        # Every distance is 0, so every scan hits at its first distance: the
        # kernel runs them one at a time, peeking at nothing, and charges
        # each window's scans as one run record.
        n, m = 60, 8
        query = self.sharp_query(b"a" * m, n, 1)
        src = PeekLog(3)
        hits, _, runs = kernel_as_reference(b"a" * n, query, 1, src)
        assert hits == n - m + 1
        assert src.peeks == []
        assert runs == [
            (a, min(a + m, n - m + 1) - a, b + 1) for a, b in window_cover(n, m, m)
        ]
        # A counting run decides it all in one peek of two units a scan.
        src = PeekLog(3)
        outcome, _ = counts_as_reference(b"a" * n, query, 1, src)
        assert outcome.raw_count == n - m + 1
        assert src.peeks == [2 * (n - m + 1)]

    def test_miss_at_the_next_window_first_start(self):
        # The distance is the number of b's in a window: 0 up to start 6, 1 at
        # 7, 2 from 8 to 14 and 1 at 15. Window 0's scans all hit at once;
        # window 1's first scan misses at its first start, 8, runs one
        # distance at a time, hits at 15 and stops at the window's end.
        text = b"a" * 14 + b"bb" + b"a" * 18
        query = self.sharp_query(b"a" * 8, len(text), 1)
        hits, first, runs = kernel_as_reference(text, query, 1, NoiseSource(0))
        assert runs[:3] == [(0, 8, 15), (8, 1, 23), (16, 8, 31)]
        assert (hits, first) == (len(text) - 8 + 1 - 7, 0)
        # A counting run tries the one compare, which fails, and then runs
        # the kernel from the same cursor.
        src = PeekLog(0)
        outcome, _ = counts_as_reference(text, query, 1, src)
        assert (outcome.raw_count, outcome.witness) == (hits, first)
        assert src.peeks[0] == 2 * (len(text) - 8 + 1)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [4999, 5000])
    def test_where_the_noise_decides(self, n, seed):
        # About 11.5 b's in a window of 64 against a threshold of 13.9: the
        # noise decides many scans, and (seed 1) one misses at the next
        # window's first start.
        rng = random.Random(seed)
        text = bytes(b"b"[0] if rng.random() < 0.18 else b"a"[0] for _ in range(n))
        query = MatchQuery(b"a" * 64, 3, 1e5, 0.1)
        outcome, _ = counts_as_reference(text, query, 3, NoiseSource(seed))
        assert 0 < outcome.raw_count < n - 64 + 1

    def test_batches_keep_each_window_cap(self):
        # Every distance is 0 and the noise negligible, so each window's
        # scans hit at once up to its cap of 50: a short window followed by
        # one longer than the cap, and a window the cap cuts, where its
        # scans must stop.
        bounds = [(0, 50), (50, 100), (100, 110), (110, 300), (300, 340),
                  (340, 380), (380, 480)]
        windows = tuple((lo, hi, (lo, hi + 7)) for lo, hi in bounds)
        src = NoiseSource(1)
        hits = [min(hi - lo, 50) for lo, hi in bounds]
        scans = sum(hits)
        dist = np.zeros(480, np.int64)
        assert below_thresh(dist, 0.5, *scales(1e9), src, windows, 50) == (
            scans, 0, [(lo, h, hi + 7) for (lo, hi), h in zip(bounds, hits)]
        )
        ref = NoiseSource(1)
        ref.units(2 * scans)
        ref.skip(2 * scans)
        assert src.laplace(1.0) == ref.laplace(1.0)

    def test_batch_reaches_the_block_cap(self):
        # A desk query (m = 64, k = 3, eps = 1: every scan hits at once)
        # whose chain of first distances is longer than three blocks: a run
        # peeks at all its draws once and compares them in chunks of _BLOCK
        # scans.
        rng = random.Random(6)
        n = 3 * matchers._BLOCK + 200
        text = bytes(rng.choice(b"acgt") for _ in range(n))
        query = MatchQuery(bytes(rng.choice(b"acgt") for _ in range(64)), 3, 1.0, 0.1)
        src = PeekLog(6)
        outcome, runs = counts_as_reference(text, query, 3, src)
        assert outcome.raw_count == n - 64 + 1
        assert len(runs) == len(window_cover(n, 64, 64))
        assert src.peeks == [2 * (n - 64 + 1)]

    def test_count_desk_run_peeks_once(self, monkeypatch):
        # The count-desk query: 2437 scans over 39 windows, each hitting at
        # its first distance. A run compares them all in one peek and never
        # calls the kernel; the kernel, called directly, runs them one at a
        # time and peeks at nothing.
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
        result = prepared.run(src)
        assert result.outcome == CountOutcome(2437, 0, 2437)
        assert calls == [] and src.peeks == [2 * 2437]
        assert len(result.ledger.records) == 39
        src = PeekLog(1)
        assert kernel_as_reference(text, query, 3, src)[0] == 2437
        assert src.peeks == []


def tallies_as_reference(text, query, k_eff, seed, runs):
    """``runs`` counting runs on one source, as consecutive runs and as one
    batch, against as many one-at-a-time reference counts on a source of the
    same seed: the same outcomes, the same run records and the same next
    draw. The plan checks the uniform run's records (every scan hit at its
    first distance) once. The batch builds no ledger for the runs its
    compare finds uniform, and checks the ledger of each run it counts
    through the kernel, every run that is not uniform among them, which
    holds that run's records. Only a run with the uniform run's records and
    outcome may answer with the plan's ledger. Returns the tally."""
    with cap_checks() as checked:
        prepared = matchers._prepare_count(text, query, k_eff)
    n, m = len(text), query.m
    cap = matchers.WINDOW_OCCURRENCE_CAP * k_eff
    uniform = tuple(
        (a, min(b - m + 2 - a, cap), b + 1)
        for a, b in counting_cover(n, m)
        if b - m + 2 > a
    )
    [paid] = checked
    assert (paid.share, paid.records) == (prepared[0].share, uniform)
    size = sum(runs for _, runs, _ in uniform)
    src, ref_src = NoiseSource(seed), NoiseSource(seed)
    want, odd = Counter(), []
    for _ in range(runs):
        ref_ledger = RefLedger(query.epsilon)
        _, count, witness, raw = ref_count_nonperiodic(
            text, query, ref_src, ref_ledger, k_eff
        )
        outcome, ledger = run_half(prepared, src, query.epsilon)
        assert outcome == CountOutcome(count, witness, raw)
        ref_ledger.assert_matches(ledger.records, ledger.share)
        want[outcome] += 1
        records = tuple(ref_ledger.run_records())
        if ledger is paid:
            assert (records, outcome) == (uniform, CountOutcome(size, 0, size))
        if records != uniform:
            odd.append(records)
    tally_src = NoiseSource(seed)
    with cap_checks() as checked:
        assert prepared[2](tally_src, runs) == want
    assert [ledger.records for ledger in checked if ledger.records != uniform] == odd
    assert len(checked) <= runs
    assert {ledger.share for ledger in checked} <= {prepared[0].share}
    assert tally_src.laplace(1.0) == src.laplace(1.0) == ref_src.laplace(1.0)
    return want


class TestCountTally:
    """A counting plan's batch, and its runs one at a time, against the
    one-at-a-time reference counter: uniform runs, runs the noise decides,
    a mixture, windows the cap cuts, and runs longer than a block, which a
    lone run's compare takes in chunks."""

    @pytest.mark.parametrize("n", [2500, 6000])
    def test_uniform_runs(self, n):
        # The count-desk query (n = 2500: every one of 2437 scans hits at
        # once), and one of 5937 scans.
        rng = random.Random(2)
        text = bytes(rng.choice(b"acgt") for _ in range(n))
        query = MatchQuery(bytes(rng.choice(b"acgt") for _ in range(64)), 3, 1.0, 0.1)
        got = tallies_as_reference(text, query, 3, 8, 40)
        assert got == Counter({CountOutcome(n - 63, 0, n - 63): 40})

    def test_miss_deep_in_the_chain(self):
        # Every scan hits at once up to start 5000, where two b's make the
        # distance 2 against a threshold of 1.5: the chain's compare misses
        # there, after 4993 scans that hit.
        text = b"a" * 5000 + b"bb" + b"a" * 20
        query = TestBatchAcrossWindows.sharp_query(b"a" * 8, len(text), 1)
        got = tallies_as_reference(text, query, 1, 5, 3)
        assert all(outcome.raw_count < len(text) - 8 + 1 for outcome in got)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n", [4999, 5000])
    def test_where_the_noise_decides(self, n, seed):
        # The texts of TestBatchAcrossWindows: no run is uniform, so after
        # the first the runs are counted one at a time.
        rng = random.Random(seed)
        text = bytes(b"b"[0] if rng.random() < 0.18 else b"a"[0] for _ in range(n))
        query = MatchQuery(b"a" * 64, 3, 1e5, 0.1)
        got = tallies_as_reference(text, query, 3, seed, 6)
        assert all(0 < outcome.raw_count < n - 64 + 1 for outcome in got)

    @pytest.mark.parametrize("epsilon", [6e4, 7e4])
    def test_uniform_and_not_mixed(self, epsilon):
        # Distances 0, 4, 0, 4, 0 against a threshold near 4: about 1 run in
        # 70 (eps = 6e4) or 1 in 4 (7e4) is not uniform, so blocks end early
        # and shrink (6e4) or give way to runs one at a time (7e4).
        query = MatchQuery(b"abab", 1, epsilon, 0.1)
        got = tallies_as_reference(b"abababab", query, 1, 3, 2000)
        uniform = CountOutcome(5, 0, 5)
        assert 0 < got[uniform] < 2000

    def test_block_whose_last_run_misses(self):
        # The distances of test_uniform_and_not_mixed at eps = 6e4: on seed
        # 3, runs 0 to 29 are uniform and run 30 is not. A tally of 31 runs
        # compares them in one block: one peek at their raw uniforms, whose
        # bound decides runs 0 and 1, and one at their units, which the
        # exact compare takes from run 2 on. It serves the draws of the
        # first 30 runs (j = block - 1) and counts run 30 through the kernel
        # from there.
        query = MatchQuery(b"abab", 1, 6e4, 0.1)
        got = tallies_as_reference(b"abababab", query, 1, 3, 31)
        assert got[CountOutcome(5, 0, 5)] == 30 and sum(got.values()) == 31
        _, _, batch = matchers._prepare_count(b"abababab", query, 1)
        src = PeekLog(3)
        assert batch(src, 31) == got
        assert src.peeks == [2 * 5 * 31, 2 * 5 * 31]

    @pytest.mark.parametrize("epsilon", [1.0, 3e4])
    def test_windows_the_cap_cuts(self, epsilon):
        # m = 2000 > 1152 k: a uniform run stops each window at the cap.
        rng = random.Random(4)
        text = bytes(rng.choice(b"acgt") for _ in range(5000))
        query = MatchQuery(bytes(rng.choice(b"acgt") for _ in range(2000)), 1, epsilon, 0.1)
        got = tallies_as_reference(text, query, 1, 4, 4)
        if epsilon == 1.0:
            size = 1152 + (5000 - 2000 + 1 - 2000)
            assert got == Counter({CountOutcome(size, 0, size): 4})

    @pytest.mark.parametrize(
        "miss",
        [
            0,  # the first scan of a lone run's first chunk
            matchers._BLOCK - 1,  # its first chunk's last scan
            matchers._BLOCK,  # its second chunk's first scan
            2 * matchers._BLOCK - 1,  # its second chunk's last scan
            2 * matchers._BLOCK,  # its third chunk's first scan
            2 * matchers._BLOCK + 199,  # the run's last scan
        ],
    )
    def test_first_miss_at_a_chunk_edge(self, miss):
        # 2 * _BLOCK + 200 scans of a^8, each of which hits at once but
        # scan ``miss``, the one whose window holds both b's.
        size = 2 * matchers._BLOCK + 200
        text = b"a" * miss + b"b" + b"a" * 6 + b"b" + b"a" * (size - miss - 1)
        query = TestBatchAcrossWindows.sharp_query(b"a" * 8, len(text), 1)
        outcome, _ = counts_as_reference(text, query, 1, NoiseSource(miss))
        assert outcome.raw_count < size

    def test_long_run_with_a_few_misses(self):
        # About 2e4 scans of a^8, three of whose windows hold two b's, the
        # first past scan 4000: every run goes to the kernel.
        text = bytearray(b"a" * 20_007)
        for at in (5_000, 12_000, 19_000):
            text[at : at + 2] = b"bb"
        query = TestBatchAcrossWindows.sharp_query(b"a" * 8, len(text), 1)
        got = tallies_as_reference(bytes(text), query, 1, 12, 2)
        assert all(outcome.raw_count < 20_000 for outcome in got)

    def test_chain_longer_than_a_block(self):
        # 200 more scans than a block holds: a block of runs holds one run,
        # which is compared uniform at once.
        rng = random.Random(9)
        n = matchers._BLOCK + 200 + 63
        text = bytes(rng.choice(b"acgt") for _ in range(n))
        query = MatchQuery(bytes(rng.choice(b"acgt") for _ in range(64)), 3, 1.0, 0.1)
        size = matchers._BLOCK + 200
        got = tallies_as_reference(text, query, 3, 9, 2)
        assert got == Counter({CountOutcome(size, 0, size): 2})


def count_scales(text, query):
    """The threshold and noise scales of ``query``'s counting plan on ``text``
    at its own k, and the plan's `_hit_bound`."""
    contract = error_contract(
        "count_nonperiodic", len(text), query.m, query.k, query.epsilon, query.beta
    )
    t_scale, d_scale = scales(query.epsilon, contract.share)
    bound = matchers._hit_bound(query.m, contract.threshold, t_scale, d_scale)
    return contract.threshold, t_scale, d_scale, bound


class TestHitBound:
    """A counting plan decides a run whose units all lie within its
    `_hit_bound` L (distance units at most L, threshold units at least -L)
    without reading a distance: every scan of such a run hits at its first
    distance, whatever that distance is, up to m."""

    @staticmethod
    def passes(m, thresh, t_scale, d_scale, unit):
        return m + d_scale * unit <= thresh - t_scale * unit

    @pytest.mark.parametrize(
        "m, thresh, t_scale, d_scale",
        [
            (64, 1.05e6, 13824.0, 27648.0),  # about count-desk's
            (64, 1380141.9444279086, 13824.0, 27648.0),  # n = 10**6
            (8, 9.75, 0.146, 0.292),
            (1, 1.0, 0.5, 1.0),  # the threshold is m: only rounding leaves room
            (64, 64.0 + 1e-9, 2.0, 4.0),  # a root far below 1
            (65537, 65537.0 * (1 + 2**-40), 1e-4, 2e-4),
            # A real root past the floats: the bound falls back to 0, which
            # passes but is not the largest.
            (3, 1e300, 1e-300, 2e-300),
            (5, 4.999, 1.0, 2.0),  # below m: no bound
        ],
    )
    def test_largest_float_that_passes(self, m, thresh, t_scale, d_scale):
        bound = matchers._hit_bound(m, thresh, t_scale, d_scale)
        if thresh < m:
            assert bound is None
            return
        assert self.passes(m, thresh, t_scale, d_scale, bound)
        if math.isfinite(thresh / (d_scale + t_scale)):
            up = math.nextafter(bound, math.inf)
            assert not self.passes(m, thresh, t_scale, d_scale, up)
        else:
            assert bound == 0.0

    @given(
        m=st.integers(1, 70000),
        above=st.floats(0.0, 1e7),
        t_scale=st.floats(1e-6, 1e5),
    )
    @settings(max_examples=300)
    def test_largest_float_on_a_grid(self, m, above, t_scale):
        thresh, d_scale = m + above, 2 * t_scale
        bound = matchers._hit_bound(m, thresh, t_scale, d_scale)
        assert self.passes(m, thresh, t_scale, d_scale, bound)
        up = math.nextafter(bound, math.inf)
        assert not self.passes(m, thresh, t_scale, d_scale, up)

    # A window of b's at distance m = 8 among windows of a's at distance 0.
    TEXT = b"a" * 30 + b"b" * 8 + b"a" * 30

    @pytest.mark.parametrize(
        "stretch_d, stretch_t, uniform",
        [
            (1.0, 1.0, True),  # exactly at the bound: decided
            (1 + 1e-9, 1.0, False),  # distance units past it
            (1.0, 1 + 1e-9, False),  # threshold units past it
        ],
    )
    def test_units_at_the_bound(self, stretch_d, stretch_t, uniform):
        # At exactly +L on distance units and -L on threshold units the
        # window at distance m hits, so the run is uniform; just past the
        # bound on either side it misses. Either way the plan's run equals
        # the kernel's on the same units, and leaves the cursor where it does.
        query = MatchQuery(b"a" * 8, 1, 3e4, 0.1)
        thresh, t_scale, d_scale, bound = count_scales(self.TEXT, query)
        assert 1.0 < bound < UNIT_BOUND
        units = (-bound * stretch_t, bound * stretch_d)
        prepared = plan(self.TEXT, query, "count")
        assert prepared.matcher == "count_nonperiodic"
        src = FixedUnits(*units)
        outcome = prepared.outcome(src)
        size = len(self.TEXT) - 8 + 1
        assert (outcome == CountOutcome(size, 0, size)) == uniform
        windows = tuple(
            (a, b - 8 + 2, (a, b + 1)) for a, b in window_cover(len(self.TEXT), 8, 8)
        )
        kernel = FixedUnits(*units)
        hits, first, _ = below_thresh(
            distance_array(self.TEXT, b"a" * 8), thresh, t_scale, d_scale,
            kernel, windows, matchers.WINDOW_OCCURRENCE_CAP,
        )
        assert (outcome.raw_count, outcome.witness) == (hits, first)
        assert src.at == kernel.at

    @pytest.mark.parametrize("bound", [-1.0, 0.5, 1, 2, 3, 4, 5, 6, 7, 8])
    def test_tally_across_the_bound(self, bound):
        # Random binary text and pattern a^8 (distances 0 to 8), with epsilon
        # set so that the bound is about ``bound`` (below 0: no bound). Up
        # to about 3 the bound decides no run and some runs miss at a window
        # near m; from 4 to 8 it decides a growing share of runs (about 2%
        # to 97%), the first run it does not decide ends the lead of a
        # block, and the exact compare takes the rest on the same peek.
        rng = random.Random(5)
        text = bytes(rng.choice(b"ab") for _ in range(200))
        cap = matchers.WINDOW_OCCURRENCE_CAP
        logs = math.log(8) + math.log(2.0 * (200 / 8) * cap / 0.1)
        epsilon = (16 * cap * logs - 12 * cap * bound) / 7
        query = MatchQuery(b"a" * 8, 1, epsilon, 0.1)
        got = count_scales(text, query)[3]
        assert (got is None) == (bound < 0)
        if got is not None:
            assert got == pytest.approx(bound)
        tallies_as_reference(text, query, 1, 7, 60)


class TestExistenceLeadBound:
    """An existence plan whose threshold lies above m has a `_hit_bound`
    too, and its tally's lead decides the runs whose draws lie within it on
    their raw uniforms: each scan hits at its first distance."""

    C7 = (b"abbbab", MatchQuery(b"ba", 0, 1.0, 0.1))

    @staticmethod
    def bound(text, query):
        contract = plan(text, query, "existence").contract
        t_scale, d_scale = scales(query.epsilon, contract.share)
        return matchers._hit_bound(query.m, contract.threshold, t_scale, d_scale)

    def test_which_plans_have_a_bound(self):
        # The C7 audit's threshold, about 36.8, lies far above m = 2;
        # exist-scan's, about 61, below m = 256.
        assert 5 < self.bound(*self.C7) < 6
        rng = random.Random(1)
        text = bytes(rng.choice(b"acgt") for _ in range(30_000))
        query = MatchQuery(bytes(rng.choice(b"acgt") for _ in range(256)), 8, 2.0, 0.1)
        assert self.bound(text, query) is None

    @pytest.mark.parametrize(
        "stretch_d, stretch_t",
        [(1.0, 1.0), (1 + 1e-9, 1.0), (1.0, 1 + 1e-9)],
        ids=["at", "distance-past", "threshold-past"],
    )
    def test_tally_at_the_bound(self, stretch_d, stretch_t):
        # Every threshold unit at -L and every distance unit at +L (each
        # scan hits at its first distance, at m = 2), or one of them just
        # past it (the first distance, 2, misses): the tally equals as many
        # one-at-a-time runs, and leaves the cursor where they do.
        text, query = self.C7
        bound = self.bound(text, query)
        units = (-bound * stretch_t, bound * stretch_d)
        prepared = plan(text, query, "existence")
        src, loop_src = FixedUnits(*units), FixedUnits(*units)
        want = Counter(prepared.outcome(loop_src) for _ in range(40))
        assert prepared.tally(src, 40) == want
        assert src.at == loop_src.at
        at_bound = stretch_d == stretch_t == 1.0
        assert (want == Counter({ExistenceOutcome(True, 0): 40})) == at_bound

    @pytest.mark.parametrize("seed", range(12))
    def test_lead_counts_the_runs_that_hit_first(self, seed):
        # The lead alone, at a bound of about 1.14 (epsilon 15, so a third
        # of the runs hold a draw outside it): how many runs in a row hit at
        # the first distance, 2, against those runs drawn one at a time, and
        # it serves their draws only. Tallies compare counts, which a chain
        # shifted by a draw or two soon rejoins; this compares the runs.
        text, query = b"abbbab", MatchQuery(b"ba", 0, 15.0, 0.1)
        thresh = plan(text, query, "existence").contract.threshold
        t_scale, d_scale = scales(query.epsilon)
        bound = uniform_bounds(matchers._hit_bound(2, thresh, t_scale, d_scale))
        src, ref = NoiseSource(seed), NoiseSource(seed)
        got = matchers._uniform_runs(
            src, 1, lambda: np.array([2]), thresh, t_scale, d_scale, bound, 40
        )
        want = 0
        while want < 40:
            noisy = thresh + ref.laplace(t_scale)  # the threshold draws first
            if 2 + ref.laplace(d_scale) > noisy:
                break
            want += 1
        assert got == want
        after = NoiseSource(seed)
        after.skip(2 * want)
        assert src.laplace(1.0) == after.laplace(1.0)

    @pytest.mark.parametrize("epsilon", [1.0, 15.0])
    @pytest.mark.parametrize("text", [b"ababab", b"abbbab"])
    @pytest.mark.parametrize("seed", range(6))
    def test_tally_equals_runs(self, text, seed, epsilon):
        # At epsilon 1, on seeds 3 and 5 a lane of 250 runs holds draws
        # outside the bound (2 and 3 of them): the lead decides the runs
        # before the first on their raw uniforms and compares the rest. On
        # the other seeds it decides all 250 unread. At epsilon 15 the bound
        # is about 1.14: about one draw in 6 lies outside it, and about one
        # run in 10 misses its first distance. Either way: the same outcomes
        # and next draw.
        query = MatchQuery(b"ba", 0, epsilon, 0.1)
        assert (self.bound(text, query) < 2) == (epsilon == 15.0)
        prepared = plan(text, query, "existence")
        src, loop_src = NoiseSource(seed), NoiseSource(seed)
        want = Counter(prepared.outcome(loop_src) for _ in range(250))
        assert prepared.tally(src, 250) == want
        assert src.laplace(1.0) == loop_src.laplace(1.0)


def record_leads(monkeypatch) -> list:
    """Log ``(runs, uniform)`` for every `matchers._uniform_runs` call."""
    leads = []
    lead = matchers._uniform_runs

    def recording(*args):
        j = lead(*args)
        leads.append((args[-1], j))
        return j

    monkeypatch.setattr(matchers, "_uniform_runs", recording)
    return leads


class TestTally:
    """``QueryPlan.tally(src, runs)`` counts the outcomes of ``runs``
    consecutive runs on ``src``. An existence plan decides them in one
    vectorized pass over peeked draws, a counting plan compares blocks of
    runs in which every scan hits at once, the trivial reporter counts its
    one outcome, and periodic reporting loops; each must equal that loop
    seed for seed and leave the same next draw."""

    @given(
        variant=st.sampled_from(["existence", "count", "report"]),
        size=st.sampled_from([1, 2, 31, 32, 33, 80]),
        m=st.integers(1, 6),
        data=st.data(),
        above=st.floats(0.05, 7.0),
        runs=st.sampled_from([0, 1, 2, 7, 300]),
        seed=st.integers(0, 2**64 - 1),
        mode=st.sampled_from(["standard", "standard", "zero"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_outcome_loop(self, variant, size, m, data, above, runs, seed, mode):
        # The existence threshold sits ``above`` over k, among the binary
        # texts' distances, so the noise decides where a scan hits, whether
        # it runs on past its head (size 33 and 80) and whether it misses.
        k = data.draw(st.integers(0, m - 1))
        text = data.draw(st.binary(min_size=size + m - 1, max_size=size + m - 1))
        text = bytes(b"ab"[c & 1] for c in text)
        pattern = data.draw(st.binary(min_size=m, max_size=m))
        pattern = bytes(b"ab"[c & 1] for c in pattern)
        logs = math.log(size) + math.log(2.0 / 0.1)
        query = MatchQuery(pattern, k, 8.0 * logs / above, 0.1)
        prepared = plan(text, query, variant)
        assert (prepared.batch is None) == (prepared.matcher == "report_periodic")
        src, loop_src = NoiseSource(seed, mode), NoiseSource(seed, mode)
        got = prepared.tally(src, runs)
        want = Counter(prepared.outcome(loop_src) for _ in range(runs))
        assert got == want
        assert sum(got.values()) == runs
        assert src.laplace(1.0) == loop_src.laplace(1.0)

    def c7b_plan(self, text_b):
        # Acceptance C7b's pair: every distance of text_a is 60, text_b
        # lowers its first 14 to 59, and the threshold is 59.02, so a scan
        # often misses its 32-distance head and runs on.
        text_a = ((b"a" * 4 + b"b" * 60) * 3)[:143]
        text = text_a[:13] + b"a" + text_a[14:] if text_b else text_a
        return text, MatchQuery(b"a" * 64, 0, 1.0, 0.1)

    @pytest.mark.parametrize("text_b", [False, True])
    def test_matches_the_reference_scan(self, text_b):
        # Against the one-distance-at-a-time reference: 3000 runs, some of
        # which hit past the head and some of which miss.
        text, query = self.c7b_plan(text_b)
        src, ref_src = NoiseSource(21), NoiseSource(21)
        got = plan(text, query, "existence").tally(src, 3000)
        want = Counter()
        for _ in range(3000):
            _, found, hit = ref_existence(text, query, ref_src, RefLedger(1.0))
            want[ExistenceOutcome(found, hit)] += 1
        assert got == want
        assert src.laplace(1.0) == ref_src.laplace(1.0)
        ran_on = [o for o in got if not o.found or o.witness >= matchers._HEAD]
        assert ran_on and ExistenceOutcome(False, None) in got

    def test_ledger_checked_once_per_existence_tally(self):
        # Every existence run's ledger is the one record (0, one run, n) at
        # share 1: the plan checks it once, and a tally checks nothing.
        text, query = self.c7b_plan(True)
        with cap_checks() as checked:
            plan(text, query, "existence").tally(NoiseSource(2), 500)
        records = [(ledger.share, ledger.records) for ledger in checked]
        assert records == [(1, ((0, 1, len(text)),))]  # (start, runs, stop)

    def test_uniform_count_runs_checked_once(self):
        # Every uniform counting run's ledger holds the same records, one a
        # window: the plan checks them once, and a tally checks nothing.
        with cap_checks() as checked:
            prepared = plan(b"abababab", MatchQuery(b"ba", 1, 1.0, 0.1), "count")
            tallied = prepared.tally(NoiseSource(2), 5)
        assert tallied == Counter({CountOutcome(7, 0, 7): 5})
        records = [(ledger.share, ledger.records) for ledger in checked]
        assert records == [(2304, ((0, 2, 3), (2, 2, 5), (4, 2, 7), (6, 1, 8)))]

    @given(
        size=st.sampled_from([1, 2, 5, 33, 80]),
        m=st.integers(1, 6),
        data=st.data(),
        above=st.floats(0.5, 3.5),
        runs=st.sampled_from([0, 1, 2, 7, 300]),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_equals_outcome_loop(self, size, m, data, above, runs, seed):
        # The counting threshold sits ``above`` over k, among the binary
        # texts' distances, so the noise may decide whether a scan hits at
        # its first distance, and runs are uniform or not.
        k = data.draw(st.integers(1, m))
        text = data.draw(st.binary(min_size=size + m - 1, max_size=size + m - 1))
        text = bytes(b"ab"[c & 1] for c in text)
        pattern = data.draw(st.binary(min_size=m, max_size=m))
        pattern = bytes(b"ab"[c & 1] for c in pattern)
        n, cap = len(text), matchers.WINDOW_OCCURRENCE_CAP * k
        logs = math.log(m) + math.log(2.0 * (n / m) * cap / 0.1)
        query = MatchQuery(pattern, k, 16.0 * cap * logs / above, 0.1)
        prepared = plan(text, query, "count")
        src, loop_src = NoiseSource(seed), NoiseSource(seed)
        got = prepared.tally(src, runs)
        assert got == Counter(prepared.outcome(loop_src) for _ in range(runs))
        assert sum(got.values()) == runs
        assert src.laplace(1.0) == loop_src.laplace(1.0)

    @pytest.mark.parametrize("variant", ["report", "count"])
    @pytest.mark.parametrize("runs", [0, 1, 250])
    def test_trivial_tally_draws_nothing(self, variant, runs):
        # The trivial reporter, and its count form, answer one fixed outcome.
        prepared = plan(b"abcdef", MatchQuery(b"a", 1, 1.0, 0.1), variant)
        assert prepared.matcher == "trivial_all"
        src = NoiseSource(5)
        got = prepared.tally(src, runs)
        outcome = prepared.outcome(NoiseSource(0))
        assert got == Counter({outcome: runs} if runs else {})
        assert list(got.values()) == ([runs] if runs else [])
        assert src.laplace(1.0) == NoiseSource(5).laplace(1.0)

    def test_cap_failure_raises(self, monkeypatch):
        def overspent(ledger):
            raise matchers.PrivacyBudgetExceeded("privacy budget exceeded")

        monkeypatch.setattr(BudgetLedger, "assert_within_cap", overspent)
        text, query = self.c7b_plan(False)
        with pytest.raises(matchers.PrivacyBudgetExceeded):
            plan(text, query, "existence").tally(NoiseSource(2), 10)

    @pytest.mark.parametrize("runs, error", [(-1, ValueError), (2.5, TypeError)])
    def test_runs_must_be_a_count(self, runs, error):
        prepared = plan(b"ababab", MatchQuery(b"ba", 0, 1.0, 0.1), "existence")
        with pytest.raises(error):
            prepared.tally(NoiseSource(0), runs)

    def test_scans_that_run_on_go_one_at_a_time(self, monkeypatch):
        # Every distance is 512 and the threshold 90 below it, so nearly
        # every scan runs past its head and far out of a block (witnesses
        # from 10 to 896): after the first block, scans run one at a time
        # through the kernel.
        rng = random.Random(5)
        text = bytes(rng.choice(b"xyz") for _ in range(3000))
        pattern = bytes(rng.choice(b"ab") for _ in range(512))
        logs = math.log(len(text) - 512 + 1) + math.log(2.0 / 0.1)
        query = MatchQuery(pattern, 0, 8.0 * logs / (512 - 90), 0.1)
        prepared = plan(text, query, "existence")
        src, loop_src = NoiseSource(3), NoiseSource(3)
        want = Counter(prepared.outcome(loop_src) for _ in range(200))
        calls = []

        def recording(*args):
            calls.append(args)
            return below_thresh(*args)

        monkeypatch.setattr(matchers, "below_thresh", recording)
        assert prepared.tally(src, 200) == want
        assert src.laplace(1.0) == loop_src.laplace(1.0)
        assert 150 < len(calls) < 200
        assert len(want) > 100

    @pytest.mark.parametrize("text", [b"ababab", b"abbbab"])
    def test_c7_lane_peeks_one_block(self, text):
        # An audit lane at C7's size decides its 250 runs from one peeked
        # block of two draws a run: on this seed every draw lies within the
        # plan's bound (the threshold, about 36.8, is far above m = 2), so
        # the lead decides them all on their raw uniforms, and no unit or
        # strided block is peeked.
        prepared = plan(text, MatchQuery(b"ba", 0, 1.0, 0.1), "existence")
        src, loop_src = PeekLog(11), NoiseSource(11)
        want = Counter(prepared.outcome(loop_src) for _ in range(250))
        assert prepared.tally(src, 250) == want
        assert src.peeks == [2 * 250]
        assert src.laplace(1.0) == loop_src.laplace(1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_lead_breaks_and_resumes(self, seed, monkeypatch):
        # Distances 2, 3, 1, 4, 0, 4, 0, ... (38 of them) against a threshold
        # three distance noise scales above 2: about one scan in 30 misses
        # its first distance, and a strided block walks about 960 runs, so a
        # 3000-run tally opens several blocks with the lead, which counts the
        # uniform stretches between those scans.
        text = b"bbbb" + b"ab" * 20
        logs = math.log(len(text) - 3) + math.log(2.0 / 0.1)
        prepared = plan(text, MatchQuery(b"abab", 0, 4 * logs - 6, 0.1), "existence")
        src, loop_src = NoiseSource(seed), NoiseSource(seed)
        want = Counter(prepared.outcome(loop_src) for _ in range(3000))
        leads = record_leads(monkeypatch)
        assert prepared.tally(src, 3000) == want
        assert src.laplace(1.0) == loop_src.laplace(1.0)
        assert 0 < want[ExistenceOutcome(True, 0)] < 3000
        assert leads[0][1] < leads[0][0] and any(j for _, j in leads[1:])

    def test_noise_decided_lane_leads_at_most_twice(self, monkeypatch):
        # On C7b's pair about half the scans miss their first distance, so
        # after its first block the tally stops leading with the compare.
        text, query = self.c7b_plan(True)
        prepared = plan(text, query, "existence")
        leads = record_leads(monkeypatch)
        src, loop_src = NoiseSource(8), NoiseSource(8)
        assert prepared.tally(src, 3000) == Counter(
            prepared.outcome(loop_src) for _ in range(3000)
        )
        assert 1 <= len(leads) <= 2

    @pytest.mark.parametrize("epsilon, witness", [(1.0, 0), (40.0, 2), (1e4, 4)])
    def test_zero_mode_lead(self, epsilon, witness, monkeypatch):
        # Zero noise: every scan hits at the first distance at most the
        # threshold. At epsilon 1 that is the first (2), and the lead counts
        # all 300 runs in one compare; above it (thresholds about 1.3 and
        # 0.005) the lead counts none and the walk counts them.
        text = b"bbbb" + b"ab" * 20
        prepared = plan(text, MatchQuery(b"abab", 0, epsilon, 0.1), "existence")
        leads = record_leads(monkeypatch)
        got = prepared.tally(NoiseSource(4, "zero"), 300)
        loop_src = NoiseSource(4, "zero")
        assert got == Counter(prepared.outcome(loop_src) for _ in range(300))
        assert got == Counter({ExistenceOutcome(True, witness): 300})
        assert leads == [(300, 300 if witness == 0 else 0)]

    def test_long_runs_span_blocks(self):
        # 20,000 runs need more draws than one peeked block holds.
        text, query = self.c7b_plan(True)
        prepared = plan(text, query, "existence")
        src, loop_src = NoiseSource(4), NoiseSource(4)
        got = prepared.tally(src, 20_000)
        assert got == Counter(prepared.outcome(loop_src) for _ in range(20_000))
        assert src.laplace(1.0) == loop_src.laplace(1.0)
