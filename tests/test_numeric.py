"""The numeric boundary of the public API, fuzzed (README, "Numeric
arguments").

Every public callable that takes a number is one entry of ``ENTRIES``: a
function that calls it and shows what came out as a string of plain values
(a repr, which names numpy scalar types, or the JSON of its records), and
the numeric arguments it passes through, each with the plain value that is
valid there and its range. Each numeric argument takes the forms ``forms``
lists. A call must raise ``TypeError`` or ``ValueError`` exactly when the
plain-Python call does, and otherwise show exactly what the plain-Python
call shows, seed for seed. Each form of each argument is tried with the
other arguments at their plain valid values, where the one rule decides the
outcome: a float where an integer is expected raises ``TypeError``, a value
outside its range ``ValueError``, and anything else answers. Hypothesis
draws every argument of a call at once for the rest.
"""

import json
import math
import sys
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dppm
from dppm.audit import CONFIDENCE, clopper_pearson
from dppm import (
    BudgetLedger,
    MatchQuery,
    NoiseSource,
    TrialConfig,
    derive_seed,
    dispatch,
    dp_audit,
    error_contract,
    exact_count,
    match_auto,
    plan,
    run_utility_experiment,
    shortest_close_period,
    tile,
    window_cover,
)

MAX_SEED = 2**64 - 1
COUNT = sys.maxsize  # the largest count or length

# A numeric argument: an integer (``int``) or a real (``float``) one, its
# plain valid value, and its range, closed for integers and open for reals.
Slot = namedtuple("Slot", "kind base lo hi")


def count(base, lo=0, hi=COUNT):
    return Slot(int, base, lo, hi)


def real(base, lo=0.0, hi=math.inf):
    return Slot(float, base, lo, hi)


def seed(base):
    return Slot(int, base, 0, MAX_SEED)


EPSILON, BETA = real(1.0), real(0.1, 0.0, 1.0)
TEXT, PATTERN = b"abracadabra", b"abra"


def source(seed_value):
    src = NoiseSource(seed_value)
    return repr((src.seed, [src.laplace(1.0) for _ in range(3)]))


def units(count_value):
    peeked = NoiseSource(5).units(count_value)
    return repr((peeked.dtype, peeked.tolist()))


def skip(count_value):
    src = NoiseSource(5)
    src.skip(count_value)
    return repr(src.laplace(1.0))


def ledger(epsilon, share):
    book = BudgetLedger(epsilon, share, [(0, 1, 4)])
    return repr((book.epsilon, book.share, book.max_spent))


def matched(k, epsilon, beta, seed_value):
    query = MatchQuery(PATTERN, k, epsilon, beta)
    result = match_auto(TEXT, query, NoiseSource(seed_value))
    return json.dumps(result.to_record(query, seed_value))


def planned(k, epsilon, beta):
    prepared = plan(TEXT, MatchQuery(PATTERN, k, epsilon, beta), "count")
    return repr((prepared.regime, prepared.matcher, prepared.contract))


def tallied(runs):
    src = NoiseSource(9)
    counts = plan(TEXT, MatchQuery(PATTERN, 1, 1.0, 0.1), "existence").tally(src, runs)
    return repr((sorted(counts.items(), key=repr), src.laplace(1.0)))


def config(**numbers):
    fields = dict(n=40, m=4, k=1, epsilon=1.0, beta=0.1, trials=2, seed=7,
                  generator="planted-occurrence")
    return TrialConfig(**{**fields, **numbers})


def experiment(k, epsilon, trials, seed_value):
    report = run_utility_experiment(
        config(k=k, epsilon=epsilon, trials=trials, seed=seed_value), "existence"
    )
    return json.dumps(report.to_rows())


def audited(trials, seed_value):
    query = MatchQuery(b"ba", 0, 1.0, 0.1)
    report = dp_audit("existence", b"ababab", b"abbbab", query, trials, seed=seed_value)
    return json.dumps(report.to_records())


# Entry name (an export, an export's method, or an unexported function by
# module) -> (call, numeric arguments).
ENTRIES = {
    "BudgetLedger": (ledger, [EPSILON, count(2, 1)]),
    "MatchQuery": (
        lambda k, e, b: repr(MatchQuery(PATTERN, k, e, b)), [count(1, 0, 4), EPSILON, BETA]
    ),
    "NoiseSource": (source, [seed(5)]),
    "NoiseSource.laplace": (lambda b: repr(NoiseSource(5).laplace(b)), [real(2.0)]),
    "NoiseSource.skip": (skip, [count(3)]),
    "NoiseSource.units": (units, [count(3)]),
    "QueryPlan.tally": (tallied, [count(3)]),
    "TrialConfig": (
        lambda n, m, k, e, b, trials, s, period, target: repr(config(
            n=n, m=m, k=k, epsilon=e, beta=b, trials=trials, seed=s,
            period_length=period, target=target,
        )),
        [count(40, 4), count(4, 1, 40), count(1, 0, 4), EPSILON, BETA, count(2, 1),
         seed(7), count(2, 1), real(0.9, 0.0, 1.0)],
    ),
    "audit.clopper_pearson": (
        lambda successes, trials, confidence: repr(
            clopper_pearson(successes, trials, confidence)
        ),
        [count(3, 0, 10), count(10, 3), real(CONFIDENCE, 0.0, 1.0)],
    ),
    "derive_seed": (lambda root, lane: repr(derive_seed(root, lane)), [seed(7), seed(3)]),
    "dispatch": (
        lambda k, n, e, b: repr(dispatch(PATTERN, k, n, e, b)),
        [count(1, 0, 4), count(100, 4), EPSILON, BETA],
    ),
    "dp_audit": (audited, [count(4, 1), seed(3)]),
    "error_contract": (
        lambda n, m, k, e, b: repr(error_contract("existence", n, m, k, e, b)),
        [count(100, 10), count(10, 1, 100), count(1, 0, 10), EPSILON, BETA],
    ),
    "error_contract.counting": (
        lambda n, m, k, e, b: repr(error_contract("count_nonperiodic", n, m, k, e, b)),
        [count(100, 10), count(10, 1, 100), count(1, 1), EPSILON, BETA],
    ),
    "exact_count": (lambda x: repr(exact_count(TEXT, PATTERN, x)), [count(1, 0, 4)]),
    "match_auto": (matched, [count(1, 0, 4), EPSILON, BETA, seed(3)]),
    "plan": (planned, [count(1, 0, 4), EPSILON, BETA]),
    "run_utility_experiment": (
        experiment, [count(1, 0, 4), EPSILON, count(2, 1), seed(7)]
    ),
    "shortest_close_period": (
        lambda k, q: repr(shortest_close_period(b"abab", k, q)), [count(1), count(2, 0, 4)]
    ),
    "tile": (lambda length: repr(tile(b"ab", length)), [count(5)]),
    "window_cover": (
        lambda n, m, stride: repr(window_cover(n, m, stride)),
        [count(10, 4), count(4, 1, 10), count(2, 1)],
    ),
}
# Functions that are not exported but take numbers the exports pass on,
# by module.
UNEXPORTED = {"audit.clopper_pearson"}
# Exports that take no number.
NO_NUMBERS = {"hamming_distance", "is_primitive", "sliding_distances"}
# The library's results: it builds them from numbers it has checked, and
# they are exported to be read and matched on, not built by callers. A
# `BudgetLedger`'s run records are such numbers too: they come only from
# the kernel and the plans and are stored as given, so its entry passes
# fixed records and fuzzes epsilon and share alone.
RESULTS = {
    "Contract", "CountOutcome", "DispatchDecision", "DpAuditReport",
    "ExistenceOutcome", "MatchResult", "PeriodicCandidate",
    "PrivacyBudgetExceeded", "Regime", "ReportOutcome", "UtilityReport",
}

INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
FLOATS = (np.float16, np.float32, np.float64)


def forms(base):
    """The forms a numeric argument whose plain valid value is ``base`` is
    drawn from, that value first: a Python int, bools, numpy ints and uints
    of each width, integral and non-integral floats, nan, infinities, a
    negative, 2**64, and numpy floats."""
    whole = int(base)
    fits = [t(whole) for t in INTS if np.iinfo(t).min <= whole <= np.iinfo(t).max]
    return [base, whole, True, False, *fits, np.int64(-1), float(whole), whole + 0.5,
            math.nan, math.inf, -math.inf, -1, 2**64, *(t(base) for t in FLOATS)]


def plain(value):
    """The plain Python number a numpy scalar or a bool stands for."""
    if isinstance(value, np.generic):
        return value.item()
    return int(value) if isinstance(value, bool) else value


def outcome(call, args):
    try:
        return call(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


def ruled(slot, value):
    """What the one rule says a call does when only this argument leaves its
    plain valid value: raise TypeError or ValueError, or answer (None)."""
    if slot.kind is int:
        if isinstance(value, (float, np.floating)):
            return TypeError
        return None if slot.lo <= int(value) <= slot.hi else ValueError
    return None if slot.lo < float(value) < slot.hi else ValueError


def test_every_export_is_covered():
    fuzzed = {name.split(".")[0] for name in ENTRIES.keys() - UNEXPORTED}
    assert not fuzzed & NO_NUMBERS and not (fuzzed | NO_NUMBERS) & RESULTS
    assert fuzzed | NO_NUMBERS | RESULTS == set(dppm.__all__)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_each_number_follows_the_rule(name):
    # Every form of each argument in turn, the others at their plain valid
    # values.
    call, slots = ENTRIES[name]
    for i, slot in enumerate(slots):
        for value in forms(slot.base):
            picks = [value if j == i else other.base for j, other in enumerate(slots)]
            got = outcome(call, picks)
            assert got == outcome(call, [plain(pick) for pick in picks]), (i, value)
            rule = ruled(slot, value)
            assert got is rule if rule else isinstance(got, str), (i, value, got)


@pytest.mark.parametrize("name", sorted(ENTRIES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_numbers_act_as_their_plain_values(name, data):
    call, slots = ENTRIES[name]
    picks = [data.draw(st.sampled_from(forms(slot.base))) for slot in slots]
    assert outcome(call, picks) == outcome(call, [plain(value) for value in picks])


# Each probe, verbatim, with what it does under the one rule: the exception
# it raises, or the plain value it equals.
PROBES = [
    ("laplace(-1.0)", lambda: NoiseSource(0).laplace(-1.0), ValueError),
    ("laplace(nan)", lambda: NoiseSource(0).laplace(math.nan), ValueError),
    ("BudgetLedger(1.0, np.int64(2))", lambda: BudgetLedger(1.0, np.int64(2)).share, 2),
    ("BudgetLedger(1.0, True)", lambda: BudgetLedger(1.0, True).share, 1),
    (
        'error_contract("existence", 100.5, 4, 1, 1.0, 0.1)',
        lambda: error_contract("existence", 100.5, 4, 1, 1.0, 0.1),
        TypeError,
    ),
    ('dispatch(b"abab", 1, 100.5, 1.0, 0.1)',
     lambda: dispatch(b"abab", 1, 100.5, 1.0, 0.1), TypeError),
    ("exact_count(text, pattern, 2.5)", lambda: exact_count(TEXT, PATTERN, 2.5), TypeError),
    ('shortest_close_period(b"abab", 0.5, 2)',
     lambda: shortest_close_period(b"abab", 0.5, 2), TypeError),
]


@pytest.mark.parametrize("call, expected", [p[1:] for p in PROBES], ids=[p[0] for p in PROBES])
def test_probe(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        got = call()
        assert got == expected and type(got) is type(expected)
