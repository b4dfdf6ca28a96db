"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own implementations so that the
equivalence tests stay two-sided. ``ref_distances`` is the window-matrix
distance kernel the library used before its shifted-add kernel;
``periodic_cover`` and ``counting_cover`` are the two cover formulas the
library used before its one ``window_cover`` rule; ``min_period_distance`` is
the columnwise oracle for the close-period search. The packing families are
the lower bound's string constructions. The reference scans at the end read
their distances and windows from these and reuse only the library's contract
table and dispatcher.
"""

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from dppm.matchers import (
    CONTRACTS,
    WINDOW_OCCURRENCE_CAP,
    BudgetLedger,
    _count_shape,
    error_contract,
)
from dppm.periodicity import Regime, dispatch


def brute_hamming(a: bytes, b: bytes) -> int:
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if x != y)


def brute_sliding(text: bytes, pattern: bytes) -> list[int]:
    m = len(pattern)
    return [
        brute_hamming(text[i : i + m], pattern) for i in range(len(text) - m + 1)
    ]


def ref_distances(text: bytes, pattern: bytes) -> np.ndarray:
    """Sliding Hamming distances from the ``L x m`` window matrix, summed
    along its short axis, 65536 comparisons (or one window) at a time."""
    tv = np.frombuffer(text, np.uint8)
    pv = np.frombuffer(pattern, np.uint8)
    m = len(pv)
    count = len(tv) - m + 1
    step = max(1, 65536 // m)
    return np.concatenate([
        (sliding_window_view(tv[a : min(a + step, count) + m - 1], m) != pv).sum(axis=1)
        for a in range(0, count, step)
    ])


def periodic_cover(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Stride-``floor(m/2)`` cover of the periodic-case reporter: windows
    start at ``j * floor(m/2)`` and span ``floor(3m/2) - 1`` positions
    (clipped to the text), followed by a tail window reaching ``n - 1``."""
    assert 2 <= m <= n
    stride = m // 2
    length = (3 * m) // 2 - 1
    tail_index = (n - m) // stride
    windows = [
        (j * stride, min(j * stride + length - 1, n - 1)) for j in range(tail_index)
    ]
    windows.append((tail_index * stride, n - 1))
    return tuple(windows)


def counting_cover(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Stride-``m`` cover of the non-periodic counter: windows span
    ``[j*m, (j+2)*m - 2]`` plus a tail reaching ``n - 1``. When ``m >= 2``
    divides ``n + 1`` the tail starts past ``n - m`` and holds no start
    position."""
    assert 1 <= m <= n
    blocks = (n + 1) // m
    windows = [(j * m, (j + 2) * m - 2) for j in range(blocks - 1)]
    tail_start = (blocks - 1) * m
    if tail_start <= n - 1:
        windows.append((tail_start, n - 1))
    return tuple(windows)


def min_period_distance(pattern: bytes, period: int) -> int:
    """Distance from ``pattern`` to the closest string of the given period.

    Computed columnwise: for each residue class mod ``period`` the best symbol
    is the column majority, so the minimum over all period-``period`` strings
    is the sum of minority counts. Serves as the independent oracle for
    ``shortest_close_period``.
    """
    m = len(pattern)
    if not 1 <= period <= m:
        raise ValueError(f"period {period} outside [1, {m}]")
    total = 0
    for r in range(period):
        column = pattern[r::period]
        total += len(column) - Counter(column).most_common(1)[0][1]
    return total


def brute_first_at_most(text: bytes, pattern: bytes, thresh: float):
    for i, d in enumerate(brute_sliding(text, pattern)):
        if d <= thresh:
            return i
    return None


def spent_by_position(ledger) -> dict[int, Fraction]:
    """Fold a BudgetLedger's run records into position -> accumulated epsilon,
    in exact ``Fraction`` arithmetic. A record ``(start, runs, stop)`` is
    ``runs`` charges on the spans ``[start + t, stop)``, each costing
    ``epsilon / ledger.share`` on every position of its span."""
    out: dict[int, Fraction] = {}
    eps = Fraction(ledger.epsilon) / ledger.share
    for start, runs, stop in ledger.records:
        for first in range(start, start + runs):
            for p in range(first, stop):
                out[p] = out.get(p, Fraction(0)) + eps
    return out


@contextmanager
def cap_checks():
    """Inside the block, record every ledger whose cap is checked, in order;
    each check still runs. A counting plan certifies each public shape once
    per process, so the block starts on an empty cache of them."""
    checked = []
    check = BudgetLedger.assert_within_cap
    _count_shape.cache_clear()

    def recording(ledger):
        checked.append(ledger)
        check(ledger)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BudgetLedger, "assert_within_cap", recording)
        yield checked


def lower_share(monkeypatch, matcher: str) -> None:
    """Break ``matcher``'s `CONTRACTS` row: its share one less than its
    scans can cover a position with where the cap binds."""
    row = CONTRACTS[matcher]

    def lowered(*args):
        contract = row(*args)
        return replace(contract, share=contract.share - 1)

    monkeypatch.setitem(CONTRACTS, matcher, lowered)


def binary_strings(length: int):
    for symbols in product(b"ab", repeat=length):
        yield bytes(symbols)


def draws(src, b: float, size: int) -> np.ndarray:
    """``size`` successive ``src.laplace(b)`` draws as an array."""
    return np.array([src.laplace(b) for _ in range(size)])


def run_half(prepared, src, epsilon: float):
    """Run a matcher's private half, the ``(contract, scan)`` pair a
    ``_prepare_*`` function returns, on ``src``, as `plan` does: the outcome
    and the run's ledger, which is at ``epsilon`` and the contract's share."""
    outcome, ledger = prepared[1](src)
    assert (ledger.epsilon, ledger.share) == (epsilon, prepared[0].share)
    return outcome, ledger


def per_trial(mechanism):
    """An audit mechanism written one trial at a time, ``(text, query) ->
    (src -> label)``, lifted to the ``AUDIT_MATCHERS`` form ``(text, query)
    -> (src, trials) -> {label: count}``: its lane runs the trial once per
    trial on the lane's source and counts the labels."""

    def prepare(text, query):
        trial = mechanism(text, query)
        return lambda src, trials: Counter(trial(src) for _ in range(trials))

    return prepare


# --- packing families ---------------------------------------------------------
#
# The pairwise-equidistant string constructions behind the paper's
# Omega(log(n) / epsilon) lower bound on the additive error of
# witness-returning private matchers; C8 checks their distances.

@dataclass(frozen=True)
class PackingFamily:
    """Pairwise-equidistant strings, each with one planted window."""

    members: tuple[bytes, ...]
    pairwise_distance: int
    planted_positions: tuple[int, ...]


def _filler_symbol(pattern: bytes) -> int:
    used = set(pattern)
    for symbol in range(256):
        if symbol not in used:
            return symbol
    raise ValueError("pattern uses all 256 byte values; no filler symbol available")


def packing_family_planted(pattern: bytes, n: int) -> PackingFamily:
    """One member per even block: the pattern planted in that block, filler
    elsewhere. Distinct members differ in exactly two blocks, so all pairwise
    distances equal 2m. This is :func:`packing_family_mismatch` at k = 0 and
    alpha = m - 1, whose far variant is all filler."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    return packing_family_mismatch(pattern, n, 0, len(pattern) - 1)


def packing_family_mismatch(
    pattern: bytes, n: int, k: int, alpha: int
) -> PackingFamily:
    """One member per even block: a k-mismatch variant of the pattern planted
    in that block and a (k + alpha + 1)-mismatch variant in every other even
    block. Distinct members differ in alpha + 1 positions of two blocks, so
    all pairwise distances equal 2*alpha + 2."""
    m = len(pattern)
    if k < 0 or alpha < 0:
        raise ValueError("k and alpha must be non-negative")
    if k + alpha + 1 > m:
        raise ValueError(
            f"need k + alpha + 1 <= m, got k={k}, alpha={alpha}, m={m}"
        )
    if n < m:
        raise ValueError(f"n={n} is too short for pattern length {m}")
    filler = _filler_symbol(pattern)
    # A trailing remainder (when m does not divide n) is filled with the
    # filler symbol and excluded from block indexing.
    blocks = n // m
    near = bytes([filler]) * k + pattern[k:]
    far = bytes([filler]) * (k + alpha + 1) + pattern[k + alpha + 1 :]
    members = []
    positions = []
    for j in range(0, blocks, 2):
        member = bytearray([filler]) * n
        for i in range(0, blocks, 2):
            member[i * m : (i + 1) * m] = far
        member[j * m : (j + 1) * m] = near
        members.append(bytes(member))
        positions.append(j * m)
    return PackingFamily(tuple(members), 2 * (alpha + 1), tuple(positions))


# --- reference scans ---------------------------------------------------------
#
# The matchers' scans as they were written before the vectorized kernel: one
# distance and one ``src.laplace`` draw at a time, one ledger span per scan.
# Built only on ``src.laplace``, ``ref_distances``, the reference covers above
# and the library's contract table; the seed-for-seed oracle tests compare the
# kernel against them. A window with no start position starts no scan.


class RefLedger:
    """Charge spans ``(start, stop, share)``, one per scan, with the integer
    peak sweep over span boundaries."""

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self.spans: list[tuple[int, int, int]] = []

    @property
    def max_spent(self) -> Fraction:
        denom = math.lcm(*{share for _, _, share in self.spans})
        deltas: dict[int, int] = {}
        for start, stop, share in self.spans:
            deltas[start] = deltas.get(start, 0) + denom // share
            deltas[stop] = deltas.get(stop, 0) - denom // share
        units = max(accumulate(deltas[p] for p in sorted(deltas)), default=0)
        return Fraction(self.epsilon) * units / denom

    def shares(self) -> set[int]:
        """The shares the spans paid: one value for any one query."""
        return {share for _, _, share in self.spans}

    def run_records(self) -> list[tuple[int, int, int]]:
        """The spans as ``BudgetLedger`` run records ``(start, runs, stop)``,
        their share left to `shares`: a scan that starts one past the
        previous scan's start, in the same window (same stop), follows a hit
        at that scan's first distance, and the kernel charges the two in one
        record."""
        records: list[tuple[int, int, int]] = []
        for start, stop, _ in self.spans:
            if records:
                first, runs, last_stop = records[-1]
                if (start, stop) == (first + runs, last_stop):
                    records[-1] = (first, runs + 1, stop)
                    continue
            records.append((start, 1, stop))
        return records

    def assert_matches(self, records, share: int) -> None:
        """``records``, the kernel's or a ledger's, are this ledger's
        charges, paid at ``share``: the same run records, at the one share
        this ledger's scans paid."""
        assert list(records) == self.run_records()
        assert self.shares() <= {share}


def ref_below_thresh(distances, thresh, share, src, ledger, span):
    """One scan: the index of the first hit, or None. Reads only the
    distances up to the hit, so a second call on the same iterator resumes
    one past it."""
    ledger.spans.append((*span, share))
    eps = ledger.epsilon / share
    noisy_thresh = thresh + src.laplace(2.0 / eps)
    for i, d in enumerate(distances):
        if d + src.laplace(4.0 / eps) <= noisy_thresh:
            return i
    return None


def ref_existence(text, query, src, ledger):
    n = len(text)
    thresh = error_contract(
        "existence", n, query.m, query.k, query.epsilon, query.beta
    ).threshold
    hit = ref_below_thresh(
        ref_distances(text, query.pattern).tolist(), thresh, 1, src, ledger, (0, n)
    )
    return ("existence", hit is not None, hit)


def ref_report_periodic(text, query, candidate, src, ledger):
    n, m = len(text), query.m
    thresh = error_contract(
        "report_periodic", n, m, query.k, query.epsilon, query.beta
    ).threshold
    dist = ref_distances(text, query.pattern).tolist()
    found: list[int] = []
    for a, b in periodic_cover(n, m):
        starts = dist[a : b - m + 2]
        span = (a, b + 1)
        first = ref_below_thresh(starts, thresh, 6, src, ledger, span)
        rev_hit = ref_below_thresh(reversed(starts), thresh, 6, src, ledger, span)
        if first is None or rev_hit is None:
            continue
        last = len(starts) - 1 - rev_hit
        found.extend(range(a + first, a + last + 1, candidate.length))
    return ("report", tuple(found))


def ref_count_nonperiodic(text, query, src, ledger, k_eff):
    n, m = len(text), query.m
    cap = WINDOW_OCCURRENCE_CAP * k_eff
    thresh = error_contract(
        "count_nonperiodic", n, m, k_eff, query.epsilon, query.beta
    ).threshold
    dist = ref_distances(text, query.pattern).tolist()
    total = 0
    witness = None
    for a, b in counting_cover(n, m):
        starts = dist[a : b - m + 2]
        remaining = iter(starts)
        last_hit = -1
        hits = 0
        while last_hit < len(starts) - 1 and hits < cap:
            local = ref_below_thresh(
                remaining, thresh, 2 * cap, src, ledger, (a + last_hit + 1, b + 1)
            )
            if local is None:
                break
            last_hit = last_hit + 1 + local
            hits += 1
            if witness is None:
                witness = a + last_hit
        total += hits
    return ("count", min(max(total, 0), n - m + 1), witness, total)


def ref_match(text, query, src, variant):
    """What ``match_auto`` answers, as a plain tuple, with the reference
    ledger's ``max_spent``."""
    decision = dispatch(query.pattern, query.k, len(text), query.epsilon, query.beta)
    ledger = RefLedger(query.epsilon)
    regime = decision.regime
    counting = (Regime.NON_PERIODIC_COUNTING, Regime.SMALL_K_COUNTING)
    if variant == "existence":
        outcome = ref_existence(text, query, src, ledger)
    elif regime is Regime.PERIODIC_REPORTING:
        outcome = ref_report_periodic(text, query, decision.candidate, src, ledger)
    elif variant != "report" and regime in counting:
        outcome = ref_count_nonperiodic(text, query, src, ledger, decision.effective_k)
    else:
        outcome = ("report", tuple(range(len(text) - query.m + 1)))
    if variant == "count" and outcome[0] == "report":
        positions = outcome[1]
        outcome = ("count", len(positions), positions[0] if positions else None,
                   len(positions))
    return outcome, ledger.max_spent
