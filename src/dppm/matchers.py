"""Private approximate pattern matchers.

The primitive is a noisy threshold scan: a sparse-vector-style pass over a
sequence of window distances that pays privacy once for the first distance
whose noisy value falls below a noisy threshold. One kernel, `below_thresh`,
runs every scan of every matcher over one sequence of distances that it
slices, window by window: in each window a single scan, or up to a cap of
scans that each resume one past the previous hit. It compares a scan's first
distances one at a time and the rest in numpy blocks, serving unpeeked the
draws of distances too far above the noisy threshold for any draw to matter
(the sampler's units are bounded by `noise.UNIT_BOUND`), and it compares the
first distances of a run of scans in one numpy operation once several scans
in a row have hit at once, running on across window boundaries; draws come
from the `NoiseSource` stream in the order of a one-distance-at-a-time scan,
so answers are the same seed for seed. Each matcher computes its distances
once per query, into one frozen `distance_array`, and runs the kernel over
them: existence in one window over the whole text, counting in one call over
all its windows, and reporting in one call per window and direction:

* `existence` — one scan over the whole text; no multiplicative error.
* `report_periodic` — for patterns close to a short primitive period, a
  forward and a backward scan over each window's distances locate the
  arithmetic progression of occurrences.
* `count_nonperiodic` — when no short close period exists, occurrences per
  window are few, so repeated scans count them, each resuming one past the
  previous hit; in the small-k regime it runs with a larger mismatch budget
  substituted for ``k``.
* `trivial_all` — emits every position; private for free, additive error m.

Each matcher's calibrated threshold and error contract is one row of
`CONTRACTS`, read through `error_contract`.

Each matcher is two halves, the trivial reporter included. The
deterministic half validates the query, computes the contract once, the
distances and the windows its scans read; it never receives the
`NoiseSource`, so it cannot draw. The noisy half is what depends on the
draws: the scans over a ledger, the cap check and the outcome (the trivial
reporter's returns its fixed report). `_prepare_reporter`
is the one choice between periodic reporting and the trivial reporter, for
`plan` and the utility bench alike. `plan` composes dispatch with the
selected matcher's deterministic half into a `QueryPlan`, whose ``run(src)``
is the noisy half with a fresh `BudgetLedger` (``outcome(src)`` returns its
outcome alone); `match_auto` is ``plan(...).run(src)``, and each public
matcher is its own deterministic half followed by one run on a fresh
`BudgetLedger` at the query's epsilon, so the matchers take no ledger and
every scan's noise scale comes from the query. A plan may run many times,
each run reading the source's stream from its cursor and the distances its
deterministic half computed, so runs on one source equal as many fresh calls
seed for seed.

Every scan pays an integer share of the query epsilon (1 for existence, 6 for
periodic reporting, 2 * 1152 * k for counting) on the span of text its
distances read, in a `BudgetLedger`, and draws its noise at that slice; the
kernel charges a window's scans that start at consecutive positions as one
run record.
The ledger's cap check is the executable form of the composition argument:
`window_cover` gives each block of ``stride`` start positions one window, and
a position lies in at most ``ceil((m - 1) / stride) + 1`` of them, 3 at the
reporter's stride ``m // 2`` and 2 at the counter's stride ``m``, so slices
sum to at most the query epsilon.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import index, itemgetter
from typing import Callable, Optional, Union

import numpy as np

from .noise import UNIT_BOUND, NoiseSource
from .periodicity import (
    DispatchDecision,
    PeriodicCandidate,
    Regime,
    check_query,
    dispatch,
)
from .text import check_bytes, distance_array, window_cover

# Occurrence cap per window and unit of budget splitting in the non-periodic
# counter: a window shorter than 2m holds at most this many occurrences per
# unit of k when no short close period exists.
WINDOW_OCCURRENCE_CAP = 1152


@dataclass(frozen=True)
class MatchQuery:
    """One private query: public pattern plus privacy/accuracy parameters."""

    pattern: bytes
    k: int
    epsilon: float
    beta: float

    def __post_init__(self) -> None:
        check_bytes("pattern", self.pattern)
        check_query(len(self.pattern), self.k, self.epsilon, self.beta)

    @property
    def m(self) -> int:
        return len(self.pattern)


@dataclass(frozen=True)
class ExistenceOutcome:
    """YES/NO answer with a witness position present iff YES."""

    found: bool
    witness: Optional[int]

    def __post_init__(self) -> None:
        if self.found != (self.witness is not None):
            raise ValueError("witness must be present exactly when the answer is YES")

    @property
    def answer(self) -> str:
        return "YES" if self.found else "NO"


@dataclass(frozen=True)
class CountOutcome:
    """Noisy occurrence count, clamped to the feasible range.

    ``raw_count`` preserves the pre-clamp sum of per-window counts for
    diagnostics; ``witness`` is present whenever the count is positive.
    """

    count: int
    witness: Optional[int]
    raw_count: int

    def __post_init__(self) -> None:
        if self.count > 0 and self.witness is None:
            raise ValueError("positive count requires a witness")


@dataclass(frozen=True)
class ReportOutcome:
    """Sorted, duplicate-free start positions."""

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("positions must be sorted and duplicate-free")


Outcome = Union[ExistenceOutcome, CountOutcome, ReportOutcome]


class PrivacyBudgetExceeded(RuntimeError):
    """A query's scans charged some text position more than its epsilon: the
    privacy guarantee failed, and the query's answer must not be released."""


class BudgetLedger:
    """Per-position record of the privacy budget a query's scans consume.

    A charge of integer ``share`` costs ``epsilon / share`` on each position
    of its half-open span ``[start, stop)``. A run of ``runs`` charges on
    ``[start, stop)``, ``[start + 1, stop)``, ..., ``[start + runs - 1, stop)``
    (consecutive scans that each hit at their first distance) is kept as one
    record. The peak sweep counts in integer units of
    ``epsilon / lcm(shares)``, so the cap check is exact.
    """

    def __init__(self, epsilon: float):
        if not (epsilon > 0 and math.isfinite(epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        self.epsilon = epsilon
        self._runs: list[tuple[int, int, int, int]] = []  # (start, runs, stop, share)

    def charge_span(self, start: int, stop: int, share: int, runs: int = 1) -> None:
        """Charge ``runs`` scans of integer ``share``, starting at ``start``,
        ``start + 1``, ..., each on the span from its start to ``stop``."""
        if not (isinstance(runs, int) and 0 < runs <= stop - start):
            raise ValueError(
                f"empty charge span: {runs!r} run(s) from [{start}, {stop})"
            )
        if not (isinstance(share, int) and share > 0):
            raise ValueError(f"share must be a positive int, got {share!r}")
        self._runs.append((start, runs, stop, share))

    def _peak(self) -> tuple[int, int]:
        """Largest per-position spend as ``units`` of ``epsilon / denom``.

        Along the text the spend jumps up at each record's start, climbs
        through the starts of its run (slope 1 per charge) and drops at its
        stop. It never falls between drops, so the peak is at ``p - 1`` for
        some ``p`` where it drops: the jumps before ``p`` (one C-level
        prefix sum) plus the runs' climb up to ``p - 1`` (a sweep over the
        few slope changes).
        """
        if len(self._runs) == 1:  # one scan or run (every existence query)
            _, runs, _, share = self._runs[0]
            return runs, share
        denom = math.lcm(*{share for *_, share in self._runs})
        jumps: dict[int, int] = {}
        slopes: dict[int, int] = {}
        for start, runs, stop, share in self._runs:
            units = denom // share
            jumps[start] = jumps.get(start, 0) + units
            jumps[stop] = jumps.get(stop, 0) - units * runs
            if runs > 1:
                slopes[start + 1] = slopes.get(start + 1, 0) + units
                slopes[start + runs] = slopes.get(start + runs, 0) - units
        positions = sorted(jumps)
        before = accumulate((jumps[p] for p in positions), initial=0)
        events = sorted(slopes.items())
        peak = climb = slope = at = k = 0  # climb up to position at
        for p, level in zip(positions, before):
            if jumps[p] >= 0:
                continue
            while k < len(events) and events[k][0] < p:
                pos, change = events[k]
                climb += slope * (pos - at) + change
                slope += change
                at = pos
                k += 1
            peak = max(peak, level + climb + slope * (p - 1 - at))
        return peak, denom

    @property
    def max_spent(self) -> Fraction:
        """Largest accumulated charge over all positions, as an exact rational."""
        units, denom = self._peak()
        return Fraction(self.epsilon) * units / denom

    def assert_within_cap(self) -> None:
        units, denom = self._peak()
        if units > denom:
            raise PrivacyBudgetExceeded(
                f"privacy budget exceeded: a position pays {units}/{denom} of "
                f"epsilon={self.epsilon!r}"
            )


# A scan compares its first _HEAD distances one at a time, then blocks as long
# as the distances it has examined so far (so blocks double, up to _BLOCK) in
# numpy; a block shorter than _HEAD is compared one distance at a time. The
# head is listed once, _HEAD distances from where a scan starts, and the later
# scans that start in its first half reuse the list (listing it for every
# restart made a counting query a sixth slower). Once _STREAK scans in a
# row have hit at their first distance, the following scans are compared at
# their first distances all at once, up to the first that misses there. The
# streak carries from one window into the next, so such a batch covers at
# least the rest of its window and runs on through the following windows
# that fit the cap, while it is no longer than the streak: running on up to
# _BLOCK instead made counting at n = 1e6, m = 64, k = 3, eps = 3e4 (where
# the threshold sits among the distances) 1.2x slower. A count-desk query
# (n = 2500, m = 64, k = 3, eps = 1) takes the same time within 3% at
# _STREAK = 1, 3 or 6; at 1, counting at eps = 3e4 was 1.3x slower.
# Blocks stop doubling at _BLOCK, so a block's float64 temporaries (512 KiB
# each) stay about the size of a core's L2 cache: with no cap, a prepared
# existence run over 1e6 filled distances (m = 256) took 13.5-15.5 ms against
# 5.1-6.9 ms (2-vCPU AMD EPYC, 1 MiB L2 a core).
_HEAD = 32
_STREAK = 6
_BLOCK = 1 << 16


def below_thresh(
    dist: np.ndarray,
    thresh: float,
    share: int,
    src: NoiseSource,
    ledger: BudgetLedger,
    windows: tuple[tuple[int, int, tuple[int, int]], ...],
    max_hits: int = 1,
) -> tuple[int, Optional[int]]:
    """Noisy threshold scans over the windows of one sequence of distances,
    in order: in each window ``(lo, hi, span)``, up to ``max_hits`` scans
    over ``dist[lo:hi]``, each resuming one past the previous hit. A window's
    scanning stops at a scan that misses or when its distances run out; no
    scan starts where no distance remains. Returns the number of hits and
    the index of the first hit (None when no scan hits). The windows come in
    increasing order and do not overlap.

    ``dist`` is one numpy int array (each matcher passes the array it froze
    at prepare time, or a view of it). Each scan pays ``share`` of the
    ledger's epsilon and runs at ``eps = ledger.epsilon / share``: the
    threshold receives Lap(2/eps) noise once, each examined distance
    receives fresh Lap(4/eps) noise, and the comparison is a plain ``<=``.
    A scan that starts at index ``p`` of window ``(lo, hi, span)`` is
    charged, inside the kernel, to the text span
    ``(span[0] + p - lo, span[1])``; a window's scans that start at
    consecutive indices are charged as one run record.
    In zero-noise mode a window's first hit is exactly
    ``min{lo <= i < hi : d_i <= thresh}``.

    Noise is served from the source's one stream in the order of scans that
    compare one distance at a time (threshold first, then one per examined
    distance), whether the kernel compares distances singly, in numpy blocks,
    or several scans' first distances at once, within a window or across
    windows; results are the same seed for seed. Past a scan's head, the
    draws of a block's distances before its first with
    ``d - UNIT_BOUND * 4/eps <= noisy threshold`` are served unpeeked: no
    draw could turn them into a hit, so they are never transformed.
    """
    if not (isinstance(share, int) and share > 0):
        raise ValueError(f"share must be a positive int, got {share!r}")
    eps = ledger.epsilon / share
    t_scale, d_scale = 2.0 / eps, 4.0 / eps
    draw = src.laplace
    hits, first_hit = 0, None
    streak = 0  # scans in a row that have hit at their first distance
    head_at, head = -_HEAD, []  # head lists dist[head_at : head_at + _HEAD]
    at = 0
    for lo, hi, (first, stop) in windows:
        # Scans started at consecutive indices from run_start, not yet
        # charged; every one but the last started has hit at its first
        # distance. A batch that ran on into this window hit at every start
        # before at.
        if at > lo:
            run_start = lo
            run = got = min(at, hi) - lo
        else:
            at = lo
            run = got = 0
        while at < hi and got < max_hits:
            if not run:
                run_start = at
            if streak >= _STREAK:
                # The scans from here on, each at its first distance with its
                # own threshold unit; the leading hits are served, and the
                # first scan that misses there is rerun below on the same
                # units (or in its own window, when the batch ran on).
                r = min(hi - at, max_hits - got)
                if r == hi - at < streak:
                    r = _run_on(windows, hi, at + streak, max_hits) - at
                r = min(r, _BLOCK)
                u = src.units(2 * r)
                ok = dist[at : at + r] + d_scale * u[1::2] <= thresh + t_scale * u[::2]
                j = int(ok.argmin())
                if ok[j]:
                    j = r
                src.skip(2 * j)
                here = min(j, hi - at)
                got += here
                run += here
                at += j
                streak = streak + j if j == r else 0
                if j == r or at >= hi:
                    continue
            run += 1
            start = at
            noisy = thresh + draw(t_scale)
            if at - head_at >= _HEAD // 2:
                head_at, head = at, dist[at : at + _HEAD].tolist()
            for i, d in enumerate(head[at - head_at : hi - head_at]):
                if d + draw(d_scale) <= noisy:
                    hit = at + i
                    break
            else:
                hit = _scan_on(dist, head_at + len(head), hi, noisy, d_scale, src)
                if hit is None:
                    streak = 0
                    break
            if first_hit is None:
                first_hit = hit
            got += 1
            at = hit + 1
            if hit == start:
                streak += 1
            else:  # the next scan does not start at start + 1
                ledger.charge_span(first + run_start - lo, stop, share, run)
                run = streak = 0
        if run:
            ledger.charge_span(first + run_start - lo, stop, share, run)
        hits += got
    return hits, first_hit


def _run_on(windows, end, limit, max_hits):
    """How far a first-distance batch that reaches ``end``, the end of a
    window, may run: through the following windows that each start where the
    last ended and hold at most ``max_hits`` starts, up to index ``limit``."""
    for w in range(bisect_left(windows, end, key=itemgetter(0)), len(windows)):
        lo, hi, _ = windows[w]
        if end >= limit or lo != end or hi - lo > max_hits:
            break
        end = hi
    return min(end, limit)


def _scan_on(dist, at, end, noisy, d_scale, src):
    """The rest of a scan that has missed on every distance before index
    ``at``: the index of its hit, or None when the distances run out at
    ``end``.

    Every unit lies within ``UNIT_BOUND`` of 0, and float multiply and add
    round monotonically, so a distance ``d`` with
    ``d - UNIT_BOUND * d_scale > noisy`` misses whatever its draw. A block's
    draws up to its first distance that might hit are served unpeeked (never
    transformed); from there on the block is compared as drawn."""
    size = _HEAD
    while end - at >= _HEAD:
        size = min(size, end - at)
        block = dist[at : at + size]
        hope = block - UNIT_BOUND * d_scale <= noisy
        h = int(hope.argmax())
        if not hope[h]:  # the whole block misses
            h = size
        src.skip(h)
        if h < size:
            ok = block[h:] + d_scale * src.units(size - h) <= noisy
            i = int(ok.argmax())
            if ok[i]:
                src.skip(i + 1)
                return at + h + i
            src.skip(size - h)
        at += size
        size = min(2 * size, _BLOCK)
    draw = src.laplace
    for i, d in enumerate(dist[at:end].tolist()):
        if d + draw(d_scale) <= noisy:
            return at + i
    return None


# --- error contracts ---------------------------------------------------------

@dataclass(frozen=True)
class Contract:
    """Calibrated scan threshold and error contract of one matcher.

    ``threshold`` is what the matcher's noisy scans compare against. With
    probability at least 1 - beta, no window within distance k of the pattern
    is missed, and every window the matcher returns (or counts) lies within
    distance ``bound = (1 + gamma) * k + alpha``.
    """

    threshold: float
    gamma: float
    alpha: float
    bound: float


def _existence_row(n: int, m: int, k: int, epsilon: float, beta: float) -> Contract:
    logs = math.log(n - m + 1) + math.log(2.0 / beta)
    alpha = 16.0 / epsilon * logs
    return Contract(k + 8.0 / epsilon * logs, 0.0, alpha, k + alpha)


def _periodic_row(n: int, m: int, k: int, epsilon: float, beta: float) -> Contract:
    threshold = k + 48.0 / epsilon * (
        math.log(m / 2.0) + math.log(12.0 * (n / m) / beta)
    )
    gamma = 7.0
    alpha = 576.0 / epsilon * math.log(6.0 * n / beta)
    return Contract(threshold, gamma, alpha, (1 + gamma) * k + alpha)


def _nonperiodic_row(n: int, m: int, k: int, epsilon: float, beta: float) -> Contract:
    cap = WINDOW_OCCURRENCE_CAP * k
    logs = math.log(m) + math.log(2.0 * (n / m) * cap / beta)
    gamma = 32.0 * WINDOW_OCCURRENCE_CAP / epsilon * logs
    return Contract(k + 16.0 * cap / epsilon * logs, gamma, 0.0, (1 + gamma) * k)


def _trivial_row(n: int, m: int, k: int, epsilon: float, beta: float) -> Contract:
    # Every window is returned, as a noiseless scan at threshold m would.
    return Contract(float(m), 0.0, float(m), float(m))


# Keyed by the matcher that runs. The small-k regime is the
# ``count_nonperiodic`` row evaluated at the cutoff in place of k.
CONTRACTS: dict[str, Callable[[int, int, int, float, float], Contract]] = {
    "existence": _existence_row,
    "report_periodic": _periodic_row,
    "count_nonperiodic": _nonperiodic_row,
    "trivial_all": _trivial_row,
}


def error_contract(
    matcher: str, n: int, m: int, k: int, epsilon: float, beta: float
) -> Contract:
    """The contract of ``matcher`` on a length-``n`` text, where ``k`` is the
    mismatch budget the matcher runs at.

    Raises ValueError for an unknown matcher or a query `check_query`
    refuses, except that ``count_nonperiodic`` takes any ``k >= 1``: the
    small-k regime evaluates its row at a cutoff that can exceed m. Raises
    ValueError too when epsilon or beta is so small that the threshold or
    bound is not a finite float: a scan against an infinite threshold would
    compare ``inf - inf`` and answer at random.
    """
    if matcher not in CONTRACTS:
        raise ValueError(
            f"matcher must be one of {tuple(CONTRACTS)}, got {matcher!r}"
        )
    counting = matcher == "count_nonperiodic"
    check_query(m, min(index(k), m) if counting else k, epsilon, beta, n)
    if counting and k < 1:
        raise ValueError(f"count_nonperiodic needs k >= 1, got k={k}")
    row = CONTRACTS[matcher](n, m, k, epsilon, beta)
    if not (math.isfinite(row.threshold) and math.isfinite(row.bound)):
        raise ValueError(
            f"{matcher} threshold {row.threshold} or bound {row.bound} is not "
            f"finite at epsilon={epsilon!r}, beta={beta!r}"
        )
    return row


# --- matchers: the deterministic half, then the noisy half --------------------

# The noisy half of one matcher on a fixed text and query: it runs the scans
# on the given source and ledger, checks the cap and returns the outcome. Only
# the code that runs it creates the ledger, always fresh and at the query's
# epsilon, which sets every scan's noise scale.
Scan = Callable[[NoiseSource, BudgetLedger], Outcome]


def _require_text(text: bytes, m: int) -> None:
    check_bytes("text", text)
    if len(text) < 1:
        raise ValueError("private input text must be non-empty")
    if m > len(text):
        raise ValueError(f"pattern length {m} exceeds text length {len(text)}")


def _frozen_distances(text: bytes, pattern: bytes) -> np.ndarray:
    dist = distance_array(text, pattern)
    dist.flags.writeable = False
    return dist


def _prepare_existence(text: bytes, query: MatchQuery) -> tuple[Contract, Scan]:
    _require_text(text, query.m)
    n = len(text)
    contract = error_contract(
        "existence", n, query.m, query.k, query.epsilon, query.beta
    )
    thresh = contract.threshold
    dist = _frozen_distances(text, query.pattern)
    whole = ((0, len(dist), (0, n)),)

    def scan(src: NoiseSource, ledger: BudgetLedger) -> ExistenceOutcome:
        _, hit = below_thresh(dist, thresh, 1, src, ledger, whole)
        ledger.assert_within_cap()
        return ExistenceOutcome(found=hit is not None, witness=hit)

    return contract, scan


def existence(text: bytes, query: MatchQuery, src: NoiseSource) -> ExistenceOutcome:
    """Existence variant: one threshold scan over the whole text.

    With probability at least 1 - beta the answer is one-sided within the
    ``existence`` contract: a true k-mismatch occurrence forces YES, and any
    returned witness is within the contract's ``bound``.
    """
    _, scan = _prepare_existence(text, query)
    return scan(src, BudgetLedger(query.epsilon))


def _prepare_report(
    text: bytes, query: MatchQuery, candidate: PeriodicCandidate
) -> tuple[Contract, Scan]:
    _require_text(text, query.m)
    n, m = len(text), query.m
    if m < 2:
        raise ValueError("periodic reporting needs m >= 2")
    if candidate.dist > 2 * query.k:
        raise ValueError(
            f"candidate distance {candidate.dist} exceeds 2k = {2 * query.k}"
        )
    contract = error_contract(
        "report_periodic", n, m, query.k, query.epsilon, query.beta
    )
    thresh, step = contract.threshold, candidate.length
    dist = _frozen_distances(text, query.pattern)
    # Per window: its first start, its starts' distances forward and
    # backward, and the one window both scans read.
    windows = []
    for a, b in window_cover(n, m, m // 2):
        starts = dist[a : b - m + 2]
        windows.append((a, starts, starts[::-1], ((0, len(starts), (a, b + 1)),)))

    def scan(src: NoiseSource, ledger: BudgetLedger) -> ReportOutcome:
        found: list[int] = []
        for a, forward, backward, window in windows:
            _, first = below_thresh(forward, thresh, 6, src, ledger, window)
            _, rev_hit = below_thresh(backward, thresh, 6, src, ledger, window)
            if first is None or rev_hit is None:
                continue
            last = len(forward) - 1 - rev_hit
            found.extend(range(a + first, a + last + 1, step))
        ledger.assert_within_cap()
        return ReportOutcome(tuple(found))

    return contract, scan


def report_periodic(
    text: bytes,
    query: MatchQuery,
    candidate: PeriodicCandidate,
    src: NoiseSource,
) -> ReportOutcome:
    """Reporting variant for patterns close to a short primitive period.

    Each window of ``window_cover(n, m, m // 2)`` is scanned forward and
    backward over its start positions' distances, each scan paying share 6
    (epsilon/6); a position lies in at most 3 windows, so the 6 slices sum to
    epsilon. When both scans hit, the window contributes the arithmetic
    progression from the first hit to the last hit with step
    ``candidate.length``. The windows' blocks of starts are disjoint and
    increasing, so the positions come out sorted and duplicate-free. The
    dispatcher is responsible for certifying the period-length hypothesis;
    this function checks only structural validity (``m >= 2`` and
    ``candidate.dist <= 2k``).
    """
    _, scan = _prepare_report(text, query, candidate)
    return scan(src, BudgetLedger(query.epsilon))


def _prepare_count(
    text: bytes, query: MatchQuery, k_eff: int
) -> tuple[Contract, Scan]:
    _require_text(text, query.m)
    if k_eff < 1:
        raise ValueError(
            "non-periodic counting needs k >= 1 (its budget split divides by k); "
            "k = 0 queries belong to the existence or trivial paths"
        )
    if k_eff < query.k:
        raise ValueError(f"effective_k {k_eff} is below the query's k = {query.k}")
    n, m = len(text), query.m
    cap = WINDOW_OCCURRENCE_CAP * k_eff
    contract = error_contract(
        "count_nonperiodic", n, m, k_eff, query.epsilon, query.beta
    )
    thresh = contract.threshold
    dist = _frozen_distances(text, query.pattern)
    # A window's starts are the indices of their distances.
    windows = tuple((a, b - m + 2, (a, b + 1)) for a, b in window_cover(n, m, m))

    def scan(src: NoiseSource, ledger: BudgetLedger) -> CountOutcome:
        total, witness = below_thresh(dist, thresh, 2 * cap, src, ledger, windows, cap)
        count = min(max(total, 0), n - m + 1)
        ledger.assert_within_cap()
        return CountOutcome(count=count, witness=witness, raw_count=total)

    return contract, scan


def count_nonperiodic(
    text: bytes,
    query: MatchQuery,
    src: NoiseSource,
    *,
    effective_k: Optional[int] = None,
) -> CountOutcome:
    """Counting variant for patterns with no short close period.

    Each window of ``window_cover(n, m, m)`` is scanned repeatedly over its
    start positions' distances, each scan resuming one past the previous hit,
    until a scan misses, the window's starts run out, or the per-window cap of
    ``1152 * k`` is reached. Each scan pays share ``2 * 1152 * k``; one that
    resumes after the hit at ``h`` charges the text span from ``h + 1`` to the
    window's end. A position lies in at most 2 windows, so the slices sum to
    epsilon. The witness is the first hit encountered. The final count is the
    clamped sum of per-window counts.

    ``effective_k`` substitutes a larger mismatch budget for ``k`` (small-k
    regime). A smaller one raises ValueError: its lower threshold would miss
    true occurrences.
    """
    k_eff = query.k if effective_k is None else effective_k
    _, scan = _prepare_count(text, query, k_eff)
    return scan(src, BudgetLedger(query.epsilon))


def _prepare_trivial(text: bytes, query: MatchQuery) -> tuple[Contract, Scan]:
    _require_text(text, query.m)
    contract = error_contract(
        "trivial_all", len(text), query.m, query.k, query.epsilon, query.beta
    )
    report = ReportOutcome(tuple(range(len(text) - query.m + 1)))
    return contract, lambda src, ledger: report  # draws nothing, charges nothing


def trivial_all(text: bytes, query: MatchQuery) -> ReportOutcome:
    """Report every start position. Reads nothing but the lengths, so it is
    private for any epsilon, consumes no randomness, and charges no budget;
    every reported distance is trivially at most m."""
    _, scan = _prepare_trivial(text, query)
    return scan(None, None)  # it reads neither the source nor a ledger


def _prepare_reporter(
    text: bytes, query: MatchQuery, candidate: Optional[PeriodicCandidate]
) -> tuple[Regime, str, Contract, Scan]:
    """The one report-or-trivial choice: periodic reporting on ``candidate``,
    or the trivial reporter when there is none. Returns the regime tag, the
    matcher that runs, its contract and its noisy half."""
    if candidate is None:
        return Regime.TRIVIAL_FALLBACK, "trivial_all", *_prepare_trivial(text, query)
    contract, scan = _prepare_report(text, query, candidate)
    return Regime.PERIODIC_REPORTING, "report_periodic", contract, scan


# --- auto-dispatching front door --------------------------------------------

VARIANTS = ("auto", "existence", "count", "report")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of an auto-dispatched query, tagged with the regime that ran
    and the error contract of the matcher that produced it."""

    regime: Regime
    decision: DispatchDecision
    outcome: Outcome
    ledger: BudgetLedger
    contract: Contract

    def to_record(self, query: MatchQuery, seed: Optional[int] = None) -> dict:
        """Flat serializable record; the field set is the CLI wire contract."""
        record: dict = {"regime": self.regime.value}
        outcome = self.outcome
        if isinstance(outcome, ExistenceOutcome):
            record["answer"] = outcome.answer
            record["witness"] = outcome.witness
        elif isinstance(outcome, CountOutcome):
            record["count"] = outcome.count
            record["witness"] = outcome.witness
        else:
            record["positions"] = list(outcome.positions)
            record["witness"] = outcome.positions[0] if outcome.positions else None
        record.update(
            epsilon=query.epsilon,
            beta=query.beta,
            k=query.k,
            seed=seed,
            budget_max=float(self.ledger.max_spent),
        )
        return record


def _as_count(scan: Scan) -> Scan:
    """A reporter's noisy half that answers with the size of its report."""

    def count(src: NoiseSource, ledger: BudgetLedger) -> CountOutcome:
        positions = scan(src, ledger).positions
        size = len(positions)
        return CountOutcome(size, positions[0] if positions else None, size)

    return count


@dataclass(frozen=True)
class QueryPlan:
    """The deterministic half of one query on one text: the dispatch, the
    matcher that runs and its contract, and the distances that matcher
    reads. ``run`` is the noisy half; each call starts a fresh ledger and
    reads the source's stream from its cursor, so a plan may be run many
    times, and runs on one source read consecutive draws."""

    regime: Regime
    decision: DispatchDecision
    matcher: str
    contract: Contract
    epsilon: float
    scan: Scan = field(repr=False)

    def run(self, src: NoiseSource) -> MatchResult:
        ledger = BudgetLedger(self.epsilon)
        outcome = self.scan(src, ledger)
        return MatchResult(self.regime, self.decision, outcome, ledger, self.contract)

    def outcome(self, src: NoiseSource) -> Outcome:
        """``run(src).outcome``, without building the `MatchResult`: an audit
        trial needs only the outcome, and the record is a large share of a
        tiny query's cost."""
        return self.scan(src, BudgetLedger(self.epsilon))


def plan(text: bytes, query: MatchQuery, variant: str = "auto") -> QueryPlan:
    """Validate the query, dispatch on the public pattern and prepare the
    selected matcher: everything of :func:`match_auto` that does not depend
    on the noise. It never sees a noise source, so it cannot draw."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _require_text(text, query.m)
    decision = dispatch(query.pattern, query.k, len(text), query.epsilon, query.beta)
    regime = decision.regime

    if variant == "existence":
        matcher = "existence"
        contract, scan = _prepare_existence(text, query)
    elif variant != "report" and regime in (
        Regime.NON_PERIODIC_COUNTING,
        Regime.SMALL_K_COUNTING,
    ):
        matcher = "count_nonperiodic"
        contract, scan = _prepare_count(text, query, decision.effective_k)
    else:
        # Dispatch sets a candidate only in the periodic regime; the trivial
        # regime, and a report request the counting regimes cannot serve,
        # get the trivial reporter.
        regime, matcher, contract, scan = _prepare_reporter(
            text, query, decision.candidate
        )
        if variant == "count":
            scan = _as_count(scan)
    return QueryPlan(regime, decision, matcher, contract, query.epsilon, scan)


def match_auto(
    text: bytes,
    query: MatchQuery,
    src: NoiseSource,
    variant: str = "auto",
) -> MatchResult:
    """Dispatch on the public pattern, run the selected matcher, and return
    the outcome together with the regime tag, the final budget ledger and the
    contract of the matcher that ran: ``plan(text, query, variant).run(src)``.

    ``variant`` narrows the output type: ``existence`` always runs the
    existence scan (``regime`` still carries the dispatch tag); ``count``
    converts a periodic report into its size; ``report`` falls back to the
    trivial reporter when the counting regimes were selected (they provide no
    reporting guarantee). With a fixed seed the result is a deterministic
    function of the inputs.
    """
    return plan(text, query, variant).run(src)
