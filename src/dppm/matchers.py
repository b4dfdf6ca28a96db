"""Private approximate pattern matchers.

The primitive is a noisy threshold scan (`below_thresh`): a sparse-vector-style
pass over a sequence of window distances that pays privacy once for the first
distance whose noisy value falls below a noisy threshold. Each matcher
computes its distances once per query and runs the scan over them:

* `existence` — one lazy scan over the whole text; no multiplicative error.
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

Every scan pays an integer share of the query epsilon (1 for existence, 6 for
periodic reporting, 2 * 1152 * k for counting) on the span of text its
distances read, in a `BudgetLedger`, and draws its noise at that slice. The
ledger's cap check is the executable form of the composition argument (each
position is covered by at most 3 or 2 windows, so slices sum to at most the
query epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Optional, Union

from .noise import NoiseSource
from .periodicity import (
    DispatchDecision,
    PeriodicCandidate,
    Regime,
    dispatch,
)
from .text import (
    counting_cover,
    iter_sliding_distances,
    periodic_cover,
    sliding_distances,
)

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
        if len(self.pattern) < 1:
            raise ValueError("pattern must be non-empty")
        if not 0 <= self.k <= len(self.pattern):
            raise ValueError(f"k={self.k} outside [0, m={len(self.pattern)}]")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")

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


class BudgetLedger:
    """Per-position record of the privacy budget a query's scans consume.

    A charge of integer ``share`` costs ``epsilon / share`` on each position
    of its half-open span ``[start, stop)``. The peak sweep counts in integer
    units of ``epsilon / lcm(shares)``, so the cap check is exact.
    """

    def __init__(self, epsilon: float):
        if not (epsilon > 0 and math.isfinite(epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        self.epsilon = epsilon
        self._spans: list[tuple[int, int, int]] = []

    def charge_span(self, start: int, stop: int, share: int) -> None:
        if stop <= start:
            raise ValueError(f"empty charge span [{start}, {stop})")
        if not (isinstance(share, int) and share > 0):
            raise ValueError(f"share must be a positive int, got {share!r}")
        self._spans.append((start, stop, share))

    def _peak(self) -> tuple[int, int]:
        """Largest per-position spend as ``units`` of ``epsilon / denom``
        (boundary sweep)."""
        denom = math.lcm(*{share for _, _, share in self._spans})
        deltas: dict[int, int] = {}
        for start, stop, share in self._spans:
            units = denom // share
            deltas[start] = deltas.get(start, 0) + units
            deltas[stop] = deltas.get(stop, 0) - units
        return max(accumulate(deltas[p] for p in sorted(deltas)), default=0), denom

    @property
    def max_spent(self) -> Fraction:
        """Largest accumulated charge over all positions, as an exact rational."""
        units, denom = self._peak()
        return Fraction(self.epsilon) * units / denom

    def assert_within_cap(self) -> None:
        units, denom = self._peak()
        if units > denom:
            raise RuntimeError(
                f"privacy budget exceeded: a position pays {units}/{denom} of "
                f"epsilon={self.epsilon!r}"
            )


def below_thresh(
    distances: Iterable[int],
    thresh: float,
    share: int,
    src: NoiseSource,
    ledger: BudgetLedger,
    span: tuple[int, int],
) -> Optional[int]:
    """Noisy threshold scan: index of the first distance whose noisy value is
    at most the noisy threshold, or None if no distance qualifies.

    The scan pays ``share`` of the ledger's epsilon, charged to the half-open
    text span ``span = (start, stop)`` its distances read, and runs at
    ``eps = ledger.epsilon / share``: the threshold receives Lap(2/eps) noise
    once, each examined distance receives fresh Lap(4/eps) noise, and the
    comparison is a plain ``<=``. Only the distances up to the hit are read,
    so a second call on the same iterator resumes one past the hit. In
    zero-noise mode this returns exactly ``min{i : d_i <= thresh}``.
    """
    ledger.charge_span(*span, share)
    eps = ledger.epsilon / share
    draw = src.laplace
    scale = 4.0 / eps
    noisy_thresh = thresh + draw(2.0 / eps)
    for i, d in enumerate(distances):
        if d + draw(scale) <= noisy_thresh:
            return i
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

    Raises ValueError when epsilon or beta is so small that the threshold or
    bound is not a finite float: a scan against an infinite threshold would
    compare ``inf - inf`` and answer at random.
    """
    row = CONTRACTS[matcher](n, m, k, epsilon, beta)
    if not (math.isfinite(row.threshold) and math.isfinite(row.bound)):
        raise ValueError(
            f"{matcher} threshold {row.threshold} or bound {row.bound} is not "
            f"finite at epsilon={epsilon!r}, beta={beta!r}"
        )
    return row


# --- matchers ---------------------------------------------------------------

def _require_text(text: bytes, m: int) -> None:
    if len(text) < 1:
        raise ValueError("private input text must be non-empty")
    if m > len(text):
        raise ValueError(f"pattern length {m} exceeds text length {len(text)}")


def _query_ledger(query: MatchQuery, ledger: Optional[BudgetLedger]) -> BudgetLedger:
    """``ledger``, checked to hold the query's epsilon, or a fresh one."""
    if ledger is None:
        return BudgetLedger(query.epsilon)
    if ledger.epsilon != query.epsilon:
        raise ValueError(
            f"ledger epsilon {ledger.epsilon!r} differs from query epsilon "
            f"{query.epsilon!r}"
        )
    return ledger


def existence(
    text: bytes,
    query: MatchQuery,
    src: NoiseSource,
    ledger: Optional[BudgetLedger] = None,
) -> ExistenceOutcome:
    """Existence variant: one threshold scan over the whole text.

    With probability at least 1 - beta the answer is one-sided within the
    ``existence`` contract: a true k-mismatch occurrence forces YES, and any
    returned witness is within the contract's ``bound``.
    """
    _require_text(text, query.m)
    ledger = _query_ledger(query, ledger)
    n, m = len(text), query.m
    thresh = error_contract(
        "existence", n, m, query.k, query.epsilon, query.beta
    ).threshold
    distances = iter_sliding_distances(text, query.pattern)
    hit = below_thresh(distances, thresh, 1, src, ledger, (0, n))
    ledger.assert_within_cap()
    return ExistenceOutcome(found=hit is not None, witness=hit)


def report_periodic(
    text: bytes,
    query: MatchQuery,
    candidate: PeriodicCandidate,
    src: NoiseSource,
    ledger: Optional[BudgetLedger] = None,
) -> ReportOutcome:
    """Reporting variant for patterns close to a short primitive period.

    Each window of the stride-``floor(m/2)`` cover is scanned forward and
    backward over its start positions' distances, each scan paying share 6
    (epsilon/6); when both scans hit, the window contributes the arithmetic
    progression from the first hit to the last hit with step
    ``candidate.length``. The windows'
    start ranges are disjoint and increasing, so the positions come out sorted
    and duplicate-free. The dispatcher is responsible for certifying the
    period-length hypothesis; this function checks only structural validity
    (``m >= 2`` and ``candidate.dist <= 2k``).
    """
    _require_text(text, query.m)
    n, m = len(text), query.m
    if m < 2:
        raise ValueError("periodic reporting needs m >= 2")
    if candidate.dist > 2 * query.k:
        raise ValueError(
            f"candidate distance {candidate.dist} exceeds 2k = {2 * query.k}"
        )
    ledger = _query_ledger(query, ledger)
    thresh = error_contract(
        "report_periodic", n, m, query.k, query.epsilon, query.beta
    ).threshold
    dist = sliding_distances(text, query.pattern)
    found: list[int] = []
    for a, b in periodic_cover(n, m):
        starts = dist[a : b - m + 2]
        span = (a, b + 1)
        first = below_thresh(starts, thresh, 6, src, ledger, span)
        rev_hit = below_thresh(reversed(starts), thresh, 6, src, ledger, span)
        if first is None or rev_hit is None:
            continue
        last = len(starts) - 1 - rev_hit
        found.extend(range(a + first, a + last + 1, candidate.length))
    ledger.assert_within_cap()
    return ReportOutcome(tuple(found))


def count_nonperiodic(
    text: bytes,
    query: MatchQuery,
    src: NoiseSource,
    ledger: Optional[BudgetLedger] = None,
    *,
    effective_k: Optional[int] = None,
) -> CountOutcome:
    """Counting variant for patterns with no short close period.

    Each window of the stride-``m`` cover is scanned repeatedly over its start
    positions' distances, each scan resuming one past the previous hit, until
    a scan misses, the window's starts run out, or the per-window cap of
    ``1152 * k`` is reached. Each scan pays share ``2 * 1152 * k``; one that
    resumes after the hit at ``h`` charges the text span from ``h + 1`` to the
    window's end. The witness is
    the first hit encountered. The final count is the clamped sum of
    per-window counts.

    ``effective_k`` substitutes a larger mismatch budget for ``k`` (small-k
    regime).
    """
    _require_text(text, query.m)
    k_eff = query.k if effective_k is None else effective_k
    if k_eff < 1:
        raise ValueError(
            "non-periodic counting needs k >= 1 (its budget split divides by k); "
            "k = 0 queries belong to the existence or trivial paths"
        )
    ledger = _query_ledger(query, ledger)
    n, m = len(text), query.m
    cap = WINDOW_OCCURRENCE_CAP * k_eff
    thresh = error_contract(
        "count_nonperiodic", n, m, k_eff, query.epsilon, query.beta
    ).threshold
    dist = sliding_distances(text, query.pattern)
    total = 0
    witness: Optional[int] = None
    for a, b in counting_cover(n, m):
        starts = dist[a : b - m + 2]
        remaining = iter(starts)
        last_hit = -1
        hits = 0
        while last_hit < len(starts) - 1 and hits < cap:
            local = below_thresh(
                remaining, thresh, 2 * cap, src, ledger, (a + last_hit + 1, b + 1)
            )
            if local is None:
                break
            last_hit = last_hit + 1 + local
            hits += 1
            if witness is None:
                witness = a + last_hit
        total += hits
    count = min(max(total, 0), n - m + 1)
    ledger.assert_within_cap()
    return CountOutcome(count=count, witness=witness, raw_count=total)


def trivial_all(text: bytes, query: MatchQuery) -> ReportOutcome:
    """Report every start position. Reads nothing but the lengths, so it is
    private for any epsilon, consumes no randomness, and charges no budget;
    every reported distance is trivially at most m."""
    _require_text(text, query.m)
    return ReportOutcome(tuple(range(len(text) - query.m + 1)))


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


def _count_from_report(outcome: ReportOutcome) -> CountOutcome:
    positions = outcome.positions
    witness = positions[0] if positions else None
    return CountOutcome(count=len(positions), witness=witness, raw_count=len(positions))


def match_auto(
    text: bytes,
    query: MatchQuery,
    src: NoiseSource,
    variant: str = "auto",
) -> MatchResult:
    """Dispatch on the public pattern, run the selected matcher, and return
    the outcome together with the regime tag, the final budget ledger and the
    contract of the matcher that ran.

    ``variant`` narrows the output type: ``existence`` always runs the
    existence scan (``regime`` still carries the dispatch tag); ``count``
    converts a periodic report into its size; ``report`` falls back to the
    trivial reporter when the counting regimes were selected (they provide no
    reporting guarantee). With a fixed seed the result is a deterministic
    function of the inputs.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _require_text(text, query.m)
    n = len(text)
    decision = dispatch(query.pattern, query.k, n, query.epsilon, query.beta)
    ledger = BudgetLedger(query.epsilon)
    regime = decision.regime
    k_run = query.k

    if variant == "existence":
        matcher = "existence"
        outcome: Outcome = existence(text, query, src, ledger)
    elif regime is Regime.PERIODIC_REPORTING:
        assert decision.candidate is not None
        matcher = "report_periodic"
        report = report_periodic(text, query, decision.candidate, src, ledger)
        outcome = _count_from_report(report) if variant == "count" else report
    elif variant != "report" and regime in (
        Regime.NON_PERIODIC_COUNTING,
        Regime.SMALL_K_COUNTING,
    ):
        matcher, k_run = "count_nonperiodic", decision.effective_k
        outcome = count_nonperiodic(text, query, src, ledger, effective_k=k_run)
    else:
        # The trivial regime, or a report request the counting regimes
        # cannot serve.
        regime = Regime.TRIVIAL_FALLBACK
        matcher = "trivial_all"
        report = trivial_all(text, query)
        outcome = _count_from_report(report) if variant == "count" else report

    contract = error_contract(matcher, n, query.m, k_run, query.epsilon, query.beta)
    return MatchResult(regime, decision, outcome, ledger, contract)
