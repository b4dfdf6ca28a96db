"""Private approximate pattern matchers.

The primitive is a noisy threshold scan: a sparse-vector-style pass over a
sequence of window distances that pays privacy once for the first distance
whose noisy value falls below a noisy threshold. One kernel, `below_thresh`,
runs every scan of every matcher over one sequence of distances that it
slices, window by window: in each window a single scan, or up to a cap of
scans that each resume one past the previous hit. It compares a scan's first
distances one at a time and the rest in numpy blocks. Between blocks it jumps,
by one integer compare, over distances too far above the noisy threshold for
any draw to matter (the sampler's units are bounded by `noise.UNIT_BOUND`),
serving their draws unpeeked in one skip. Draws come from the `NoiseSource`
stream in the order of a one-distance-at-a-time scan, so answers are the
same seed for seed. Each matcher computes its distances at most once per
query, into one frozen `distance_array` (a counting plan when a run first
needs them), and runs the kernel over them: existence in one window over the
whole text, counting in one call over all its windows, and reporting in one
call per window and direction. The matchers, by the names
`QueryPlan.matcher` and `CONTRACTS` give them:

* `existence` — one scan over the whole text; no multiplicative error.
* `report_periodic` — for patterns close to a short primitive period, a
  forward and a backward scan over each window's distances locate the
  arithmetic progression of occurrences.
* `count_nonperiodic` — when no short close period exists, occurrences per
  window are few, so repeated scans count them, each resuming one past the
  previous hit; in the small-k regime it runs with a larger mismatch budget
  substituted for ``k``.
* `trivial_all` — emits every position; private for free, additive error m.

Each matcher's calibrated threshold, error contract and budget share is one
row of `CONTRACTS`, read through `error_contract`.

Each matcher is two halves, the trivial reporter included. The deterministic
half validates the query, computes the contract once, the windows its scans
read and (but for counting) their distances, and certifies the cap; it never
receives the `NoiseSource`, so it cannot draw. The noisy half is what
depends on the draws: the scans, at the noise scales of the certified
ledger, and the outcome with the run's ledger (the trivial reporter's
returns its fixed report). `_prepare_reporter` is the one choice between
periodic reporting and the trivial reporter, for `plan` and the utility
bench alike. `plan` composes dispatch with the selected matcher's
deterministic half into a `QueryPlan`, whose ``run(src)`` is the noisy half
(``outcome(src)`` returns its outcome alone); `match_auto` is
``plan(...).run(src)``. No matcher is exported by name: `QueryPlan.matcher`
names the one that ran. A plan may run many times, each run reading the
source's stream from its cursor and the plan's distances, so runs on one
source equal as many fresh calls seed for seed. ``tally(src, runs)`` counts
the outcomes of consecutive runs; existence, counting and the trivial
reporter decide them in a batch, and periodic reporting runs them one by
one. A counting plan knows, at prepare time, its uniform run, in which every
scan hits at its first distance: its chain of first distances, its ledger
records and its outcome are fixed. One compare, `_uniform_runs`, serves a
lone run and a tally's block of runs alike from one peek at their
untransformed U (`NoiseSource.uniforms`): runs within the plan's
`_hit_bound` hit whatever their distances; from the first that is not, it
compares units with the chain in chunks of `_BLOCK` scans. It serves the
draws of the uniform runs; the kernel counts the first run in which some
scan misses. An existence plan decides its runs in `_first_hits`, which
leads each block of runs with that compare on the one-scan chain of the
first distance, then compares every later start of a peeked block of draws
with its first distances in one strided numpy compare and walks the chain of
starts. The kernel runs one scan at a time. The trivial reporter draws
nothing, so its tally is its one outcome, ``runs`` times.

Every scan of a query pays the same integer share of the query epsilon, the
``share`` of its matcher's `CONTRACTS` row, on the span of text its distances
read, and draws its noise at that slice; the kernel returns a window's scans
that start at consecutive positions as one run record. A `BudgetLedger` is
the value of a run's records, and its cap check is the executable form of
the composition argument: it counts the scans covering each position against
the share. Records the plan fixes bound every run's, so `_certified` checks
them once, and a run whose records they are answers with that ledger; only a
counting run that is not uniform builds and checks its own. A counting
plan's are certified once per public shape per process (`_count_shape`).
`window_cover` gives each block of ``stride`` start positions one window,
and a position lies in at most ``ceil((m - 1) / stride) + 1`` of them, 3
at the reporter's stride ``m // 2`` (two scans each) and 2 at the counter's
stride ``m`` (up to 1152 * k scans each), so slices sum to at most the query
epsilon.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial
from operator import itemgetter, lt
from typing import Callable, Optional, Union

import numpy as np

from .noise import MAX_SEED, UNIT_BOUND, NoiseSource, uniform_bounds
from .periodicity import (
    DispatchDecision,
    PeriodicCandidate,
    Regime,
    check_query,
    dispatch,
)
from .text import check_bytes, check_int, check_real, distance_array, window_cover

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
        # Plain numbers from here on, whatever numeric types the caller used.
        plain = check_query(len(self.pattern), self.k, self.epsilon, self.beta)
        for name, value in zip(("k", "epsilon", "beta"), plain):
            object.__setattr__(self, name, value)

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
        if not all(map(lt, self.positions, self.positions[1:])):
            raise ValueError("positions must be sorted and duplicate-free")


Outcome = Union[ExistenceOutcome, CountOutcome, ReportOutcome]


class PrivacyBudgetExceeded(RuntimeError):
    """A query's scans charged some text position more than its epsilon: the
    privacy guarantee failed, and the query's answer must not be released."""


class BudgetLedger:
    """Per-position record of the privacy budget one query's scans consume:
    a value, built once from its run records and never changed.

    Every scan pays the query contract's integer ``share``: it costs
    ``epsilon / share`` on each position of its half-open span
    ``[start, stop)``. A run of ``runs`` charges on ``[start, stop)``, ...,
    ``[start + runs - 1, stop)`` (consecutive scans that each hit at their
    first distance) is kept as one record ``(start, runs, stop)``. The
    records, from the kernel or a plan, are stored as given, unchecked;
    their ``peak``, the most scans covering one position, is swept once,
    here, and is exact for records with ``runs >= 1`` and ``start + runs <=
    stop``, which every producer keeps (the tests hold each to it). The cap
    check counts the peak against ``share``: exact.
    """

    def __init__(self, epsilon: float, share: int, records=()):
        self.epsilon = check_real("epsilon", epsilon)
        self.share = check_int("share", share, 1)
        self.records: tuple[tuple[int, int, int], ...] = tuple(records)
        self.peak = self._peak()

    def _peak(self) -> int:
        """The most scans whose spans cover one position. A record covers
        position x with ``x + 1 - start`` scans from its start on, less ``x +
        1 - start - runs`` from the end of its climb on, less ``runs`` from
        its stop on. Only a stop lowers the cover, so it peaks at ``s - 1``
        for some stop ``s``: one walk over the sorted stops, with a cursor
        each over the sorted starts and climb ends below ``s``."""
        starts = [*sorted(start for start, _, _ in self.records), math.inf]
        ends = [*sorted(start + runs for start, runs, _ in self.records), math.inf]
        peak = i = j = begun = ended = stopped = 0  # sums below the stop
        for _, runs, stop in sorted(self.records, key=itemgetter(2)):
            while starts[i] < stop:
                begun += starts[i]
                i += 1
            while ends[j] < stop:
                ended += ends[j]
                j += 1
            peak = max(peak, (i - j) * stop - begun + ended - stopped)
            stopped += runs
        return peak

    @property
    def max_spent(self) -> Fraction:
        """Largest accumulated charge over all positions, as an exact rational."""
        return Fraction(self.epsilon) * self.peak / self.share

    def assert_within_cap(self) -> None:
        if self.peak > self.share:
            raise PrivacyBudgetExceeded(
                f"privacy budget exceeded: a position pays {self.peak}/{self.share} "
                f"of epsilon={self.epsilon!r}"
            )


# A scan compares its first _HEAD distances one at a time, then blocks as long
# as the distances it has examined so far (so blocks double, up to _BLOCK) in
# numpy; a block shorter than _HEAD is compared one distance at a time. The
# head is listed once, _HEAD distances from where a scan starts, and the later
# scans that start in its first half reuse the list (listing it for every
# restart made a counting query a sixth slower).
# Blocks stop doubling at _BLOCK, so a block's float64 temporaries (512 KiB
# each) stay about the size of a core's L2 cache: with no cap, a prepared
# existence run over 1e6 filled distances (m = 256) took 13.5-15.5 ms against
# 5.1-6.9 ms (2-vCPU AMD EPYC, 1 MiB L2 a core). A jump over distances that
# no draw can bring to a hit reads at most _BLOCK of them too, into one bool
# compare against an integer bound, and a counting plan compares its chain of
# first distances in chunks of _BLOCK scans, for one run or a block of runs.
_HEAD = 32
_BLOCK = 1 << 16
# `_first_hits` decides a block of existence scans at once while at most one
# scan in _RUN_ON has run on past its head, and runs scans one at a time
# otherwise: over a long text a scan that runs on leaves its block, so a
# block would decide about _RUN_ON scans, and one costs about 15 us to set up
# where a single scan over the C7 audit text takes about 2 us. A counting
# tally, and an existence tally's lead, compare blocks of runs by the same
# rule, counting the runs that are not uniform (each ends its block) in place
# of scans that run on; a block holds up to twice their mean stretch.
_RUN_ON = 16


def _scales(ledger: BudgetLedger) -> tuple[float, float]:
    """The noise scales of a scan that pays ``ledger``'s slice, ``eps =
    epsilon / share``: Lap(2/eps) on its threshold, Lap(4/eps) on each
    distance. Every compare of a scan draws at these scales."""
    eps = ledger.epsilon / ledger.share
    return 2.0 / eps, 4.0 / eps


def below_thresh(
    dist: np.ndarray,
    thresh: float,
    t_scale: float,
    d_scale: float,
    src: NoiseSource,
    windows: tuple[tuple[int, int, tuple[int, int]], ...],
    max_hits: int = 1,
) -> tuple[int, Optional[int], list[tuple[int, int, int]]]:
    """Noisy threshold scans over the windows of one sequence of distances,
    in order: in each window ``(lo, hi, span)``, up to ``max_hits`` scans
    over ``dist[lo:hi]``, each resuming one past the previous hit. A window's
    scanning stops at a scan that misses or when its distances run out; no
    scan starts where no distance remains. Returns the number of hits, the
    index of the first hit (None when no scan hits) and the scans' run
    records. The windows come in increasing order and do not overlap.

    ``dist`` is one numpy integer array (each matcher passes the uint16 or
    uint32 array of `distance_array` it froze at prepare time, or a view of
    it). Each scan runs at the scales `_scales` gives for the slice it pays:
    the threshold receives Lap(``t_scale``) noise once, each examined
    distance receives fresh Lap(``d_scale``) noise, and the comparison is a
    plain ``<=``. A scan that starts at index ``p`` of window ``(lo, hi,
    span)`` covers the text span ``(span[0] + p - lo, span[1])``; a window's
    scans that start at consecutive indices make one `BudgetLedger` run
    record ``(start, runs, stop)``, and no ledger is built here. In
    zero-noise mode a window's first hit is exactly ``min{lo <= i < hi : d_i
    <= thresh}``.

    Noise is served from the source's one stream in the order of scans that
    compare one distance at a time (threshold first, then one per examined
    distance), whether the kernel compares distances singly or in numpy
    blocks; results are the same seed for seed. Past a scan's head, the
    kernel jumps to the next distance ``d`` with
    ``d - UNIT_BOUND * d_scale <= noisy threshold`` (by one integer compare
    against a bound that is never tighter than that test) and serves the
    draws of the distances it jumps over unpeeked, in one skip: no draw
    could turn them into a hit, so they are never transformed.
    """
    draw = src.laplace
    hits, first_hit, records = 0, None, []
    head_at, head = -_HEAD, []  # head lists dist[head_at : head_at + _HEAD]
    for lo, hi, (first, stop) in windows:
        # Scans started at consecutive indices from run_start, not yet
        # recorded; every one but the last started has hit at its first
        # distance.
        at, got, run = lo, 0, 0
        while at < hi and got < max_hits:
            if not run:
                run_start = at
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
                    break
            if first_hit is None:
                first_hit = hit
            got += 1
            at = hit + 1
            if hit != start:  # the next scan does not start at start + 1
                records.append((first + run_start - lo, run, stop))
                run = 0
        if run:
            records.append((first + run_start - lo, run, stop))
        hits += got
    return hits, first_hit, records


def _scan_on(dist, at, end, noisy, d_scale, src):
    """The rest of a scan that has missed on every distance before index
    ``at``: the index of its hit, or None when the distances run out at
    ``end``.

    Every unit lies within ``UNIT_BOUND`` of 0, and float multiply and add
    round monotonically, so a distance ``d`` with
    ``d - UNIT_BOUND * d_scale > noisy`` misses whatever its draw; so does
    every integer above ``lim``. Each round jumps to the next distance at
    most ``lim``, found by one integer compare of up to ``_BLOCK`` distances
    that stops at ``end``, serves the draws it jumped over unpeeked (never
    transformed) in one skip, and compares a block from there as drawn."""
    # lim is never below the largest integer d whose float test
    # d - UNIT_BOUND * d_scale <= noisy can pass: such a d - bound rounds to
    # at most noisy, so it is below noisy's successor, and top lies above
    # the bound plus that successor. A top that is not finite prunes
    # nothing.
    top = math.nextafter(
        UNIT_BOUND * d_scale + math.nextafter(noisy, math.inf), math.inf
    )
    lim = math.floor(top) if math.isfinite(top) else math.inf
    # dist is uint16 or uint32, and lim may lie outside its range (below 0,
    # or past 2**64). NumPy 2 (the floor) compares an array with a Python
    # int or float exactly, whatever its size, so no clamp is needed.
    size = _HEAD
    while end - at >= _HEAD:
        hope = dist[at : min(at + _BLOCK, end)] <= lim
        h = int(hope.argmax())
        if not hope[h]:
            h = len(hope)
        src.skip(h)
        at += h
        if end - at < _HEAD:
            break
        size = min(size, end - at)
        ok = dist[at : at + size] + d_scale * src.units(size) <= noisy
        i = int(ok.argmax())
        if ok[i]:
            src.skip(i + 1)
            return at + i
        src.skip(size)
        at += size
        size = min(2 * size, _BLOCK)
    draw = src.laplace
    for i, d in enumerate(dist[at:end].tolist()):
        if d + draw(d_scale) <= noisy:
            return at + i
    return None


def _uniform_runs(src, size, chain, thresh, t_scale, d_scale, bound, runs):
    """How many of the next ``runs`` runs of ``size`` scans, in a row, are
    uniform (each scan hits at its entry of the chain ``chain()``): their
    draws are served, the rest peeked at only, a row of 2S draws a run (a
    threshold draw, then a distance draw, a scan). Runs whose U lie within
    `_raw_bound`'s ``bound`` are uniform unread, untransformed; from
    the first that is not, the rows' units are compared with the chain in
    chunks of _BLOCK scans, each chunk only for the runs uniform so far."""
    j = 0
    if bound is not None:
        r = src.uniforms(2 * size * runs)
        out = (r[1::2] > bound[1]) | (r[::2] < bound[0])  # a scan's draws
        first = int(out.argmax())
        j = first // size if out[first] else runs
    if j < runs:
        chain, lead, j = chain(), j, runs
        u = src.units(2 * size * runs).reshape(runs, 2 * size)
        for c in range(0, size, _BLOCK):
            chunk = u[lead:j, 2 * c : 2 * (c + _BLOCK)]
            noisy = thresh + t_scale * chunk[:, ::2]
            hit = chain[c : c + _BLOCK] + d_scale * chunk[:, 1::2] <= noisy
            whole = hit.all(axis=1)
            if not whole.all():
                j = lead + int(whole.argmin())
    src.skip(2 * size * j)
    return j


def _hit_bound(m, thresh, t_scale, d_scale):
    """The largest float L with ``m + d_scale * L <= thresh - t_scale * L``
    (None when the threshold is below m), bisected from a few ulps around
    the real root, or from 0. Float multiply and add round monotonically
    and negation is exact, so a scan whose distance unit is at most L and
    whose threshold unit is at least -L hits at any distance up to m, in
    `_uniform_runs`'s compare and the kernel's alike."""

    def hits(unit):
        return m + d_scale * unit <= thresh - t_scale * unit

    if not hits(0.0):
        return None
    root = (thresh - m) / (d_scale + t_scale)
    lo, hi = root * (1 - 2**-50), root * (1 + 2**-50)
    lo, hi = lo if hits(lo) else 0.0, 2 * root + 1 if hits(hi) else hi
    while lo < (mid := lo + (hi - lo) / 2) < hi:
        lo, hi = (mid, hi) if hits(mid) else (lo, mid)
    return lo


def _raw_bound(m, thresh, t_scale, d_scale):
    """`_uniform_runs`'s ``bound``: `noise.uniform_bounds` of `_hit_bound`."""
    bound = _hit_bound(m, thresh, t_scale, d_scale)
    return None if bound is None else uniform_bounds(bound)


def _first_hits(dist, thresh, t_scale, d_scale, src, runs, bound=None):
    """``runs`` existence scans, one after another on ``src``, each the
    `below_thresh` scan at the scales ``t_scale, d_scale`` over one window of
    ``dist``: a Counter of how many scans first hit at each index, the scans
    that missed counted at index ``len(dist)``. The source's cursor moves as
    those scans would move it.

    A scan is a function of the draws it serves: its threshold unit, then one
    unit per distance up to its hit. So every offset of a peeked block is
    compared as a scan's start, its threshold unit against its first
    ``W = min(len(dist), _HEAD)`` distances, in one compare over a strided view
    of the block's noise into a bool array: the first true column of row p is
    where the scan at offset p hits, or column W, always true, where it misses
    its head. A scan that starts at offset p and hits at index h < W has
    served 2 + h draws, so the next one starts at p + 2 + h; the walk follows
    that chain from offset 0 and counts each scan's first hit as it goes, into
    a list of W + 1 slots. A scan that misses its whole head runs on through
    `_scan_on` from index W, exactly as `below_thresh` runs it, is counted
    apart, and the chain goes on from where that scan ended, in the same
    block. The block's draws are served with one skip; a chain that leaves the
    block peeks the next one. While more than one scan in _RUN_ON has run on,
    scans run one at a time through `below_thresh`, whose records, the
    certified ``(0, 1, n)``, go unread. Each block leads with `_uniform_runs`
    on ``dist[:1]`` (see _RUN_ON): it counts the scans that hit at index 0,
    two draws each, in one skip, and the strided compare starts at the first
    that does not.
    """
    size = len(dist)
    width = min(size, _HEAD)
    head = dist[:width, None]
    whole = ((0, size, (0, size)),)
    counts = [0] * (width + 1)  # scans by first hit in the head (W: a miss)
    hits = Counter()  # and the scans that ran on or ran one at a time
    ran_on = 0  # scans that missed their head
    per_scan = 2  # draws a scan served in the last block, rounded up
    left = runs
    while left:
        done = runs - left
        if _RUN_ON * ran_on > done:
            _, at, _ = below_thresh(dist, thresh, t_scale, d_scale, src, whole)
            hits[size if at is None else at] += 1
            ran_on += at is None or at >= width
            left -= 1
            continue
        odd = done - counts[0] - hits[0]  # scans that missed index 0
        if _RUN_ON * odd <= done:
            lead = min(left, _BLOCK, 2 * done // odd if odd else left)
            j = _uniform_runs(
                src, 1, lambda: dist[:1], thresh, t_scale, d_scale, bound, lead
            )
            counts[0] += j
            left -= j
            if j == lead:
                continue
        # Starts in this block: enough for the scans left at the last
        # block's rate, within a _BLOCK of compared distances.
        starts = min(per_scan * left, _BLOCK // (width + 1))
        before = left
        u = src.units(starts + width)
        # Column p: the noise of the scan that starts at offset p on its
        # distances (units p + 1 .. p + W), against its threshold (unit p).
        # The compare runs along the starts, in long numpy inner loops, and
        # writes row p of ok, whose last column, W, stays true.
        scaled = d_scale * u[1:]
        noise = np.ndarray((width, starts), float, scaled, 0, scaled.strides * 2)
        ok = np.ones((starts, width + 1), bool)
        noisy = thresh + t_scale * u[:starts]
        np.less_equal(head + noise, noisy, out=ok[:, :width].T)
        first = ok.argmax(axis=1).tolist()
        p = served = 0
        while left and p < starts:
            left -= 1
            at = first[p]
            if at < width:  # it hit in its head
                counts[at] += 1
                p += 2 + at
            elif width == size:  # it missed the whole text
                counts[size] += 1
                p += 1 + size
            else:  # it missed its head: run it on
                src.skip(p + 1 + width - served)
                hit = _scan_on(dist, width, size, noisy.item(p), d_scale, src)
                hits[size if hit is None else hit] += 1
                p = served = p + 1 + size if hit is None else p + 2 + hit
                ran_on += 1
        src.skip(p - served)
        per_scan = max(2, -(-p // (before - left)))
    hits.update({i: count for i, count in enumerate(counts) if count})
    return hits


# --- error contracts ---------------------------------------------------------

@dataclass(frozen=True)
class Contract:
    """Scan threshold, error contract and budget share of one matcher.

    ``threshold`` is what the matcher's noisy scans compare against. With
    probability at least 1 - beta, no window within distance k of the pattern
    is missed, and every window the matcher returns (or counts) lies within
    distance ``bound = (1 + gamma) * k + alpha``. Each scan pays ``epsilon /
    share``, and at most ``share`` scans may read one position (`BudgetLedger`).
    """

    threshold: float
    gamma: float
    alpha: float
    bound: float
    share: int


def _existence_row(n: int, m: int, k: int, epsilon: float, beta: float) -> Contract:
    logs = math.log(n - m + 1) + math.log(2.0 / beta)
    alpha = 16.0 / epsilon * logs
    return Contract(k + 8.0 / epsilon * logs, 0.0, alpha, k + alpha, 1)


def _periodic_row(n: int, m: int, k: int, epsilon: float, beta: float) -> Contract:
    threshold = k + 48.0 / epsilon * (
        math.log(m / 2.0) + math.log(12.0 * (n / m) / beta)
    )
    gamma = 7.0
    alpha = 576.0 / epsilon * math.log(6.0 * n / beta)
    # A position lies in at most 3 windows, each scanned forward and back.
    return Contract(threshold, gamma, alpha, (1 + gamma) * k + alpha, 6)


def _nonperiodic_row(n: int, m: int, k: int, epsilon: float, beta: float) -> Contract:
    cap = WINDOW_OCCURRENCE_CAP * k  # scans a window; a position is in 2 windows
    logs = math.log(m) + math.log(2.0 * (n / m) * cap / beta)
    gamma = 32.0 * WINDOW_OCCURRENCE_CAP / epsilon * logs
    threshold = k + 16.0 * cap / epsilon * logs
    return Contract(threshold, gamma, 0.0, (1 + gamma) * k, 2 * cap)


def _trivial_row(n: int, m: int, k: int, epsilon: float, beta: float) -> Contract:
    # Every window is returned, as a noiseless scan at threshold m would.
    return Contract(float(m), 0.0, float(m), float(m), 1)


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
    TypeError when ``n``, ``m`` or ``k`` is not an integer. Raises
    ValueError too when epsilon or beta is so small that the threshold or
    bound is not a finite float: a scan against an infinite threshold would
    compare ``inf - inf`` and answer at random.
    """
    if matcher not in CONTRACTS:
        raise ValueError(
            f"matcher must be one of {tuple(CONTRACTS)}, got {matcher!r}"
        )
    n, m = check_int("n", n), check_int("m", m)
    if matcher == "count_nonperiodic":  # any k >= 1, even above m
        k = check_int("k", k, 1)
        _, epsilon, beta = check_query(m, 0, epsilon, beta, n)  # k checked
    else:
        k, epsilon, beta = check_query(m, k, epsilon, beta, n)
    row = CONTRACTS[matcher](n, m, k, epsilon, beta)
    if not (math.isfinite(row.threshold) and math.isfinite(row.bound)):
        raise ValueError(
            f"{matcher} threshold {row.threshold} or bound {row.bound} is not "
            f"finite at epsilon={epsilon!r}, beta={beta!r}"
        )
    return row


# --- matchers: the deterministic half, then the noisy half --------------------

# The noisy half of one matcher on a fixed text and query: it runs the scans
# on the given source, at the noise scales of the plan's certified ledger, and
# returns the outcome and the run's ledger. Where the plan fixed the run's
# records, that ledger is the plan's own; only a counting run that is not
# uniform builds one, from the kernel's records.
Scan = Callable[[NoiseSource], tuple[Outcome, BudgetLedger]]
# The noisy half run ``runs`` times in a row on one source, returning no
# ledger: how often each outcome came out.
Batch = Callable[[NoiseSource, int], "Counter[Outcome]"]


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


def _certified(epsilon: float, share: int, records: list) -> BudgetLedger:
    """The ledger of ``records``, which cover each position at least as
    often as any run's, its cap checked once: the check certifies every run
    before any draw, and a run whose records these are answers with it."""
    ledger = BudgetLedger(epsilon, share, records)
    ledger.assert_within_cap()
    return ledger


def _prepare_existence(
    text: bytes, query: MatchQuery
) -> tuple[Contract, Scan, Batch]:
    """Existence: one scan over the whole text. With probability
    at least 1 - beta a true k-mismatch occurrence forces YES, and the
    witness, the scan's hit, lies within the contract's ``bound``. The batch
    serves many runs at once through `_first_hits`."""
    _require_text(text, query.m)
    n = len(text)
    contract = error_contract(
        "existence", n, query.m, query.k, query.epsilon, query.beta
    )
    thresh = contract.threshold
    dist = _frozen_distances(text, query.pattern)
    whole = ((0, len(dist), (0, n)),)
    # Every run's one scan starts at index 0, hit or miss.
    paid = _certified(query.epsilon, contract.share, [(0, 1, n)])
    t_scale, d_scale = _scales(paid)
    bound = _raw_bound(query.m, thresh, t_scale, d_scale)

    def scan(src: NoiseSource) -> tuple[ExistenceOutcome, BudgetLedger]:
        _, hit, _ = below_thresh(dist, thresh, t_scale, d_scale, src, whole)
        return ExistenceOutcome(found=hit is not None, witness=hit), paid

    def batch(src: NoiseSource, runs: int) -> Counter:
        counts = _first_hits(dist, thresh, t_scale, d_scale, src, runs, bound)
        miss = len(dist)
        return Counter({
            ExistenceOutcome(i < miss, i if i < miss else None): count
            for i, count in counts.items()
        })

    return contract, scan, batch


def _prepare_report(
    text: bytes, query: MatchQuery, candidate: PeriodicCandidate
) -> tuple[Contract, Scan]:
    """Periodic reporting: each window of ``window_cover(n, m, m // 2)`` is
    scanned forward and backward over its starts' distances; when both scans
    hit, it reports the progression from the first hit to the last with step
    ``candidate.length``. Dispatch certifies the period; this checks only
    ``m >= 2`` and ``candidate.dist <= 2k``."""
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
    # backward, and the one window both scans read. Each scan starts at its
    # window's first index, hit or miss.
    windows, records = [], []
    for a, b in window_cover(n, m, m // 2):
        starts = dist[a : b - m + 2]
        windows.append((a, starts, starts[::-1], ((0, len(starts), (a, b + 1)),)))
        records += [(a, 1, b + 1)] * 2
    paid = _certified(query.epsilon, contract.share, records)
    t_scale, d_scale = _scales(paid)

    def scan(src: NoiseSource) -> tuple[ReportOutcome, BudgetLedger]:
        found: list[int] = []
        for a, forward, backward, window in windows:
            _, first, _ = below_thresh(forward, thresh, t_scale, d_scale, src, window)
            _, back, _ = below_thresh(backward, thresh, t_scale, d_scale, src, window)
            if first is None or back is None:
                continue
            last = len(forward) - 1 - back
            found.extend(range(a + first, a + last + 1, step))
        return ReportOutcome(tuple(found)), paid

    return contract, scan


@lru_cache(maxsize=4)
def _count_shape(n, m, cap, epsilon, contract):
    """A counting plan's public half, keyed by all it reads: the uniform
    run's certified ledger and size, the scales and the raw bound. An entry
    keeps about 140 bytes a window."""
    # One run a window [a, b + 1], its starts up to the cap. No run covers a
    # position more often: a window's i-th scan starts at index a + i - 1 or
    # later, and every scan ends at its window's stop.
    records = [(a, min(b - m + 2 - a, cap), b + 1) for a, b in window_cover(n, m, m)]
    paid = _certified(epsilon, contract.share, records)
    t_scale, d_scale = _scales(paid)
    bound = _raw_bound(m, contract.threshold, t_scale, d_scale)
    return paid, sum(runs for _, runs, _ in records), t_scale, d_scale, bound


def _prepare_count(
    text: bytes, query: MatchQuery, k_eff: int
) -> tuple[Contract, Scan, Batch]:
    """Non-periodic counting at mismatch budget ``k_eff`` (above the query's
    k in the small-k regime; below it, its lower threshold would miss true
    occurrences, so it raises ValueError). Each window of ``window_cover(n,
    m, m)`` is scanned until a scan misses, its starts run out or it has
    ``1152 * k_eff`` hits; the witness is the first hit, and the count is
    the clamped sum of per-window hits. A run, or a tally's block of runs
    (at most _BLOCK scans, or one run), is first compared with the uniform
    run of `_count_shape` by `_uniform_runs`; each run that is not uniform
    is counted through the kernel and checked. The first run that needs the
    distances fills them, once, from the copies of text and pattern taken
    here."""
    _require_text(text, query.m)
    if k_eff < 1:
        raise ValueError(
            "non-periodic counting needs k >= 1 (its budget split divides by k); "
            "k = 0 queries belong to the existence or trivial paths"
        )
    if k_eff < query.k:
        raise ValueError(f"effective_k {k_eff} is below the query's k = {query.k}")
    n, m, text, pattern = len(text), query.m, bytes(text), bytes(query.pattern)
    cap = WINDOW_OCCURRENCE_CAP * k_eff
    contract = error_contract(
        "count_nonperiodic", n, m, k_eff, query.epsilon, query.beta
    )
    thresh = contract.threshold
    paid, size, t_scale, d_scale, bound = _count_shape(n, m, cap, query.epsilon, contract)
    uniform = CountOutcome(size, 0, size)
    per_block = max(1, _BLOCK // size)
    distances = cache(partial(_frozen_distances, text, pattern))

    @cache
    def chain() -> np.ndarray:  # the uniform run's first distances
        dist = distances()
        if size == len(dist):
            return dist
        return np.concatenate([dist[lo : lo + runs] for lo, runs, _ in paid.records])

    # The kernel's windows: a window's starts are its distances' indices.
    windows = cache(lambda: tuple((a, b - m + 1, (a, b)) for a, _, b in paid.records))

    def counted(src: NoiseSource) -> tuple[CountOutcome, BudgetLedger]:
        total, witness, spent = below_thresh(
            distances(), thresh, t_scale, d_scale, src, windows(), cap
        )
        ledger = BudgetLedger(paid.epsilon, paid.share, spent)
        ledger.assert_within_cap()
        count = min(max(total, 0), n - m + 1)
        return CountOutcome(count=count, witness=witness, raw_count=total), ledger

    def scan(src: NoiseSource) -> tuple[CountOutcome, BudgetLedger]:
        if _uniform_runs(src, size, chain, thresh, t_scale, d_scale, bound, 1):
            return uniform, paid
        return counted(src)

    def batch(src: NoiseSource, runs: int) -> Counter:
        # Blocks of runs are compared at once while at most one run in
        # _RUN_ON has not been uniform, each block up to twice the mean
        # stretch of uniform runs between them (a run that is not uniform
        # ends its block and costs a compare); otherwise runs go one at a
        # time through the kernel, as in `_first_hits`.
        counts = Counter()
        odd = 0  # runs whose count is not the uniform run's
        left = runs
        while left:
            done = runs - left
            if _RUN_ON * odd <= done:
                block = min(left, per_block, 2 * done // odd if odd else left)
                j = _uniform_runs(
                    src, size, chain, thresh, t_scale, d_scale, bound, block
                )
                counts[uniform] += j
                left -= j
                if j == block:
                    continue
            outcome, _ = counted(src)
            counts[outcome] += 1
            odd += outcome.raw_count != size
            left -= 1
        return +counts  # without a uniform count of 0

    return contract, scan, batch


def _fixed(outcome: Outcome, ledger: BudgetLedger) -> tuple[Scan, Batch]:
    """The noisy half of a matcher that draws nothing, and its batch: every
    run answers ``outcome`` and ``ledger``."""
    return (
        lambda src: (outcome, ledger),
        lambda src, runs: Counter({outcome: runs} if runs else {}),
    )


def _prepare_trivial(text: bytes, query: MatchQuery) -> tuple[Contract, Scan, Batch]:
    """The trivial reporter: every start position. It reads only the
    lengths, so its noisy half reads no source: it draws nothing, every run
    answers with the one empty ledger built here, and it is private at any
    epsilon."""
    _require_text(text, query.m)
    contract = error_contract(
        "trivial_all", len(text), query.m, query.k, query.epsilon, query.beta
    )
    report = ReportOutcome(tuple(range(len(text) - query.m + 1)))
    return contract, *_fixed(report, BudgetLedger(query.epsilon, contract.share))


def _prepare_reporter(
    text: bytes, query: MatchQuery, candidate: Optional[PeriodicCandidate]
) -> tuple[Regime, str, Contract, Scan, Optional[Batch]]:
    """The one report-or-trivial choice: periodic reporting on ``candidate``,
    or the trivial reporter when there is none. Returns the regime tag, the
    matcher that runs, its contract, its noisy half and its batch (the
    trivial reporter's; periodic reporting has none)."""
    if candidate is None:
        return Regime.TRIVIAL_FALLBACK, "trivial_all", *_prepare_trivial(text, query)
    contract, scan = _prepare_report(text, query, candidate)
    return Regime.PERIODIC_REPORTING, "report_periodic", contract, scan, None


# --- auto-dispatching front door --------------------------------------------

VARIANTS = ("auto", "existence", "count", "report")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of an auto-dispatched query, tagged with the regime that ran,
    the run's ledger (the plan's certified one where the plan fixed the
    run's records) and the error contract of the matcher that produced it."""

    regime: Regime
    decision: DispatchDecision
    outcome: Outcome
    ledger: BudgetLedger
    contract: Contract

    def to_record(self, query: MatchQuery, seed: Optional[int] = None) -> dict:
        """Flat serializable record; the field set is the CLI wire contract.
        ``seed``, the root seed the caller derived the source from, is
        echoed as a plain int."""
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
            seed=None if seed is None else check_int("seed", seed, 0, MAX_SEED),
            budget_max=float(self.ledger.max_spent),
        )
        return record


def _as_count(scan: Scan) -> Scan:
    """A reporter's noisy half that answers with the size of its report."""

    def count(src: NoiseSource) -> tuple[CountOutcome, BudgetLedger]:
        report, ledger = scan(src)
        size = len(report.positions)
        return CountOutcome(size, report.positions[0] if size else None, size), ledger

    return count


@dataclass(frozen=True)
class QueryPlan:
    """The deterministic half of one query on one text: the dispatch, the
    matcher that runs and its contract, and the distances that matcher
    reads (a counting plan's once a run first needs them). ``run`` is the
    noisy half; each call reads the source's stream from its cursor, so runs
    on one source read consecutive draws. Its ledger is the plan's certified
    one where the plan fixed the run's records (the trivial reporter's is
    empty); a counting run the noise decides checks one of its own.
    ``batch`` serves many runs at once where the matcher has one (existence,
    counting and the trivial reporter; not periodic reporting), for
    `tally`."""

    regime: Regime
    decision: DispatchDecision
    matcher: str
    contract: Contract
    scan: Scan = field(repr=False)
    batch: Optional[Batch] = field(default=None, repr=False)

    def run(self, src: NoiseSource) -> MatchResult:
        outcome, ledger = self.scan(src)
        return MatchResult(self.regime, self.decision, outcome, ledger, self.contract)

    def outcome(self, src: NoiseSource) -> Outcome:
        """``run(src).outcome``, without building the `MatchResult`."""
        return self.scan(src)[0]

    def tally(self, src: NoiseSource, runs: int) -> Counter[Outcome]:
        """How often each outcome comes out of ``runs`` consecutive runs on
        ``src``: ``Counter(self.outcome(src) for _ in range(runs))`` seed
        for seed, leaving the source's cursor where those runs leave it. A
        counting plan compares blocks of runs with its uniform run (every
        scan hits at its first distance) and runs the others one by one,
        each checking a ledger of its own; `plan` certified the rest. An
        existence plan leads each block with that compare on its first
        distance and serves the rest in a pass over peeked draws. The
        trivial reporter's plan draws nothing and counts its one outcome. A
        periodic reporting plan runs ``outcome`` ``runs`` times."""
        runs = check_int("runs", runs)
        if self.batch is None:
            return Counter(self.outcome(src) for _ in range(runs))
        return self.batch(src, runs)


def plan(text: bytes, query: MatchQuery, variant: str = "auto") -> QueryPlan:
    """Validate the query, dispatch on the public pattern and prepare the
    selected matcher: everything of :func:`match_auto` that does not depend
    on the noise. It never sees a noise source, so it cannot draw. Raises
    `PrivacyBudgetExceeded` when the records that bound every run's
    overspend."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _require_text(text, query.m)
    decision = dispatch(query.pattern, query.k, len(text), query.epsilon, query.beta)
    regime = decision.regime

    batch = None
    if variant == "existence":
        matcher = "existence"
        contract, scan, batch = _prepare_existence(text, query)
    elif variant != "report" and regime in (
        Regime.NON_PERIODIC_COUNTING,
        Regime.SMALL_K_COUNTING,
    ):
        matcher = "count_nonperiodic"
        contract, scan, batch = _prepare_count(text, query, decision.effective_k)
    else:
        # Dispatch sets a candidate only in the periodic regime; the trivial
        # regime, and a report request the counting regimes cannot serve,
        # get the trivial reporter.
        regime, matcher, contract, scan, batch = _prepare_reporter(
            text, query, decision.candidate
        )
        if variant == "count":
            scan = _as_count(scan)
            if matcher == "trivial_all":
                # It reads no source: its count is fixed too.
                scan, batch = _fixed(*scan(None))
    return QueryPlan(regime, decision, matcher, contract, scan, batch)


def match_auto(
    text: bytes,
    query: MatchQuery,
    src: NoiseSource,
    variant: str = "auto",
) -> MatchResult:
    """Dispatch on the public pattern, run the selected matcher, and return
    the outcome together with the regime tag, the run's budget ledger and the
    contract of the matcher that ran: ``plan(text, query, variant).run(src)``.

    ``variant`` narrows the output type: ``existence`` always runs the
    existence scan (``regime`` still carries the dispatch tag); ``count``
    converts a periodic report into its size; ``report`` falls back to the
    trivial reporter when the counting regimes were selected (they provide no
    reporting guarantee). With a fixed seed the result is a deterministic
    function of the inputs.
    """
    return plan(text, query, variant).run(src)
