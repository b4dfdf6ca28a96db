"""The benchmark's workloads: input generation, the timed call, and the check.

Every workload draws its inputs from the workload seed alone, computes its
exact oracles and contract bounds before any call is timed, and times nothing
but one call into dppm's public API. All three use real noise (standard
mode, calibrated thresholds): zero-noise mode or a threshold override would
void privacy and measure a different program.

A workload object exposes:

* ``params`` -- the parameters stamped on every result;
* ``call(i)`` -- the i-th top-level call, the only code that is timed;
* ``check(i, result)`` -- failure reasons for that call's output (empty when
  correct); it reads only the precomputed oracles;
* ``key(result)`` -- what must repeat when call ``i`` is re-run with the
  same seed;
* ``positions_per_call`` / ``trials_per_call`` -- the work one call
  completes, for the throughput metrics.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import dppm

ACGT = np.frombuffer(b"acgt", np.uint8)


def noise_seed(seed: int, call: int) -> int:
    """64-bit NoiseSource seed of the ``call``-th call of a run."""
    return int(np.random.SeedSequence([seed, call]).generate_state(1, np.uint64)[0])


def random_acgt(rng: np.random.Generator, length: int) -> bytes:
    return ACGT[rng.integers(0, 4, length)].tobytes()


def _ledger_failures(result, epsilon: float) -> list[str]:
    spent = result.ledger.max_spent
    if spent > Fraction(epsilon):
        return [f"ledger max_spent {float(spent)} > epsilon {epsilon}"]
    return []


class ExistScan:
    """One long noisy threshold scan per query.

    The threshold (about 61) sits far below the distance of a random window
    (about 192), so each scan walks to the planted copy in the last 1% of the
    text: text (sliding distances) and noise (one draw per position) do the
    work, while the ledger and the scan loop run once per query.

    n is 3e4 rather than 1e6 so that one call takes a few hundredths of a
    second: a run then holds hundreds of calls, and the host's speed barely
    changes between a call and the reference loop timed just before it.
    """

    name = "exist-scan"
    N, M, K, EPSILON, BETA = 30_000, 256, 8, 2.0, 0.1
    TEXTS = 3

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        n, m, k = self.N, self.M, self.K
        # Existence contract (gamma = 0): alpha = 16/eps (ln(n-m+1) + ln(2/beta)).
        self.witness_bound = k + 16.0 / self.EPSILON * (
            math.log(n - m + 1) + math.log(2.0 / self.BETA)
        )
        self.cases = []
        for _ in range(self.TEXTS):
            text = bytearray(random_acgt(rng, n))
            codes = rng.integers(0, 4, m)
            pattern = ACGT[codes].tobytes()
            # A copy with exactly k substitutions, planted in the last 1%.
            flip = rng.choice(m, k, replace=False)
            codes[flip] = (codes[flip] + rng.integers(1, 4, k)) % 4
            at = int(rng.integers(n - n // 100, n - m + 1))
            text[at : at + m] = ACGT[codes].tobytes()
            text = bytes(text)
            distances = np.asarray(dppm.sliding_distances(text, pattern), np.int32)
            truth = np.flatnonzero(distances <= k)
            query = dppm.MatchQuery(pattern, k, self.EPSILON, self.BETA)
            self.cases.append((text, query, truth))
        self.seed = seed
        self.params = {"n": n, "m": m, "k": k, "epsilon": self.EPSILON,
                       "beta": self.BETA, "texts": self.TEXTS,
                       "variant": "existence"}
        self.positions_per_call = n - m + 1
        self.trials_per_call = 1

    def call(self, i: int):
        text, query, _ = self.cases[i % len(self.cases)]
        return dppm.match_auto(
            text, query, dppm.NoiseSource(noise_seed(self.seed, i)), variant="existence"
        )

    def check(self, i: int, result) -> list[str]:
        text, query, truth = self.cases[i % len(self.cases)]
        out = result.outcome
        bad = _ledger_failures(result, query.epsilon)
        if len(truth) and not out.found:
            bad.append(f"missed {len(truth)} true k-mismatch windows")
        if out.found:
            w = out.witness
            if not 0 <= w <= len(text) - query.m:
                bad.append(f"witness {w} out of range")
            else:
                d = dppm.hamming_distance(text[w : w + query.m], query.pattern)
                if d > self.witness_bound:
                    bad.append(f"witness distance {d} > bound {self.witness_bound:.2f}")
        return bad

    @staticmethod
    def key(result):
        return (result.regime, result.outcome)


class CountDesk:
    """Many short scans: the ROADMAP's counting configuration, at small n.

    At desk parameters the threshold is far above m, so every scan hits at its
    first position: n - m + 1 scans per query, each with one short distance,
    two draws and one ledger span, and two ``max_spent`` sweeps over all the
    spans at the end. The work sits in the matchers' restart loop and the
    ``Fraction`` ledger, not in text.

    n is 2500 rather than the ROADMAP's 1e5 so that one call takes a few
    hundredths of a second, as in the other workloads. The per-scan work
    does not depend on n.
    """

    name = "count-desk"
    N, M, K, EPSILON, BETA = 2_500, 64, 3, 1.0, 0.1
    TEXTS = 3

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        n, m, k = self.N, self.M, self.K
        # Non-periodic contract: the count lies between the true counts at k
        # and (1 + gamma) k, gamma = 36864/eps (ln m + ln(2304 (n/m) k / beta)).
        gamma = 36864.0 / self.EPSILON * (
            math.log(m) + math.log(2304.0 * (n / m) * k / self.BETA)
        )
        self.witness_bound = (1.0 + gamma) * k
        upper_x = min(m, math.floor(self.witness_bound))
        self.cases = []
        for _ in range(self.TEXTS):
            text = random_acgt(rng, n)
            pattern = random_acgt(rng, m)
            lower = dppm.exact_count(text, pattern, k)
            upper = dppm.exact_count(text, pattern, upper_x)
            query = dppm.MatchQuery(pattern, k, self.EPSILON, self.BETA)
            self.cases.append((text, query, lower, upper))
        self.seed = seed
        self.params = {"n": n, "m": m, "k": k, "epsilon": self.EPSILON,
                       "beta": self.BETA, "texts": self.TEXTS, "variant": "count"}
        self.positions_per_call = n - m + 1
        self.trials_per_call = 1

    def call(self, i: int):
        text, query, _, _ = self.cases[i % len(self.cases)]
        return dppm.match_auto(
            text, query, dppm.NoiseSource(noise_seed(self.seed, i)), variant="count"
        )

    def check(self, i: int, result) -> list[str]:
        text, query, lower, upper = self.cases[i % len(self.cases)]
        out = result.outcome
        bad = _ledger_failures(result, query.epsilon)
        if result.regime != dppm.Regime.NON_PERIODIC_COUNTING:
            bad.append(f"dispatched to {result.regime}, expected NonPeriodicCounting")
        if not lower <= out.count <= upper:
            bad.append(f"count {out.count} outside [{lower}, {upper}]")
        if out.witness is not None:
            w = out.witness
            if not 0 <= w <= len(text) - query.m:
                bad.append(f"witness {w} out of range")
            elif dppm.hamming_distance(text[w : w + query.m], query.pattern) > self.witness_bound:
                bad.append(f"witness {w} beyond bound {self.witness_bound:.0f}")
        return bad

    key = staticmethod(ExistScan.key)


class AuditExistence:
    """Many tiny queries: the DP audit at the C7 configuration.

    Each trial seeds a fresh NoiseSource, builds a fresh ledger, makes two
    draws and takes the pure-Python distance path, so per-query set-up costs
    that long scans hide show here. 250 trials per string keep one call near
    0.02 s, so a run holds many calls.
    """

    name = "audit-existence"
    TEXT_A, TEXT_B, PATTERN = b"ababab", b"abbbab", b"ba"
    K, EPSILON, BETA = 0, 1.0, 0.1
    TRIALS = 250

    def __init__(self, seed: int):
        self.seed = seed
        self.query = dppm.MatchQuery(self.PATTERN, self.K, self.EPSILON, self.BETA)
        n, m = len(self.TEXT_A), len(self.PATTERN)
        self.labels = {"NO"} | {f"w{j}" for j in range(n - m + 1)}
        self.params = {"n": n, "m": m, "k": self.K, "epsilon": self.EPSILON,
                       "beta": self.BETA, "trials": self.TRIALS,
                       "matcher": "existence"}
        self.positions_per_call = 2 * self.TRIALS * (n - m + 1)
        self.trials_per_call = 2 * self.TRIALS

    def call(self, i: int):
        return dppm.dp_audit(
            "existence", self.TEXT_A, self.TEXT_B, self.query,
            trials=self.TRIALS, seed=noise_seed(self.seed, i),
        )

    def check(self, i: int, report) -> list[str]:
        bad = []
        if report.refuted:
            bad.append("audit refuted the genuine existence matcher")
        if report.trials != self.TRIALS or report.distance != 1:
            bad.append(f"report trials={report.trials} distance={report.distance}")
        for side in ("count_a", "count_b"):
            total = sum(getattr(c, side) for c in report.categories)
            if total != self.TRIALS:
                bad.append(f"{side} sums to {total}, expected {self.TRIALS}")
        unknown = {c.label for c in report.categories} - self.labels
        if unknown:
            bad.append(f"unexpected outcome categories {sorted(unknown)}")
        return bad

    @staticmethod
    def key(report):
        return report.to_records()


WORKLOADS = {w.name: w for w in (ExistScan, CountDesk, AuditExistence)}
