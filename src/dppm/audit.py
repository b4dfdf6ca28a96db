"""Empirical verification rig for the private matchers.

Three instruments:

* utility experiments — run a matcher over generated instances with known
  exact answers and record how often the advertised error bounds are met;
* frequency-ratio privacy audits — run a mechanism many times on a pair of
  close strings and look for an output label whose frequencies certify a
  ratio above ``e^(d*epsilon)`` (such a certificate refutes the privacy claim;
  its absence proves nothing and is reported as "not refuted"). Each audited
  mechanism is one ``AUDIT_MATCHERS`` entry ``(text, query) -> (src ->
  label)``: the entry prepares what the fixed text and query decide and
  never sees the noise source; the trial it returns runs the noisy rest. The
  CLI matchers prepare a :func:`~dppm.matchers.plan` and label each run's
  outcome with :func:`outcome_label`, and a broken mechanism such as the
  no-noise canary is one more entry;
* packing families — the pairwise-distant string constructions showing that
  witness-returning private matchers need additive error that grows with the
  log of the number of plantable positions.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .matchers import (
    CountOutcome,
    ExistenceOutcome,
    MatchQuery,
    Outcome,
    ReportOutcome,
    error_contract,
    match_auto,
    plan,
    report_periodic,
    trivial_all,
)
from .noise import MODES, NoiseSource, derive_seed
from .periodicity import Regime, check_query, is_primitive, widest_close_period
from .text import distance_array, hamming_distance, tile

TEXT_ALPHABET = b"acgt"
DISJOINT_ALPHABET = b"0123"


# --- instance generators ------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """A generated (text, pattern) pair plus whatever ground truth the
    generator knows (planted position, periodic root)."""

    text: bytes
    pattern: bytes
    planted_position: Optional[int] = None
    root: Optional[bytes] = None


def _random_string(rng: np.random.Generator, alphabet: bytes, length: int) -> bytearray:
    symbols = np.frombuffer(alphabet, np.uint8)
    return bytearray(symbols[rng.integers(0, len(symbols), size=length)].tobytes())


def _corrupt(
    buf: bytearray, rng: np.random.Generator, alphabet: bytes, positions: np.ndarray
) -> None:
    # Replacement symbols are drawn from the alphabet excluding the current
    # one, so each corruption changes the string.
    for pos in positions:
        current = alphabet.index(buf[pos]) if buf[pos] in alphabet else -1
        shift = int(rng.integers(1, len(alphabet)))
        buf[pos] = alphabet[(current + shift) % len(alphabet)]


def gen_uniform(cfg: "TrialConfig", rng: np.random.Generator) -> Instance:
    """Uniform random text and pattern over a 4-symbol alphabet."""
    text = _random_string(rng, TEXT_ALPHABET, cfg.n)
    pattern = _random_string(rng, TEXT_ALPHABET, cfg.m)
    return Instance(bytes(text), bytes(pattern))


def gen_planted(cfg: "TrialConfig", rng: np.random.Generator) -> Instance:
    """Random text with the pattern planted at a random position and corrupted
    in exactly k places, so the planted window has distance exactly k."""
    text = _random_string(rng, TEXT_ALPHABET, cfg.n)
    pattern = bytes(_random_string(rng, TEXT_ALPHABET, cfg.m))
    pos = int(rng.integers(0, cfg.n - cfg.m + 1))
    text[pos : pos + cfg.m] = pattern
    offsets = rng.choice(cfg.m, size=cfg.k, replace=False) if cfg.k else np.empty(0, int)
    _corrupt(text, rng, TEXT_ALPHABET, pos + np.asarray(offsets, dtype=int))
    return Instance(bytes(text), pattern, planted_position=pos)


def gen_periodic(cfg: "TrialConfig", rng: np.random.Generator) -> Instance:
    """Text equal to a short primitive root tiled to length n, then corrupted
    in k random places; the pattern is the uncorrupted tiling to length m."""
    while True:
        root = bytes(_random_string(rng, TEXT_ALPHABET, cfg.period_length))
        if is_primitive(root):
            break
    text = bytearray(tile(root, cfg.n))
    positions = rng.choice(cfg.n, size=cfg.k, replace=False) if cfg.k else np.empty(0, int)
    _corrupt(text, rng, TEXT_ALPHABET, np.asarray(positions, dtype=int))
    return Instance(bytes(text), tile(root, cfg.m), root=root)


def gen_disjoint(cfg: "TrialConfig", rng: np.random.Generator) -> Instance:
    """Text and pattern over disjoint alphabets: every distance equals m."""
    text = _random_string(rng, TEXT_ALPHABET, cfg.n)
    pattern = _random_string(rng, DISJOINT_ALPHABET, cfg.m)
    return Instance(bytes(text), bytes(pattern))


GENERATORS: dict[str, Callable[["TrialConfig", np.random.Generator], Instance]] = {
    "uniform-random": gen_uniform,
    "planted-occurrence": gen_planted,
    "periodic-with-corruptions": gen_periodic,
    "disjoint-alphabet": gen_disjoint,
}


@dataclass(frozen=True)
class TrialConfig:
    """Parameters for one utility experiment."""

    n: int
    m: int
    k: int
    epsilon: float
    beta: float
    trials: int
    seed: int
    generator: str
    period_length: int = 2
    noise: str = "standard"
    # Target success probability for the pass/fail summary; defaults to
    # 1 - beta (the matchers' own guarantee level).
    target: Optional[float] = None

    def __post_init__(self) -> None:
        check_query(self.m, self.k, self.epsilon, self.beta, self.n)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.generator not in GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator!r}; known: {sorted(GENERATORS)}"
            )
        if self.period_length < 1:
            raise ValueError("period_length must be at least 1")
        if self.noise not in MODES:
            raise ValueError(f"noise must be one of {MODES}, got {self.noise!r}")
        if self.target is not None and not 0 < self.target < 1:
            raise ValueError(f"target must lie in (0, 1), got {self.target}")

    @property
    def target_probability(self) -> float:
        return self.target if self.target is not None else 1.0 - self.beta

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "TrialConfig":
        """Build from a flat string mapping (the bench config file format),
        converting each value by its field's annotated type."""
        types = get_type_hints(cls)
        kwargs: dict = {}
        for key, raw in mapping.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            kind = types[key]
            if get_origin(kind) is Union:  # Optional[X]: convert to X
                (kind,) = set(get_args(kind)) - {type(None)}
            kwargs[key] = kind(raw)
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(kwargs)
        if missing:
            raise ValueError(f"config missing required keys: {sorted(missing)}")
        return cls(**kwargs)


# --- utility experiments ------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome versus the exact oracle."""

    trial: int
    algorithm: str = ""
    found: Optional[bool] = None
    count: Optional[int] = None
    reported: Optional[int] = None
    witness: Optional[int] = None
    witness_distance: Optional[int] = None
    bound: Optional[float] = None
    completeness_ok: Optional[bool] = None
    soundness_ok: Optional[bool] = None
    violated: bool = False
    error: str = ""

    def row(self) -> list:
        values = (getattr(self, c) for c in _COLUMNS)
        return ["" if v is None else v for v in values]


_COLUMNS = tuple(f.name for f in fields(TrialRecord))


@dataclass
class UtilityReport:
    """Aggregate of a utility experiment.

    ``runtime_seconds`` is informational and deliberately excluded from the
    serialized rows so that equal seeds produce byte-identical output.
    """

    config: TrialConfig
    variant: str
    records: list[TrialRecord] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def violation_count(self) -> int:
        return sum(1 for r in self.records if r.violated)

    @property
    def violation_rate(self) -> float:
        return self.violation_count / len(self.records)

    @property
    def allowed_violation_rate(self) -> float:
        """Guarantee level plus three-sigma binomial slack."""
        miss = 1.0 - self.config.target_probability
        sigma = math.sqrt(miss * (1.0 - miss) / len(self.records))
        return miss + 3.0 * sigma

    @property
    def max_additive_error(self) -> int:
        worst = 0
        for r in self.records:
            if r.witness_distance is not None:
                worst = max(worst, r.witness_distance - self.config.k)
        return max(worst, 0)

    @property
    def passed(self) -> bool:
        return self.violation_rate <= self.allowed_violation_rate

    def to_rows(self) -> list[list]:
        """Header, one row per trial, and a summary row (CSV shape)."""
        rows = [list(_COLUMNS)]
        rows.extend(r.row() for r in self.records)
        rows.append(
            [
                "summary",
                self.variant,
                sum(1 for r in self.records if r.found),
                len(self.records),
                sum(1 for r in self.records if r.error),
                "",
                self.max_additive_error,
                self.allowed_violation_rate,
                sum(1 for r in self.records if r.completeness_ok),
                sum(1 for r in self.records if r.soundness_ok),
                self.violation_rate,
                "pass" if self.passed else "fail",
            ]
        )
        return rows


def _run_report(
    text: bytes, query: MatchQuery, src: NoiseSource
) -> tuple[str, ReportOutcome, float]:
    """The report variant's matcher, its regime tag and its contract bound:
    periodic reporting whenever the pattern has a close period and m >= 2,
    else the trivial reporter. Bypasses dispatch, which never picks reporting
    at desk epsilon."""
    candidate = widest_close_period(query.pattern, query.k)
    if candidate is not None and query.m >= 2:
        regime, matcher = Regime.PERIODIC_REPORTING, "report_periodic"
        outcome = report_periodic(text, query, candidate, src)
    else:
        regime, matcher = Regime.TRIVIAL_FALLBACK, "trivial_all"
        outcome = trivial_all(text, query)
    contract = error_contract(
        matcher, len(text), query.m, query.k, query.epsilon, query.beta
    )
    return regime.value, outcome, contract.bound


def _run_trial(
    inst: Instance, cfg: TrialConfig, variant: str, src: NoiseSource, trial: int
) -> TrialRecord:
    """Run one matcher of ``variant`` and judge it by the exact distances.

    Sound: every returned position (the witness, or each reported position)
    lies within the contract's bound, and a count is at most the number of
    windows within it. Complete: no window within k is missed.
    """
    query = MatchQuery(inst.pattern, cfg.k, cfg.epsilon, cfg.beta)
    if variant == "report":
        algorithm, outcome, bound = _run_report(inst.text, query, src)
    else:
        result = match_auto(inst.text, query, src, variant)
        outcome, bound = result.outcome, result.contract.bound
        algorithm = variant if variant == "existence" else result.regime.value
    d = distance_array(inst.text, inst.pattern)
    within_k = d <= cfg.k
    found = count = reported = None
    if isinstance(outcome, ReportOutcome):
        returned, reported = outcome.positions, len(outcome.positions)
        completeness = set(np.flatnonzero(within_k).tolist()) <= set(returned)
    else:
        returned = () if outcome.witness is None else (outcome.witness,)
        if isinstance(outcome, ExistenceOutcome):
            found = outcome.found
            completeness = found or not within_k.any()
        else:
            count = outcome.count
            completeness = count >= int(within_k.sum())
    wd = int(d[list(returned)].max()) if returned else None
    soundness = (wd is None or wd <= bound) and (
        count is None or count <= int((d <= bound).sum())
    )
    return TrialRecord(
        trial=trial,
        algorithm=algorithm,
        found=found,
        count=count,
        reported=reported,
        witness=returned[0] if returned else None,
        witness_distance=wd,
        bound=bound,
        completeness_ok=completeness,
        soundness_ok=soundness,
        violated=not (completeness and soundness),
    )


VARIANTS = ("existence", "count", "report")


def run_utility_experiment(cfg: TrialConfig, variant: str) -> UtilityReport:
    """Run ``cfg.trials`` seeded trials of the given variant and compare each
    against the exact oracle. Parameter errors (``ValueError``) from the
    generator or matcher are recorded on the trial (as violated) rather than
    aborting the experiment; a privacy-cap failure is not caught."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    generate = GENERATORS[cfg.generator]
    report = UtilityReport(config=cfg, variant=variant)
    started = time.perf_counter()
    # derive_seed(derive_seed(r, a), b) == derive_seed(r, a, b): mix each
    # lane into the root once, not once per trial.
    instance_seed = derive_seed(cfg.seed, 1)
    noise_seed = derive_seed(cfg.seed, 2)
    for trial in range(cfg.trials):
        instance_rng = np.random.Generator(
            np.random.PCG64(derive_seed(instance_seed, trial))
        )
        src = NoiseSource(derive_seed(noise_seed, trial), mode=cfg.noise)
        try:
            inst = generate(cfg, instance_rng)
            record = _run_trial(inst, cfg, variant, src, trial)
        except ValueError as exc:
            record = TrialRecord(trial=trial, violated=True, error=str(exc))
        report.records.append(record)
    report.runtime_seconds = time.perf_counter() - started
    return report


# --- differential privacy audit ----------------------------------------------

CONFIDENCE = 0.999  # two-sided level of every audit's Clopper-Pearson intervals


def clopper_pearson(successes: int, trials: int, confidence: float = CONFIDENCE) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided binomial confidence interval."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    # Imported here, not at module top: scipy.special is most of a cold
    # `import dppm`, and only this function needs it.
    from scipy.special import betaincinv

    tail = (1.0 - confidence) / 2.0
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, tail))
    hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1.0 - tail))
    return lo, hi


def outcome_label(outcome: Outcome) -> str:
    """The audit category of an outcome, at most 16 per outcome type.

    Existence: ``NO``, or the witness as ``w0`` .. ``w14`` (capped at 14).
    Count: ``c0`` .. ``c14`` (capped at 14). Report: a stable hash of the
    reported position set, ``h0`` .. ``h15``.
    """
    if isinstance(outcome, ExistenceOutcome):
        return f"w{min(outcome.witness, 14)}" if outcome.found else "NO"
    if isinstance(outcome, CountOutcome):
        return f"c{min(outcome.count, 14)}"
    assert isinstance(outcome, ReportOutcome)
    payload = ",".join(map(str, outcome.positions)).encode()
    return f"h{hashlib.blake2b(payload, digest_size=8).digest()[0] & 15}"


# An audited mechanism: prepare(text, query) -> trial, and trial(src) -> label.
Trial = Callable[[NoiseSource], str]
Mechanism = Callable[[bytes, MatchQuery], Trial]


def _canary(text: bytes, query: MatchQuery) -> Trial:
    """Deliberately broken matcher: the exact first k-mismatch position with
    no noise, found once. Exists so the audit's power can be demonstrated;
    it must fail."""
    hits = np.flatnonzero(distance_array(text, query.pattern) <= query.k)
    witness = int(hits[0]) if len(hits) else None
    label = outcome_label(ExistenceOutcome(found=witness is not None, witness=witness))
    return lambda src: label


def _labelled(variant: str) -> Mechanism:
    """The audit entry of a ``match_auto`` variant: prepare its plan once,
    and label each run's outcome."""

    def prepare(text: bytes, query: MatchQuery) -> Trial:
        outcome = plan(text, query, variant).outcome
        return lambda src: outcome_label(outcome(src))

    return prepare


# The audited mechanisms: an entry prepares what the fixed text and query
# decide, and the trial it returns runs the noisy rest on each source it is
# given.
AUDIT_MATCHERS: dict[str, Mechanism] = {
    "existence": _labelled("existence"),
    "count": _labelled("count"),
    "report": _labelled("report"),
    "auto": _labelled("auto"),
    "canary": _canary,
}


@dataclass(frozen=True)
class CategoryAudit:
    """Frequency comparison for one outcome category."""

    label: str
    count_a: int
    count_b: int
    freq_a: float
    freq_b: float
    ci_a: tuple[float, float]
    ci_b: tuple[float, float]
    refuted: bool

    def record(self) -> dict:
        return {
            "category": self.label,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "freq_a": self.freq_a,
            "freq_b": self.freq_b,
            "ci_a_low": self.ci_a[0],
            "ci_a_high": self.ci_a[1],
            "ci_b_low": self.ci_b[0],
            "ci_b_high": self.ci_b[1],
            "refuted": self.refuted,
        }


@dataclass(frozen=True)
class DpAuditReport:
    """Result of a frequency-ratio audit.

    ``refuted`` means some category's confidence intervals certify a frequency
    ratio above ``ratio_bound`` at the audit's confidence level. The converse
    never holds: a passing audit says "not refuted", not "private".
    """

    matcher: str
    trials: int
    seed: int
    distance: int
    epsilon: float
    ratio_bound: float
    confidence: float
    categories: tuple[CategoryAudit, ...]
    refuted: bool

    def to_records(self) -> list[dict]:
        rows = [c.record() for c in self.categories]
        rows.append(
            {
                "summary": True,
                "matcher": self.matcher,
                "trials": self.trials,
                "seed": self.seed,
                "distance": self.distance,
                "epsilon": self.epsilon,
                "ratio_bound": self.ratio_bound,
                "confidence": self.confidence,
                "result": "refuted" if self.refuted else "not-refuted",
            }
        )
        return rows


def dp_audit(
    matcher: str,
    text_a: bytes,
    text_b: bytes,
    query: MatchQuery,
    trials: int,
    *,
    seed: int = 0,
    group: bool = False,
) -> DpAuditReport:
    """Frequency-ratio audit of ``AUDIT_MATCHERS[matcher]`` on two close strings.

    Calls the entry once per string, ``prepare(text, query)``, which never
    sees the noise source, then calls the trial it returns ``trials`` times
    on that string's source, counts the labels, and checks both directions
    per label: the audit refutes privacy only when the lower confidence
    bound of one string's frequency exceeds ``e^(d*epsilon)`` times the
    upper confidence bound of the other's (Clopper-Pearson intervals at
    ``CONFIDENCE``). The test is symmetric in
    the two strings and seed-reproducible.

    Each string is one lane with one noise stream,
    ``NoiseSource(derive_seed(seed, lane))``, and its trials read that stream
    in turn, each starting at the first draw the trial before did not serve.
    The trials are still i.i.d.: a trial's label is a function of the draws
    it served (the kernel serves every unit that decided a comparison, and a
    unit it only peeked at decides nothing), and the served prefix is a
    stopping time of an i.i.d. stream, so the draws after it are fresh i.i.d.
    draws for the next trial.

    In strict mode the strings must be neighboring (Hamming distance 1;
    identical strings are also accepted as a degenerate sanity case). With
    ``group=True`` any distance d >= 1 is allowed and the ratio bound scales
    to ``e^(d*epsilon)``.
    """
    if matcher not in AUDIT_MATCHERS:
        raise ValueError(f"unknown matcher {matcher!r}; known: {sorted(AUDIT_MATCHERS)}")
    if len(text_a) != len(text_b):
        raise ValueError("audited strings must have equal length")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    distance = hamming_distance(text_a, text_b)
    if not group and distance > 1:
        raise ValueError(
            f"strings at Hamming distance {distance} are not neighboring; "
            "pass group=True to audit at the group-privacy bound"
        )
    prepare = AUDIT_MATCHERS[matcher]
    try:
        ratio_bound = math.exp(distance * query.epsilon)
    except OverflowError:
        raise ValueError(
            f"ratio bound e^(d*epsilon) overflows at d={distance}, "
            f"epsilon={query.epsilon!r}"
        ) from None

    counts: list[dict[str, int]] = [{}, {}]
    for lane, text in enumerate((text_a, text_b)):
        lane_counts = counts[lane]
        trial = prepare(text, query)
        src = NoiseSource(derive_seed(seed, lane))
        for _ in range(trials):
            label = trial(src)
            lane_counts[label] = lane_counts.get(label, 0) + 1

    categories = []
    refuted_any = False
    for label in sorted(set(counts[0]) | set(counts[1])):
        ca, cb = counts[0].get(label, 0), counts[1].get(label, 0)
        lo_a, hi_a = clopper_pearson(ca, trials)
        lo_b, hi_b = clopper_pearson(cb, trials)
        refuted = lo_a > ratio_bound * hi_b or lo_b > ratio_bound * hi_a
        refuted_any = refuted_any or refuted
        categories.append(
            CategoryAudit(
                label=label,
                count_a=ca,
                count_b=cb,
                freq_a=ca / trials,
                freq_b=cb / trials,
                ci_a=(lo_a, hi_a),
                ci_b=(lo_b, hi_b),
                refuted=refuted,
            )
        )
    return DpAuditReport(
        matcher=matcher,
        trials=trials,
        seed=seed,
        distance=distance,
        epsilon=query.epsilon,
        ratio_bound=ratio_bound,
        confidence=CONFIDENCE,
        categories=tuple(categories),
        refuted=refuted_any,
    )


# --- packing families ---------------------------------------------------------

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
