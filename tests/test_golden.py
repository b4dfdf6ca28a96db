"""Seeded golden outputs: the regression oracle for refactors.

``golden_outputs.jsonl`` pins, over a fixed grid of instances and seeds, what
``match_auto`` returns under every variant (regime, outcome, exact ledger
peak and the CLI record bytes), the utility-experiment rows, and the DP-audit
records of every audit matcher. The grid covers all four regimes and includes
high-epsilon cases whose thresholds lie below m, so a changed threshold or
bound changes an entry. A refactor that promises equal outputs seed for seed
must leave every entry byte-identical.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only for a
change that is meant to alter seeded outputs, and say so in CHANGES.md.
Naming sections (``python tests/test_golden.py dp_audit``) rewrites only
their lines and keeps every other line byte for byte.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dppm.audit import GENERATORS, TrialConfig, dp_audit, run_utility_experiment
from dppm.matchers import VARIANTS, MatchQuery, match_auto
from dppm.noise import NoiseSource
from dppm.text import tile

GOLDEN = Path(__file__).with_name("golden_outputs.jsonl")

BETA = 0.1
SEEDS = (3, 11)

# (generator, n, m, k, epsilon, corruptions): the generator corrupts
# ``corruptions`` positions; the comment names the regime dispatch picks.
MATCH_CASES = (
    ("periodic-with-corruptions", 600, 128, 2, 1e3, 2),  # periodic, threshold < m
    # Periodic, with the aligned windows' distances straddling the threshold,
    # so a 1% change of the periodic threshold changes an outcome.
    ("periodic-with-corruptions", 1500, 704, 4, 100.0, 21),
    ("periodic-with-corruptions", 400, 256, 1, 50.0, 1),  # small-k, cutoff 5
    ("uniform-random", 400, 16, 1, 1e5, 1),  # non-periodic, threshold < m
    ("planted-occurrence", 400, 16, 2, 1e5, 2),  # non-periodic, threshold < m
    ("uniform-random", 200, 8, 1, 1.0, 1),  # non-periodic, vacuous
    ("planted-occurrence", 100, 32, 0, 100.0, 0),  # trivial (k = 0)
    ("uniform-random", 40, 1, 1, 10.0, 1),  # trivial (m = 1)
)

# (variant, generator, n, m, k, epsilon, trials, noise)
UTILITY_CASES = (
    ("existence", "planted-occurrence", 2000, 16, 2, 100.0, 6, "standard"),
    # Every distance is m = 8 and the threshold is about 7.6, so each scan
    # runs through many comparisons close to the threshold.
    ("existence", "disjoint-alphabet", 2000, 8, 4, 23.5, 20, "standard"),
    # Every distance is 256 and the threshold (about 250.8) is about 9.5
    # distance noise scales below it, so witnesses fall all along the text and
    # two of the eight scans miss, reading all 35,745 distances.
    ("existence", "disjoint-alphabet", 36000, 256, 236, 7.3, 8, "standard"),
    ("existence", "planted-occurrence", 500, 8, 1, 1.0, 4, "standard"),
    ("count", "periodic-with-corruptions", 2000, 256, 2, 1e3, 3, "standard"),
    ("count", "periodic-with-corruptions", 2000, 256, 1, 50.0, 2, "standard"),
    ("count", "planted-occurrence", 2000, 16, 2, 1e5, 4, "standard"),
    ("count", "planted-occurrence", 2000, 16, 2, 1e5, 2, "zero"),
    ("count", "planted-occurrence", 1000, 32, 0, 100.0, 3, "standard"),
    ("report", "periodic-with-corruptions", 2000, 256, 2, 2.0, 3, "standard"),
    ("report", "uniform-random", 500, 8, 1, 1.0, 3, "standard"),
)

AUDIT_TRIALS = 500


def _random_bytes(rng: np.random.Generator, alphabet: bytes, length: int) -> bytes:
    symbols = np.frombuffer(alphabet, np.uint8)
    return symbols[rng.integers(0, len(symbols), size=length)].tobytes()


_rng = np.random.Generator(np.random.PCG64(512))
# Every window of _NOISY_A is at distance 512 from the pattern; _NOISY_B
# changes one byte to a pattern symbol.
_NOISY_PATTERN = _random_bytes(_rng, b"acgt", 512)
_NOISY_A = _random_bytes(_rng, b"xyz", 1100)
_NOISY_B = _NOISY_A[:550] + b"a" + _NOISY_A[551:]

# (matchers, text_a, text_b, pattern, k, epsilon)
AUDIT_CASES = (
    (("existence", "canary"), b"ababab", b"abbbab", b"ba", 0, 1.0),
    (("existence", "canary"), b"ababab", b"abbbab", b"ba", 0, 10.0),
    (("count", "report", "auto"), b"ababab", b"abbbab", b"ba", 1, 1.0),
    (
        ("count", "report", "auto"),
        tile(b"ab", 160),
        tile(b"ab", 80) + b"b" + tile(b"ab", 160)[81:],
        tile(b"ab", 128),
        1,
        600.0,  # periodic regime; e^(epsilon) must stay finite
    ),
    # Non-periodic counting whose threshold (449.9) sits among the distances
    # (512 and 511), so the noise decides each count and the lines pin the
    # audit's draws (c0 to c10 on both lanes). Epsilon must stay at most 709,
    # or e^(epsilon) overflows; at such epsilon no desk-size periodic report
    # case has noise that decides anything (its threshold is within 1 of k
    # and its noise scale about 0.03), so there is no such case here.
    (("count", "auto"), _NOISY_A, _NOISY_B, _NOISY_PATTERN, 1, 700.0),
)


def _instance(generator, n, m, corruptions, seed):
    cfg = TrialConfig(
        n=n,
        m=m,
        k=corruptions,
        epsilon=1.0,
        beta=BETA,
        trials=1,
        seed=0,
        generator=generator,
    )
    return GENERATORS[generator](cfg, np.random.Generator(np.random.PCG64(seed)))


def match_records() -> list:
    out = []
    for generator, n, m, k, epsilon, corruptions in MATCH_CASES:
        for seed in SEEDS:
            inst = _instance(generator, n, m, corruptions, seed)
            query = MatchQuery(inst.pattern, k, epsilon, BETA)
            for variant in VARIANTS:
                result = match_auto(inst.text, query, NoiseSource(seed), variant)
                out.append(
                    {
                        "case": [generator, n, m, k, epsilon, corruptions, seed, variant],
                        "regime": result.regime.value,
                        "outcome": [
                            type(result.outcome).__name__,
                            dataclasses.asdict(result.outcome),
                        ],
                        "max_spent": str(result.ledger.max_spent),
                        "record": json.dumps(
                            result.to_record(query, seed), sort_keys=True
                        ),
                    }
                )
    return out


def utility_rows() -> list:
    out = []
    for variant, generator, n, m, k, epsilon, trials, noise in UTILITY_CASES:
        cfg = TrialConfig(
            n=n,
            m=m,
            k=k,
            epsilon=epsilon,
            beta=BETA,
            trials=trials,
            seed=2024,
            generator=generator,
            noise=noise,
        )
        rows = run_utility_experiment(cfg, variant).to_rows()
        out.append({"case": [variant, generator, n, m, k, epsilon, noise], "rows": rows})
    return out


def audit_records() -> list:
    out = []
    for matchers, text_a, text_b, pattern, k, epsilon in AUDIT_CASES:
        query = MatchQuery(pattern, k, epsilon, BETA)
        for matcher in matchers:
            report = dp_audit(
                matcher, text_a, text_b, query, AUDIT_TRIALS, seed=99
            )
            out.append(
                {
                    "case": [matcher, text_a.hex(), text_b.hex(), pattern.hex(), k, epsilon],
                    "records": report.to_records(),
                }
            )
    return out


SECTIONS = {
    "match_auto": match_records,
    "utility": utility_rows,
    "dp_audit": audit_records,
}


def section_lines(section: str) -> list[str]:
    """One JSON line per entry of ``section``, tagged with its name."""
    return [
        json.dumps({"section": section, **entry}, sort_keys=True)
        for entry in SECTIONS[section]()
    ]


@pytest.fixture(scope="module")
def golden() -> list[str]:
    return GOLDEN.read_text().splitlines()


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_matches_golden(golden, section):
    expected = [line for line in golden if json.loads(line)["section"] == section]
    got = section_lines(section)
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want, json.loads(want)["case"]


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(SECTIONS)
    unknown = sorted(set(chosen) - set(SECTIONS))
    if unknown:
        sys.exit(f"unknown section(s) {unknown}; known: {list(SECTIONS)}")
    kept = GOLDEN.read_text().splitlines() if sys.argv[1:] else []
    lines = []
    for section in SECTIONS:
        if section in chosen:
            lines += section_lines(section)
        else:
            lines += [line for line in kept if json.loads(line)["section"] == section]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN} ({', '.join(chosen)})")
