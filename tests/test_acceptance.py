"""Acceptance suite: one test per advertised guarantee, at its stated
tolerance, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Statistical criteria use
fixed seeds, so outcomes are reproducible; slack terms are three-sigma
binomial allowances around the matchers' own guarantee levels.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import stats as scipy_stats

from dppm.audit import (
    TrialConfig,
    dp_audit,
    run_utility_experiment,
)
from dppm.matchers import (
    BudgetLedger,
    MatchQuery,
    below_thresh,
    count_nonperiodic,
    error_contract,
    existence,
    report_periodic,
    trivial_all,
)
from dppm.noise import NoiseSource, derive_seed
from dppm.periodicity import (
    Regime,
    is_primitive,
    shortest_close_period,
    small_k_cutoff,
    widest_close_period,
)
from dppm.text import distance_array, hamming_distance, tile
from dppm.cli import EXIT_OK, main as cli_main

from conftest import (
    binary_strings,
    brute_first_at_most,
    draws,
    min_period_distance,
    packing_family_mismatch,
    packing_family_planted,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def three_sigma_slack(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) * trials)


def test_c01_zero_noise_oracle_equivalence():
    """Exhaustive: zero-noise threshold scans equal the first-hit oracle."""
    src = NoiseSource(0, mode="zero")
    checked = 0
    for n in range(1, 11):
        for text in binary_strings(n):
            for m in range(1, min(4, n) + 1):
                for pattern in binary_strings(m):
                    for thresh in range(m + 1):
                        got = below_thresh(
                            distance_array(text, pattern),
                            float(thresh),
                            1,
                            src,
                            BudgetLedger(1.0),
                            (0, n),
                        )
                        expected = brute_first_at_most(text, pattern, thresh)
                        assert got == ([] if expected is None else [expected]), (
                            text, pattern, thresh,
                        )
                        checked += 1
    report("C1 zero-noise oracle equivalence", True, f"{checked} exhaustive cases")


def test_c02_existence_utility():
    """Planted instances: YES in >= 170 of 200 trials, witnesses in bound."""
    cfg = TrialConfig(
        n=5000,
        m=64,
        k=3,
        epsilon=1.0,
        beta=0.1,
        trials=200,
        seed=20250810,
        generator="planted-occurrence",
    )
    result = run_utility_experiment(cfg, "existence")
    yes = sum(1 for r in result.records if r.found)
    bound = error_contract(
        "existence", cfg.n, cfg.m, cfg.k, cfg.epsilon, cfg.beta
    ).bound
    allowed = cfg.beta * cfg.trials + three_sigma_slack(cfg.beta, cfg.trials)
    violations = result.violation_count
    ok = yes >= 170 and violations <= allowed
    report(
        "C2 existence utility",
        ok,
        f"YES {yes}/200 (need >=170), witness bound {bound:.1f}, "
        f"violations {violations} (allowed {allowed:.1f})",
    )


def test_c03_periodic_reporting_sandwich():
    """Corrupted periodic text: complete and sound in >= 81 of 100 trials."""
    cfg = TrialConfig(
        n=4096,
        m=256,
        k=2,
        epsilon=2.0,
        beta=0.1,
        trials=100,
        seed=31337,
        generator="periodic-with-corruptions",
        period_length=2,
    )
    result = run_utility_experiment(cfg, "report")
    assert all(r.algorithm == Regime.PERIODIC_REPORTING.value for r in result.records)
    good = sum(
        1 for r in result.records if r.completeness_ok and r.soundness_ok
    )
    need = cfg.trials * (1 - cfg.beta) - three_sigma_slack(cfg.beta, cfg.trials)
    bound = 8 * cfg.k + 576.0 / cfg.epsilon * math.log(6.0 * cfg.n / cfg.beta)
    ok = good >= need
    report(
        "C3 periodic reporting sandwich",
        ok,
        f"{good}/100 trials complete+sound (need >={need:.1f}), "
        f"distance bound {bound:.1f}",
    )


def test_c04_non_periodic_counting_sandwich():
    """Random 4-symbol text: count sandwiched by the oracle in >= 81 trials."""
    cfg = TrialConfig(
        n=4096,
        m=64,
        k=2,
        epsilon=2.0,
        beta=0.1,
        trials=100,
        seed=47,
        generator="uniform-random",
    )
    result = run_utility_experiment(cfg, "count")
    assert all(
        r.algorithm == Regime.NON_PERIODIC_COUNTING.value for r in result.records
    ), "every trial must be certified for the non-periodic regime"
    good = sum(1 for r in result.records if r.completeness_ok and r.soundness_ok)
    need = cfg.trials * (1 - cfg.beta) - three_sigma_slack(cfg.beta, cfg.trials)
    ok = good >= need
    report(
        "C4 non-periodic counting sandwich",
        ok,
        f"{good}/100 trials inside sandwich (need >={need:.1f})",
    )


def test_c05_budget_ledger():
    """50 random instances per matcher: per-position spend <= query epsilon."""
    tolerance = Fraction(1, 10**9)
    rng = np.random.Generator(np.random.PCG64(99))
    worst: dict[str, Fraction] = {}

    def check(name: str, ledger: BudgetLedger, epsilon: float) -> None:
        spent = ledger.max_spent
        worst[name] = max(worst.get(name, Fraction(0)), spent - Fraction(epsilon))
        assert spent <= Fraction(epsilon) + tolerance, (name, float(spent), epsilon)

    for i in range(50):
        epsilon = float(rng.choice([0.3, 0.5, 1.0, 2.0, 3.7]))
        n = int(rng.integers(40, 400))
        src = NoiseSource(derive_seed(5, i))

        # existence
        m = int(rng.integers(2, 17))
        text = rng.integers(97, 101, size=n).astype(np.uint8).tobytes()
        pattern = rng.integers(97, 101, size=m).astype(np.uint8).tobytes()
        query = MatchQuery(pattern, 1, epsilon, 0.1)
        ledger = BudgetLedger(epsilon)
        existence(text, query, src, ledger)
        check("existence", ledger, epsilon)

        # periodic reporting
        root = rng.permutation(np.frombuffer(b"acgt", np.uint8))[:2].tobytes()
        m2 = 2 * int(rng.integers(2, 9))
        ptext = tile(root, n)
        pquery = MatchQuery(tile(root, m2), 1, epsilon, 0.1)
        cand = shortest_close_period(pquery.pattern, 1, 2)
        ledger = BudgetLedger(epsilon)
        report_periodic(ptext, pquery, cand, src, ledger)
        check("report_periodic", ledger, epsilon)

        # non-periodic counting
        ledger = BudgetLedger(epsilon)
        count_nonperiodic(text, query, src, ledger)
        check("count_nonperiodic", ledger, epsilon)

        # small-k counting
        cutoff = small_k_cutoff(n, epsilon, 0.1)
        if cutoff > 1:
            ledger = BudgetLedger(epsilon)
            count_nonperiodic(text, query, src, ledger, effective_k=cutoff)
            check("count_nonperiodic at the small-k cutoff", ledger, epsilon)

        # trivial fallback consumes nothing
        trivial_all(text, query)

    detail = ", ".join(f"{k} slack {float(-v):.2e}" for k, v in sorted(worst.items()))
    report("C5 budget ledger", True, detail)


def test_c06_periodicity_preprocessing_equivalence():
    """Exhaustive binary m <= 12, k <= 2: block vote equals the column oracle."""
    checked = 0
    for m in range(1, 13):
        for pattern in binary_strings(m):
            for k in (0, 1, 2):
                cand = widest_close_period(pattern, k)
                max_period = m // (4 * k + 1)
                oracle = {
                    q: min_period_distance(pattern, q)
                    for q in range(1, max_period + 1)
                }
                close = {q for q, d in oracle.items() if d <= 2 * k}
                if cand is None:
                    assert not close, (pattern, k)
                else:
                    assert cand.length == min(close), (pattern, k)
                    assert cand.dist == oracle[cand.length], (pattern, k)
                    assert is_primitive(cand.root), (pattern, k)
                checked += 1
    report("C6 periodicity preprocessing equivalence", True, f"{checked} cases")


def test_c07_dp_audit_positive_and_negative():
    """Existence matcher not refuted on a neighboring pair; canary refuted."""
    trials = 200_000
    query = MatchQuery(b"ba", 0, 1.0, 0.1)
    genuine = dp_audit(
        "existence", b"ababab", b"abbbab", query, trials=trials, seed=613
    )
    canary = dp_audit(
        "canary", b"ababab", b"abbbab", query, trials=trials, seed=613
    )
    ok = (not genuine.refuted) and canary.refuted
    report(
        "C7 dp audit positive and negative",
        ok,
        f"existence not refuted: {not genuine.refuted}, "
        f"canary refuted: {canary.refuted} ({trials} trials per string)",
    )


def test_c08_packing_constructions():
    """20 random configurations: exact pairwise and block distances."""
    rng = np.random.Generator(np.random.PCG64(8))
    checked = 0
    for _ in range(20):
        m = int(rng.integers(3, 12))
        blocks = int(rng.integers(2, 7))
        n = m * blocks + int(rng.integers(0, m))  # sometimes a remainder
        pattern = bytes(rng.integers(32, 127, size=m).astype(np.uint8).tobytes())
        k = int(rng.integers(0, m - 1))
        alpha = int(rng.integers(0, m - k - 1))

        planted = packing_family_planted(pattern, n)
        for i in range(len(planted.members)):
            for j in range(i + 1, len(planted.members)):
                a, b = planted.members[i], planted.members[j]
                assert sum(x != y for x, y in zip(a, b)) == 2 * m
        for member, pos in zip(planted.members, planted.planted_positions):
            assert hamming_distance(member[pos : pos + m], pattern) == 0
            for other in planted.planted_positions:
                if other != pos:
                    assert hamming_distance(member[other : other + m], pattern) == m

        mismatch = packing_family_mismatch(pattern, n, k, alpha)
        for i in range(len(mismatch.members)):
            for j in range(i + 1, len(mismatch.members)):
                a, b = mismatch.members[i], mismatch.members[j]
                assert sum(x != y for x, y in zip(a, b)) == 2 * alpha + 2
        for member, pos in zip(mismatch.members, mismatch.planted_positions):
            assert hamming_distance(member[pos : pos + m], pattern) == k
            for other in mismatch.planted_positions:
                if other != pos:
                    window = member[other : other + m]
                    assert hamming_distance(window, pattern) == k + alpha + 1
        checked += 1
    report("C8 packing constructions", True, f"{checked} configurations")


def test_c09_laplace_sampler():
    """Moment and goodness-of-fit criteria for the Laplace sampler."""
    values = draws(NoiseSource(424242), 1.0, 10**6)
    mean = float(values.mean())
    var = float(values.var())
    positive = float((values > 0).mean())
    moments_ok = -0.01 <= mean <= 0.01 and 1.9 <= var <= 2.1
    symmetry_ok = 0.497 <= positive <= 0.503

    ks_n = 10**5
    critical = float(scipy_stats.kstwobign.isf(0.001)) / math.sqrt(ks_n)
    below = 0
    seeds = 100
    for s in range(seeds):
        sample = draws(NoiseSource(derive_seed(1000, s)), 1.0, ks_n)
        statistic = scipy_stats.kstest(sample, "laplace", args=(0, 1)).statistic
        if statistic < critical:
            below += 1
    ks_ok = below >= 99
    ok = moments_ok and symmetry_ok and ks_ok
    report(
        "C9 laplace sampler",
        ok,
        f"mean {mean:+.4f}, var {var:.4f}, positive {positive:.4f}, "
        f"KS below critical {below}/{seeds}",
    )


def test_c10_cli_determinism(tmp_path, capsys):
    """Match and bench with equal arguments+seed are byte-identical."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"abracadabra" * 64)
    match_args = [
        "match",
        "--pattern",
        "abra",
        "--k",
        "1",
        "--epsilon",
        "1",
        "--beta",
        "0.1",
        "--seed",
        "17",
        str(corpus),
    ]
    outs = []
    for name in ("m1.json", "m2.json"):
        path = tmp_path / name
        assert cli_main(match_args + ["--out", str(path)]) == EXIT_OK
        outs.append(path.read_bytes())
    match_ok = outs[0] == outs[1] and len(outs[0]) > 0

    config = tmp_path / "bench.cfg"
    config.write_text(
        "n = 500\nm = 16\nk = 1\nepsilon = 1.0\nbeta = 0.1\ntrials = 20\n"
        "seed = 3\ngenerator = planted-occurrence\nvariant = existence\n"
    )
    bench_outs = []
    for name in ("b1.csv", "b2.csv"):
        path = tmp_path / name
        assert cli_main(["bench", str(config), "--out", str(path)]) == EXIT_OK
        bench_outs.append(path.read_bytes())
    bench_ok = bench_outs[0] == bench_outs[1] and len(bench_outs[0]) > 0

    ok = match_ok and bench_ok
    report(
        "C10 cli determinism",
        ok,
        f"match bytes equal: {match_ok}, bench bytes equal: {bench_ok}",
    )
