"""Tests for the utility experiments, privacy audit, and packing families."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppm.audit import (
    AUDIT_MATCHERS,
    GENERATORS,
    TrialConfig,
    clopper_pearson,
    dp_audit,
    gen_disjoint,
    gen_periodic,
    gen_planted,
    outcome_label,
    run_utility_experiment,
)
from dppm import matchers
from dppm.matchers import (
    VARIANTS as MATCH_VARIANTS,
    BudgetLedger,
    CountOutcome,
    ExistenceOutcome,
    MatchQuery,
    ReportOutcome,
    below_thresh,
    match_auto,
)
from dppm.noise import NoiseSource
from dppm.text import distance_array, hamming_distance, sliding_distances

from conftest import (
    brute_sliding,
    lower_share,
    packing_family_mismatch,
    packing_family_planted,
    per_trial,
)


def small_config(**overrides) -> TrialConfig:
    params = dict(
        n=300,
        m=16,
        k=1,
        epsilon=1.0,
        beta=0.1,
        trials=10,
        seed=7,
        generator="planted-occurrence",
    )
    params.update(overrides)
    return TrialConfig(**params)


class TestGenerators:
    def test_planted_distance_exactly_k(self):
        for seed in range(20):
            cfg = small_config(k=3, seed=seed)
            rng = np.random.Generator(np.random.PCG64(seed))
            inst = gen_planted(cfg, rng)
            d = hamming_distance(
                inst.text[inst.planted_position : inst.planted_position + cfg.m],
                inst.pattern,
            )
            assert d == 3

    def test_periodic_instance_structure(self):
        cfg = small_config(generator="periodic-with-corruptions", k=2)
        rng = np.random.Generator(np.random.PCG64(11))
        inst = gen_periodic(cfg, rng)
        assert len(inst.root) == cfg.period_length
        assert inst.pattern == (inst.root * cfg.m)[: cfg.m]
        # At most k corruptions anywhere in the text.
        clean = (inst.root * cfg.n)[: cfg.n]
        assert hamming_distance(inst.text, clean) <= cfg.k

    def test_disjoint_alphabets(self):
        cfg = small_config(generator="disjoint-alphabet")
        rng = np.random.Generator(np.random.PCG64(2))
        inst = gen_disjoint(cfg, rng)
        assert all(d == cfg.m for d in sliding_distances(inst.text, inst.pattern))

    def test_registry_complete(self):
        assert set(GENERATORS) == {
            "uniform-random",
            "planted-occurrence",
            "periodic-with-corruptions",
            "disjoint-alphabet",
        }


class TestTrialConfig:
    def test_from_mapping_roundtrip(self):
        mapping = {
            "n": "300",
            "m": "16",
            "k": "1",
            "epsilon": "1.0",
            "beta": "0.1",
            "trials": "10",
            "seed": "7",
            "generator": "planted-occurrence",
            "period_length": "3",
            "noise": "zero",
            "target": "0.8",
        }
        assert TrialConfig.from_mapping(mapping) == small_config(
            period_length=3, noise="zero", target=0.8
        )

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            TrialConfig.from_mapping({"frobnicate": "1"})

    def test_from_mapping_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            TrialConfig.from_mapping({"n": "10"})

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(m=400)
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(generator="nonsense")
        with pytest.raises(ValueError):
            small_config(noise="loud")

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64])
    def test_seed_must_fit_64_bits(self, seed):
        if seed == 2**64 - 1:
            assert small_config(seed=seed).seed == seed
        else:
            with pytest.raises(ValueError, match=rf"outside \[0, {2**64 - 1}\]"):
                small_config(seed=seed)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 20.0), ("m", 4.0), ("trials", 2.5), ("period_length", 2.5)],
    )
    def test_counts_must_be_integers(self, field, value):
        # n=20.0 and m=4.0 used to fail inside a generator, and
        # period_length=2.5 inside rng.integers.
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            small_config(**{field: value})

    def test_counts_are_plain_ints(self):
        cfg = small_config(n=np.int64(300), m=np.int16(16), trials=True,
                           period_length=np.uint8(3))
        assert (cfg.n, cfg.m, cfg.trials, cfg.period_length) == (300, 16, 1, 3)
        assert {type(v) for v in (cfg.n, cfg.m, cfg.trials, cfg.period_length)} == {int}
        assert cfg == small_config(trials=1, period_length=3)

    def test_numpy_k_runs_the_counter(self):
        # A numpy k used to reach the counter's share, 2 * 1152 * k, and stop
        # the experiment.
        cfg = small_config(k=np.int64(1), trials=2, generator="uniform-random")
        assert type(cfg.k) is int
        report = run_utility_experiment(cfg, "count")
        assert [r.algorithm for r in report.records] == ["NonPeriodicCounting"] * 2
        assert all(r.error == "" for r in report.records)

    def test_numpy_numbers_are_stored_plain(self):
        # A float32 epsilon or beta and a uint64 seed used to be kept, so the
        # config's JSON failed.
        cfg = TrialConfig(n=300, m=16, k=1, epsilon=np.float32(1.0),
                          beta=np.float32(0.1), trials=3, seed=np.uint64(7),
                          generator="planted-occurrence")
        assert (type(cfg.epsilon), type(cfg.beta), type(cfg.seed)) == (float, float, int)
        assert (cfg.epsilon, cfg.beta, cfg.seed) == (1.0, float(np.float32(0.1)), 7)
        assert cfg.target is None
        json.dumps(dataclasses.asdict(cfg))
        with_target = dataclasses.replace(cfg, target=np.float32(0.5))
        assert type(with_target.target) is float and with_target.target == 0.5

    def test_target_defaults_to_guarantee_level(self):
        assert small_config().target_probability == pytest.approx(0.9)
        assert small_config(target=0.7).target_probability == 0.7


class TestUtilityExperiment:
    def test_zero_noise_has_no_violations(self):
        cfg = small_config(noise="zero", trials=20)
        report = run_utility_experiment(cfg, "existence")
        assert report.violation_count == 0
        assert report.passed

    def test_planted_existence_yes(self):
        cfg = small_config(n=2000, m=32, k=2, trials=20)
        report = run_utility_experiment(cfg, "existence")
        yes = sum(1 for r in report.records if r.found)
        assert yes == 20  # threshold dwarfs m at this scale
        assert report.violation_count == 0

    def test_count_variant_sandwich_recorded(self):
        cfg = small_config(n=800, m=32, k=2, trials=5, generator="uniform-random")
        report = run_utility_experiment(cfg, "count")
        assert all(r.error == "" for r in report.records)
        assert all(r.count is not None for r in report.records)
        assert report.violation_count == 0

    @pytest.mark.parametrize(
        "overrides, algorithm",
        [
            (
                dict(n=512, m=32, k=2, generator="periodic-with-corruptions"),
                "PeriodicReporting",
            ),
            (dict(generator="uniform-random"), "TrivialFallback"),
            # widest_close_period finds period 1 here, but reporting needs m >= 2.
            (dict(m=1, k=0, generator="uniform-random"), "TrivialFallback"),
            # dispatch raises here (its period scale is not finite), so a
            # report path through dispatch would record errors.
            (dict(epsilon=1e-320, generator="uniform-random"), "TrivialFallback"),
        ],
        ids=["periodic", "no-close-period", "m1-k0", "eps-1e-320"],
    )
    def test_report_variant_reporter(self, overrides, algorithm):
        cfg = small_config(trials=5, **overrides)
        report = run_utility_experiment(cfg, "report")
        assert [r.algorithm for r in report.records] == [algorithm] * 5
        assert all(r.error == "" for r in report.records)
        if algorithm == "TrivialFallback":
            assert all(r.bound == cfg.m for r in report.records)
        assert report.violation_count == 0

    def test_oracle_reads_its_own_distances(self, monkeypatch):
        # The bench oracle is the reference a matcher is judged by: a matcher
        # whose distances are all zero must be caught, not agreed with.
        cfg = small_config(n=2000, m=16, k=2, epsilon=1e5, trials=4, noise="zero")
        assert run_utility_experiment(cfg, "count").violation_count == 0

        def zeros(text, pattern):
            return np.zeros(len(text) - len(pattern) + 1, dtype=np.int64)

        monkeypatch.setattr(matchers, "distance_array", zeros)
        assert run_utility_experiment(cfg, "count").violation_count == 4

    def test_deterministic_rows(self):
        cfg = small_config(trials=6)
        one = run_utility_experiment(cfg, "existence").to_rows()
        two = run_utility_experiment(cfg, "existence").to_rows()
        assert one == two

    def test_rows_shape(self):
        cfg = small_config(trials=6)
        rows = run_utility_experiment(cfg, "existence").to_rows()
        assert len(rows) == 1 + 6 + 1  # header, trials, summary
        assert rows[-1][0] == "summary"
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            run_utility_experiment(small_config(), "guessing")

    def test_privacy_cap_failure_aborts(self, monkeypatch):
        # A cap failure is a broken matcher, not a bad instance: it must stop
        # the experiment instead of becoming one violated row.
        def overspent(ledger):
            raise RuntimeError("privacy budget exceeded")

        monkeypatch.setattr(BudgetLedger, "assert_within_cap", overspent)
        with pytest.raises(RuntimeError, match="privacy budget exceeded"):
            run_utility_experiment(small_config(trials=40), "existence")

    def test_overspending_reporter_refused_before_any_scan(self, monkeypatch):
        # The report route prepares the reporter without dispatch. A periodic
        # row whose share is one too small (a position lies in 3 windows,
        # each scanned forward and back) is refused while it is prepared,
        # and stops the experiment before any scan runs.
        cfg = small_config(
            trials=3, n=512, m=32, k=2, generator="periodic-with-corruptions"
        )
        report = run_utility_experiment(cfg, "report")
        assert [r.algorithm for r in report.records] == ["PeriodicReporting"] * 3
        lower_share(monkeypatch, "report_periodic")
        scans = []

        def recording(*args):
            scans.append(args)
            return below_thresh(*args)

        monkeypatch.setattr(matchers, "below_thresh", recording)
        with pytest.raises(matchers.PrivacyBudgetExceeded):
            run_utility_experiment(cfg, "report")
        assert scans == []

    def test_broken_outcome_invariant_aborts(self, monkeypatch):
        # A counter that counts hits with no witness builds an invalid
        # CountOutcome. That ValueError comes from the noisy half, so it is a
        # broken matcher too, not a parameter error on one row.
        cfg = small_config(n=2000, m=16, k=2, epsilon=1e5, trials=4)
        assert run_utility_experiment(cfg, "count").violation_count == 0
        monkeypatch.setattr(matchers, "below_thresh", lambda *args: (3, None, []))
        with pytest.raises(ValueError, match="positive count requires a witness"):
            run_utility_experiment(cfg, "count")

    def test_preparation_error_is_a_row(self):
        # Dispatch refuses this epsilon while the matcher is prepared, before
        # any noise is drawn: a parameter error, recorded on each trial.
        cfg = small_config(epsilon=1e-320, generator="uniform-random", trials=3)
        for variant in ("existence", "count"):
            report = run_utility_experiment(cfg, variant)
            assert [(r.violated, r.algorithm) for r in report.records] == [
                (True, "")
            ] * 3
            assert all(r.error for r in report.records)


class TestClopperPearson:
    def test_boundaries(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0 and 0 < hi < 0.1
        lo, hi = clopper_pearson(100, 100)
        assert 0.9 < lo < 1 and hi == 1.0

    def test_contains_point_estimate(self):
        lo, hi = clopper_pearson(37, 200)
        assert lo < 37 / 200 < hi

    def test_narrower_at_lower_confidence(self):
        lo999, hi999 = clopper_pearson(50, 100, 0.999)
        lo95, hi95 = clopper_pearson(50, 100, 0.95)
        assert lo999 < lo95 and hi95 < hi999

    def test_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)
        with pytest.raises(ValueError):
            clopper_pearson(1, 10, 1.0)


class TestOutcomeLabel:
    def test_existence_categories(self):
        assert outcome_label(ExistenceOutcome(False, None)) == "NO"
        assert outcome_label(ExistenceOutcome(True, 3)) == "w3"
        assert outcome_label(ExistenceOutcome(True, 99)) == "w14"

    def test_count_categories(self):
        assert outcome_label(CountOutcome(0, None, 0)) == "c0"
        assert outcome_label(CountOutcome(500, 1, 500)) == "c14"

    def test_report_hash_stable_and_bounded(self):
        label = outcome_label(ReportOutcome((1, 5, 9)))
        assert label == outcome_label(ReportOutcome((1, 5, 9)))
        assert label.startswith("h") and 0 <= int(label[1:]) < 16
        assert outcome_label(ReportOutcome(())) != ""


# The documented label set of each outcome type, at most 16 labels each.
LABELS = {
    ExistenceOutcome: {"NO"} | {f"w{i}" for i in range(15)},
    CountOutcome: {f"c{i}" for i in range(15)},
    ReportOutcome: {f"h{i}" for i in range(16)},
}
# The outcome type of each audit-table entry; None: decided by dispatch.
OUTCOME_TYPE = {
    "existence": ExistenceOutcome,
    "canary": ExistenceOutcome,
    "count": CountOutcome,
    "report": ReportOutcome,
    "auto": None,
}
C7_PAIR = (b"ababab", b"abbbab")


class TestAuditTable:
    @pytest.mark.parametrize("name", sorted(AUDIT_MATCHERS))
    @pytest.mark.parametrize("k", [0, 1])
    def test_labels_in_documented_set(self, name, k):
        query = MatchQuery(b"ba", k, 1.0, 0.1)
        for text in C7_PAIR:
            outcome_type = OUTCOME_TYPE[name] or type(
                match_auto(text, query, NoiseSource(0)).outcome
            )
            lane = AUDIT_MATCHERS[name](text, query)
            for seed in range(40):
                (label, count), = lane(NoiseSource(seed), 1).items()
                assert type(label) is str and count == 1
                assert label in LABELS[outcome_type], (name, label)
            counts = lane(NoiseSource(40), 300)
            assert sum(counts.values()) == 300
            assert set(counts) <= LABELS[outcome_type], (name, counts)

    def test_registered_noiseless_mechanism_refuted(self, monkeypatch):
        def first_bb(text, query):
            label = str(text.find(b"bb"))
            return lambda src: label

        real = dict(AUDIT_MATCHERS)
        monkeypatch.setitem(AUDIT_MATCHERS, "first-bb", per_trial(first_bb))
        query = MatchQuery(b"ba", 0, 1.0, 0.1)
        report = dp_audit("first-bb", *C7_PAIR, query, trials=200, seed=1)
        assert report.refuted
        assert {c.label for c in report.categories} == {"-1", "1"}
        assert report.to_records()[-1]["matcher"] == "first-bb"
        assert all(AUDIT_MATCHERS[name] is mech for name, mech in real.items())
        assert not dp_audit("existence", *C7_PAIR, query, trials=200, seed=1).refuted

    @pytest.mark.parametrize(
        "control, text_a, text_b, pattern, thresh, trials",
        [
            # Distances [0, 1] vs [1, 0]; the label is the hit index.
            ("no-query-noise", b"abb", b"aab", b"ab", 0.5, 50_000),
            # Distances twelve 0s vs twelve 1s; the label is hit or miss.
            ("no-threshold-noise", b"a" * 23, b"a" * 11 + b"b" + b"a" * 11,
             b"a" * 12, 0.0, 100_000),
        ],
    )
    def test_kernel_controls(
        self, monkeypatch, control, text_a, text_b, pattern, thresh, trials
    ):
        # Two sparse-vector failures of Lyu, Su & Li (VLDB 2017) as scans
        # over a neighbouring pair at a fixed threshold: the kernel
        # (`below_thresh` at a share-1 slice) is not refuted, and the same
        # scan without its distance noise or without its threshold noise is.
        def label(hit):
            if hit is None:
                return "miss"
            return str(hit) if control == "no-query-noise" else "hit"

        def kernel(text, query):
            dist = distance_array(text, query.pattern)
            window = ((0, len(dist), (0, len(text))),)
            scales = matchers._scales(BudgetLedger(query.epsilon, 1))

            def trial(src):
                _, hit, _ = below_thresh(dist, thresh, *scales, src, window)
                return label(hit)

            return trial

        def broken(text, query):
            dist = distance_array(text, query.pattern).tolist()
            t_scale, d_scale = 2.0 / query.epsilon, 4.0 / query.epsilon

            def trial(src):
                if control == "no-query-noise":
                    t = thresh + src.laplace(t_scale)
                    return label(next((i for i, d in enumerate(dist) if d <= t), None))
                for i, d in enumerate(dist):
                    if d + src.laplace(d_scale) <= thresh:
                        return label(i)
                return label(None)

            return trial

        monkeypatch.setitem(AUDIT_MATCHERS, "kernel", per_trial(kernel))
        monkeypatch.setitem(AUDIT_MATCHERS, control, per_trial(broken))
        query = MatchQuery(pattern, 0, 1.0, 0.1)
        real = dp_audit("kernel", text_a, text_b, query, trials=trials, seed=1)
        assert not real.refuted
        assert dp_audit(control, text_a, text_b, query, trials=trials, seed=1).refuted

    def test_each_trial_reads_fresh_draws(self, monkeypatch):
        # A lane that made its source from one seed for every trial would
        # give 2000 equal signs.
        def sign(text, query):
            return lambda src: "+" if src.laplace(1.0) > 0 else "-"

        monkeypatch.setitem(AUDIT_MATCHERS, "sign", per_trial(sign))
        query = MatchQuery(b"ba", 0, 1.0, 0.1)
        report = dp_audit("sign", b"ababab", b"ababab", query, trials=2000, seed=5)
        assert not report.refuted
        assert {c.label for c in report.categories} == {"+", "-"}
        for c in report.categories:
            assert 900 <= c.count_a <= 1100, c
            assert 900 <= c.count_b <= 1100, c

    def test_prepares_once_per_lane(self, monkeypatch):
        # What the lane's fixed text and query decide is prepared once per
        # lane; only the trial inside the lane runs once per trial, and the
        # prepare never sees a noise source.
        calls = {"prepare": [], "trial": 0}

        def two_level(text, query):
            calls["prepare"].append(text)

            def trial(src):
                calls["trial"] += 1
                return "+" if src.laplace(1.0) > 0 else "-"

            return trial

        monkeypatch.setitem(AUDIT_MATCHERS, "two-level", per_trial(two_level))
        query = MatchQuery(b"ba", 0, 1.0, 0.1)
        dp_audit("two-level", *C7_PAIR, query, trials=300, seed=3)
        assert calls == {"prepare": list(C7_PAIR), "trial": 600}

    @pytest.mark.parametrize("short", [-1, 1])
    def test_lane_that_miscounts_raises(self, monkeypatch, short):
        # A lane that loses or invents a trial would skew every frequency.
        def miscount(text, query):
            return lambda src, trials: {"+": trials - short}

        monkeypatch.setitem(AUDIT_MATCHERS, "miscount", miscount)
        query = MatchQuery(b"ba", 0, 1.0, 0.1)
        with pytest.raises(RuntimeError, match="counted .* trials, expected 300"):
            dp_audit("miscount", *C7_PAIR, query, trials=300, seed=3)

    def test_lane_tallies_the_plan(self):
        # An audit lane labels each distinct outcome of the plan's tally
        # once: the same counts as labelling every outcome of a per-run loop.
        # At epsilon 20 the existence threshold (1.84) sits among the
        # distances (0 to 2), so the noise decides the witness.
        query = MatchQuery(b"ba", 0, 20.0, 0.1)
        for variant in MATCH_VARIANTS:
            for text in C7_PAIR:
                outcome = matchers.plan(text, query, variant).outcome
                src = NoiseSource(8)
                want = Counter(outcome_label(outcome(src)) for _ in range(500))
                got = AUDIT_MATCHERS[variant](text, query)(NoiseSource(8), 500)
                assert got == want, variant
                if variant == "existence":
                    assert len(got) >= 2, got


class TestDpAudit:
    def query(self, **overrides):
        params = dict(pattern=b"ba", k=0, epsilon=1.0, beta=0.1)
        params.update(overrides)
        return MatchQuery(**params)

    def test_identical_strings_pass(self):
        report = dp_audit(
            "existence", b"ababab", b"ababab", self.query(), trials=300, seed=1
        )
        assert not report.refuted
        assert report.distance == 0

    def test_canary_refuted_on_neighbors(self):
        report = dp_audit(
            "canary", b"ababab", b"abbbab", self.query(), trials=2000, seed=1
        )
        assert report.refuted
        refuted_labels = {c.label for c in report.categories if c.refuted}
        assert refuted_labels  # the separating witness categories

    def test_existence_not_refuted_on_neighbors(self):
        report = dp_audit(
            "existence", b"ababab", b"abbbab", self.query(), trials=5000, seed=3
        )
        assert not report.refuted

    def test_overflowing_ratio_bound_rejected(self):
        # e^(d*epsilon) is past the largest float at d*epsilon = 1000.
        with pytest.raises(ValueError, match="overflows"):
            dp_audit(
                "existence", b"ababab", b"abbbab", self.query(epsilon=1000.0), trials=10
            )

    @pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64])
    def test_seed_must_fit_64_bits(self, seed):
        # 2**64 used to run as seed 0, and -1 as 2**64 - 1.
        args = ("existence", b"ababab", b"abbbab", self.query())
        if seed == 2**64 - 1:
            assert dp_audit(*args, trials=50, seed=seed).seed == seed
        else:
            with pytest.raises(ValueError, match=rf"outside \[0, {2**64 - 1}\]"):
                dp_audit(*args, trials=50, seed=seed)

    def test_numpy_seed_runs_as_its_int(self):
        # An np.int64 root used to overflow in the seed mixing.
        args = ("existence", b"ababab", b"abbbab", self.query())
        report = dp_audit(*args, trials=50, seed=np.int64(3))
        assert type(report.seed) is int
        assert report == dp_audit(*args, trials=50, seed=3)

    def test_numpy_trials_run_as_their_int(self):
        # An np.int64 trial count used to reach the report, whose records
        # json could not serialize.
        args = ("existence", b"ababab", b"abbbab", self.query())
        report = dp_audit(*args, trials=np.int64(3), seed=1)
        assert type(report.trials) is int
        assert report == dp_audit(*args, trials=3, seed=1)
        json.dumps(report.to_records())

    def test_bool_trials_run_as_one(self):
        args = ("existence", b"ababab", b"abbbab", self.query())
        report = dp_audit(*args, trials=True, seed=1)
        assert type(report.trials) is int
        assert report == dp_audit(*args, trials=1, seed=1)

    def test_fractional_trials_refused_before_any_lane(self, monkeypatch):
        def never(text, query):
            raise AssertionError("a lane was prepared")

        monkeypatch.setitem(AUDIT_MATCHERS, "never", never)
        with pytest.raises(TypeError):
            dp_audit("never", b"ababab", b"abbbab", self.query(), trials=2.5)

    def test_seed_reproducible(self):
        args = ("existence", b"ababab", b"abbbab", self.query())
        one = dp_audit(*args, trials=500, seed=9)
        two = dp_audit(*args, trials=500, seed=9)
        assert one == two

    def test_frequencies_partition(self):
        report = dp_audit(
            "existence", b"ababab", b"abbbab", self.query(), trials=400, seed=2
        )
        assert sum(c.freq_a for c in report.categories) == pytest.approx(1.0)
        assert sum(c.freq_b for c in report.categories) == pytest.approx(1.0)

    def test_non_neighbors_rejected_in_strict_mode(self):
        with pytest.raises(ValueError, match="not neighboring"):
            dp_audit("existence", b"aaaaaa", b"bbaaaa", self.query(), trials=10)

    def test_group_mode_scales_bound(self):
        report = dp_audit(
            "existence",
            b"aaaaaa",
            b"bbaaaa",
            self.query(),
            trials=200,
            seed=4,
            group=True,
        )
        assert report.distance == 2
        assert report.ratio_bound == pytest.approx(np.exp(2.0))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            dp_audit("existence", b"aaa", b"aaaa", self.query(), trials=10)

    def test_unknown_matcher(self):
        with pytest.raises(ValueError, match="unknown matcher"):
            dp_audit("oracle", b"ab", b"ab", self.query(), trials=10)

    def test_count_matcher_runs(self):
        report = dp_audit(
            "count",
            b"abababab",
            b"abbbabab",
            self.query(k=1),
            trials=100,
            seed=5,
        )
        assert not report.refuted


class TestPackingFamilies:
    def test_planted_spec_example(self):
        family = packing_family_planted(b"ab", 8)
        assert len(family.members) == 2
        assert family.planted_positions == (0, 4)
        assert family.pairwise_distance == 4
        assert hamming_distance(family.members[0], family.members[1]) == 4

    def test_planted_window_distances(self):
        pattern = b"abc"
        family = packing_family_planted(pattern, 12)
        m = len(pattern)
        for member, pos in zip(family.members, family.planted_positions):
            d = brute_sliding(member, pattern)
            assert d[pos] == 0
            for i, dist in enumerate(d):
                if not (pos - m + 1 <= i <= pos + m - 1):
                    assert dist == m

    def test_planted_remainder_excluded(self):
        family = packing_family_planted(b"abc", 11)  # remainder of 2
        assert family.planted_positions == (0, 6)
        for member in family.members:
            assert len(member) == 11

    def test_mismatch_spec_example(self):
        family = packing_family_mismatch(b"abcdef", 24, 1, 1)
        assert family.pairwise_distance == 4
        members = family.members
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                assert hamming_distance(members[i], members[j]) == 4

    def test_mismatch_block_distances(self):
        pattern, k, alpha = b"abcdef", 1, 1
        family = packing_family_mismatch(pattern, 24, k, alpha)
        m = len(pattern)
        for member, pos in zip(family.members, family.planted_positions):
            assert hamming_distance(member[pos : pos + m], pattern) == k
            for other in family.planted_positions:
                if other != pos:
                    window = member[other : other + m]
                    assert hamming_distance(window, pattern) == k + alpha + 1

    def test_filler_exhaustion(self):
        with pytest.raises(ValueError, match="filler"):
            packing_family_planted(bytes(range(256)), 512)

    def test_planted_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="pattern must be non-empty"):
            packing_family_planted(b"", 4)

    def test_mismatch_parameter_validation(self):
        with pytest.raises(ValueError, match="k \\+ alpha"):
            packing_family_mismatch(b"abc", 9, 2, 1)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60)
    def test_randomized_distance_invariants(self, m, blocks, k, alpha):
        pattern = bytes((i * 37 + 5) % 250 for i in range(m))
        n = m * blocks
        planted = packing_family_planted(pattern, n)
        assert planted == packing_family_mismatch(pattern, n, 0, m - 1)
        for i in range(len(planted.members)):
            for j in range(i + 1, len(planted.members)):
                assert (
                    hamming_distance(planted.members[i], planted.members[j]) == 2 * m
                )
        if k + alpha + 1 <= m:
            mism = packing_family_mismatch(pattern, n, k, alpha)
            for i in range(len(mism.members)):
                for j in range(i + 1, len(mism.members)):
                    assert (
                        hamming_distance(mism.members[i], mism.members[j])
                        == 2 * alpha + 2
                    )
