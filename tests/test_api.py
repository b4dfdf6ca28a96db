"""The public API: every export change is deliberate."""

import dppm

PUBLIC = [
    "BudgetLedger",
    "Contract",
    "CountOutcome",
    "DispatchDecision",
    "DpAuditReport",
    "ExistenceOutcome",
    "MatchQuery",
    "MatchResult",
    "NoiseSource",
    "PeriodicCandidate",
    "PrivacyBudgetExceeded",
    "Regime",
    "ReportOutcome",
    "TrialConfig",
    "UtilityReport",
    "below_thresh",
    "count_nonperiodic",
    "derive_seed",
    "dispatch",
    "dp_audit",
    "error_contract",
    "exact_count",
    "existence",
    "hamming_distance",
    "is_primitive",
    "match_auto",
    "report_periodic",
    "run_utility_experiment",
    "shortest_close_period",
    "sliding_distances",
    "tile",
    "trivial_all",
    "window_cover",
]


def test_exports_are_pinned():
    assert sorted(dppm.__all__) == PUBLIC


def test_every_export_resolves():
    for name in PUBLIC:
        assert hasattr(dppm, name), name
