"""The public API: every export change is deliberate."""

import re
from pathlib import Path

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
    "QueryPlan",
    "Regime",
    "ReportOutcome",
    "TrialConfig",
    "UtilityReport",
    "derive_seed",
    "dispatch",
    "dp_audit",
    "error_contract",
    "exact_count",
    "hamming_distance",
    "is_primitive",
    "match_auto",
    "plan",
    "run_utility_experiment",
    "shortest_close_period",
    "sliding_distances",
    "tile",
    "window_cover",
]


def test_exports_are_pinned():
    assert sorted(dppm.__all__) == PUBLIC


def test_every_export_resolves():
    for name in PUBLIC:
        assert hasattr(dppm, name), name


def test_matchers_are_not_exported_by_name():
    # A matcher runs through `plan` / `match_auto`.
    for name in ("existence", "report_periodic", "count_nonperiodic", "trivial_all"):
        assert not hasattr(dppm, name), name


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    (tmp_path / "corpus.bin").write_bytes(b"abracadabra, cadabra abra " * 40)
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    assert len(capsys.readouterr().out.splitlines()) == 3
