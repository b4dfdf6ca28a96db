"""Differentially private k-approximate pattern matching under Hamming distance.

The library answers existence, counting, and reporting queries about the
k-mismatch occurrences of a public pattern in a private text while satisfying
epsilon-differential privacy with respect to single text positions. It ships
the exact (non-private) oracles, the pattern preprocessing that selects the
algorithmic regime, seeded Laplace noise, a per-position privacy-budget
ledger, and an audit harness for empirical utility and privacy checks.
"""

__version__ = "0.1.0"

from .matchers import (
    BudgetLedger,
    Contract,
    CountOutcome,
    ExistenceOutcome,
    MatchQuery,
    MatchResult,
    PrivacyBudgetExceeded,
    QueryPlan,
    ReportOutcome,
    error_contract,
    match_auto,
    plan,
)
from .noise import NoiseSource, derive_seed
from .periodicity import (
    DispatchDecision,
    PeriodicCandidate,
    Regime,
    dispatch,
    is_primitive,
    shortest_close_period,
)
from .text import (
    exact_count,
    hamming_distance,
    sliding_distances,
    tile,
    window_cover,
)
from .audit import (
    DpAuditReport,
    TrialConfig,
    UtilityReport,
    dp_audit,
    run_utility_experiment,
)

__all__ = [
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
