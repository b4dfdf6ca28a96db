"""Command-line front end.

Subcommands: ``match`` (run one private query against a text file),
``inspect-pattern`` (show the dispatch decision for a pattern),
``bench`` (utility experiment from a config file), and ``dp-audit``
(frequency-ratio privacy audit of a matcher on a pair of text files).

Texts are read as raw bytes; pattern literals are taken verbatim (``@path``
reads the pattern from a file instead). Exit codes: 0 success, 2 invalid
arguments, 3 I/O failure, 4 audit refuted, 5 privacy guarantee failed (a
query's ledger exceeded its epsilon cap; nothing is released). The root seed
comes from ``--seed`` or the ``DPPM_SEED`` environment variable; per-query
sources are derived from it with a fixed hash, so equal invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional

from .audit import (
    AUDIT_MATCHERS,
    VARIANTS as BENCH_VARIANTS,
    TrialConfig,
    dp_audit,
    run_utility_experiment,
)
from .matchers import (
    VARIANTS as MATCH_VARIANTS,
    MatchQuery,
    PrivacyBudgetExceeded,
    match_auto,
)
from .noise import NoiseSource, derive_seed
from .periodicity import dispatch, widest_close_period
from . import __version__

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_REFUTED = 4
EXIT_PRIVACY = 5

FORMATS = ("json-lines", "csv", "human")


def _read_file(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _pattern_bytes(arg: str) -> bytes:
    """Pattern from a literal (verbatim bytes of the argument) or ``@path``."""
    if arg.startswith("@"):
        return _read_file(arg[1:])
    return os.fsencode(arg)


def _emit(records: list[dict], fmt: str, out: Optional[str]) -> None:
    """Write records as json-lines, CSV, or human-readable text, to ``out``
    or, when it is None, to stdout."""
    buffer = io.StringIO()
    if fmt == "json-lines":
        for record in records:
            buffer.write(json.dumps(record, sort_keys=True))
            buffer.write("\n")
    elif fmt == "csv":
        keys: list[str] = []
        for record in records:
            for key in record:
                if key not in keys:
                    keys.append(key)
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(keys)
        for record in records:
            writer.writerow(["" if record.get(k) is None else record.get(k, "") for k in keys])
    else:
        for record in records:
            for key, value in record.items():
                buffer.write(f"{key}: {value}\n")
            buffer.write("\n")
    if out is None:
        sys.stdout.write(buffer.getvalue())
    else:
        with open(out, "w", newline="\n") as handle:
            handle.write(buffer.getvalue())


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pattern",
        required=True,
        help="pattern bytes, verbatim; prefix with @ to read from a file",
    )
    parser.add_argument("--k", type=int, required=True, help="mismatch budget")
    parser.add_argument("--epsilon", type=float, required=True, help="privacy parameter")
    parser.add_argument("--beta", type=float, required=True, help="failure probability")


def _query_and_seed(args: argparse.Namespace) -> tuple[MatchQuery, int]:
    """The query that ``--pattern``, ``--k``, ``--epsilon`` and ``--beta``
    give, and the root seed: ``--seed``, else ``DPPM_SEED``, else 0."""
    query = MatchQuery(_pattern_bytes(args.pattern), args.k, args.epsilon, args.beta)
    if args.seed is not None:
        return query, args.seed
    raw = os.environ.get("DPPM_SEED", "0")
    try:
        return query, int(raw)
    except ValueError as exc:
        raise ValueError(f"DPPM_SEED must be an integer, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dppm",
        description="Differentially private k-approximate pattern matching",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    match_p = sub.add_parser("match", help="run one private query against a text file")
    _add_query_arguments(match_p)
    match_p.add_argument("--variant", choices=MATCH_VARIANTS, default="auto")
    match_p.add_argument("--seed", type=int, default=None, help="root seed (default: DPPM_SEED or 0)")
    match_p.add_argument("--zero-noise", action="store_true", help="disable noise (testing only; not private)")
    match_p.add_argument("--format", choices=FORMATS, default="json-lines")
    match_p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    match_p.add_argument("text", help="path to the private text file (read as raw bytes)")
    match_p.set_defaults(handler=cmd_match)

    inspect_p = sub.add_parser("inspect-pattern", help="show the dispatch decision for a pattern")
    _add_query_arguments(inspect_p)
    inspect_p.add_argument("--n", type=int, required=True, help="text length the query would run against")
    inspect_p.add_argument("--format", choices=FORMATS, default="json-lines")
    inspect_p.add_argument("--out", default=None)
    inspect_p.set_defaults(handler=cmd_inspect_pattern)

    bench_p = sub.add_parser("bench", help="run a utility experiment from a config file")
    bench_p.add_argument("config", help="flat key=value config file (see docs)")
    bench_p.add_argument("--variant", choices=BENCH_VARIANTS, default=None,
                         help="overrides the config file's variant")
    bench_p.add_argument("--format", choices=("csv", "json-lines"), default="csv")
    bench_p.add_argument("--out", default=None)
    bench_p.set_defaults(handler=cmd_bench)

    audit_p = sub.add_parser("dp-audit", help="frequency-ratio privacy audit on a pair of texts")
    _add_query_arguments(audit_p)
    audit_p.add_argument("--neighbor", required=True, help="path to the second text file")
    audit_p.add_argument("--trials", type=int, required=True, help="trials per string")
    audit_p.add_argument("--matcher", choices=sorted(AUDIT_MATCHERS), default="existence")
    audit_p.add_argument("--seed", type=int, default=None)
    audit_p.add_argument("--group", action="store_true",
                         help="allow Hamming distance > 1 (group privacy bound)")
    audit_p.add_argument("--format", choices=FORMATS, default="json-lines")
    audit_p.add_argument("--out", default=None)
    audit_p.add_argument("text", help="path to the first text file")
    audit_p.set_defaults(handler=cmd_dp_audit)
    return parser


def cmd_match(args: argparse.Namespace) -> int:
    query, seed = _query_and_seed(args)
    text = _read_file(args.text)
    src = NoiseSource(
        derive_seed(seed, 0), mode="zero" if args.zero_noise else "standard"
    )
    result = match_auto(text, query, src, variant=args.variant)
    _emit([result.to_record(query, seed)], args.format, args.out)
    return EXIT_OK


def cmd_inspect_pattern(args: argparse.Namespace) -> int:
    pattern = _pattern_bytes(args.pattern)
    decision = dispatch(pattern, args.k, args.n, args.epsilon, args.beta)
    candidate = decision.candidate or widest_close_period(pattern, args.k)
    record = {
        "regime": decision.regime.value,
        "period_scale": decision.period_scale,
        "small_k_cutoff": decision.small_k_cutoff,
        "effective_k": decision.effective_k,
        "candidate_length": candidate.length if candidate else None,
        "candidate_root_hex": candidate.root.hex() if candidate else None,
        "candidate_distance": candidate.dist if candidate else None,
    }
    _emit([record], args.format, args.out)
    return EXIT_OK


def _parse_config_file(path: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(_read_file(path).decode().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def cmd_bench(args: argparse.Namespace) -> int:
    mapping = _parse_config_file(args.config)
    variant = mapping.pop("variant", "existence")
    variant = args.variant or variant
    cfg = TrialConfig.from_mapping(mapping)
    report = run_utility_experiment(cfg, variant)
    rows = report.to_rows()
    _emit([dict(zip(rows[0], r)) for r in rows[1:]], args.format, args.out)
    # Timing is informational only; keep it out of the deterministic output.
    print(
        f"bench: {cfg.trials} trials in {report.runtime_seconds:.2f}s, "
        f"violation rate {report.violation_rate:.4f} "
        f"(allowed {report.allowed_violation_rate:.4f})",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_dp_audit(args: argparse.Namespace) -> int:
    query, seed = _query_and_seed(args)
    text_a = _read_file(args.text)
    text_b = _read_file(args.neighbor)
    report = dp_audit(
        args.matcher,
        text_a,
        text_b,
        query,
        trials=args.trials,
        seed=seed,
        group=args.group,
    )
    _emit(report.to_records(), args.format, args.out)
    return EXIT_REFUTED if report.refuted else EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"dppm: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"dppm: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrivacyBudgetExceeded as exc:
        print(f"dppm: privacy guarantee failed: {exc}", file=sys.stderr)
        return EXIT_PRIVACY


if __name__ == "__main__":
    sys.exit(main())
