"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload exist-scan --seed 1 --seconds 25 --trace 0

The workload runs in this single Python process, with numerical libraries held
to one thread. Inputs, exact oracles and contract bounds are built from
``--seed`` before anything is timed; then top-level calls into dppm's public
API are timed one by one, each right after a fixed reference loop, until
calls and loops together have taken ``--seconds`` of wall time. Set-up time
is sampled in fresh interpreters spread over the run, between calls, each
right after a fixed reference interpreter.
Every call's output is checked, and the first call is made twice with the
same seed (once untimed, as a warm-up) to check that it repeats.

Timed metrics are corrected for the host's speed at the moment of each
sample: a sample's wall time is divided by that of the reference timed just
before it and multiplied by the reference's time on an idle host (``REF_S``,
``SETUP_REF_S``). Other tenants of a shared machine slow every process by up
to 2x for seconds to minutes at a time; the reference slows with the sample,
so the ratio stays put while raw wall times do not. The raw times are
printed on the report lines.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced calls on the same inputs and
prints the per-layer metrics, plus the tracing overhead per call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report. The program exits with a non-zero code, without
printing a result, when dppm cannot be imported from ``src/``.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported, inherited by set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# A fresh interpreter importing the package and its CLI, as a user's first
# `python -m dppm` does; -E keeps PYTHONPATH from choosing another copy.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import dppm, dppm.cli; "
    "print(len(sys.modules), int('scipy' in sys.modules), dppm.__file__)"
)
# The set-up reference: a fresh interpreter importing numpy and a fixed set of
# standard modules, none of dppm's code. SETUP_REF_S is about its wall time
# on an idle 2-vCPU Intel Xeon host (Python 3.11.7, numpy 2.4.6).
SETUP_REF_CODE = (
    "import numpy, argparse, asyncio, csv, decimal, email.parser, fractions, "
    "http.client, json, sqlite3, unittest, xml.etree.ElementTree"
)
SETUP_REF_S = 0.25
# The call reference: REF_ROUNDS rounds of the kinds of work dppm's calls do,
# none of dppm's code. REF_S is about its wall time on the same idle host.
REF_ROUNDS = 1000
REF_S = 0.0045
REF_BYTES = bytes(range(256)) * 2


def reference_loop() -> float:
    """Wall time of the call reference: per round a PCG64 draw with a numpy
    log1p, a 16-byte comparison and a Fraction sum."""
    start = perf_counter()
    gen = numpy.random.Generator(numpy.random.PCG64(12345))
    acc = 0.0
    spent = Fraction(0)
    for j in range(REF_ROUNDS):
        u = gen.random() - 0.5
        acc += float(numpy.log1p(-2.0 * abs(u)))
        acc += sum(x != y for x, y in zip(REF_BYTES[j % 64 : j % 64 + 16], REF_BYTES[:16]))
        spent += Fraction(1, 1 + j % 7)
    return perf_counter() - start


def import_dppm():
    sys.path.insert(0, str(SRC))
    try:
        import dppm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dppm from {SRC}: {exc}")
    if Path(dppm.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported dppm from {dppm.__file__}, not from {SRC}")
    return dppm


def spawn(code: str, *args: str) -> tuple[float, str]:
    """Wall time and standard output of a fresh interpreter running ``code``."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-E", "-c", code, *args],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"perfbench: child interpreter failed:\n{proc.stderr}")
    return elapsed, proc.stdout


def measure_setup() -> tuple[float, float, int, int]:
    """One set-up sample: the wall time of a fresh interpreter importing dppm
    and dppm.cli, that time corrected for host speed by the set-up reference
    run just before it, the number of modules loaded and whether scipy is
    among them."""
    ref, _ = spawn(SETUP_REF_CODE)
    elapsed, out = spawn(SETUP_CODE, str(SRC))
    modules, scipy_loaded, where = out.split(maxsplit=2)
    if Path(where.strip()).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: set-up imported dppm from {where.strip()}")
    return elapsed, elapsed / ref * SETUP_REF_S, int(modules), int(scipy_loaded)


def git_sha() -> str:
    """HEAD's commit from .git, read directly; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Attempts:
    """Times, checks and counts the top-level calls of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[tuple[int, list[str]]] = []

    def run(self, i: int, tracer=None, expect=None):
        """Make call ``i``; return its wall time and its repeatable key.

        A call fails when it raises, when its output fails the workload's
        check, or when its key differs from ``expect``.
        """
        self.attempted += 1
        key = None
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            result = self.workload.call(i)
        except Exception as exc:  # a failed call is counted, not fatal
            elapsed = perf_counter() - start
            reasons = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = perf_counter() - start
            reasons = None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if reasons is None:
            try:
                reasons = self.workload.check(i, result)
                key = self.workload.key(result)
            except Exception as exc:  # output of an unexpected shape
                reasons = [f"output check raised {type(exc).__name__}: {exc}"]
            if expect is not None and key != expect:
                reasons.append("re-run with the same seed gave a different outcome")
            del result
        if reasons:
            self.failures.append((i, reasons))
        return elapsed, key


def percentile(values: list[float], p: float) -> float:
    """p-th percentile with linear interpolation between order statistics."""
    return float(numpy.percentile(values, p))


def time_line(label: str, values: list[float]) -> str:
    """Sample count, p10, p50, the highest percentile with at least ten
    samples beyond it, min and max."""
    line = (f"{label}: samples={len(values)} p10={percentile(values, 10):.6f}s "
            f"p50={statistics.median(values):.6f}s")
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            line += f" p{p:g}={percentile(values, p):.6f}s"
            break
    return line + f" min={min(values):.6f}s max={max(values):.6f}s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    dppm = import_dppm()

    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    setups = [measure_setup()]
    workload = WORKLOADS[args.workload](args.seed)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dppm": dppm.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))

    attempts = Attempts(workload)
    # Warm-up: call 0 untimed; its outcome is what the timed call 0 must repeat.
    _, first = attempts.run(0)
    times: list[float] = []
    traced_times: list[float] = []
    refs: list[float] = []
    tracer = Tracer() if args.trace else None
    i = 0
    while sum(times) + sum(traced_times) + sum(refs) < args.seconds:
        # Set-up samples spread over the run, so one slow spell of the host
        # does not decide them all.
        if tracer is None and sum(times) >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(measure_setup())
        if tracer is None:
            refs.append(reference_loop())
        elapsed, key = attempts.run(i, expect=first if i == 0 else None)
        times.append(elapsed)
        if tracer is not None:
            # The same call again, traced; it must repeat the untraced outcome.
            elapsed, _ = attempts.run(i, tracer=tracer, expect=key)
            traced_times.append(elapsed)
        i += 1

    failed = len(attempts.failures)
    print(time_line("query_s raw", times))
    print(f"failed_ratio: {failed}/{attempts.attempted} = {failed / attempts.attempted}")
    for call, reasons in attempts.failures[:10]:
        print(f"FAILED call {call}: {'; '.join(reasons)}")

    if tracer is None:
        section = "end_to_end"
        # Each call and each set-up at the host speed its reference saw just
        # before it; medians over the run. The rates are mean throughput over
        # all calls, corrected by the mean reference time.
        corrected = [t / r * REF_S for t, r in zip(times, refs)]
        mean_call = sum(times) / sum(refs) * REF_S
        metrics = {
            "setup_s": statistics.median(s[1] for s in setups),
            "query_s.p50": statistics.median(corrected),
            "positions_per_s": workload.positions_per_call / mean_call,
            "trials_per_s": workload.trials_per_call / mean_call,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempts.attempted,
        }
        print(time_line("reference loop", refs))
        print(time_line("query_s corrected", corrected))
        print(f"mean call: raw {sum(times) / len(times):.6f}s corrected {mean_call:.6f}s")
        print("setup_s samples raw: " + " ".join(f"{s[0]:.4f}" for s in setups))
        print("setup_s samples corrected: " + " ".join(f"{s[1]:.4f}" for s in setups))
    else:
        section = "per_layer"
        metrics = layer_metrics(tracer, len(traced_times))
        metrics["cli.import_modules"] = setups[0][2]
        metrics["cli.scipy_loaded"] = setups[0][3]
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_times, times)
        )
        print(f"traced calls: {len(traced_times)}, "
              f"untraced p50 {statistics.median(times):.6f}s, "
              f"traced p50 {statistics.median(traced_times):.6f}s")
        print("spans per (name <- parent), totals over all traced calls:")
        print("\n".join(tracer.table()))

    declared = {m["name"]: m["unit"] for m in spec[section]}
    if set(declared) != set(metrics):
        sys.exit(f"perfbench: metrics {sorted(metrics)} do not match "
                 f"BENCHMARK.json {section} {sorted(declared)}")
    for name, value in metrics.items():
        print(f"metric {name} = {value} {declared[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempts.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
