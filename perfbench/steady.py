"""Steadiness check: run every workload repeatedly and compare spreads to bounds.

Usage (from the repository root):

    python3 perfbench/steady.py --first-seed 100 --out perfbench/results/a.json
    python3 perfbench/steady.py --compare perfbench/results/a.json perfbench/results/b.json

The first form runs ``perfbench/run.py`` once per (seed, workload) for every
workload in BENCHMARK.json, on ten seeds from ``first-seed`` onwards, each for
BENCHMARK.json's ``run_seconds``, cycling through the workloads so that drift
on the machine reaches all of them alike.
For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
inter-quartile distance as a share of the median, next to the metric's bound.
A metric is steady when its spread is below a third of its bound.

The second form compares two such sets: for every workload and metric, the
second median may be worse than the first by no more than the metric's bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = time.perf_counter() - start
    result["stamp"] = next(
        (json.loads(line[6:]) for line in lines if line.startswith("stamp ")), None
    )
    return result


def summarize(runs: list[dict]) -> dict:
    good = [r for r in runs if "metrics" in r]
    summary = {}
    for name, meta in METRICS.items():
        values = [r["metrics"][name]["value"] for r in good]
        if len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        summary[name] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": meta["bound"], "unit": meta["unit"],
            "steady": spread < meta["bound"] / 3,
        }
    return summary


def print_summary(workload: str, runs: list[dict], summary: dict) -> None:
    failed = sum(1 for r in runs if "metrics" not in r or not r["correct"])
    print(f"== {workload}: {len(runs)} runs, {failed} incorrect or crashed")
    for r in runs:
        if "error" in r:
            print(f"   seed {r['seed']}: {r['error'].strip().splitlines()[-1]}")
    for name, s in summary.items():
        verdict = "steady" if s["steady"] else "UNSTEADY"
        print(f"   {name:<16} median={s['median']:<14.6g} q1={s['q1']:<14.6g} "
              f"q3={s['q3']:<14.6g} spread={s['spread']:.4f} bound={s['bound']} "
              f"{s['unit']}  {verdict}")


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())["summary"]
    b = json.loads(Path(path_b).read_text())["summary"]
    all_ok = True
    for workload in a:
        for name, sa in a[workload].items():
            sb = b.get(workload, {}).get(name)
            if sb is None:
                print(f"{workload} {name}: missing from {path_b}")
                all_ok = False
                continue
            lower = METRICS[name]["better"] == "lower"
            bound = METRICS[name]["bound"]
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if lower else -change
            ok = worse <= bound
            all_ok &= ok
            print(f"{workload:<16} {name:<16} {sa['median']:<14.6g} -> "
                  f"{sb['median']:<14.6g} worse by {worse:+.4f} "
                  f"(bound {bound}) {'ok' if ok else 'REGRESSED'}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", help="write runs and summary as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    seconds = SPEC["run_seconds"]
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for workload in WORKLOADS:
            result = run_once(workload, seed, seconds)
            runs[workload].append(result)
            brief = {k: round(v["value"], 6) for k, v in result.get("metrics", {}).items()}
            print(f"{workload} seed={seed} wall={result.get('wall_s', 0):.1f}s "
                  f"{brief or result.get('error', '')[:200]}",
                  flush=True)
    summaries = {w: summarize(runs[w]) for w in WORKLOADS}
    for w in WORKLOADS:
        print_summary(w, runs[w], summaries[w])
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "first_seed": args.first_seed, "runs": runs,
             "summary": summaries}, indent=1))
    steady = all(s["steady"] for summ in summaries.values() for s in summ.values())
    clean = all(r.get("correct") for rs in runs.values() for r in rs)
    return 0 if steady and clean else 1


if __name__ == "__main__":
    sys.exit(main())
