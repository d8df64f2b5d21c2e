"""Steadiness of the benchmark: two interleaved sets of runs.

    python3 perfbench/steadiness.py [--runs 5] [--seed 1000]

For each of ``--runs`` rounds it runs every workload of
``BENCHMARK.json`` once for set A and once for set B (alternating which
goes first), each run with its own seed and the pinned ``run_seconds``,
through ``run.py`` in a child process.  It then reports, for each
workload and end-to-end metric, the median and quartiles of each set,
the spread of all runs (interquartile distance over the median), the
drift between the two sets' medians, and the share of failed operations
per set.  A metric whose spread or drift exceeds a third of its bound
is flagged.

The bounds in ``BENCHMARK.json`` come from this output: a bound must
exceed every spread and drift seen on unchanged code.  The timing
bounds sit at 0.25, the widest allowed, because the timings' spreads
on a shared 2-core host reach 0.1-0.2; the residual-drop and RSS bounds
are tighter, well above their spreads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartiles, relative_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# host steal share"):
            result["steal"] = float(line.rsplit(":", 1)[1])
    return result


def summarize(results: dict) -> list[dict]:
    """``results[workload][set] = [run JSON...]`` -> one row per
    (workload, metric)."""
    rows = []
    for workload, sets in results.items():
        runs_a, runs_b = sets["A"], sets["B"]
        shares = {
            name: sorted({r["failed"] / r["attempted"] for r in runs})
            for name, runs in sets.items()
        }
        for metric in runs_a[0]["metrics"]:
            a = [r["metrics"][metric]["value"] for r in runs_a]
            b = [r["metrics"][metric]["value"] for r in runs_b]
            qa, qb = quartiles(a), quartiles(b)
            rows.append({
                "workload": workload,
                "metric": metric,
                "unit": runs_a[0]["metrics"][metric]["unit"],
                "A": qa,
                "B": qb,
                "all": quartiles(a + b),
                "spread": relative_spread(a + b),
                "drift": abs(qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0,
                "failed_share": shares,
                "correct": all(r["correct"] for r in runs_a + runs_b),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=1000,
                        help="first seed; every run gets its own")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: {"A": [], "B": []} for w in names}
    seed = args.seed
    for i in range(args.runs):
        for workload in names:
            for label in ("AB" if i % 2 == 0 else "BA"):
                results[workload][label].append(
                    run_once(workload, seed, seconds)
                )
                seed += 1
                print(f"run {i + 1}/{args.runs} {workload} set {label} done",
                      file=sys.stderr, flush=True)

    rows = summarize(results)
    print(f"{'workload':<16} {'metric':<22} {'median A':>12} {'median B':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'drift':>7} {'bound':>6}")
    for row in rows:
        bound = bounds.get(row["metric"])
        q1, _med, q3 = row["all"]
        flag = ""
        if bound is not None and (
            row["spread"] > bound / 3 or row["drift"] > bound / 3
        ):
            flag = "  <- over a third of its bound"
        print(f"{row['workload']:<16} {row['metric']:<22} "
              f"{row['A'][1]:>12.5g} {row['B'][1]:>12.5g} "
              f"{q1:>12.5g} {q3:>12.5g} "
              f"{row['spread']:>7.3f} {row['drift']:>7.3f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    for workload in names:
        shares = next(r["failed_share"] for r in rows
                      if r["workload"] == workload)
        correct = all(r["correct"] for r in rows if r["workload"] == workload)
        steal = [
            round(r.get("steal", 0.0), 3)
            for label in "AB" for r in results[workload][label]
        ]
        print(f"{workload}: failed share per set {shares}, "
              f"all correct: {correct}, host steal share per run {steal}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
