#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, judged by the pair rule.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload grid-scale-sim \
        [--pairs 10] [--seed 4] [--seconds 20]

``--parent`` and ``--change`` are two source checkouts.  Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
in each, one after the other in a fresh process, the parent first in even
pairs and the change first in odd ones.  Each run's result line is printed as
it ends, with the percentile its ``latency_tail_s`` took.

Every run of a checkout sets ``PYTHONPYCACHEPREFIX`` to one directory of its
own, made empty in a temporary directory once per script run and removed at
exit, and unsets ``PYTHONDONTWRITEBYTECODE``; the fresh-interpreter import that
``setup_s`` times inherits both.  So each side compiles every module it
imports, numpy's too, into its own directory in its first run and reads them
from there after, and ``setup_s`` does not depend on which checkout holds
``__pycache__``.

Then, for each end-to-end metric of the change's ``BENCHMARK.json``, one line
gives both sides' medians and quartiles over the pairs, the change's wins (a
pair where it is strictly better, in the metric's own direction), and whether
the pair rule holds: wins in at least 9 of 10 pairs, and a median gap in the
change's favour larger than the parent's interquartile range.  A run that
reports ``correct: false`` is named on its own line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TAIL_NOTE = re.compile(r"^# latency_tail_s = \S+ s \((p[\d.]+), n=(\d+)")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             pycache: Path) -> str:
    """stdout of one benchmark run in ``checkout``, its compiled files kept
    under ``pycache``; exits if the run fails."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"bench_pairs: {' '.join(argv[1:])} in {checkout} exited "
                 f"{done.returncode}:\n{done.stderr}")
    return done.stdout


def parse_run(stdout: str) -> dict:
    """The JSON result line of one run's stdout, with ``tail`` set to the
    percentile and sample count its tail latency took ("" if not printed)."""
    result = json.loads(stdout.strip().splitlines()[-1])
    notes = [m.groups() for m in map(TAIL_NOTE.match, stdout.splitlines()) if m]
    result["tail"] = " n=".join(notes[0]) if notes else ""
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the inclusive quartiles of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], spec: list[dict]) -> list[dict]:
    """One row per end-to-end metric of ``spec`` over paired result lines.

    Each row holds the metric's ``name``, each side's (q1, median, q3), the
    change's ``wins``, the median ``gap`` in the change's favour, the parent's
    ``iqr`` and whether the pair rule ``holds``.
    """
    rows = []
    for item in spec:
        name = item["name"]
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        lower = item["better"] == "lower"
        wins = sum(b < a if lower else b > a for a, b in zip(old, new))
        old_q, new_q = quartiles(old), quartiles(new)
        gap = old_q[1] - new_q[1] if lower else new_q[1] - old_q[1]
        iqr = old_q[2] - old_q[0]
        rows.append({"name": name, "parent": old_q, "change": new_q, "wins": wins,
                     "pairs": len(old), "gap": gap, "iqr": iqr,
                     "holds": 10 * wins >= 9 * len(old) and gap > iqr})
    return rows


def format_row(row: dict) -> str:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    return (f"{row['name']:17s} parent {side(row['parent']):36s} change "
            f"{side(row['change']):36s} wins {row['wins']}/{row['pairs']}  gap "
            f"{row['gap']:+.4g} vs parent IQR {row['iqr']:.4g}  "
            f"rule {'holds' if row['holds'] else 'fails'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as caches:
        for pair in range(args.pairs):
            for name in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                stdout = run_once(sides[name], args.workload, args.seed, args.seconds,
                                  Path(caches) / name)
                result = parse_run(stdout)
                results[name].append(result)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"# pair {pair} {name} tail {result['tail']} {json.dumps(values)}",
                      flush=True)
    for name, runs in results.items():
        for pair, run in enumerate(runs):
            if not run["correct"]:
                print(f"# pair {pair} {name}: {run['failed']} of {run['attempted']} "
                      "operations failed")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"pairs={args.pairs}: median [q1, q3]")
    for row in summarize(results["parent"], results["change"], spec):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
