#!/usr/bin/env python3
"""Wall time of the cost-model layer (``qpf.complexity``) on the benchmark's
seed-1 parameter draws.

    python3 scripts/time_cost_model.py [--repeats 5] [--peak]

Run from the root of a source checkout; qpf is imported from its ``src``
directory and the draws come from the ``cost-model`` workload in
``perfbench/workloads.py`` (seed 1, 8 draws).  One pass runs, per draw,
``find_crossover``, ``sweep`` over the workload's range with 10,000 steps and
``sweep_csv`` on its rows, the library calls behind one ``cost-model``
operation, then ``qpf.cli.main`` on the draw's ``crossover`` and ``sweep``
argv with stdout captured, the calls the workload makes.  What ``cli sweep``
takes over ``sweep`` + ``sweep_csv`` is the command-line layer's own cost.
``--repeats`` passes are timed, and the median and the minimum of each call's
total over a pass are printed in milliseconds.  With ``--peak``,
the tracemalloc peak of ``sweep`` + ``sweep_csv`` at ``MAX_SWEEP_STEPS`` rows
on the first draw is printed too, in MiB.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402
from qpf.cli import main as cli_main  # noqa: E402
from qpf.complexity import (  # noqa: E402
    MAX_SWEEP_STEPS,
    ComplexityParams,
    find_crossover,
    sweep,
    sweep_csv,
)

WORKLOAD = WORKLOADS["cost-model"]


def model_args(params) -> tuple[ComplexityParams, ComplexityParams, float]:
    """``(classical, quantum, constant_ratio)`` of one workload draw."""
    bases = {"log_n_base": params.log_n_base, "log_eps_base": params.log_eps_base}
    return (ComplexityParams(s=params.s, k=params.k, epsilon=params.eps_classical, **bases),
            ComplexityParams(s=params.s, k=params.k, epsilon=params.eps_quantum, **bases),
            params.base_ratio)


def timed_cli(argv) -> float:
    """Seconds one ``qpf.cli.main(argv)`` call takes, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli_main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"qpf {' '.join(argv)} exited {code}")
    return elapsed


def one_pass(draws, argvs) -> dict[str, float]:
    """Seconds spent in each call over one pass of every draw."""
    totals = {"find_crossover": 0.0, "sweep": 0.0, "sweep_csv": 0.0,
              "cli crossover": 0.0, "cli sweep": 0.0}
    for args, (crossover_argv, sweep_argv) in zip(draws, argvs):
        start = time.perf_counter()
        find_crossover(*args)
        mid = time.perf_counter()
        rows = sweep(*args, WORKLOAD.sweep_range, WORKLOAD.steps)
        end = time.perf_counter()
        sweep_csv(rows)
        totals["find_crossover"] += mid - start
        totals["sweep"] += end - mid
        totals["sweep_csv"] += time.perf_counter() - end
        totals["cli crossover"] += timed_cli(crossover_argv)
        totals["cli sweep"] += timed_cli(sweep_argv)
    return totals


def peak_mib(args) -> float:
    """tracemalloc peak of ``sweep`` + ``sweep_csv`` at ``MAX_SWEEP_STEPS`` rows."""
    tracemalloc.start()
    sweep_csv(sweep(*args, WORKLOAD.sweep_range, MAX_SWEEP_STEPS))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--peak", action="store_true",
                        help="also print the tracemalloc peak at MAX_SWEEP_STEPS rows")
    args = parser.parse_args()
    cases = WORKLOAD.generate(1, ROOT)
    draws = [model_args(case.meta["params"]) for case in cases]
    passes = [one_pass(draws, [case.inputs for case in cases]) for _ in range(args.repeats)]
    for name in passes[0]:
        times = [p[name] * 1e3 for p in passes]
        print(f"{name:15s} {len(draws)} draws  median {statistics.median(times):8.3f} ms  "
              f"min {min(times):8.3f} ms")
    if args.peak:
        print(f"sweep + sweep_csv at {MAX_SWEEP_STEPS} steps: "
              f"tracemalloc peak {peak_mib(draws[0]):.1f} MiB")


if __name__ == "__main__":
    main()
