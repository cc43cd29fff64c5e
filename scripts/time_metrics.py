#!/usr/bin/env python3
"""Wall time of ``qpf.qsim.metrics`` and ``qpf.hhl.plan_hhl`` on wscc9 and on
seeded ring networks.

    python3 scripts/time_metrics.py [--repeats 3]

Run from the root of a source checkout; qpf is imported from its ``src``
directory and the rings come from ``perfbench/netgen.py``.  BLAS runs on one
thread.  Each metrics case (rings with the seed of the benchmark's 17-bus
ring, ``perfbench/oracles.py``) plans its circuit once, then times
``lower_to_basis`` alone and ``metrics`` (lowering plus the depth walk) on it
``--repeats`` times each, and prints width/depth/CNOTs with the median and
the minimum of each in seconds, so the lowering and the walk read apart,
then the number of distinct gate objects (by ``id``) in one lowered circuit,
split into named ``SingleQubit``s and ``Cnot``s, and the number of
``np.linalg.eig`` calls (square-root levels) in one lowering.  Two layers of
the lowering are then timed apart, ``--repeats`` times each, by calling its
helpers on the planned gates: ``decompose`` (``_decompose_all``, one
``_two_level_decompose`` per controlled unitary) and ``roots``
(``_root_chains`` of the factors it returns); their medians are printed, in milliseconds.
Each planning case times ``plan_hhl`` (pad, eigendecompose, scale, build)
``--repeats`` times and prints its median and minimum; the 257-bus ring is
``grid-scale-sim``'s largest case at benchmark seed 1 (network seed 1008),
and the 200-bus ring of the same seed (n = 199) pads to the same 16 qubits.
Last, ``run_hhl`` on wscc9 over alpha 3..6, the cycle of operations of the
benchmark's ``wscc9-hhl`` workload, is timed ``--repeats`` times, and the
median and minimum of one cycle and the median per ``run_hhl`` call are printed.
Then ``GC_CYCLES`` more cycles run untimed while a ``gc.callbacks`` hook only
watches the collector, and one line gives its collections per generation and
the seconds it took, against the seconds of those cycles.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import netgen  # noqa: E402
import oracles  # noqa: E402
from qpf.grid import build_reduced_system, load_fixture, network_from_dict  # noqa: E402
from qpf.hhl import HHLConfig, plan_hhl, run_hhl  # noqa: E402
from qpf.qsim import Cnot, SingleQubit, lower_to_basis, metrics  # noqa: E402
from qpf.qsim.lower import _decompose_all, _root_chains  # noqa: E402


def ring(buses: int, seed: int = oracles.RING17_SEED):
    return network_from_dict(netgen.ring_chord_network(buses, seed))


# name -> (network factory, alpha)
CASES = {
    "wscc9-a5": (lambda: load_fixture("wscc9"), 5),
    "wscc9-a11": (lambda: load_fixture("wscc9"), 11),
    "ring17-a5": (lambda: ring(17), 5),
    "ring33-a1": (lambda: ring(33), 1),
}
# Cycles of the wscc9 run_hhl cycle the collector is watched over: 80 calls.
GC_CYCLES = 20
PLAN_CASES = {
    "wscc9-a5": (lambda: load_fixture("wscc9"), 5),
    "ring257-a7": (lambda: ring(257, 1008), 7),
    "ring200-a7": (lambda: ring(200, 1008), 7),
}


def timed(call, arg):
    """(seconds, result) of one ``call(arg)``."""
    start = time.perf_counter()
    result = call(arg)
    return time.perf_counter() - start, result


def distinct_gates(circuit) -> str:
    """Distinct gate objects of the lowered ``circuit``: named SingleQubits and Cnots."""
    gates = {id(g): g for g in lower_to_basis(circuit).gates}.values()
    named = sum(isinstance(g, SingleQubit) and g.name != "U" for g in gates)
    cnots = sum(isinstance(g, Cnot) for g in gates)
    return f"objects named {named} cnot {cnots}"


def eig_calls(circuit) -> int:
    """``np.linalg.eig`` calls in one ``lower_to_basis`` of ``circuit``."""
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig:
        lower_to_basis(circuit)
    return eig.call_count


def lowering_layers(circuit, repeats: int) -> str:
    """Median seconds of ``_decompose_all`` and of ``_root_chains`` on ``circuit``."""
    decompose = [timed(_decompose_all, circuit.gates) for _ in range(repeats)]
    _, rooted, depth = decompose[0][1]
    roots = [timed(lambda mats: _root_chains(mats, depth), rooted)[0] for _ in range(repeats)]
    return (f"decompose {statistics.median(t for t, _ in decompose) * 1e3:.2f} ms "
            f"roots {statistics.median(roots) * 1e3:.2f} ms")


def collector_during(call) -> tuple[list[int], float, float]:
    """Collections per generation and seconds in the collector while ``call()``
    runs, read through ``gc.callbacks``, and the seconds of the whole call."""
    collections, spent, started = [0, 0, 0], [0.0], [0.0]

    def watch(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            spent[0] += time.perf_counter() - started[0]
            collections[info["generation"]] += 1

    gc.callbacks.append(watch)
    try:
        seconds, _ = timed(lambda _: call(), None)
    finally:
        gc.callbacks.remove(watch)
    return collections, spent[0], seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    for name, (make_network, alpha) in CASES.items():
        circuit = plan_hhl(build_reduced_system(make_network()), HHLConfig(alpha=alpha)).circuit
        lower_times = [timed(lower_to_basis, circuit)[0] for _ in range(args.repeats)]
        metrics_times = []
        for _ in range(args.repeats):
            seconds, result = timed(metrics, circuit)
            metrics_times.append(seconds)
        print(f"{name:10s} {result.width}/{result.depth}/{result.cnot_count}  "
              f"lower_to_basis median {statistics.median(lower_times):.3f} s "
              f"min {min(lower_times):.3f} s  "
              f"metrics median {statistics.median(metrics_times):.3f} s "
              f"min {min(metrics_times):.3f} s  {distinct_gates(circuit)}  "
              f"eig calls {eig_calls(circuit)}  {lowering_layers(circuit, args.repeats)}")
    for name, (make_network, alpha) in PLAN_CASES.items():
        system, config = build_reduced_system(make_network()), HHLConfig(alpha=alpha)
        plan_times = [timed(lambda s: plan_hhl(s, config), system)[0]
                      for _ in range(args.repeats)]
        print(f"{name:10s} plan_hhl median {statistics.median(plan_times):.4f} s "
              f"min {min(plan_times):.4f} s")
    system = build_reduced_system(load_fixture("wscc9"))
    configs = [HHLConfig(alpha=alpha) for alpha in range(3, 7)]
    cycle_times = [timed(lambda cs: [run_hhl(system, c) for c in cs], configs)[0]
                   for _ in range(args.repeats)]
    median = statistics.median(cycle_times)
    print(f"wscc9 run_hhl alpha 3..6 cycle median {median:.4f} s "
          f"min {min(cycle_times):.4f} s  per call {median / len(configs):.4f} s")
    collections, in_gc, seconds = collector_during(
        lambda: [run_hhl(system, c) for _ in range(GC_CYCLES) for c in configs])
    print(f"wscc9 run_hhl alpha 3..6 gc over {GC_CYCLES * len(configs)} calls  "
          f"collections gen0/gen1/gen2 {'/'.join(map(str, collections))}  "
          f"{in_gc:.3f} s of {seconds:.3f} s ({100 * in_gc / seconds:.1f} %)")


if __name__ == "__main__":
    main()
