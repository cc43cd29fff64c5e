#!/usr/bin/env python3
"""Wall time of the grid layers, of ``qpf.qsim.apply_circuit`` per gate kind, of
circuit building and of plan + simulate on the rings of the benchmark's
``grid-scale-sim``.

    python3 scripts/time_simulate.py [--repeats 5]

Run from the root of a source checkout; qpf is imported from its ``src``
directory and the rings come from ``perfbench/netgen.py``: 65, 129 and 257
buses with the network seeds of benchmark seed 1 (1006, 1007, 1008), at
alpha = 7, as ``grid-scale-sim`` runs them.  BLAS runs on one thread.

For each ring, ``parse_network`` of its JSON text, ``build_reduced_system``,
``network_stats`` and ``solve_dc`` are timed first.  Then the HHL circuit is
planned once.  Its gates are grouped by kind
(a named one-qubit gate by its name, ``CNOT``, ``CU`` with its matrix
dimension, ``UCRY``), and each group, in circuit order, is run alone by
``apply_circuit`` on a uniform state, which leaves no qubit idle.  Then
``build_qpe`` on the ring's eigendecomposition, ``build_hhl_circuit`` on it and
the unit injections (as ``grid-scale-sim`` calls it), ``apply_circuit`` of the whole
planned circuit from |0...0> (where the clock and ancilla start idle) and
``plan_hhl`` followed by that ``apply_circuit`` are timed.  Every line prints
the median of ``--repeats`` runs in milliseconds.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import netgen  # noqa: E402
from qpf.grid import build_reduced_system, network_stats, parse_network, solve_dc  # noqa: E402
from qpf.hhl import (  # noqa: E402
    HHLConfig,
    build_hhl_circuit,
    build_qpe,
    choose_scaling,
    eigendecompose,
    plan_hhl,
)
from qpf.qsim import Circuit, ControlledUnitary, SingleQubit, apply_circuit, zero_state  # noqa: E402

ALPHA = 7
# buses -> network seed of benchmark seed 1 (seed * 1000 + beta)
RINGS = {65: 1006, 129: 1007, 257: 1008}


def median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def kind(gate) -> str:
    if isinstance(gate, SingleQubit):
        return gate.name
    if isinstance(gate, ControlledUnitary):
        return f"CU {len(gate.u)}x{len(gate.u)}"
    return gate.dump_line().split()[0]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    config = HHLConfig(alpha=ALPHA)
    for buses, seed in RINGS.items():
        text = netgen.network_json(buses, seed)
        network = parse_network(text)
        system = build_reduced_system(network)
        circuit = plan_hhl(system, config).circuit
        width = circuit.num_qubits
        state = np.full(2**width, 2 ** (-width / 2), dtype=complex)
        groups: dict[str, list] = {}
        for gate in circuit.gates:
            groups.setdefault(kind(gate), []).append(gate)
        print(f"ring{buses}-a{ALPHA}: {width} qubits, {len(circuit.gates)} gates")
        for name, call in [("parse_network", lambda: parse_network(text)),
                           ("build_reduced_system", lambda: build_reduced_system(network)),
                           ("network_stats", lambda: network_stats(network)),
                           ("solve_dc", lambda: solve_dc(system))]:
            print(f"  {name:31s} {median_ms(call, args.repeats):8.3f} ms")
        for name, gates in groups.items():
            part = Circuit(width, gates)
            ms = median_ms(lambda: apply_circuit(state, part), args.repeats)
            print(f"  apply_circuit {name:12s} x{len(gates):3d}  {ms:8.3f} ms")
        eig = eigendecompose(system.b)
        scaling = choose_scaling(eig, ALPHA)
        ms = median_ms(lambda: build_qpe(eig, scaling), args.repeats)
        print(f"  build_qpe                       {ms:8.3f} ms")
        p_unit = system.p / np.linalg.norm(system.p)
        ms = median_ms(lambda: build_hhl_circuit(eig, p_unit, scaling), args.repeats)
        print(f"  build_hhl_circuit               {ms:8.3f} ms")
        ms = median_ms(lambda: apply_circuit(zero_state(width), circuit), args.repeats)
        print(f"  apply_circuit from |0...0>      {ms:8.3f} ms")

        def plan_and_simulate():
            apply_circuit(zero_state(width), plan_hhl(system, config).circuit)

        ms = median_ms(plan_and_simulate, args.repeats)
        print(f"  plan_hhl + apply_circuit        {ms:8.3f} ms")


if __name__ == "__main__":
    main()
