#!/usr/bin/env python3
"""sha256 fingerprints of qpf's outputs, one ``label digest`` line per output,
so that two checkouts compare by one ``diff``.

    python3 scripts/fingerprint.py [--only PREFIX ...] > prints.txt

Run from the root of a source checkout; qpf is imported from its ``src``
directory and the rings come from ``perfbench/netgen.py``.  BLAS runs on one
thread.  Run it in the parent's checkout and in the change's, on one machine,
and ``diff`` the two outputs: an empty diff means every output below is
byte-identical.  ``--only`` keeps the labels that start with any of its
prefixes.  The outputs are:

- ``run_hhl-wscc9-a<alpha>``: ``repr(run_hhl(wscc9, HHLConfig(alpha)).to_dict())``
  for alpha = 1..8;
- ``plan-<case>`` and ``lowered-<case>``: ``dump`` of the planned circuit and
  of ``lower_to_basis`` of it, for wscc9 at alpha = 3, 5 and 11, and for the
  benchmark's 17-bus ring (``perfbench/oracles.py`` ``RING17_SEED``) at alpha = 1;
- ``state-ring<buses>-seed<seed>``: the bytes of the final state of
  ``apply_circuit`` from |0...0>, on the circuit ``grid-scale-sim`` builds for
  its 65-, 129- and 257-bus rings (alpha = 7) at benchmark seeds 1 and 7.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import netgen  # noqa: E402
import oracles  # noqa: E402
from qpf.grid import build_reduced_system, load_fixture, parse_network  # noqa: E402
from qpf.hhl import (  # noqa: E402
    HHLConfig,
    build_hhl_circuit,
    choose_scaling,
    eigendecompose,
    plan_hhl,
    run_hhl,
)
from qpf.qsim import apply_circuit, dump, lower_to_basis, zero_state  # noqa: E402

GRID_ALPHA = 7  # grid-scale-sim's clock width
GRID_BETAS = (6, 7, 8)  # its rings have 2^beta + 1 buses
GRID_SEEDS = (1, 7)  # benchmark seeds; a ring's network seed is seed * 1000 + beta


def wscc9():
    return build_reduced_system(load_fixture("wscc9"))


def ring(buses: int, seed: int):
    return build_reduced_system(parse_network(netgen.network_json(buses, seed)))


def grid_state(buses: int, seed: int) -> bytes:
    """The final state as ``grid-scale-sim`` computes it (``perfbench/workloads.py``)."""
    system = ring(buses, seed)
    eig = eigendecompose(system.b)
    circuit = build_hhl_circuit(eig, system.p / float(np.linalg.norm(system.p)),
                                choose_scaling(eig, GRID_ALPHA))
    return apply_circuit(zero_state(circuit.num_qubits), circuit).tobytes()


def outputs() -> dict:
    """Label -> a call returning the bytes to hash, in print order."""
    cases = {f"run_hhl-wscc9-a{alpha}":
             lambda alpha=alpha: repr(run_hhl(wscc9(), HHLConfig(alpha=alpha)).to_dict())
             for alpha in range(1, 9)}
    plans = {f"wscc9-a{alpha}": (wscc9, alpha) for alpha in (3, 5, 11)}
    plans["ring17-a1"] = (lambda: ring(17, oracles.RING17_SEED), 1)
    for name, (system, alpha) in plans.items():
        def plan(system=system, alpha=alpha):
            return plan_hhl(system(), HHLConfig(alpha=alpha)).circuit
        cases[f"plan-{name}"] = lambda plan=plan: dump(plan())
        cases[f"lowered-{name}"] = lambda plan=plan: dump(lower_to_basis(plan()))
    for seed in GRID_SEEDS:
        for beta in GRID_BETAS:
            buses = 2**beta + 1
            cases[f"state-ring{buses}-seed{seed}"] = (
                lambda buses=buses, network_seed=seed * 1000 + beta:
                grid_state(buses, network_seed))
    return cases


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", default=[""], metavar="PREFIX")
    args = parser.parse_args()
    for label, make in outputs().items():
        if label.startswith(tuple(args.only)):
            data = make()
            if isinstance(data, str):
                data = data.encode()
            print(label, hashlib.sha256(data).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
