"""Shared test oracles, independent of the package's execution paths.

The dense-matrix builders below work purely with index bit arithmetic so
they cannot share bugs with the tensor-contraction code under test, and
they write each named gate from its closed form, not with the package's
own matrix functions.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np

from qpf.grid import Network, ReducedSystem, build_reduced_system, network_from_dict
from qpf.qsim import (
    Circuit,
    Cnot,
    ControlledUnitary,
    SingleQubit,
    UniformlyControlledRy,
    x,
)
from qpf.qsim.circuit import _NAMED


def named_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    """The 2x2 matrix of a named one-qubit gate (H, X, RY, RZ, P) by its closed form."""
    if name == "H":
        return np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    if name == "X":
        return np.array([[0, 1], [1, 0]])
    (angle,) = params
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array({
        "RY": [[c, -s], [s, c]],
        "RZ": [[cmath.exp(-0.5j * angle), 0], [0, cmath.exp(0.5j * angle)]],
        "P": [[1, 0], [0, cmath.exp(1j * angle)]],
    }[name])


def dense_gate(gate, n: int) -> np.ndarray:
    """Brute-force 2^n x 2^n matrix of a single gate."""
    size = 2**n
    mat = np.zeros((size, size), dtype=complex)
    if isinstance(gate, SingleQubit):
        u = gate.u if gate.name == "U" else named_matrix(gate.name, gate.params)
        _embed_single(mat, u, gate.target)
    elif isinstance(gate, Cnot):
        for col in range(size):
            row = col ^ (1 << gate.target) if (col >> gate.control) & 1 else col
            mat[row, col] = 1.0
    elif isinstance(gate, ControlledUnitary):
        m = len(gate.targets)
        for col in range(size):
            if not all((col >> c) & 1 for c in gate.controls):
                mat[col, col] += 1.0
                continue
            t_in = sum(((col >> t) & 1) << i for i, t in enumerate(gate.targets))
            base = col
            for t in gate.targets:
                base &= ~(1 << t)
            for t_out in range(2**m):
                row = base
                for i, t in enumerate(gate.targets):
                    row |= ((t_out >> i) & 1) << t
                mat[row, col] += gate.u[t_out, t_in]
    elif isinstance(gate, UniformlyControlledRy):
        for col in range(size):
            ctrl_val = sum(((col >> c) & 1) << i for i, c in enumerate(gate.controls))
            u = named_matrix("RY", (float(gate.angles[ctrl_val]),))
            bit = (col >> gate.target) & 1
            for out in (0, 1):
                row = (col & ~(1 << gate.target)) | (out << gate.target)
                mat[row, col] += u[out, bit]
    else:
        raise TypeError(type(gate).__name__)
    return mat


def _embed_single(mat: np.ndarray, u: np.ndarray, target: int) -> None:
    for col in range(len(mat)):
        bit = (col >> target) & 1
        for out in (0, 1):
            row = (col & ~(1 << target)) | (out << target)
            mat[row, col] += u[out, bit]


def dense_circuit(circuit: Circuit) -> np.ndarray:
    mat = np.eye(2**circuit.num_qubits, dtype=complex)
    for gate in circuit.gates:
        mat = dense_gate(gate, circuit.num_qubits) @ mat
    return mat


def is_lowered(circuit: Circuit) -> bool:
    """True when every gate is a one-qubit gate or a CNOT."""
    return all(isinstance(g, (SingleQubit, Cnot)) for g in circuit.gates)


def gate_qubit_set(gate) -> set[int]:
    """Every qubit a gate touches, read off its own fields, not through the package."""
    qubits = {getattr(gate, name) for name in ("control", "target") if hasattr(gate, name)}
    for name in ("controls", "targets"):
        qubits.update(getattr(gate, name, ()))
    return qubits


def asap_depth(circuit: Circuit) -> int:
    """Depth by ASAP layering: each gate joins the first layer after the last
    layer that holds any of its qubits, and the depth is the layer count.
    """
    layers: list[set[int]] = []
    for gate in circuit.gates:
        qubits = gate_qubit_set(gate)
        slot = len(layers)
        while slot and not layers[slot - 1] & qubits:
            slot -= 1
        if slot == len(layers):
            layers.append(set())
        layers[slot] |= qubits
    return len(layers)


def dense_unitary_deviation(u: np.ndarray) -> float:
    """max |entry| of u^H u - I by a dense numpy product; NaN propagates."""
    u = np.asarray(u)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(np.conj(u).T @ u - np.identity(u.shape[0]))))


def sqrt_2x2_alone(u: np.ndarray) -> np.ndarray:
    """Principal square root of one 2x2 unitary by the square-root
    recursion's one-matrix formula, the reference for the stacked root."""
    vals, vecs = np.linalg.eig(u)
    roots = np.array([cmath.exp(1j * cmath.phase(lam) / 2) for lam in vals])
    return (vecs * roots) @ np.linalg.inv(vecs)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def on_pattern(controls: tuple[int, ...], targets: tuple[int, ...], u: np.ndarray,
               pattern: int) -> list:
    """Gates that apply ``u`` to ``targets`` where control i reads bit i of
    ``pattern``: the all-ones ``ControlledUnitary`` between X gates on each
    control whose bit is 0, in control order."""
    flips = [x(c) for i, c in enumerate(controls) if not pattern >> i & 1]
    return [*flips, ControlledUnitary(controls, targets, u), *flips]


def random_circuit(rng: np.random.Generator, n: int, length: int) -> Circuit:
    """Random circuit of ``length`` steps mixing every gate kind; a controlled
    unitary step reads a random control pattern (``on_pattern``), so it is
    one to 2c + 1 gates."""
    circuit = Circuit(n)
    for _ in range(length):
        kind = int(rng.integers(0, 4))
        qs = [int(q) for q in rng.permutation(n)]
        if kind == 0 or n == 1:
            circuit.append(SingleQubit(qs[0], random_unitary(rng, 2)))
        elif kind == 1:
            circuit.append(Cnot(qs[0], qs[1]))
        elif kind == 2:
            n_targets = int(rng.integers(1, n))
            n_controls = int(rng.integers(0, n - n_targets + 1))
            targets = tuple(qs[:n_targets])
            controls = tuple(qs[n_targets : n_targets + n_controls])
            pattern = int(rng.integers(0, 2**n_controls))
            circuit.extend(
                on_pattern(controls, targets, random_unitary(rng, 2**n_targets), pattern)
            )
        else:
            n_controls = int(rng.integers(0, n))
            angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=2**n_controls)
            circuit.append(
                UniformlyControlledRy(tuple(qs[1 : 1 + n_controls]), qs[0], angles)
            )
    return circuit


def exact_grid_system(
    rng: np.random.Generator, dim: int, alpha: int
) -> ReducedSystem:
    """Random SPD system whose spectrum sits exactly on the clock grid.

    The default scaling maps lambda_max to clock integer 2^alpha - 1, so
    eigenvalues m * lambda_max / (2^alpha - 1) with integer m (and m_max =
    2^alpha - 1 present) are all exactly representable.
    """
    top = 2**alpha - 1
    scale = float(rng.uniform(0.5, 50.0))
    m_values = [int(v) for v in rng.integers(1, top, size=dim - 1)] + [top]
    lambdas = np.array(sorted(m_values)) * scale / top
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    b = basis @ np.diag(lambdas) @ basis.T
    p = rng.normal(size=dim)
    p /= np.linalg.norm(p)
    return ReducedSystem(b=b, p=p, bus_order=tuple(range(2, dim + 2)))


def benchmark_network_dict(buses: int, seed: int) -> dict:
    """``perfbench/netgen.py``'s ring of ``buses`` buses, network seed ``seed``,
    as the network-file dict the benchmark's ``grid-scale-sim`` makes."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "netgen.py"
    spec = importlib.util.spec_from_file_location("netgen", path)
    netgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(netgen)
    return netgen.ring_chord_network(buses, seed)


def benchmark_network(buses: int, seed: int) -> Network:
    """``benchmark_network_dict(buses, seed)``, parsed."""
    return network_from_dict(benchmark_network_dict(buses, seed))


def benchmark_ring(buses: int, seed: int) -> ReducedSystem:
    """The reduced system of ``benchmark_network(buses, seed)``."""
    return build_reduced_system(benchmark_network(buses, seed))


def full_susceptance_by_loop(network: Network) -> np.ndarray:
    """The unreduced susceptance matrix, buses by ascending id, by one loop
    over the branches in order, four scalar updates each."""
    order = sorted(b.id for b in network.buses)
    index = {bus_id: i for i, bus_id in enumerate(order)}
    b = np.zeros((len(order), len(order)))
    for br in network.branches:
        w = 1.0 / br.x_pu
        i, j = index[br.from_bus], index[br.to_bus]
        b[i, i] += w
        b[j, j] += w
        b[i, j] -= w
        b[j, i] -= w
    return b


def holds(gate, attr: str) -> bool:
    """Whether ``gate`` holds ``attr`` now, read past ``__getattr__``, which
    would build an unset ``u`` or ``params`` on the read."""
    try:
        object.__getattribute__(gate, attr)
    except AttributeError:
        return False
    return True


def held_slots(gate) -> list[tuple[str, object]]:
    """The (slot, value) pairs ``gate`` holds now, in slot order, read as
    ``holds`` reads them: what ``list(vars(gate).items())`` gave before gates
    held their fields in slots."""
    return [(slot, object.__getattribute__(gate, slot))
            for slot in type(gate).__slots__ if holds(gate, slot)]


def count_named_builds(monkeypatch) -> list[str]:
    """Wrap each named-gate matrix builder so every call appends its name to
    the returned list."""
    built: list[str] = []

    def counting(name, build):
        return lambda *params: built.append(name) or build(*params)

    for name, (n_params, build) in list(_NAMED.items()):
        if build is not None:
            monkeypatch.setitem(_NAMED, name, (n_params, counting(name, build)))
    return built


def cnot_bound(circuit: Circuit) -> int:
    """CNOTs of the generic lowering by closed form, gate by gate.

    A ``ControlledUnitary`` with t targets and m = t + c >= 2 qubits costs
    (2^(t-1)·(2^t·(t-1) + 1) + 1)·(4·3^(m-2) - 2): one multi-controlled
    rotation per Givens step and one phase, each costing 4·3^(m-2) - 2 by the
    square-root recursion (Barenco et al., PRA 52, 3457, 1995).  A
    ``UniformlyControlledRy`` on k >= 1 controls costs 2^k, a ``Cnot`` 1 and
    anything narrower nothing.  Exact on a dense block; a diagonal one skips
    rotations, so on a whole circuit it is an upper bound.
    """
    total = 0
    for gate in circuit.gates:
        if isinstance(gate, Cnot):
            total += 1
        elif isinstance(gate, UniformlyControlledRy) and gate.controls:
            total += 2 ** len(gate.controls)
        elif isinstance(gate, ControlledUnitary) and len(gate.qubits) >= 2:
            t, m = len(gate.targets), len(gate.qubits)
            total += (2 ** (t - 1) * (2**t * (t - 1) + 1) + 1) * (4 * 3 ** (m - 2) - 2)
    return total
