"""Width / depth / CNOT-count accounting on lowered circuits."""

from __future__ import annotations

from dataclasses import dataclass

from qpf.errors import InputError
from qpf.qsim.circuit import Circuit, Cnot, ControlledUnitary, UniformlyControlledRy
from qpf.qsim.lower import lower_to_basis

# The most CNOTs ``metrics`` lowers a circuit to, by ``lowered_cnot_bound``: about
# 2.6 GiB of lowered gates at ~53 MiB per 10^6 CNOTs.
MAX_LOWERED_CNOTS = 5 * 10**7


@dataclass(frozen=True)
class CircuitMetrics:
    width: int
    depth: int
    cnot_count: int


def lowered_cnot_bound(circuit: Circuit) -> int:
    """An upper bound on the CNOTs of ``lower_to_basis(circuit)``, from gate widths alone.

    A ``ControlledUnitary`` on t targets and m >= 2 qubits has at most
    2^(t-1) (2^t - 1) Givens factors, the one on a state pair d bits apart a
    walk of 2d - 1 multi-controlled 2x2s, which sums to t 2^(2t-1) - 2^(t-1)
    (2^t - 1) over all pairs; plus one phase, the last column's: any other
    column keeps a phase only when all its rotations, each at least one 2x2,
    are skipped.  Each 2x2 under m - 1 controls
    costs at most 4 3^(m-2) - 2 CNOTs by the square-root recursion.  A
    ``UniformlyControlledRy`` on k >= 1 controls costs 2^k, a ``Cnot`` 1.
    Exact on a dense block.
    """
    total = 0
    for gate in circuit.gates:
        if isinstance(gate, Cnot):
            total += 1
        elif isinstance(gate, UniformlyControlledRy) and gate.controls:
            total += 2 ** len(gate.controls)
        elif isinstance(gate, ControlledUnitary) and len(gate.qubits) >= 2:
            t, controls = len(gate.targets), len(gate.qubits) - 1
            two_by_twos = t * 2 ** (2 * t - 1) - 2 ** (t - 1) * (2**t - 1) + 1
            total += two_by_twos * (4 * 3 ** (controls - 1) - 2)
    return total


def metrics(circuit: Circuit) -> CircuitMetrics:
    """Metrics of the circuit's lowered form.

    width = register size; cnot_count = number of CNOTs after lowering;
    depth = longest dependency chain, where gates sharing any qubit are
    ordered and each basis gate costs one layer.  InputError, before any
    lowering, when ``lowered_cnot_bound`` is over ``MAX_LOWERED_CNOTS``.
    """
    bound = lowered_cnot_bound(circuit)
    if bound > MAX_LOWERED_CNOTS:
        raise InputError(f"circuit lowers to up to {bound} CNOTs, "
                         f"over the {MAX_LOWERED_CNOTS}-CNOT limit")
    lowered = lower_to_basis(circuit)
    ready = [0] * circuit.num_qubits
    cnots = 0
    for gate in lowered.gates:  # only Cnot and SingleQubit after lowering
        if type(gate) is Cnot:
            c, t = gate.control, gate.target
            # A conditional, not max(): this runs once per lowered CNOT.
            layer = (ready[c] if ready[c] > ready[t] else ready[t]) + 1
            ready[c] = ready[t] = layer
            cnots += 1
        else:
            ready[gate.target] += 1
    return CircuitMetrics(width=circuit.num_qubits, depth=max(ready), cnot_count=cnots)
