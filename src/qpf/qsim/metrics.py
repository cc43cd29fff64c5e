"""Width / depth / CNOT-count accounting on lowered circuits."""

from __future__ import annotations

from dataclasses import dataclass

from qpf.qsim.circuit import Circuit, Cnot, gate_qubits
from qpf.qsim.lower import lower_to_basis


@dataclass(frozen=True)
class CircuitMetrics:
    width: int
    depth: int
    cnot_count: int


def metrics(circuit: Circuit) -> CircuitMetrics:
    """Metrics of the circuit's lowered form.

    width = register size; cnot_count = number of CNOTs after lowering;
    depth = longest dependency chain, where gates sharing any qubit are
    ordered and each basis gate costs one layer.
    """
    lowered = lower_to_basis(circuit)
    ready = [0] * circuit.num_qubits
    depth = 0
    cnots = 0
    for gate in lowered.gates:
        qubits = gate_qubits(gate)
        t = 1 + max(ready[q] for q in qubits)
        for q in qubits:
            ready[q] = t
        if t > depth:
            depth = t
        if isinstance(gate, Cnot):
            cnots += 1
    return CircuitMetrics(width=circuit.num_qubits, depth=depth, cnot_count=cnots)
