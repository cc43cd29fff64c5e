"""Width / depth / CNOT-count accounting on lowered circuits."""

from __future__ import annotations

from dataclasses import dataclass

from qpf.qsim.circuit import Circuit, Cnot
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
