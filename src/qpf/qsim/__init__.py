"""Statevector circuit simulator: gates, execution, state preparation,
lowering to the CNOT + single-qubit basis, and circuit metrics."""

from qpf.qsim.circuit import (
    Circuit,
    Cnot,
    ControlledUnitary,
    Gate,
    SingleQubit,
    UniformlyControlledRy,
    controlled_evolutions,
    dump,
    h,
    phase,
    ry,
    rz,
    x,
)
from qpf.qsim.lower import lower_to_basis
from qpf.qsim.metrics import CircuitMetrics, metrics
from qpf.qsim.prepare import prepare_state
from qpf.qsim.simulate import (
    PostSelection,
    apply_circuit,
    post_select,
    zero_state,
)

__all__ = [
    "Circuit",
    "CircuitMetrics",
    "Cnot",
    "ControlledUnitary",
    "Gate",
    "PostSelection",
    "SingleQubit",
    "UniformlyControlledRy",
    "apply_circuit",
    "controlled_evolutions",
    "dump",
    "h",
    "lower_to_basis",
    "metrics",
    "phase",
    "post_select",
    "prepare_state",
    "ry",
    "rz",
    "x",
    "zero_state",
]
