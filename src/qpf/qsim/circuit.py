"""Gate and circuit types.

Endianness convention used everywhere: qubit 0 is the least significant bit
of the statevector index, so basis state ``|q_{n-1} ... q_1 q_0>`` has index
``sum(q_i << i)``.  Multi-qubit gate matrices follow the same rule: for
``ControlledUnitary.targets = (a, b)``, qubit ``a`` is bit 0 of the matrix
row/column index.

Gates are frozen dataclasses that check themselves once, when made (distinct
qubits, unitarity to 1e-10, pattern width, angle count); a Circuit is an
ordered gate list over a fixed-width register whose ``append`` checks only the
width, so every stored circuit is well-formed by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qpf.errors import InputError

UNITARY_TOL = 1e-10

# Named 2x2 constants / factories recognised by the dump format.
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def _phase_matrix(phi: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=complex)


def _check_unitary(u: np.ndarray, dim: int) -> None:
    if not isinstance(u, np.ndarray):
        raise InputError(f"unitary matrix must be a numpy array, got {type(u).__name__}")
    if u.shape != (dim, dim):
        raise InputError(f"matrix shape {u.shape}, expected {(dim, dim)}")
    dev = np.abs(u.conj().T @ u - np.eye(dim)).max()
    if not dev <= UNITARY_TOL:  # also rejects NaN
        raise InputError(f"matrix not unitary (deviation {dev:.2e})")


def _check_gate(gate: Gate) -> None:
    """Every check that depends on the gate alone; the width check is Circuit's."""
    if isinstance(gate, SingleQubit):
        _check_unitary(gate.u, 2)
        return
    qs = gate_qubits(gate)
    if len(set(qs)) != len(qs):
        raise InputError(f"gate reuses a qubit: {qs}")
    if isinstance(gate, ControlledUnitary):
        _check_unitary(gate.u, 2 ** len(gate.targets))
        if not 0 <= gate.pattern < 2 ** len(gate.controls):
            raise InputError("control pattern wider than control set")
    elif isinstance(gate, UniformlyControlledRy):
        if len(gate.angles) != 2 ** len(gate.controls):
            raise InputError(f"{len(gate.angles)} angles for {len(gate.controls)} controls")
        if not np.isfinite(gate.angles).all():
            raise InputError("non-finite angle")


class Gate:
    """Base of the four gate types: a gate checks itself once, when it is made."""

    __post_init__ = _check_gate


@dataclass(frozen=True, eq=False)
class SingleQubit(Gate):
    """Any one-qubit unitary.  ``name``/``params`` drive ``dump`` and ``invert_gate``."""

    target: int
    u: np.ndarray
    name: str = "U"
    params: tuple[float, ...] = ()


@dataclass(frozen=True)
class Cnot(Gate):
    control: int
    target: int


@dataclass(frozen=True, eq=False)
class ControlledUnitary(Gate):
    """``u`` acts on ``targets`` when every control qubit matches its pattern bit.

    ``control_pattern`` bit i is the required value of ``controls[i]``
    (all-ones by default, i.e. the ordinary controlled gate).
    """

    controls: tuple[int, ...]
    targets: tuple[int, ...]
    u: np.ndarray
    control_pattern: int = -1  # -1 means "all ones"

    @property
    def pattern(self) -> int:
        if self.control_pattern < 0:
            return (1 << len(self.controls)) - 1
        return self.control_pattern


@dataclass(frozen=True, eq=False)
class UniformlyControlledRy(Gate):
    """Ry(angles[m]) on ``target`` for each control basis value m.

    ``controls[0]`` is the least significant bit of the angle index m.
    """

    controls: tuple[int, ...]
    target: int
    angles: np.ndarray


def h(target: int) -> SingleQubit:
    return SingleQubit(target, _H, "H")


def x(target: int) -> SingleQubit:
    return SingleQubit(target, _X, "X")


def ry(target: int, theta: float) -> SingleQubit:
    return SingleQubit(target, _ry_matrix(theta), "RY", (theta,))


def rz(target: int, theta: float) -> SingleQubit:
    return SingleQubit(target, _rz_matrix(theta), "RZ", (theta,))


def phase(target: int, phi: float) -> SingleQubit:
    return SingleQubit(target, _phase_matrix(phi), "P", (phi,))


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    """All qubits a gate touches, controls included."""
    if isinstance(gate, SingleQubit):
        return (gate.target,)
    if isinstance(gate, Cnot):
        return (gate.control, gate.target)
    if isinstance(gate, ControlledUnitary):
        return gate.controls + gate.targets
    if isinstance(gate, UniformlyControlledRy):
        return gate.controls + (gate.target,)
    raise InputError(f"unknown gate type {type(gate).__name__}")


@dataclass
class Circuit:
    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise InputError("num_qubits must be >= 1")
        staged, self.gates = self.gates, []
        for g in staged:
            self.append(g)

    def append(self, gate: Gate) -> None:
        for q in gate_qubits(gate):
            if not 0 <= q < self.num_qubits:
                raise InputError(f"qubit {q} out of range for width {self.num_qubits}")
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for g in gates:
            self.append(g)

    def inverse(self) -> "Circuit":
        """Adjoint circuit: gates reversed and individually inverted."""
        inv = Circuit(self.num_qubits)
        for g in reversed(self.gates):
            inv.append(invert_gate(g))
        return inv


def invert_gate(gate: Gate) -> Gate:
    if isinstance(gate, SingleQubit):
        if gate.name in ("RY", "RZ", "P"):
            maker = {"RY": ry, "RZ": rz, "P": phase}[gate.name]
            return maker(gate.target, -gate.params[0])
        if gate.name in ("H", "X"):
            return gate  # self-inverse
        return SingleQubit(gate.target, gate.u.conj().T)
    if isinstance(gate, Cnot):
        return gate
    if isinstance(gate, ControlledUnitary):
        return ControlledUnitary(
            gate.controls, gate.targets, gate.u.conj().T, gate.control_pattern
        )
    if isinstance(gate, UniformlyControlledRy):
        return UniformlyControlledRy(gate.controls, gate.target, -np.asarray(gate.angles))
    raise InputError(f"unknown gate type {type(gate).__name__}")


# ---------------------------------------------------------------------------
# Text dump format, one gate per line:  GATE q_targets [q_controls] params...
#
#   H 3                          named single-qubit gates
#   RY 2 0.7853981633974483      rotation angle in radians
#   U 1 re im re im re im re im  anonymous 2x2, row-major
#   CNOT 2 [0]                   target 2, control 0
#   CU 0 1 [3 4] 3 re im ...     targets, controls, pattern int, matrix row-major
#   UCRY 5 [2 3] a0 a1 a2 a3     target, controls, 2^k angles
#
# Floats are written with repr precision; parse(dump(c)) reproduces c exactly.
# ---------------------------------------------------------------------------


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _complex_fields(m: np.ndarray) -> str:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return _fmt(np.column_stack([flat.real, flat.imag]).reshape(-1))


def dump(circuit: Circuit) -> str:
    lines = []
    for g in circuit.gates:
        if isinstance(g, SingleQubit):
            if g.name == "U":
                lines.append(f"U {g.target} {_complex_fields(g.u)}")
            else:
                tail = f" {_fmt(g.params)}" if g.params else ""
                lines.append(f"{g.name} {g.target}{tail}")
        elif isinstance(g, Cnot):
            lines.append(f"CNOT {g.target} [{g.control}]")
        elif isinstance(g, ControlledUnitary):
            ts = " ".join(map(str, g.targets))
            cs = " ".join(map(str, g.controls))
            lines.append(f"CU {ts} [{cs}] {g.pattern} {_complex_fields(g.u)}")
        elif isinstance(g, UniformlyControlledRy):
            cs = " ".join(map(str, g.controls))
            lines.append(f"UCRY {g.target} [{cs}] {_fmt(g.angles)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _split_bracket(tokens: list[str]) -> tuple[list[int], list[int], list[str]]:
    """Split token list at the [controls] group: heads, controls, params."""
    if any(t.startswith("[") for t in tokens):
        start = next(i for i, t in enumerate(tokens) if t.startswith("["))
        end = next(i for i, t in enumerate(tokens) if t.endswith("]"))
        ctrl_tokens = " ".join(tokens[start : end + 1]).strip("[]").split()
        controls = [int(t) for t in ctrl_tokens if t]
        return [int(t) for t in tokens[:start]], controls, tokens[end + 1 :]
    heads = []
    for i, t in enumerate(tokens):
        if t.lstrip("+-").isdigit():
            heads.append(int(t))
        else:
            return heads, [], tokens[i:]
    return heads, [], []


def _parse_matrix(fields: list[str], dim: int) -> np.ndarray:
    vals = np.array([float(f) for f in fields], dtype=float)
    if len(vals) != 2 * dim * dim:
        raise InputError(f"expected {2 * dim * dim} floats for a {dim}x{dim} matrix")
    return (vals[0::2] + 1j * vals[1::2]).reshape(dim, dim)


def parse(text: str, num_qubits: int) -> Circuit:
    """Parse the dump format back into a Circuit."""
    circuit = Circuit(num_qubits)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, *tokens = line.split()
        try:
            heads, controls, params = _split_bracket(tokens)
            if name in ("H", "X"):
                circuit.append({"H": h, "X": x}[name](heads[0]))
            elif name in ("RY", "RZ", "P"):
                maker = {"RY": ry, "RZ": rz, "P": phase}[name]
                circuit.append(maker(heads[0], float(params[0])))
            elif name == "U":
                circuit.append(SingleQubit(heads[0], _parse_matrix(params, 2)))
            elif name == "CNOT":
                circuit.append(Cnot(controls[0], heads[0]))
            elif name == "CU":
                pattern = int(params[0])
                u = _parse_matrix(params[1:], 2 ** len(heads))
                circuit.append(
                    ControlledUnitary(tuple(controls), tuple(heads), u, pattern)
                )
            elif name == "UCRY":
                angles = np.array([float(p) for p in params])
                circuit.append(
                    UniformlyControlledRy(tuple(controls), heads[0], angles)
                )
            else:
                raise InputError(f"unknown gate {name!r}")
        except (IndexError, ValueError) as exc:
            raise InputError(f"line {lineno}: cannot parse {raw!r} ({exc})") from exc
    return circuit
