"""Gate and circuit types.

Endianness convention used everywhere: qubit 0 is the least significant bit
of the statevector index, so basis state ``|q_{n-1} ... q_1 q_0>`` has index
``sum(q_i << i)``.  Multi-qubit gate matrices follow the same rule: for
``ControlledUnitary.targets = (a, b)``, qubit ``a`` is bit 0 of the matrix
row/column index.

Gates are frozen dataclasses, one class per kind holding all of that kind's
behaviour (see ``Gate``), that check themselves once, when made (distinct
qubits, a given numeric matrix unitary, an int pattern that fits, the angle
count, finite real angles); a Circuit is an ordered gate list over a
fixed-width register whose ``append`` checks only the gate kind and the
width.  ``lower_to_basis`` splices lowered blocks into the list without that
check, since each lies on the qubits of an input gate whose circuit already
checked them; so every stored circuit is well-formed by construction.  A
named gate builds its matrix only when ``u`` is first read, so lowering and
counting, which never read it, build none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qpf.errors import InputError, as_array, as_int, as_real

UNITARY_TOL = 1e-10
# The widest register any circuit or state may have: a complex128 statevector of
# 2^24 amplitudes is 256 MiB, and a run holds up to four.  The benchmark's widest has 16.
MAX_QUBITS = 24

# Builders of the named 2x2 matrices (see ``_NAMED``).
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _ry_matrix(theta: float | np.ndarray) -> np.ndarray:
    """RY(theta); for an array of angles, the stack of their matrices."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = c
    u[..., 0, 1], u[..., 1, 0] = -s, s
    return u


def _rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def _check_unitary(u: np.ndarray, dim: int) -> None:
    if not isinstance(u, np.ndarray):
        raise InputError(f"unitary matrix must be a numpy array, got {type(u).__name__}")
    if u.shape != (dim, dim):
        raise InputError(f"matrix shape {u.shape}, expected {(dim, dim)}")
    # Complex, so that an integer matrix's product cannot wrap; NaN/inf fail the test below.
    v = as_array(u, "matrix element", 2, complex, finite=False)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf entries
        gram = v.conj().T @ v
        gram.reshape(-1)[:: dim + 1] -= 1  # minus the identity, in place
        dev = np.abs(gram).max()
    if not dev <= UNITARY_TOL:  # also rejects NaN
        raise InputError(f"matrix not unitary (deviation {dev:.2e})")


class Gate:
    """Base of the four gate kinds.  Each kind's class runs every check that
    needs the gate alone once, when it is made (in ``__post_init__``, or in
    ``SingleQubit.__init__``), and defines ``qubits`` (controls included),
    ``inverse()``, ``dump_line()`` and ``controlled_form()``: the
    ``(controls, pattern, targets, u)`` the simulator applies, ``u`` acting on
    ``targets`` (``targets[j]`` is matrix bit j) where control i reads bit i
    of ``pattern``; a stack ``u[m]`` acts on the low target bits where the
    high ones read m.

    Only a matrix a caller gives is checked for unitarity, once, when its gate
    is made: a named gate is unitary by construction from its checked params,
    and an inverse is the conjugate transpose of a checked matrix.  A named
    gate builds ``u`` on its first read; its checks still run when it is made.
    Qubits are told apart by their text, equal for equal Python or numpy ints:
    reading it cannot fail on an unhashable or huge index, as a comparison can.
    """


def _unchecked(cls: type, **fields) -> Gate:
    """A ``cls`` holding ``fields`` of a checked gate, made without its checks."""
    gate = object.__new__(cls)
    gate.__dict__.update(fields)
    return gate


def _adjoint(gate: Gate) -> Gate:
    """A copy of a checked ``gate`` with ``u.conj().T`` for ``u``: u^H has u's
    singular values, so it is as unitary as u."""
    return _unchecked(type(gate), **{**vars(gate), "u": gate.u.conj().T})


# Each SingleQubit name: its param count and the builder of its matrix from
# those params ("U" has none: it is the matrix it is given).
_NAMED = {
    "U": (0, None),
    "H": (0, lambda: _H),
    "X": (0, lambda: _X),
    "RY": (1, _ry_matrix),
    "RZ": (1, _rz_matrix),
    "P": (1, lambda phi: np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=complex)),
}


@dataclass(frozen=True, eq=False, init=False)
class SingleQubit(Gate):
    """Any one-qubit unitary.  "U" (no params) is the matrix ``u`` it is given;
    any other name builds ``u`` from its params on first read, and a matrix
    given with it is rejected: H and X take no params, RY, RZ and P one finite
    real angle.  A named gate is made with ``u`` unset; ``u`` has no default,
    so no class attribute keeps its first read from ``__getattr__``.
    """

    target: int
    u: np.ndarray | None
    name: str
    params: tuple[float, ...]

    def __init__(self, target: int, u: np.ndarray | None = None,
                 name: str = "U", params: tuple[float, ...] = ()) -> None:
        entry = _NAMED.get(name)
        if entry is None:
            raise InputError(f"unknown one-qubit gate name {name!r}")
        n_params, build = entry
        if len(params) != n_params:
            raise InputError(f"{name} takes {n_params} params, got {len(params)}")
        if n_params:
            as_real(params[0], f"{name} angle")
        object.__setattr__(self, "target", target)
        if build is None:
            _check_unitary(u, 2)
            object.__setattr__(self, "u", u)
        elif u is not None:
            raise InputError(f"{name} builds its own matrix; only U takes one")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)

    def __getattr__(self, attr: str):
        # Only for attributes not held: ``u`` of a named gate before its first read.
        if attr != "u":
            raise AttributeError(attr)
        object.__setattr__(self, "u", _NAMED[self.name][1](*self.params))
        return self.u

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)

    def inverse(self) -> SingleQubit:
        if self.name == "U":
            return _adjoint(self)
        if not self.params:
            return self  # H and X are self-inverse
        return SingleQubit(self.target, None, self.name, (-self.params[0],))

    def dump_line(self) -> str:
        if self.name == "U":
            return f"U {self.target} {_complex_fields(self.u)}"
        tail = f" {_fmt(self.params)}" if self.params else ""
        return f"{self.name} {self.target}{tail}"

    def controlled_form(self):
        return (), 0, (self.target,), self.u


@dataclass(frozen=True)
class Cnot(Gate):
    control: int
    target: int

    def __post_init__(self) -> None:
        if str(self.control) == str(self.target):  # see Gate: text, not values
            raise InputError(f"gate reuses a qubit: {self.qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)

    def inverse(self) -> Cnot:
        return self

    def dump_line(self) -> str:
        return f"CNOT {self.target} [{self.control}]"

    def controlled_form(self):
        return (self.control,), 1, (self.target,), _X


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

    def __post_init__(self) -> None:
        if len(set(map(str, self.qubits))) != len(self.qubits):  # see Gate
            raise InputError(f"gate reuses a qubit: {self.qubits}")
        _check_unitary(self.u, 2 ** len(self.targets))
        as_int(self.control_pattern, "control_pattern", -1, 2 ** len(self.controls) - 1)

    @property
    def pattern(self) -> int:
        if self.control_pattern < 0:
            return (1 << len(self.controls)) - 1
        return self.control_pattern

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def inverse(self) -> ControlledUnitary:
        return _adjoint(self)

    def dump_line(self) -> str:
        ts = " ".join(map(str, self.targets))
        cs = " ".join(map(str, self.controls))
        return f"CU {ts} [{cs}] {self.pattern} {_complex_fields(self.u)}"

    def controlled_form(self):
        return self.controls, self.pattern, self.targets, self.u


@dataclass(frozen=True, eq=False)
class UniformlyControlledRy(Gate):
    """Ry(angles[m]) on ``target`` for each control basis value m.

    ``controls[0]`` is the least significant bit of the angle index m.
    """

    controls: tuple[int, ...]
    target: int
    angles: np.ndarray

    def __post_init__(self) -> None:
        if len(set(map(str, self.qubits))) != len(self.qubits):  # see Gate
            raise InputError(f"gate reuses a qubit: {self.qubits}")
        object.__setattr__(self, "angles", as_array(self.angles, "angle", 1))
        if len(self.angles) != 2 ** len(self.controls):
            raise InputError(f"{len(self.angles)} angles for {len(self.controls)} controls")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + (self.target,)

    def inverse(self) -> UniformlyControlledRy:
        return UniformlyControlledRy(self.controls, self.target, -self.angles)

    def dump_line(self) -> str:
        cs = " ".join(map(str, self.controls))
        return f"UCRY {self.target} [{cs}] {_fmt(self.angles)}"

    def controlled_form(self):
        return (), 0, (self.target, *self.controls), _ry_matrix(self.angles)


def h(target: int) -> SingleQubit:
    return SingleQubit(target, None, "H")


def x(target: int) -> SingleQubit:
    return SingleQubit(target, None, "X")


def ry(target: int, theta: float) -> SingleQubit:
    return SingleQubit(target, None, "RY", (theta,))


def rz(target: int, theta: float) -> SingleQubit:
    return SingleQubit(target, None, "RZ", (theta,))


def phase(target: int, phi: float) -> SingleQubit:
    return SingleQubit(target, None, "P", (phi,))


@dataclass
class Circuit:
    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        self.num_qubits = as_int(self.num_qubits, "num_qubits", 1, MAX_QUBITS)
        staged, self.gates = self.gates, []
        self.extend(staged)

    def append(self, gate: Gate) -> None:
        if not isinstance(gate, (SingleQubit, Cnot, ControlledUnitary, UniformlyControlledRy)):
            raise InputError(f"not a gate: {type(gate).__name__}")
        for q in gate.qubits:
            as_int(q, "qubit index", 0, self.num_qubits - 1)
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for g in gates:
            self.append(g)

    def inverse(self) -> "Circuit":
        """Adjoint circuit: gates reversed and individually inverted."""
        return Circuit(self.num_qubits, [g.inverse() for g in reversed(self.gates)])


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
# Floats are written with repr precision, so each one reads back bit for bit.
# ---------------------------------------------------------------------------


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _complex_fields(m: np.ndarray) -> str:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return _fmt(np.column_stack([flat.real, flat.imag]).reshape(-1))


def dump(circuit: Circuit) -> str:
    return "".join(g.dump_line() + "\n" for g in circuit.gates)
