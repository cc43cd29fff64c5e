"""Gate and circuit types.

Endianness convention used everywhere: qubit 0 is the least significant bit
of the statevector index, so basis state ``|q_{n-1} ... q_1 q_0>`` has index
``sum(q_i << i)``.  Multi-qubit gate matrices follow the same rule: for
``ControlledUnitary.targets = (a, b)``, qubit ``a`` is bit 0 of the matrix
row/column index.

Gates are slotted frozen dataclasses, one class per kind holding all of that
kind's behaviour (see ``Gate``), that check themselves once, when made
(distinct qubits, a given numeric matrix unitary, the angle count, finite
real angles); a controlled gate acts where all its controls read 1.
``controlled_evolutions`` makes the QPE's ``ControlledUnitary`` family, V
e^{i phi_k} V^T for one real V of at most ``MAX_EVOLUTION_QUBITS`` qubits,
with one check of V in place of one per matrix; each one, and its inverse,
holds V and its phase row, and builds ``u`` only when it is first read.  A
Circuit is an ordered gate list over a fixed-width register whose ``append``
checks only the gate kind and the width.  The splice rule: gates that come from an
already-checked circuit join the list without that per-gate check.
``extend`` of a Circuit checks once that it is no wider; ``inverse`` lists
each gate's inverse, on that gate's qubits; ``lower_to_basis`` splices in
lowered blocks, each on the qubits of an input gate.  So every stored
circuit is well-formed by construction.  A named gate builds its matrix only
when ``u`` is first read, so lowering and counting, which never read it,
build none.  No gate has an instance ``__dict__``: each holds its fields in
slots.  The RY, RZ and P gates that lowering makes, and every named inverse,
come from ``_rotation``, which checks only that the angle is finite and
keeps it in one private slot, so such a gate is one small object; its
``params`` tuple, like ``u``, is built on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from qpf.errors import InputError, as_array, as_int, as_real

UNITARY_TOL = 1e-10
# The widest register any circuit or state may have: a complex128 statevector of
# 2^24 amplitudes is 256 MiB, and a run holds up to four.  The benchmark's widest has 16.
MAX_QUBITS = 24
# The widest target register ``controlled_evolutions`` takes: up to 2^10 = 1,024
# dims one check of the eigenbasis keeps every evolution unitary (see there), and
# each evolution's ``u``, built only when read, is 16 MiB.
MAX_EVOLUTION_QUBITS = 10

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


def _check_unitary(u: np.ndarray, dim: int, tol: float = UNITARY_TOL) -> None:
    """InputError unless ``u`` is a numpy array of numbers of shape (dim, dim) with
    max |entry| of u^H u - I at most ``tol``."""
    if not isinstance(u, np.ndarray):
        raise InputError(f"unitary matrix must be a numpy array, got {type(u).__name__}")
    if u.shape != (dim, dim):
        raise InputError(f"matrix shape {u.shape}, expected {(dim, dim)}")
    # A float64 product for a real matrix and a complex one otherwise, so that an
    # integer matrix's product cannot wrap; NaN/inf fail the test below.
    real = u.dtype.kind in "iuf"
    v = as_array(u, "matrix element", 2, float if real else complex, finite=False)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf entries
        gram = v.T @ v if real else v.conj().T @ v
        gram.reshape(-1)[:: dim + 1] -= 1  # minus the identity, in place
        dev = np.abs(gram).max()
    if not dev <= tol:  # also rejects NaN
        raise InputError(f"matrix not unitary (deviation {dev:.2e})")


class Gate:
    """Base of the four gate kinds.  Each kind's class runs every check that
    needs the gate alone once, when it is made (in ``__post_init__``, or in
    ``SingleQubit.__init__``), and defines ``qubits`` (controls included),
    ``inverse()``, ``dump_line()`` and ``controlled_form()``: the
    ``(controls, targets, u)`` the simulator applies, ``u`` acting on
    ``targets`` (``targets[j]`` is matrix bit j) where every control reads 1;
    a stack ``u[m]`` acts on the low target bits where the high ones read m.
    ``factored_form()`` is None but for an evolution (or its inverse), where
    it is ``(controls, targets, v, row)``, u = V diag(e^{i row}) V^T for a
    real V, which the simulator applies through V without reading ``u``.

    Only a matrix a caller gives is checked for unitarity, once, when its gate
    is made: a named gate is unitary by construction from its checked params,
    and an inverse is the conjugate transpose of a checked matrix.  One family
    is checked through its factor instead: each evolution that
    ``controlled_evolutions`` makes from a real eigenbasis V is unitary to
    ``UNITARY_TOL`` once V is checked orthogonal to a tighter tolerance.  A named
    gate builds ``u`` on its first read; its checks still run when it is made.
    Qubits are told apart by their text, equal for equal Python or numpy ints:
    reading it cannot fail on an unhashable or huge index, as a comparison can.

    Every kind holds its fields in ``__slots__`` and has no instance
    ``__dict__``: a lowered circuit holds one object per distinct gate, and
    nothing more for the garbage collector to track.
    """

    __slots__ = ()

    def factored_form(self):
        return None

    def __getstate__(self) -> dict:
        # For copy and pickle: the slots held, read past ``__getattr__``, so
        # that a u or params not yet read is not built for the copy either.
        state = {}
        for slot in self.__slots__:
            try:
                state[slot] = object.__getattribute__(self, slot)
            except AttributeError:
                pass
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)


def _check_distinct(qubits: tuple) -> None:
    if len(set(map(str, qubits))) != len(qubits):  # see Gate: text, not values
        raise InputError(f"gate reuses a qubit: {qubits}")


def _unchecked(cls: type, **values) -> Gate:
    """A ``cls`` holding the field ``values`` of a checked gate, made without its checks."""
    gate = object.__new__(cls)
    setters = _SETTERS[cls]
    for name, value in values.items():
        setters[name](gate, value)
    return gate


def _adjoint(gate: Gate) -> Gate:
    """A copy of a checked ``gate`` with ``u.conj().T`` for ``u``: u^H has u's
    singular values, so it is as unitary as u."""
    cls = type(gate)
    adjoint = object.__new__(cls)
    for name, set_slot in _FIELD_SETTERS[cls]:
        set_slot(adjoint, gate.u.conj().T if name == "u" else getattr(gate, name))
    return adjoint


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
# The label each angle check names, made once rather than per gate.
_ANGLE_LABELS = {name: f"{name} angle" for name in _NAMED}


@dataclass(frozen=True, eq=False, init=False)
class SingleQubit(Gate):
    """Any one-qubit unitary.  "U" (no params) is the matrix ``u`` it is given;
    any other name builds ``u`` from its params on first read, and a matrix
    given with it is rejected: H and X take no params, RY, RZ and P one finite
    real angle.  A named gate is made with ``u`` unset.  RY, RZ and P also hold
    their angle in the private ``_angle`` slot, which ``inverse`` negates; one
    that ``_rotation`` makes holds no ``params`` either.  ``__getattr__``
    builds ``u`` or ``params`` on its first read.  The slots are written once
    the checks pass; assigning a field afterwards still raises
    ``FrozenInstanceError``.
    """

    __slots__ = ("target", "u", "name", "params", "_angle")

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
            as_real(params[0], _ANGLE_LABELS[name])
            _SET_ANGLE(self, params[0])  # as given, as params keeps it
        _SET_TARGET(self, target)
        if build is None:
            _check_unitary(u, 2)
            _SET_U(self, u)
        elif u is not None:
            raise InputError(f"{name} builds its own matrix; only U takes one")
        _SET_NAME(self, name)
        _SET_PARAMS(self, params)

    def __getattr__(self, attr: str):
        # Only for slots not yet held: ``u`` of a named gate, and ``params`` of
        # one from ``_rotation``, before their first read.
        if attr == "u":
            value = _NAMED[self.name][1](*self.params)
        elif attr == "params":
            value = (self._angle,)
        else:
            raise AttributeError(attr)
        object.__setattr__(self, attr, value)
        return value

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)

    def inverse(self) -> SingleQubit:
        if self.name == "U":
            return _adjoint(self)
        if self.name in ("H", "X"):
            return self  # self-inverse
        return _rotation(self.name, self.target, -self._angle)

    def dump_line(self) -> str:
        if self.name == "U":
            return f"U {self.target} {_complex_fields(self.u)}"
        tail = f" {_fmt(self.params)}" if self.params else ""
        return f"{self.name} {self.target}{tail}"

    def controlled_form(self):
        return (), (self.target,), self.u


@dataclass(frozen=True, slots=True)
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
        return (self.control,), (self.target,), _X


@dataclass(frozen=True, eq=False)
class ControlledUnitary(Gate):
    """``u`` acts on ``targets`` when every control qubit reads 1.

    An evolution holds (V, row, None) in the private ``_factor`` slot and its
    inverse (V, -row, forward gate); ``__getattr__`` builds ``u`` on its first
    read, as ``_evolution_matrix(V, row)`` or ``forward.u.conj().T``.  A gate
    given its matrix holds no ``_factor``, which reads as None.
    """

    __slots__ = ("controls", "targets", "u", "_factor")

    controls: tuple[int, ...]
    targets: tuple[int, ...]
    u: np.ndarray

    def __post_init__(self) -> None:
        _check_distinct(self.qubits)
        _check_unitary(self.u, 2 ** len(self.targets))

    def __getattr__(self, attr: str):
        # Only for slots not yet held (see the class docstring).
        if attr == "_factor":
            return None
        if attr != "u":
            raise AttributeError(attr)
        v, row, forward = self._factor
        u = _evolution_matrix(v, row) if forward is None else forward.u.conj().T
        object.__setattr__(self, "u", u)
        return u

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets

    def factored_form(self):
        factor = self._factor
        return None if factor is None else (self.controls, self.targets, *factor[:2])

    def inverse(self) -> ControlledUnitary:
        if self._factor is None:
            return _adjoint(self)
        v, row, _ = self._factor
        return _unchecked(ControlledUnitary, controls=self.controls, targets=self.targets,
                          _factor=(v, -row, self))

    def dump_line(self) -> str:
        ts = " ".join(map(str, self.targets))
        cs = " ".join(map(str, self.controls))
        return f"CU {ts} [{cs}] {(1 << len(self.controls)) - 1} {_complex_fields(self.u)}"

    def controlled_form(self):
        return self.controls, self.targets, self.u


def controlled_evolutions(controls: tuple[int, ...], targets: tuple[int, ...],
                          vectors: np.ndarray, phases: np.ndarray) -> list[ControlledUnitary]:
    """``ControlledUnitary((controls[k],), targets, u_k)`` for each k, where
    u_k = V diag(e^{i phases[k]}) V^T for the real eigenbasis V = ``vectors``
    (one eigenvector per column).  Each gate holds V and ``phases[k]`` and
    forms u_k only when ``u`` is first read, by ``_evolution_matrix``.

    InputError unless V is a real, finite (dim, dim) array with dim =
    2^len(targets), ``phases`` a finite real (len(controls), dim) array, each
    control apart from the targets, and V orthogonal.  Each u_k is unitary
    exactly when V is orthogonal, so V is checked once instead of every u_k.
    With E = V^T V - I and max|E| <= eps = UNITARY_TOL / (4 dim), ||E||_2 <=
    dim eps <= UNITARY_TOL / 4, and u^H u - I = (V V^T - I) + V conj(D) E D V^T
    has every entry within ||E||_2 (2 + ||E||_2) < UNITARY_TOL / 2.  Rounding
    adds the rest: each entry of a product is a dim-term sum over near-unit
    rows, off by at most about sqrt(2) dim 2^-53, which moves an entry of
    u^H u - I by at most about 2 sqrt(2) dim^1.5 2^-53, 1.3e-12 at 256 dims and
    1.0e-11 at 1,024.  An ``eigh`` basis reads about 3e-15 at 256 dims, where
    eps = 9.8e-14.  Past 1,024 dims eps falls to what ``eigh``'s own basis
    reads (1.1 eps at 4,096) and the rounding term grows, so more than
    ``MAX_EVOLUTION_QUBITS`` targets are refused, before any check or product.
    """
    if len(targets) > MAX_EVOLUTION_QUBITS:
        raise InputError(f"evolutions on {len(targets)} qubits are over the "
                         f"{MAX_EVOLUTION_QUBITS}-qubit limit")
    dim = 2 ** len(targets)
    v = as_array(vectors, "eigenvector entry", 2)
    phases = as_array(phases, "phase", 2)
    if v.shape != (dim, dim) or phases.shape != (len(controls), dim):
        raise InputError(f"eigenvectors of shape {v.shape} and phases of shape "
                         f"{phases.shape} for {len(controls)} controls on {dim} dims")
    for control in controls:
        _check_distinct((control, *targets))
    _check_unitary(v, dim, UNITARY_TOL / (4 * dim))
    return [_unchecked(ControlledUnitary, controls=(control,), targets=targets,
                       _factor=(v, angles, None))
            for control, angles in zip(controls, phases)]


def _evolution_matrix(v: np.ndarray, row: np.ndarray) -> np.ndarray:
    """V diag(e^{i row}) V^T for a real V, as two real products:
    ``u.real = (V cos(row)) V^T`` and ``u.imag = (V sin(row)) V^T``."""
    u = np.empty(v.shape, dtype=complex)
    u.real = (v * np.cos(row)) @ v.T
    u.imag = (v * np.sin(row)) @ v.T
    return u


@dataclass(frozen=True, eq=False, slots=True)
class UniformlyControlledRy(Gate):
    """Ry(angles[m]) on ``target`` for each control basis value m.

    ``controls[0]`` is the least significant bit of the angle index m.
    """

    controls: tuple[int, ...]
    target: int
    angles: np.ndarray

    def __post_init__(self) -> None:
        _check_distinct(self.qubits)
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
        return (), (self.target, *self.controls), _ry_matrix(self.angles)


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


# Each kind's slot writers by name, read once.  A slot's own ``__set__`` writes
# past the frozen ``__setattr__``, as ``object.__setattr__`` does, without that
# call's lookup of the slot by name.
_SETTERS = {cls: {slot: getattr(cls, slot).__set__ for slot in cls.__slots__}
            for cls in (SingleQubit, Cnot, ControlledUnitary, UniformlyControlledRy)}
# (name, writer) of each field, in order, of each kind that holds a ``u``: what
# ``_adjoint`` copies.
_FIELD_SETTERS = {cls: tuple((f.name, _SETTERS[cls][f.name]) for f in fields(cls))
                  for cls in (SingleQubit, ControlledUnitary)}
_SET_TARGET, _SET_U, _SET_NAME, _SET_PARAMS, _SET_ANGLE = (
    _SETTERS[SingleQubit][slot] for slot in ("target", "u", "name", "params", "_angle"))


def _rotation(name: str, target: int, angle: float) -> SingleQubit:
    """``ry``, ``rz`` or ``phase`` (by ``name``) on a checked ``target``, checking
    only ``angle``, by the same ``as_real`` call as ``SingleQubit.__init__``.
    The angle is kept in the ``_angle`` slot; ``params``, ``(angle,)``, is
    built on its first read, as ``u`` is."""
    as_real(angle, _ANGLE_LABELS[name])
    gate = object.__new__(SingleQubit)
    _SET_TARGET(gate, target)
    _SET_NAME(gate, name)
    _SET_ANGLE(gate, angle)
    return gate


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
        """``append`` each of an iterable of gates; or, for a Circuit no wider
        than this one, splice in its gates after that one width check."""
        if not isinstance(gates, Circuit):
            for g in gates:
                self.append(g)
        elif gates.num_qubits > self.num_qubits:
            raise InputError(f"cannot splice a {gates.num_qubits}-qubit circuit "
                             f"into a {self.num_qubits}-qubit one")
        else:
            self.gates.extend(gates.gates)

    def inverse(self) -> "Circuit":
        """Adjoint circuit: gates reversed and individually inverted, each
        inverse on its gate's qubits, so spliced in unchecked."""
        adjoint = Circuit(self.num_qubits)
        adjoint.gates = [g.inverse() for g in reversed(self.gates)]
        return adjoint


# ---------------------------------------------------------------------------
# Text dump format, one gate per line:  GATE q_targets [q_controls] params...
#
#   H 3                          named single-qubit gates
#   RY 2 0.7853981633974483      rotation angle in radians
#   U 1 re im re im re im re im  anonymous 2x2, row-major
#   CNOT 2 [0]                   target 2, control 0
#   CU 0 1 [3 4] 3 re im ...     targets, controls, 2^c - 1, matrix row-major
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
