"""Lowering of arbitrary gates to the {CNOT, single-qubit} basis.

Chain: ControlledUnitary -> two-level factors of its 2^m block (Givens
rotations, and each leftover phase as a diagonal on a pair of states that
differ in bit 0), offset to the block's basis states over the gate's local
qubits -> each factor a multi-controlled 2x2 reached by a Gray-code walk ->
ZYZ for one control, square-root recursion (Barenco et al. 1995) for more.
UniformlyControlledRy uses the exact 2^k CNOT + 2^k Ry ladder.  A one-qubit
ControlledUnitary with no controls is a basis gate: a U keeping its checked u.

Gate counts here are generic-decomposition counts, not optimized-transpiler
counts; correctness (unitary equivalence to 1e-8) is the contract.

Lowering is pure, so within one ``lower_to_basis`` call each repeated
multi-controlled sub-block is lowered once and its gate objects are shared.
Each helper appends its gates straight to the output circuit's gate list,
in order, instead of returning a list for its caller to copy.
Every ControlledUnitary is decomposed before any gate is emitted, so the
square roots the recursion reads are taken for the whole circuit in one pass
of stacks, one per level, each bit for bit its matrix's own root: lowering
wscc9 at alpha = 5 makes 2 ``np.linalg.eig`` calls (``scripts/time_metrics.py``,
column ``eig calls``).  Lowered RY, RZ and P gates are made by
``circuit._rotation``, which checks only that the angle is finite.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

import numpy as np

from qpf.qsim.circuit import (
    _X,
    Circuit,
    Cnot,
    ControlledUnitary,
    Gate,
    SingleQubit,
    UniformlyControlledRy,
    _rotation,
    _unchecked,
    x,
)

_ELIM_TOL = 1e-14  # entries below this need no Givens rotation
_ANGLE_TOL = 1e-12  # rotations/phases below this are dropped


class _Memo:
    """Lowered sub-blocks of one ``lower_to_basis`` call, keyed by their inputs.

    ``mc_ones`` maps (bytes of the complex 2x2 u, controls, target) to the
    gates of ``_mc_ones`` as a tuple, so a shared entry cannot be edited by a
    caller; ``adjoints`` maps the id of such a tuple (kept alive by
    ``mc_ones``) to its adjoint block, since hashing the tuple would cost its
    length; ``sqrt`` maps the bytes of each 2x2 whose root ``_mc_ones`` reads
    anywhere in the circuit to that root (see ``_root_chains``);
    ``invert``, ``x`` and ``cnot`` cache ``Gate.inverse``, ``x`` and ``Cnot``.
    An ``mc_ones`` block is the only sequence built apart from the output list.
    """

    def __init__(self, sqrt: dict[bytes, np.ndarray]) -> None:
        self.mc_ones: dict[tuple, tuple[Gate, ...]] = {}
        self.sqrt = sqrt
        self.adjoints: dict[int, tuple[Gate, ...]] = {}
        self.invert = functools.cache(operator.methodcaller("inverse"))
        self.x = functools.cache(x)
        self.cnot = functools.cache(Cnot)

    def adjoint(self, block: tuple[Gate, ...]) -> tuple[Gate, ...]:
        """The inverse of a block from ``mc_ones``: its gates reversed and inverted."""
        key = id(block)
        if key not in self.adjoints:
            self.adjoints[key] = tuple(map(self.invert, reversed(block)))
        return self.adjoints[key]


def lower_to_basis(circuit: Circuit) -> Circuit:
    """Rewrite a circuit using only Cnot and SingleQubit gates."""
    factors, rooted, depth = _decompose_all(circuit.gates)
    memo = _Memo(_root_chains(rooted, depth))
    out = Circuit(circuit.num_qubits)
    # Every gate lowered from an input gate lies on that gate's qubits, which
    # the input circuit already range-checked, so blocks are spliced into
    # out.gates without Circuit.append's per-gate width check.
    gates = out.gates
    for gate in circuit.gates:
        if isinstance(gate, SingleQubit):
            gates.append(gate)
        elif isinstance(gate, Cnot):
            gates.append(memo.cnot(gate.control, gate.target))
        elif isinstance(gate, UniformlyControlledRy):
            _lower_ucry(gate, memo, gates)
        elif id(gate) in factors:
            _lower_cu(gate, factors[id(gate)], memo, gates)
        else:  # a basis U: Circuit.append refuses any other kind
            gates.append(_unchecked(SingleQubit, target=gate.targets[0], u=gate.u,
                                    name="U", params=()))
    return out


def _decompose_all(gates: list[Gate]) -> tuple[dict[int, list], list[np.ndarray], int]:
    """The two-level factors of each ControlledUnitary but a basis U, by id;
    X and every factor whose root ``_mc_ones`` reads; and the chain depth.

    Decomposing every gate first lets the roots of the whole circuit be taken
    in one pass.  ``_mc_ones`` of a 2x2 under c >= 2 controls reads its root,
    whose own ``_mc_ones`` under c - 1 controls reads the next, down to one
    control: on q qubits, chains q - 2 deep.
    """
    factors, rooted, depth = {}, [_X], 0
    for g in gates:
        if isinstance(g, ControlledUnitary) and len(g.qubits) > 1:
            factors[id(g)] = _two_level_decompose(g.u)
            if len(g.qubits) > 2:
                rooted += [v for _, _, v in factors[id(g)]]
                depth = max(depth, len(g.qubits) - 2)
    return factors, rooted, depth


# -- uniformly controlled Ry -------------------------------------------------


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _lower_ucry(gate: UniformlyControlledRy, memo: _Memo, out: list[Gate]) -> None:
    k = len(gate.controls)
    if k == 0:
        out.append(_rotation("RY", gate.target, float(gate.angles[0])))
        return
    size = 2**k
    # Ladder angles: theta = 2^-k * H * angles with H_ij = (-1)^(gray(i).j),
    # the sign read from one parity table over all j.
    j = np.arange(size)
    parity = np.zeros(size, dtype=j.dtype)
    for b in range(k):
        parity ^= (j >> b) & 1
    theta = np.empty(size)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range: refused below
        for i in range(size):
            theta[i] = np.dot(1 - 2 * parity[_gray(i) & j], gate.angles) / size
    for i in range(size):
        out.append(_rotation("RY", gate.target, float(theta[i])))
        if i < size - 1:
            ctrl_bit = ((i + 1) & -(i + 1)).bit_length() - 1  # trailing zeros of i+1
        else:
            ctrl_bit = k - 1  # closing CNOT returns flip parity to zero
        out.append(memo.cnot(gate.controls[ctrl_bit], gate.target))


# -- controlled unitary ------------------------------------------------------


def _lower_cu(gate: ControlledUnitary, factors: list, memo: _Memo, out: list[Gate]) -> None:
    # Local register: targets first (low bits), controls above them, so the
    # gate is identity but on the 2^m basis states from pattern << m up, where
    # it acts as u: decomposing u alone and offsetting its indices suffices.
    local = list(gate.targets) + list(gate.controls)
    base = gate.pattern << len(gate.targets)
    for i1, i2, v in factors:
        _two_level_gates(base + i1, base + i2, v, local, memo, out)


def _root_chains(mats: list[np.ndarray], depth: int) -> dict[bytes, np.ndarray]:
    """The bytes of each of ``mats`` mapped to its principal square root, and
    so on for each root, ``depth`` levels down, with one stacked
    ``_sqrt_2x2`` per level.  An identity, which ``_mc_ones`` lowers to
    nothing, needs no root; a matrix rooted at an earlier level has its chain.
    """
    roots: dict[bytes, np.ndarray] = {}
    level = mats
    for _ in range(depth):
        todo = {u.tobytes(): u for u in level}
        todo = {k: u for k, u in todo.items() if k not in roots and not _is_identity(u)}
        if not todo:
            break
        level = _sqrt_2x2(np.array(list(todo.values())))
        roots.update(zip(todo, level))
    return roots


def _two_level_decompose(w: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """Two-level factors of w, in the order they apply.

    Givens rotations T1 ... TL, each a 2x2 block applied from the left on a
    row pair, reduce w to a diagonal D of unit-modulus phases, so
    w == T1+ T2+ ... TL+ D.  Each factor (i1, i2, v) is the 2x2 ``v`` on the
    span {|i1>, |i2>}: first each phase of D kept at index i, as a diagonal
    on the pair (i & ~1, i | 1), then the rotation adjoints, TL+ first.
    """
    a = np.array(w, dtype=complex)
    dim = len(a)
    adjoints = []
    g = np.empty((2, 2), dtype=complex)  # refilled per step; each adjoint is a copy
    for col in range(dim - 1):
        for row in range(dim - 1, col, -1):
            if abs(a[row, col]) <= _ELIM_TOL:
                continue
            pivot, below = a[col, col], a[row, col]
            norm = math.hypot(abs(pivot), abs(below))
            g[0, 0], g[0, 1] = pivot.conjugate() / norm, below.conjugate() / norm
            g[1, 0], g[1, 1] = -below / norm, pivot / norm
            pair = a[col : row + 1 : row - col]  # rows col and row, a view
            pair[...] = g @ pair
            adjoints.append((col, row, g.conj().T))
    factors = []
    for i in range(dim):
        phi = cmath.phase(a[i, i])
        if abs(phi) > _ANGLE_TOL:
            pair = [1.0, 1.0]
            pair[i & 1] = cmath.exp(1j * phi)
            factors.append((i & ~1, i | 1, np.diag(pair).astype(complex)))
    return factors + adjoints[::-1]


def _two_level_gates(
    i1: int, i2: int, v: np.ndarray, local: list[int], memo: _Memo, out: list[Gate]
) -> None:
    """Appends to ``out`` the gates applying the 2x2 ``v`` on basis span
    {|i1>, |i2>}, i1 < i2, of the local bits."""
    diff_bits = [b for b in range(len(local)) if (i1 ^ i2) >> b & 1]
    last = diff_bits[-1]
    # Walk |i1> to the neighbour of |i2> across the other differing bits: one
    # X-wrapped multi-controlled X per bit.
    steps = []
    state = i1
    for b in diff_bits[:-1]:
        steps.append(_on_bit(_X, b, state, local, memo))
        state ^= 1 << b
    # Now state == i2 ^ (1 << last), and i1 < i2 sets bit ``last`` of i2, so v
    # acts on local bit ``last`` as is, with the other bits pinned to i2's.
    extend = out.extend
    for wraps, core in [*steps, _on_bit(v, last, i2, local, memo)]:
        extend(wraps)
        extend(core)
        extend(wraps)
    # Undo the walk: steps in reverse, each its own inverse read backwards.
    # An X is self-inverse, so a step's wraps reversed undo themselves.
    for wraps, core in reversed(steps):
        wraps.reverse()
        extend(wraps)
        extend(memo.adjoint(core))
        extend(wraps)


# -- multi-controlled single-qubit gates ------------------------------------


def _on_bit(
    u: np.ndarray, bit: int, state: int, local: list[int], memo: _Memo
) -> tuple[list[Gate], tuple[Gate, ...]]:
    """2x2 ``u`` on local bit ``bit`` where every other local bit reads ``state``.

    Returns ``(wraps, core)``, applied as wraps, core, wraps: the 0-bits of
    ``state`` are X-wrapped, so the core is all-ones controlled.
    """
    controls = [b for b in range(len(local)) if b != bit]
    wraps = [memo.x(local[b]) for b in controls if not (state >> b) & 1]
    core = _mc_ones(u, [local[b] for b in controls], local[bit], memo)
    return wraps, core


def _mc_ones(
    u: np.ndarray, controls: list[int], target: int, memo: _Memo
) -> tuple[Gate, ...]:
    """2x2 ``u`` on ``target`` where every control reads 1, lowered once per memo."""
    key = (u.tobytes(), tuple(controls), target)
    block = memo.mc_ones.get(key)
    if block is not None:
        return block
    gates: list[Gate] = []
    if _is_identity(u):
        pass  # an identity lowers to no gates
    elif len(controls) == 1:
        _controlled_single(u, controls[0], target, memo, gates)
    else:
        v = memo.sqrt[key[0]]
        c_last, rest = controls[-1], controls[:-1]
        _controlled_single(v, c_last, target, memo, gates)
        gates += _mc_ones(_X, rest, c_last, memo)
        _controlled_single(v.conj().T, c_last, target, memo, gates)
        gates += _mc_ones(_X, rest, c_last, memo)
        gates += _mc_ones(v, rest, target, memo)
    block = memo.mc_ones[key] = tuple(gates)
    return block


def _is_identity(u: np.ndarray) -> bool:
    (a, b), (c, d) = u.tolist()
    return max(abs(a - 1), abs(b), abs(c), abs(d - 1)) < _ANGLE_TOL


def _controlled_single(
    u: np.ndarray, control: int, target: int, memo: _Memo, out: list[Gate]
) -> None:
    """Appends to ``out`` the ABC identity: C-U = P(alpha)_c . A . CNOT . B . CNOT . C
    with ABC = I."""
    alpha, beta, gamma, delta = _zyz(u)
    cnot = memo.cnot(control, target)
    append = out.append
    if abs(delta - beta) > _ANGLE_TOL:
        append(_rotation("RZ", target, (delta - beta) / 2))
    append(cnot)
    if abs(delta + beta) > _ANGLE_TOL:
        append(_rotation("RZ", target, -(delta + beta) / 2))
    if abs(gamma) > _ANGLE_TOL:
        append(_rotation("RY", target, -gamma / 2))
    append(cnot)
    if abs(gamma) > _ANGLE_TOL:
        append(_rotation("RY", target, gamma / 2))
    if abs(beta) > _ANGLE_TOL:
        append(_rotation("RZ", target, beta))
    if abs(alpha) > _ANGLE_TOL:
        append(_rotation("P", control, alpha))


def _zyz(u: np.ndarray):
    """Angles (alpha, beta, gamma, delta) with u = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = cmath.phase(det) / 2
    # numpy's complex multiply rounds each part once, as fma(a.re, b.re, -a.im b.im)
    # and fma(a.re, b.im, a.im b.re); Python's complex product rounds twice.  The
    # two differ on 605 of the 1,539 inputs of a wscc9 alpha = 5 lowering, and
    # the lowered dump's sha256 pins depend on this numpy product.
    # tolist() then reads the product's entries once, as Python complexes, whose
    # abs (hypot) and phase are numpy's.
    (v00, _), (v10, v11) = (u * cmath.exp(-1j * alpha)).tolist()
    r00, r10 = abs(v00), abs(v10)
    gamma = 2.0 * math.atan2(r10, r00)
    if r10 < 1e-14:
        beta, delta = 2.0 * cmath.phase(v11), 0.0
    elif r00 < 1e-14:
        beta, delta = 2.0 * cmath.phase(v10), 0.0
    else:
        p11, p10 = cmath.phase(v11), cmath.phase(v10)
        beta, delta = p11 + p10, p11 - p10
    return alpha, beta, gamma, delta


def _sqrt_2x2(u: np.ndarray) -> np.ndarray:
    """Principal square roots of an (N, 2, 2) stack of unitaries.

    numpy's linalg gufuncs run the same LAPACK routine once per matrix, so
    each root is bit for bit the root of that matrix alone.
    """
    vals, vecs = np.linalg.eig(u)
    roots = np.array([[cmath.exp(1j * cmath.phase(lam) / 2) for lam in row]
                      for row in vals.tolist()])
    return (vecs * roots[:, None, :]) @ np.linalg.inv(vecs)
