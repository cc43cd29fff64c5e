"""Statevector execution: exact gate application and post-selection.

States are flat complex ndarrays of length 2**n.  Internally a state is
viewed as an n-dimensional [2]*n tensor; with qubit 0 the least significant
index bit, qubit q lives on tensor axis n-1-q.  No gate is expanded into a
dense 2^n x 2^n matrix, so a run's largest allocations are its copy of the
state and two scratch buffers of the same size.

A gate whose ``controlled_form`` matrix is 2x2 and exactly diagonal (RZ, P,
a QFT controlled phase) or exactly anti-diagonal (X, CNOT) runs in place on
the two target halves of its control-sliced view: a multiply per half whose
factor is not 1, after a swap through a scratch buffer if anti-diagonal.
Every other gate, H included, is gathered into a scratch buffer, multiplied
as a batched matmul into the other and scattered back; its target axes come
to the front of the control-sliced view by one ``ndarray.transpose``, whose
axis order is made once per call for each tuple of targets.

A qubit is idle while no nonzero amplitude has its bit set: read once from
the input, it stays idle until a gate targets it.  Each gate runs on the
0-half of every idle qubit that is not one of its controls, since the
1-half is zero before the gate and the gate leaves it zero.  So a circuit
whose qubits are first touched late (HHL's clock and ancilla) multiplies
only the part of the state that can be nonzero.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from qpf.errors import InputError, PostSelectionError, as_array, as_int
from qpf.qsim.circuit import MAX_QUBITS, Circuit

MIN_POST_SELECT_PROB = 1e-12


def zero_state(num_qubits: int) -> np.ndarray:
    """|0...0>; InputError unless ``num_qubits`` is an int in [0, MAX_QUBITS]."""
    state = np.zeros(2 ** as_int(num_qubits, "num_qubits", 0, MAX_QUBITS), dtype=complex)
    state[0] = 1.0
    return state


def _axis(num_qubits: int, qubit: int) -> int:
    return num_qubits - 1 - qubit


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Run every gate in order on one copy of ``state``, updated in place.

    Each gate runs only on the 0-half of every qubit still idle (see the
    module docstring): one whose bit no nonzero amplitude of ``state`` has
    set and that no earlier gate targeted.  The two scratch buffers are made
    once per call: a fresh state-sized temporary per gate costs a page fault
    per page.  InputError unless ``state`` is 2^n finite numbers.
    """
    n = circuit.num_qubits
    out = np.array(as_array(state, "amplitude", 1, complex))
    if out.shape != (2**n,):
        raise InputError(f"state dimension {out.shape} != ({2**n},)")
    psi = out.reshape([2] * n)
    # Per tensor axis, the part every gate works on: the 0-half of an idle
    # qubit, all of a live one.  Slices, not ints, keep every axis: each
    # selection below is a view, even one that fixes all n bits.
    live = int(np.bitwise_or.reduce(np.flatnonzero(out)))
    view = [slice(None) if live >> q & 1 else slice(0, 1) for q in reversed(range(n))]
    gathered, product = np.empty_like(out), np.empty_like(out)
    perms: dict[tuple, list[int]] = {}  # targets -> axis order putting them first
    for gate in circuit.gates:
        controls, pattern, targets, u = gate.controlled_form()
        for t in targets:
            view[_axis(n, t)] = slice(None)
        sel = view.copy()
        for i, c in enumerate(controls):
            bit = (pattern >> i) & 1
            sel[_axis(n, c)] = slice(bit, bit + 1)
        if u.shape == (2, 2) and (u[0, 1] == 0 == u[1, 0] or u[0, 0] == 0 == u[1, 1]):
            _apply_sparse_2x2(psi, sel, _axis(n, targets[0]), u, gathered)
            continue
        # Target axes, most significant matrix bit first, moved to the front
        # so the control-sliced view reads as a (batch, row, rest) stack.
        perm = perms.get(targets)
        if perm is None:
            front = [_axis(n, t) for t in reversed(targets)]
            perm = perms[targets] = front + [a for a in range(n) if a not in front]
        block = psi[tuple(sel)].transpose(perm)
        x = gathered[: block.size].reshape(block.shape)
        x[...] = block
        shape = (-1, u.shape[-1], block.size >> len(targets))
        y = product[: block.size].reshape(shape)
        np.matmul(u, x.reshape(shape), out=y)
        block[...] = y.reshape(block.shape)
    return out


def _apply_sparse_2x2(psi: np.ndarray, sel: list, axis: int, u: np.ndarray,
                      scratch: np.ndarray) -> None:
    """Apply an exactly diagonal or anti-diagonal 2x2 ``u`` in place on the
    halves of ``psi[sel]`` where tensor ``axis`` reads 0 and 1, skipping a
    factor of 1.  An anti-diagonal ``u`` swaps the halves through ``scratch``:
    numpy would copy a half written straight from the other, as their memory
    interleaves."""
    sel[axis] = slice(0, 1)
    low = psi[tuple(sel)]
    sel[axis] = slice(1, 2)
    high = psi[tuple(sel)]
    if u[0, 0] == 0:
        kept = scratch[: 2 * low.size].reshape(2, *low.shape)
        kept[0] = low
        kept[1] = high
        sources, factors = (kept[1], kept[0]), (u[0, 1], u[1, 0])
    else:
        sources, factors = (low, high), (u[0, 0], u[1, 1])
    for half, source, factor in zip((low, high), sources, factors):
        if factor != 1:
            np.multiply(source, factor, out=half)
        elif source is not half:
            half[...] = source


class PostSelection(NamedTuple):
    state: np.ndarray
    probability: float


def post_select(state: np.ndarray, qubit: int, outcome: int) -> PostSelection:
    """Condition on ``qubit`` measuring ``outcome``.

    Returns the renormalized collapsed state (full width, the other branch
    zeroed) and the pre-collapse probability of that outcome.  InputError unless
    ``state`` is 2^n numbers, ``qubit`` an int in [0, n) and ``outcome`` 0 or 1.
    """
    outcome = as_int(outcome, "outcome", 0, 1)
    state = as_array(state, "amplitude", 1, complex, finite=False)
    n = len(state).bit_length() - 1
    if 2**n != len(state):
        raise InputError("state length is not a power of two")
    qubit = as_int(qubit, "qubit", 0, n - 1)
    psi = state.reshape([2] * n)
    sel = [slice(None)] * n
    sel[_axis(n, qubit)] = outcome
    branch = psi[tuple(sel)]
    with np.errstate(over="ignore"):  # an overflowing |amp|^2 is inf, refused below
        probability = float(np.sum(np.abs(branch) ** 2))
    if not math.isfinite(probability):  # a NaN or inf amplitude in the branch
        raise InputError(f"outcome {outcome} on qubit {qubit} has non-finite "
                         f"probability {probability}")
    if probability < MIN_POST_SELECT_PROB:
        raise PostSelectionError(
            f"outcome {outcome} on qubit {qubit} has probability "
            f"{probability:.3e} < {MIN_POST_SELECT_PROB}"
        )
    collapsed = np.zeros_like(psi)
    collapsed[tuple(sel)] = branch / math.sqrt(probability)
    return PostSelection(collapsed.reshape(-1), probability)
