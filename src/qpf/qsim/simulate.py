"""Statevector execution: exact gate application and post-selection.

States are flat complex ndarrays of length 2**n.  Internally a state is
viewed as an n-dimensional [2]*n tensor; with qubit 0 the least significant
index bit, qubit q lives on tensor axis n-1-q.  No gate is expanded into a
dense 2^n x 2^n matrix, so a run's largest allocations are its copy of the
state and two scratch buffers of the same size.
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

    The two scratch buffers are made once per call: a fresh state-sized
    temporary per gate costs a page fault per page.  InputError unless
    ``state`` is 2^n finite numbers.
    """
    n = circuit.num_qubits
    out = np.array(as_array(state, "amplitude", 1, complex))
    if out.shape != (2**n,):
        raise InputError(f"state dimension {out.shape} != ({2**n},)")
    psi = out.reshape([2] * n)
    gathered, product = np.empty_like(out), np.empty_like(out)
    for gate in circuit.gates:
        controls, pattern, targets, u = gate.controlled_form()
        sel = [slice(None)] * n
        for i, c in enumerate(controls):
            sel[_axis(n, c)] = (pattern >> i) & 1
        # Target axes of the control-sliced view, most significant matrix bit
        # first, moved to the front so the view reads as a (batch, row, rest) stack.
        front = [_axis(n, t) - sum(c > t for c in controls) for t in reversed(targets)]
        block = np.moveaxis(psi[tuple(sel)], front, range(len(targets)))
        x = gathered[: block.size].reshape(block.shape)
        x[...] = block
        shape = (-1, u.shape[-1], block.size >> len(targets))
        y = product[: block.size].reshape(shape)
        np.matmul(u, x.reshape(shape), out=y)
        block[...] = y.reshape(block.shape)
    return out


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
