"""Amplitude encoding of real vectors via a binary tree of uniformly
controlled Ry rotations.

Level l of the tree rotates qubit beta-1-l, conditioned on the l more
significant address bits: internal levels split probability mass between the
two halves of each index group (angles from subvector norms), and the leaf
level uses signed atan2 angles so entries of any sign come out exactly.
"""

from __future__ import annotations

import math

import numpy as np

from qpf.errors import InputError, as_array
from qpf.qsim.circuit import Circuit, UniformlyControlledRy

NORM_TOL = 1e-9


def prepare_state(target: np.ndarray) -> Circuit:
    """Circuit turning |0...0> into the given real unit vector.

    The input must be a finite real vector whose length is a power of two
    >= 2 and whose norm is within 1e-9 of 1.  Signs are reproduced exactly;
    the output state carries no global phase.
    """
    v = as_array(target, "target amplitude", 1)
    if len(v) < 2 or len(v) & (len(v) - 1):
        raise InputError("target length must be a power of two >= 2")
    norm = math.hypot(*v.tolist())  # no square overflows
    if abs(norm - 1.0) > NORM_TOL:
        raise InputError(f"target not normalized: |v| = {norm!r}")
    beta = len(v).bit_length() - 1

    circuit = Circuit(beta)
    for level in range(beta):
        groups = 2**level
        block = 2 ** (beta - level)
        angles = np.empty(groups)
        for j in range(groups):
            seg = v[j * block : (j + 1) * block]
            if level == beta - 1:
                angles[j] = 2.0 * math.atan2(seg[1], seg[0])
            else:
                # The half norms as np.linalg.norm computes them, without its wrapper.
                lo, hi = seg[: block // 2], seg[block // 2 :]
                angles[j] = 2.0 * math.atan2(math.sqrt(hi.dot(hi)), math.sqrt(lo.dot(lo)))
        controls = tuple(range(beta - level, beta))
        circuit.append(UniformlyControlledRy(controls, beta - 1 - level, angles))
    return circuit
