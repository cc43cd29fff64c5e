"""HHL pipeline for the reduced DC power-flow system.

Register layout on width alpha + beta + 1 (qubit 0 = least significant):

    solution |x>   qubits 0 .. beta-1       amplitude-encodes p, then B^-1 p
    clock          qubits beta .. beta+alpha-1
    ancilla        qubit beta + alpha

Pipeline: prepare |p>, phase-estimate U = e^{iBt} onto the clock, rotate the
ancilla by 2*arcsin(c / lambda(m)) per clock value m, uncompute the clock
with the inverse QPE, and post-select the ancilla on 1.  With t chosen so
the spectrum sits on clock integers the surviving amplitudes are
proportional to B^-1 p; off-grid eigenvalues leak probability into nonzero
clock states, which is the dominant (and here the only) fidelity loss.

Padding to 2^beta appends (lambda_max, unit vector) eigenpairs to the one
eigendecomposition of the n x n B, and zeros to p.  Everything is simulated
exactly: each power U^{2^k} = V e^{i Lambda t 2^k} V^T is formed from the
real eigenvectors V by ``qsim.controlled_evolutions``, its real and imaginary
parts as the two real products (V cos(Lambda t 2^k)) V^T and
(V sin(Lambda t 2^k)) V^T, with one orthogonality check of V in place of a
unitarity check of each power; probabilities come from amplitudes, not shots.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from qpf.errors import InputError, NumericalError, as_array, as_int, as_real
from qpf.grid import ReducedSystem, solve_dc
from qpf.qsim import (
    Circuit,
    CircuitMetrics,
    Cnot,
    ControlledUnitary,
    UniformlyControlledRy,
    apply_circuit,
    controlled_evolutions,
    h,
    metrics,
    post_select,
    prepare_state,
    zero_state,
)
from qpf.qsim.circuit import MAX_QUBITS


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum of the (padded) system matrix: ascending lambdas, column vectors."""

    lambdas: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SpectralScaling:
    """Evolution time t, clock width alpha, and rotation constant c.

    The defaults map lambda_max to the top clock integer 2^alpha - 1 and set
    c to the smallest nonzero representable eigenvalue, so every rotation
    amplitude c/lambda(m) stays within [0, 1].
    """

    t: float
    alpha: int
    c: float


@dataclass(frozen=True)
class HHLConfig:
    alpha: int = 5
    t_override: float | None = None
    c_override: float | None = None


@dataclass(frozen=True, eq=False)
class HHLResult:
    solution_unit: np.ndarray
    success_probability: float
    recovered_norm: float
    fidelity: float
    residual_clock_leak: float
    metrics: CircuitMetrics
    config: dict

    def to_dict(self) -> dict:
        return {**asdict(self), "solution_unit": [float(v) for v in self.solution_unit]}


def eigendecompose(b: np.ndarray) -> EigenDecomposition:
    """Ascending eigenpairs; InputError unless b is real, finite, square, non-empty and
    symmetric to 1e-9 of its largest |entry|, and its spectrum finite.  The halves of b
    and b^T are compared, so that no difference overflows."""
    b = as_array(b, "matrix entry", 2)
    if b.shape[0] != b.shape[1]:
        raise InputError("matrix must be square")
    if b.size == 0:
        raise InputError("matrix must not be empty")
    if not np.abs(b / 2 - b.T / 2).max() <= 0.5e-9 * np.abs(b).max():
        raise InputError("matrix must be symmetric")
    lambdas, vectors = np.linalg.eigh(b)
    lambdas = as_array(lambdas, "eigenvalue", 1)
    if lambdas[0] <= 0:
        raise NumericalError(f"matrix not positive definite (lambda_min = {lambdas[0]:.3e})")
    return EigenDecomposition(lambdas=lambdas, vectors=vectors)


def choose_scaling(
    eig: EigenDecomposition,
    alpha: int,
    t_override: float | None = None,
    c_override: float | None = None,
) -> SpectralScaling:
    """t = 2 pi (M-1) / (M lambda_max) with M = 2^alpha, and c = 2 pi / (M t).

    alpha is an int in [1, MAX_QUBITS].  The overrides are reals: t held to the
    no-wraparound invariant lambda_max t / (2 pi) <= (M-1)/M, c to 0 < c <= lambda(1).
    """
    alpha = as_int(alpha, "alpha", 1, MAX_QUBITS)
    m = 2**alpha
    lam_max = float(eig.lambdas[-1])
    if eig.lambdas[0] <= 0:
        raise NumericalError("non-positive eigenvalue")
    t = (2.0 * math.pi * (m - 1) / (m * lam_max) if t_override is None
         else as_real(t_override, "t", 0))
    if not 0 < t < math.inf:  # only a computed t, as an override is checked; also rejects NaN
        raise InputError(f"lambda_max = {lam_max!r} is too small: t overflows")
    if lam_max * t / (2.0 * math.pi) > (m - 1) / m + 1e-12:
        raise InputError(
            f"t = {t!r} overflows the clock: lambda_max t / 2pi = "
            f"{lam_max * t / (2 * math.pi):.6f} > (2^alpha - 1)/2^alpha"
        )
    grid1 = 2.0 * math.pi / (m * t)  # eigenvalue of clock integer 1
    c = as_real(grid1 if c_override is None else c_override, "c", 0, grid1 * (1 + 1e-12))
    return SpectralScaling(t=t, alpha=alpha, c=c)


def lambda_of_clock(m_value: int, scaling: SpectralScaling) -> float:
    """Eigenvalue represented by clock integer m."""
    return 2.0 * math.pi * m_value / (2**scaling.alpha * scaling.t)


# -- circuit construction ----------------------------------------------------


def _qft_gates(qubits: tuple[int, ...]) -> list:
    """QFT on the given qubits (bit i of the register value = qubits[i]).

    Maps |j> to M^-1/2 sum_k exp(2 pi i j k / M) |k>; verified against the
    dense DFT matrix in the tests.
    """
    gates = []
    n = len(qubits)
    for i in reversed(range(n)):
        gates.append(h(qubits[i]))
        for j in reversed(range(i)):
            angle = math.pi / 2 ** (i - j)
            u = np.diag([1.0, np.exp(1j * angle)]).astype(complex)
            gates.append(ControlledUnitary((qubits[j],), (qubits[i],), u))
    for i in range(n // 2):
        a, b = qubits[i], qubits[n - 1 - i]
        gates += [Cnot(a, b), Cnot(b, a), Cnot(a, b)]
    return gates


def build_qpe(eig: EigenDecomposition, scaling: SpectralScaling) -> Circuit:
    """Phase-estimation segment on beta + alpha qubits (no ancilla).

    Hadamards on the clock, controlled e^{iBt 2^k} from clock bit k onto the
    solution register, then the inverse QFT on the clock.  The alpha
    evolutions come from ``controlled_evolutions``, which checks the
    eigenvectors once for all of them (InputError unless orthogonal).
    """
    dim = len(eig.lambdas)
    beta = dim.bit_length() - 1
    if 2**beta != dim:
        raise InputError("eigendecomposition dimension must be a power of two")
    alpha = scaling.alpha
    clock = tuple(range(beta, beta + alpha))
    targets = tuple(range(beta))
    circuit = Circuit(beta + alpha)
    for q in clock:
        circuit.append(h(q))
    phases = [eig.lambdas * scaling.t * 2**k for k in range(alpha)]
    circuit.extend(controlled_evolutions(clock, targets, eig.vectors, phases))
    for gate in reversed(_qft_gates(clock)):
        circuit.append(gate.inverse())
    return circuit


def build_reciprocal_rotation(
    scaling: SpectralScaling, clock: tuple[int, ...], ancilla: int
) -> UniformlyControlledRy:
    """Ancilla rotation Ry(2 arcsin(c/lambda(m))) conditioned on clock value m.

    Clock value 0 represents no eigenvalue and gets angle 0.
    """
    size = 2**scaling.alpha
    angles = np.zeros(size)
    for m_value in range(1, size):
        ratio = scaling.c / lambda_of_clock(m_value, scaling)
        angles[m_value] = 2.0 * math.asin(min(ratio, 1.0))
    return UniformlyControlledRy(clock, ancilla, angles)


def build_hhl_circuit(
    eig: EigenDecomposition, p_unit: np.ndarray, scaling: SpectralScaling
) -> Circuit:
    """Full pipeline circuit on alpha + beta + 1 qubits, for 2^beta eigenpairs.

    InputError unless p_unit has one entry per eigenpair.
    """
    if len(p_unit) != len(eig.lambdas):
        raise InputError(f"p_unit has {len(p_unit)} entries for {len(eig.lambdas)} eigenpairs")
    qpe = build_qpe(eig, scaling)
    ancilla = qpe.num_qubits
    clock = tuple(range(ancilla - scaling.alpha, ancilla))
    circuit = Circuit(ancilla + 1)
    circuit.extend(prepare_state(p_unit))
    circuit.extend(qpe)
    circuit.append(build_reciprocal_rotation(scaling, clock, ancilla))
    circuit.extend(qpe.inverse())
    return circuit


# -- execution ---------------------------------------------------------------


def plan_hhl(
    system: ReducedSystem, config: HHLConfig
) -> tuple[Circuit, SpectralScaling, int, float]:
    """Pad the system to dimension 2^beta and build its pipeline circuit.

    Padding appends 2^beta - n eigenpairs (lambda_max, unit vector) to one
    eigendecomposition of the n x n B, and zeros to p.  Raises InputError when
    the injection norm is zero or not finite, and before any eigendecomposition or
    circuit build when ``config.alpha`` is not an int >= 1 or the circuit's
    beta + alpha + 1 qubits are over ``MAX_QUBITS``.

    Returns (circuit, scaling, beta, p_norm): beta is the solution-register
    width after padding and p_norm the norm of the unpadded injections.
    """
    n = len(system.p)
    if n < 2:
        raise InputError("system dimension must be >= 2")
    p_norm = as_real(math.hypot(*system.p.tolist()), "injection norm")  # no square overflows
    if p_norm == 0.0:
        raise InputError("injection vector is zero; nothing to prepare")

    alpha = as_int(config.alpha, "alpha", 1)
    beta = (n - 1).bit_length()
    width = beta + alpha + 1
    if width > MAX_QUBITS:
        raise InputError(f"HHL circuit of {width} qubits is over the {MAX_QUBITS}-qubit limit")
    eig = eigendecompose(system.b)
    pad = 2**beta - n
    vectors = np.eye(2**beta)
    vectors[:n, :n] = eig.vectors
    eig = EigenDecomposition(np.pad(eig.lambdas, (0, pad), mode="edge"), vectors)
    scaling = choose_scaling(eig, alpha, config.t_override, config.c_override)
    p_unit = np.pad(system.p, (0, pad)) / p_norm
    return build_hhl_circuit(eig, p_unit, scaling), scaling, beta, p_norm


def run_hhl(system: ReducedSystem, config: HHLConfig = HHLConfig()) -> HHLResult:
    """Simulate the pipeline and score it against the classical solve."""
    circuit, scaling, beta, p_norm = plan_hhl(system, config)
    state = apply_circuit(zero_state(circuit.num_qubits), circuit)
    selected = post_select(state, circuit.num_qubits - 1, 1)

    # Solution amplitudes live at clock = 0 on the ancilla-1 branch; whatever
    # mass the uncompute left on other clock values is reported as leak.
    amplitudes = selected.state.reshape(2, 2**scaling.alpha, -1)[1, 0]  # [ancilla, clock]
    kept = float(np.sum(np.abs(amplitudes) ** 2))
    leak = 1.0 - kept

    unit = amplitudes / math.sqrt(kept)
    pivot = unit[int(np.argmax(np.abs(unit)))]
    unit = unit * (pivot.conjugate() / abs(pivot))
    solution = np.real(unit)[: len(system.p)]
    solution = solution / np.linalg.norm(solution)

    classical = solve_dc(system)
    result_fidelity = fidelity(classical, solution)
    recovered = math.sqrt(selected.probability) / scaling.c * p_norm

    return HHLResult(
        solution_unit=solution,
        success_probability=float(selected.probability),
        recovered_norm=float(recovered),
        fidelity=float(result_fidelity),
        residual_clock_leak=float(leak),
        metrics=metrics(circuit),
        config={
            "alpha": scaling.alpha,
            "beta": beta,
            "t": scaling.t,
            "c": scaling.c,
            "t_override": config.t_override,
            "c_override": config.c_override,
            "readout": "exact",
        },
    )


def fidelity(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Squared normalized overlap of two finite, nonzero real vectors of one length,
    each first divided by its largest |entry| so that no square leaves the float range."""
    a, b = (as_array(v, "vector entry", None) for v in (reference, candidate))
    if a.ndim != 1 or a.shape != b.shape:
        raise InputError(f"fidelity needs two vectors of one length, got {a.shape} and {b.shape}")
    sa, sb = np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)
    if sa == 0.0 or sb == 0.0:
        raise InputError("fidelity of a zero vector is undefined")
    a, b = a / sa, b / sb
    overlap = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return min(1.0, overlap * overlap)


def epsilon_from_fidelity(f: float) -> float:
    """Additive solution-error proxy sqrt(2 (1 - sqrt(f))), for a real f in [0, 1]."""
    f = as_real(f, "fidelity", 0, 1, closed=True)
    return math.sqrt(2.0 * (1.0 - math.sqrt(f)))
