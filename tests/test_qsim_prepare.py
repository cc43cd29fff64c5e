import numpy as np
import pytest

from qpf.errors import InputError
from qpf.qsim import UniformlyControlledRy, apply_circuit, prepare_state, zero_state


def roundtrip(target):
    target = np.asarray(target, dtype=float)
    circuit = prepare_state(target)
    return apply_circuit(zero_state(circuit.num_qubits), circuit)


def test_two_amplitudes():
    state = roundtrip([0.6, 0.8])
    np.testing.assert_allclose(state, [0.6, 0.8], atol=1e-15)


def test_uniform_superposition():
    state = roundtrip(np.full(8, 1 / np.sqrt(8)))
    np.testing.assert_allclose(state, np.full(8, 1 / np.sqrt(8)), atol=1e-12)


def test_signs_reproduced_exactly():
    target = np.array([0.5, -0.5, -0.5, 0.5])
    np.testing.assert_allclose(roundtrip(target), target, atol=1e-12)


def test_all_negative_vector():
    target = np.array([-1.0, 0.0])
    np.testing.assert_allclose(roundtrip(target), target, atol=1e-15)


@pytest.mark.parametrize("length", [2, 4, 8, 16])
def test_random_signed_roundtrip(rng, length):
    for _ in range(10):
        target = rng.normal(size=length)
        target /= np.linalg.norm(target)
        np.testing.assert_allclose(roundtrip(target), target, atol=1e-12)


def test_output_is_real(rng):
    target = rng.normal(size=8)
    target /= np.linalg.norm(target)
    state = roundtrip(target)
    assert np.abs(state.imag).max() < 1e-14


def test_gate_structure_for_eight_amplitudes():
    circuit = prepare_state(np.full(8, 1 / np.sqrt(8)))
    assert circuit.num_qubits == 3
    assert len(circuit.gates) == 3
    assert all(isinstance(g, UniformlyControlledRy) for g in circuit.gates)
    # The rotation tree runs top-down: qubit 2 unconditioned, then qubit 1
    # conditioned on qubit 2, then qubit 0 conditioned on qubits 1 and 2.
    assert [(g.target, g.controls) for g in circuit.gates] == [
        (2, ()),
        (1, (2,)),
        (0, (1, 2)),
    ]


@pytest.mark.parametrize(
    "bad",
    [
        [1.0],  # too short
        [0.5, 0.5, np.sqrt(0.5)],  # not a power of two
        [1.0, 1.0],  # not normalized
        [0.0, 0.0],  # zero vector
        [np.nan, np.nan],  # non-finite
    ],
)
def test_invalid_targets_rejected(bad):
    with pytest.raises(InputError):
        prepare_state(np.array(bad))
