import numpy as np
import pytest

import qpf.qsim.circuit as circuit_module
from helpers import dense_circuit, random_circuit, random_unitary
from qpf.errors import InputError, PostSelectionError
from qpf.qsim import (
    Circuit,
    Cnot,
    ControlledUnitary,
    SingleQubit,
    UniformlyControlledRy,
    apply_circuit,
    apply_gate,
    dump,
    h,
    lower_to_basis,
    parse,
    post_select,
    ry,
    x,
    zero_state,
)

INV_SQRT2 = 1 / np.sqrt(2)


def test_zero_state():
    state = zero_state(3)
    assert state.shape == (8,)
    assert state[0] == 1.0
    assert np.count_nonzero(state) == 1


def test_hadamard_on_qubit_zero():
    state = apply_gate(zero_state(1), h(0), 1)
    np.testing.assert_allclose(state, [INV_SQRT2, INV_SQRT2])


def test_x_targets_correct_index_bit():
    # Qubit q is bit q of the basis index: X on qubit 2 of |000> gives |100>.
    state = apply_gate(zero_state(3), x(2), 3)
    assert state[0b100] == 1.0
    assert np.count_nonzero(state) == 1


def test_cnot_copies_control_bit():
    state = zero_state(2)
    state = apply_gate(state, x(0), 2)
    state = apply_gate(state, Cnot(control=0, target=1), 2)
    assert state[0b11] == 1.0


def test_bell_state():
    circuit = Circuit(2, [h(0), Cnot(0, 1)])
    state = apply_circuit(zero_state(2), circuit)
    np.testing.assert_allclose(state, [INV_SQRT2, 0, 0, INV_SQRT2])


def test_controlled_unitary_fires_only_on_pattern(rng):
    u = random_unitary(rng, 2)
    gate = ControlledUnitary(controls=(0, 2), targets=(1,), u=u, control_pattern=0b01)
    # Control value is built LSB-first from controls: qubit 0 -> bit 0.
    fire = apply_gate(zero_state(3), x(0), 3)
    hold = apply_gate(fire, x(2), 3)  # controls read 0b11, must not fire
    out_fire = apply_gate(fire, gate, 3)
    out_hold = apply_gate(hold, gate, 3)
    np.testing.assert_allclose(out_fire[0b001], u[0, 0])
    np.testing.assert_allclose(out_fire[0b011], u[1, 0])
    np.testing.assert_allclose(out_hold, hold)


def test_ucry_selects_angle_by_control_value():
    angles = [0.0, np.pi, 0.0, 0.0]
    gate = UniformlyControlledRy(controls=(1, 2), target=0, angles=angles)
    # Controls read 0b01 (qubit 1 set, qubit 2 clear): angle pi flips target.
    state = apply_gate(zero_state(3), x(1), 3)
    out = apply_gate(state, gate, 3)
    np.testing.assert_allclose(out[0b011], 1.0, atol=1e-15)
    # Controls read 0b10: angle 0 leaves the target alone.
    state = apply_gate(zero_state(3), x(2), 3)
    out = apply_gate(state, gate, 3)
    np.testing.assert_allclose(out[0b100], 1.0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matches_dense_oracle(rng, n):
    for _ in range(8):
        circuit = random_circuit(rng, n, length=6)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        fast = apply_circuit(state, circuit)
        slow = dense_circuit(circuit) @ state
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_apply_circuit_preserves_norm(rng):
    circuit = random_circuit(rng, 3, length=12)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    out = apply_circuit(state, circuit)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_apply_circuit_rejects_wrong_length():
    with pytest.raises(InputError):
        apply_circuit(np.ones(3), Circuit(2))


def test_circuit_inverse_undoes(rng):
    circuit = random_circuit(rng, 3, length=10)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    back = apply_circuit(apply_circuit(state, circuit), circuit.inverse())
    np.testing.assert_allclose(back, state, atol=1e-12)


class TestValidation:
    def test_target_out_of_range(self):
        with pytest.raises(InputError, match="range"):
            Circuit(2).append(x(2))

    def test_cnot_control_equals_target(self):
        with pytest.raises(InputError):
            Circuit(2).append(Cnot(1, 1))

    def test_overlapping_controls_and_targets(self, rng):
        with pytest.raises(InputError):
            gate = ControlledUnitary((0,), (0,), random_unitary(rng, 2))
            Circuit(2).append(gate)

    @pytest.mark.parametrize(
        "u",
        [np.array([[1, 0], [0, 2.0]]), np.full((2, 2), np.nan), [[1, 0], [0, 1]]],
    )
    def test_non_unitary_matrix_rejected(self, u):
        with pytest.raises(InputError, match="unitary"):
            Circuit(1).append(SingleQubit(0, u))

    def test_pattern_out_of_range(self, rng):
        with pytest.raises(InputError):
            gate = ControlledUnitary((1,), (0,), random_unitary(rng, 2), control_pattern=2)
            Circuit(2).append(gate)

    @pytest.mark.parametrize("angles", [[0.1], np.array([np.nan, 0.0])])
    def test_ucry_wrong_angle_count(self, angles):
        with pytest.raises(InputError, match="angle"):
            Circuit(2).append(UniformlyControlledRy((1,), 0, angles))

    def test_gates_are_checked_once_when_made(self, rng, monkeypatch):
        circuit = random_circuit(rng, 3, length=10)
        other = random_circuit(rng, 3, length=10)
        lowered = lower_to_basis(circuit)
        calls = []
        check = circuit_module._check_unitary
        monkeypatch.setattr(
            circuit_module, "_check_unitary", lambda *a: calls.append(a) or check(*a)
        )
        Circuit(circuit.num_qubits, circuit.gates)
        lower_to_basis(lower_to_basis(lowered))
        circuit.extend(other.gates)
        assert calls == []
        h(0)  # making a gate is what runs its checks
        assert len(calls) == 1


class TestPostSelect:
    def test_bell_state_collapse(self):
        state = apply_circuit(zero_state(2), Circuit(2, [h(0), Cnot(0, 1)]))
        result = post_select(state, qubit=0, outcome=1)
        assert result.probability == pytest.approx(0.5)
        np.testing.assert_allclose(result.state, [0, 0, 0, 1], atol=1e-15)

    def test_keeps_full_width_and_unit_norm(self, rng):
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        result = post_select(state, qubit=1, outcome=0)
        assert result.state.shape == (8,)
        assert np.linalg.norm(result.state) == pytest.approx(1.0, abs=1e-12)
        # The discarded branch is exactly zero.
        assert np.all(result.state[np.arange(8) & 0b10 != 0] == 0)

    def test_probabilities_of_both_outcomes_sum_to_one(self, rng):
        state = rng.normal(size=4) + 1j * rng.normal(size=4)
        state /= np.linalg.norm(state)
        p0 = post_select(state, 0, 0).probability
        p1 = post_select(state, 0, 1).probability
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_probability_is_sum_over_matching_indices(self, rng):
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        for qubit in range(3):
            expected = sum(
                abs(a) ** 2 for i, a in enumerate(state) if (i >> qubit) & 1
            )
            assert post_select(state, qubit, 1).probability == pytest.approx(
                expected, abs=1e-12
            )

    def test_spectator_register_untouched(self, rng):
        # Selecting a qubit already in |0> leaves the rest of the state alone.
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        state = np.kron(psi, [1.0, 0.0])  # qubit 0 = |0>, qubits 1-2 = psi
        result = post_select(state, 0, 0)
        assert result.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(result.state, state, atol=1e-12)

    def test_impossible_outcome_raises(self):
        with pytest.raises(PostSelectionError, match="probability"):
            post_select(zero_state(2), qubit=0, outcome=1)

    def test_bad_outcome_value(self):
        with pytest.raises(InputError):
            post_select(zero_state(1), 0, 2)

    def test_bad_qubit(self):
        with pytest.raises(InputError):
            post_select(zero_state(1), 1, 0)


class TestDumpParse:
    def test_roundtrip_exact(self, rng):
        circuit = random_circuit(rng, 3, length=15)
        text = dump(circuit)
        rebuilt = parse(text, num_qubits=3)
        assert len(rebuilt.gates) == len(circuit.gates)
        np.testing.assert_array_equal(dense_circuit(rebuilt), dense_circuit(circuit))

    def test_gate_lines_are_one_per_gate(self):
        circuit = Circuit(2, [h(0), Cnot(0, 1), ry(1, 0.25)])
        lines = dump(circuit).strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("H 0")
        assert lines[1].startswith("CNOT 1 [0]")
        assert lines[2].startswith("RY 1") and "0.25" in lines[2]

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputError):
            parse("BOGUS 0", num_qubits=1)
