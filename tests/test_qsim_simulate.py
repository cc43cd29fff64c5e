import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qpf.qsim.circuit as circuit_module
from helpers import (
    benchmark_ring,
    dense_circuit,
    exact_grid_system,
    random_circuit,
    random_unitary,
)
from qpf.errors import InputError, PostSelectionError
from qpf.hhl import HHLConfig, plan_hhl
from qpf.qsim import (
    Circuit,
    Cnot,
    ControlledUnitary,
    SingleQubit,
    UniformlyControlledRy,
    apply_circuit,
    dump,
    h,
    lower_to_basis,
    metrics,
    phase,
    post_select,
    ry,
    rz,
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
    state = apply_circuit(zero_state(1), Circuit(1, [h(0)]))
    np.testing.assert_allclose(state, [INV_SQRT2, INV_SQRT2])


def test_x_targets_correct_index_bit():
    # Qubit q is bit q of the basis index: X on qubit 2 of |000> gives |100>.
    state = apply_circuit(zero_state(3), Circuit(3, [x(2)]))
    assert state[0b100] == 1.0
    assert np.count_nonzero(state) == 1


def test_cnot_copies_control_bit():
    state = apply_circuit(zero_state(2), Circuit(2, [x(0), Cnot(control=0, target=1)]))
    assert state[0b11] == 1.0


def test_bell_state():
    circuit = Circuit(2, [h(0), Cnot(0, 1)])
    state = apply_circuit(zero_state(2), circuit)
    np.testing.assert_allclose(state, [INV_SQRT2, 0, 0, INV_SQRT2])


def test_controlled_unitary_fires_only_on_pattern(rng):
    u = random_unitary(rng, 2)
    gate = ControlledUnitary(controls=(0, 2), targets=(1,), u=u, control_pattern=0b01)
    # Control value is built LSB-first from controls: qubit 0 -> bit 0.
    fire = apply_circuit(zero_state(3), Circuit(3, [x(0)]))
    hold = apply_circuit(fire, Circuit(3, [x(2)]))  # controls read 0b11, must not fire
    out_fire = apply_circuit(fire, Circuit(3, [gate]))
    out_hold = apply_circuit(hold, Circuit(3, [gate]))
    np.testing.assert_allclose(out_fire[0b001], u[0, 0])
    np.testing.assert_allclose(out_fire[0b011], u[1, 0])
    np.testing.assert_allclose(out_hold, hold)


def test_ucry_selects_angle_by_control_value():
    angles = [0.0, np.pi, 0.0, 0.0]
    gate = UniformlyControlledRy(controls=(1, 2), target=0, angles=angles)
    # Controls read 0b01 (qubit 1 set, qubit 2 clear): angle pi flips target.
    state = apply_circuit(zero_state(3), Circuit(3, [x(1)]))
    out = apply_circuit(state, Circuit(3, [gate]))
    np.testing.assert_allclose(out[0b011], 1.0, atol=1e-15)
    # Controls read 0b10: angle 0 leaves the target alone.
    state = apply_circuit(zero_state(3), Circuit(3, [x(2)]))
    out = apply_circuit(state, Circuit(3, [gate]))
    np.testing.assert_allclose(out[0b100], 1.0, atol=1e-15)


def test_ucry_builds_no_dense_block():
    # A dense 2^11-square block-diagonal form of this gate is 64 MiB; the
    # state and its two scratch buffers are 32 KiB each.
    gate = UniformlyControlledRy(tuple(range(1, 11)), 0, np.linspace(0.1, 2.0, 2**10))
    circuit, state = Circuit(11, [gate]), zero_state(11)
    tracemalloc.start()
    try:
        apply_circuit(state, circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matches_dense_oracle(rng, n):
    for _ in range(8):
        circuit = random_circuit(rng, n, length=6)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        fast = apply_circuit(state, circuit)
        slow = dense_circuit(circuit) @ state
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def _partly_idle_state(rng, n: int) -> tuple[np.ndarray, int]:
    """A random unit state on a random subset of the n qubits (bit q of the
    returned mask set when qubit q is in it), |0> on the rest."""
    live = int(rng.integers(0, 2**n))
    on = [i for i in range(2**n) if i & ~live == 0]
    state = np.zeros(2**n, dtype=complex)
    state[on] = rng.normal(size=len(on)) + 1j * rng.normal(size=len(on))
    return state / np.linalg.norm(state), live


def _gates_on_idle_controls(rng, n: int, live: int) -> list:
    """Gates of every controlled kind whose controls include a qubit outside
    ``live``, on patterns that read it as 0 and as 1."""
    gates = []
    for c in (q for q in range(n) if not live >> q & 1):
        others = [int(q) for q in rng.permutation(n) if q != c]
        if not others:
            continue
        t, controls = others[0], (c, *others[1:])
        gates += [ControlledUnitary((c,), (t,), random_unitary(rng, 2), pattern)
                  for pattern in (0, 1)]
        pattern = int(rng.integers(0, 2 ** len(controls)))
        gates += [
            Cnot(c, t),
            ControlledUnitary(controls, (t,), random_unitary(rng, 2), pattern),
            UniformlyControlledRy(controls, t, rng.uniform(-np.pi, np.pi, 2 ** len(controls))),
        ]
    return [gates[i] for i in rng.permutation(len(gates))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_partly_idle_states_match_dense_oracle(rng, n):
    # Qubits the input holds at |0> run on their 0-half until a gate targets
    # them; gates controlled by them still fire on a 0 pattern bit only.
    for _ in range(12):
        state, live = _partly_idle_state(rng, n)
        circuit = Circuit(n, _gates_on_idle_controls(rng, n, live))
        circuit.extend(random_circuit(rng, n, length=6).gates)
        fast = apply_circuit(state, circuit)
        slow = dense_circuit(circuit) @ state
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


def test_a_qubit_with_a_tiny_amplitude_stays_live():
    # Qubit 1's 1-half holds only 1e-300: H on qubit 0 must still act there.
    state = np.array([1, 0, 1e-300, 0], dtype=complex)
    circuit = Circuit(2, [h(0)])
    out = apply_circuit(state, circuit)
    assert out[0b11] != 0
    np.testing.assert_allclose(out, dense_circuit(circuit) @ state, rtol=1e-12, atol=0)


def test_forward_evolutions_run_on_half_the_state(monkeypatch):
    # 257-bus ring, alpha = 7: 8 solution qubits, 7 clock qubits, 1 ancilla.
    # Each evolution's control halves the 2^16 state to 128 columns of 256;
    # in the forward QPE the untouched ancilla halves it again.
    circuit, *_ = plan_hhl(benchmark_ring(257, 1008), HHLConfig(alpha=7))
    shapes = []
    matmul = np.matmul

    def spy(u, x, **kwargs):
        if u.shape == (256, 256):
            shapes.append(x.shape)
        return matmul(u, x, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    apply_circuit(zero_state(circuit.num_qubits), circuit)
    assert shapes == [(1, 256, 64)] * 7 + [(1, 256, 128)] * 7


def _sparse_gates(rng, n: int) -> list:
    """Gates whose matrix is an exact 2x2 diagonal or anti-diagonal, on each
    qubit of an n-qubit register; the ``ControlledUnitary``s are controlled by
    every other qubit, on patterns that are not all ones."""
    a, b = rng.uniform(-np.pi, np.pi, size=2)
    diag = np.diag(np.exp([1j * a, 1j * b]))
    anti = np.array([[0, np.exp(1j * a)], [np.exp(1j * b), 0]])
    gates = []
    for q in range(n):
        others = tuple(p for p in range(n) if p != q)
        gates += [rz(q, a), phase(q, b), x(q), SingleQubit(q, np.array([[0, -1j], [1j, 0]])),
                  SingleQubit(q, diag), SingleQubit(q, anti)]
        if others:
            gates.append(Cnot(others[-1], q))
            for u in (diag, anti):
                pattern = int(rng.integers(0, 2 ** len(others) - 1))
                gates.append(ControlledUnitary(others, (q,), u, pattern))
    return [gates[i] for i in rng.permutation(len(gates))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonal_and_antidiagonal_gates_match_dense_oracle(rng, n):
    for _ in range(4):
        circuit = Circuit(n, _sparse_gates(rng, n))
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        fast = apply_circuit(state, circuit)
        slow = dense_circuit(circuit) @ state
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


def test_only_dense_gates_run_a_matrix_product(rng, monkeypatch):
    sparse, dense = Circuit(3, _sparse_gates(rng, 3)), Circuit(3, [h(1)])

    def matmul(*args, **kwargs):
        raise AssertionError("a matrix product ran")

    monkeypatch.setattr(np, "matmul", matmul)
    apply_circuit(zero_state(3), sparse)
    with pytest.raises(AssertionError, match="matrix product"):
        apply_circuit(zero_state(3), dense)


def test_diagonal_and_antidiagonal_gates_allocate_no_state_sized_temporary(rng):
    circuit, state = Circuit(16, _sparse_gates(rng, 16)), zero_state(16)
    tracemalloc.start()
    try:
        apply_circuit(state, circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The copy and the two scratch buffers (1 MiB each), plus numpy's fixed
    # ufunc buffers (2 x 8192 amplitudes, 256 KiB) on a strided half; a
    # product into a new array would add half a state, 512 KiB.
    assert peak < 3 * state.nbytes + 3 * state.nbytes // 8


def test_time_simulate_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "time_simulate.py"
    done = subprocess.run([sys.executable, str(script), "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("plan_hhl + apply_circuit") == 3
    assert done.stdout.count("apply_circuit from |0...0>") == 3
    for layer in ("parse_network", "build_reduced_system", "network_stats", "solve_dc",
                  "build_qpe", "build_hhl_circuit"):
        assert done.stdout.count(f"  {layer} ") == 3, layer


def test_apply_circuit_preserves_norm(rng):
    circuit = random_circuit(rng, 3, length=12)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    out = apply_circuit(state, circuit)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_apply_circuit_rejects_wrong_length():
    with pytest.raises(InputError, match="dimension"):
        apply_circuit(np.ones(3), Circuit(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_apply_circuit_rejects_a_non_finite_state_before_any_gate(bad, monkeypatch):
    def run(_gate):
        raise AssertionError("a gate ran")

    monkeypatch.setattr(SingleQubit, "controlled_form", run)
    with pytest.raises(InputError, match="non-finite amplitude"):
        apply_circuit(np.array([bad, 0], dtype=complex), Circuit(1, [h(0)]))


def test_apply_circuit_rejects_out_of_range_qubit():
    # A qubit past the register must not wrap onto another tensor axis.
    with pytest.raises(InputError, match="range"):
        apply_circuit(zero_state(2), Circuit(2, [x(2)]))


def test_apply_gate_rejects_wrong_length():
    # A one-gate circuit checks the state's length before its gate runs.
    with pytest.raises(InputError, match="dimension"):
        apply_circuit(np.ones(3), Circuit(2, [x(0)]))


def _one_gate_of_each_kind(rng):
    return [
        ry(1, 0.3),
        Cnot(2, 0),
        ControlledUnitary((0,), (2, 1), random_unitary(rng, 4), control_pattern=0),
        UniformlyControlledRy((2, 0), 1, rng.uniform(-np.pi, np.pi, size=4)),
    ]


@pytest.mark.parametrize("kind", range(4))
def test_input_state_is_left_untouched(rng, kind):
    gate = _one_gate_of_each_kind(rng)[kind]
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    kept = state.copy()
    state.flags.writeable = False
    want = dense_circuit(Circuit(3, [gate])) @ kept
    out = apply_circuit(state, Circuit(3, [gate]))
    np.testing.assert_allclose(out, want, atol=1e-12)
    assert not np.shares_memory(out, state)
    assert state.tobytes() == kept.tobytes()


def test_circuit_inverse_undoes(rng):
    circuit = random_circuit(rng, 3, length=10)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    back = apply_circuit(apply_circuit(state, circuit), circuit.inverse())
    np.testing.assert_allclose(back, state, atol=1e-12)


def test_splicing_a_wider_circuit_is_refused_whole():
    # Refused for its width alone, even with every gate in range, and
    # before any gate joins.
    circuit = Circuit(2, [h(0)])
    message = r"^cannot splice a 3-qubit circuit into a 2-qubit one$"
    for wider in (Circuit(3, [h(0)]), Circuit(3, [h(2), x(0)])):
        with pytest.raises(InputError, match=message):
            circuit.extend(wider)
        assert dump(circuit) == "H 0\n"


@pytest.mark.parametrize("width", [2, 3])
def test_splicing_a_circuit_keeps_its_gate_objects_in_order(width, rng, monkeypatch):
    other = random_circuit(rng, width, length=8)
    circuit = Circuit(3, [x(2)])

    def refuse(self, gate):
        raise AssertionError("a spliced gate was checked again")

    monkeypatch.setattr(Circuit, "append", refuse)
    circuit.extend(other)
    circuit.extend(other)
    assert circuit.num_qubits == 3
    assert len(circuit.gates) == 17
    assert all(a is b for a, b in zip(circuit.gates[1:], other.gates + other.gates))


def test_circuit_inverse_is_the_gate_by_gate_inverse(rng):
    gates = [SingleQubit(1, random_unitary(rng, 2)), h(0),
             ControlledUnitary((2,), (0, 1), random_unitary(rng, 4)), Cnot(0, 2),
             UniformlyControlledRy((0, 2), 1, rng.uniform(-3, 3, 4)), rz(2, 0.3)]
    inverse = Circuit(3, gates).inverse()
    assert inverse.num_qubits == 3
    assert [type(g) for g in inverse.gates] == [type(g) for g in reversed(gates)]
    assert dump(inverse) == "".join(g.inverse().dump_line() + "\n" for g in reversed(gates))
    np.testing.assert_allclose(dense_circuit(inverse) @ dense_circuit(Circuit(3, gates)),
                               np.eye(8), atol=1e-12)


class TestValidation:
    def test_target_out_of_range(self):
        with pytest.raises(InputError, match="range"):
            Circuit(2).append(x(2))

    @pytest.mark.parametrize("index", [0.5, 1.0, np.float64(1.0), True, False, np.bool_(True)])
    def test_non_int_qubit_index_rejected(self, index):
        for gate in (h(index), Cnot(index, 2), Cnot(2, index)):
            with pytest.raises(InputError, match="not an integer"):
                Circuit(3).append(gate)
            with pytest.raises(InputError, match="not an integer"):
                Circuit(3, [gate])

    @pytest.mark.parametrize("index", [1, np.int64(1), np.int32(1), np.uint8(1)])
    def test_numpy_and_python_int_qubit_indices_accepted(self, index):
        circuit = Circuit(3, [h(index), Cnot(index, 2), Cnot(0, index)])
        assert dump(circuit) == "H 1\nCNOT 2 [1]\nCNOT 1 [0]\n"

    def test_cnot_control_equals_target(self):
        with pytest.raises(InputError):
            Circuit(2).append(Cnot(1, 1))

    @pytest.mark.parametrize("controls, target", [((0,), 0), ((1, 1), 0)])
    def test_ucry_reusing_a_qubit(self, controls, target):
        with pytest.raises(InputError, match="reuses a qubit"):
            UniformlyControlledRy(controls, target, np.zeros(2 ** len(controls)))

    @pytest.mark.parametrize("width", [0, -1])
    def test_empty_register(self, width):
        with pytest.raises(InputError, match="num_qubits"):
            Circuit(width)

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
        checked = [
            SingleQubit(0, random_unitary(rng, 2)),
            ControlledUnitary((1,), (0, 2), random_unitary(rng, 4)),
            rz(1, 0.7),
        ]
        calls = []
        check = circuit_module._check_unitary
        monkeypatch.setattr(
            circuit_module, "_check_unitary", lambda *a: calls.append(a) or check(*a)
        )
        Circuit(circuit.num_qubits, circuit.gates)
        lower_to_basis(lower_to_basis(lowered))
        circuit.extend(other.gates)
        assert calls == []
        # A named gate is unitary from its params, an inverse is the conjugate
        # transpose of a checked matrix: neither checks a matrix again.
        h(0)
        rz(0, 0.3)
        for gate in checked:
            gate.inverse()
        assert calls == []
        # Making a gate from a caller's matrix is what runs the check.
        SingleQubit(0, np.array([[1, 1], [1, -1]]) * INV_SQRT2)
        assert len(calls) == 1

    def test_plans_check_only_the_matrices_they_build(self, wscc9_system, rng, monkeypatch):
        # One check of the eigenbasis for all alpha controlled evolutions, and one
        # per QFT phase (alpha (alpha - 1) / 2); lowering and counting make none.
        calls = []
        check = circuit_module._check_unitary
        monkeypatch.setattr(
            circuit_module, "_check_unitary", lambda *a: calls.append(a) or check(*a)
        )
        circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=5))
        assert len(calls) == 11
        assert metrics(circuit).cnot_count == 23550
        assert len(calls) == 11
        calls.clear()
        plan_hhl(exact_grid_system(rng, 256, 7), HHLConfig(alpha=7))
        dims = [call[1] for call in calls]
        assert (len(dims), dims.count(256), dims.count(2)) == (22, 1, 21)

    def test_wscc9_metrics_check_few_gates(self, wscc9_system, monkeypatch):
        # Lowering makes each repeated multi-controlled sub-block once per
        # call, so most of its ~87k output gates cost no unitarity check.
        circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=5))
        calls = []
        check = circuit_module._check_unitary
        monkeypatch.setattr(
            circuit_module, "_check_unitary", lambda *a: calls.append(a) or check(*a)
        )
        assert metrics(circuit).cnot_count == 23550
        assert len(calls) <= 10_000

    def test_wscc9_metrics_make_each_wrap_and_undo_once(self, wscc9_system, monkeypatch):
        # One X per qubit and one adjoint per shared sub-block in each
        # lowering call, so X wraps and undo walks add no checked gates.
        circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=5))
        calls = []
        check = circuit_module._check_unitary
        monkeypatch.setattr(
            circuit_module, "_check_unitary", lambda *a: calls.append(a) or check(*a)
        )
        assert metrics(circuit).cnot_count == 23550
        assert len(calls) <= 6_912

    def test_wscc9_metrics_append_only_input_gates(self, wscc9_system, monkeypatch):
        # Lowered blocks are spliced in unchecked: no Circuit.append runs
        # per lowered gate (87,139 of them at alpha = 5).
        circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=5))
        calls = []
        append = Circuit.append
        monkeypatch.setattr(
            Circuit, "append", lambda self, g: calls.append(g) or append(self, g)
        )
        assert metrics(circuit).cnot_count == 23550
        assert len(circuit.gates) == 66
        n_calls = len(calls)
        assert n_calls <= 66


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_branch_raises(self, bad):
        state = np.array([bad, 0, 0, 0], dtype=complex)
        with pytest.raises(InputError, match="non-finite probability"):
            post_select(state, qubit=1, outcome=0)
        # A non-finite amplitude in the other branch is dropped by the collapse.
        result = post_select(np.array([1, bad, 0, 0], dtype=complex), qubit=0, outcome=0)
        assert result.probability == 1.0
        assert np.array_equal(result.state, [1, 0, 0, 0])

    def test_empty_state(self):
        with pytest.raises(InputError, match="power of two"):
            post_select(np.array([]), 0, 0)


def _dumped_numbers(gate) -> list[float]:
    """The floats ``dump`` must write for a gate, in order."""
    if isinstance(gate, ControlledUnitary) or (
        isinstance(gate, SingleQubit) and gate.name == "U"
    ):
        flat = gate.u.reshape(-1)
        return list(np.column_stack([flat.real, flat.imag]).reshape(-1))
    if isinstance(gate, SingleQubit):
        return list(gate.params)
    if isinstance(gate, UniformlyControlledRy):
        return list(gate.angles)
    return []


class TestDumpParse:
    def test_numbers_read_back_bit_for_bit(self, rng):
        circuit = random_circuit(rng, 3, length=15)
        for q, angle in enumerate(rng.uniform(-np.pi, np.pi, size=3)):
            circuit.extend([ry(q, angle), rz(q, -angle / 3), phase(q, angle / 7)])
        lines = dump(circuit).splitlines()
        assert len(lines) == len(circuit.gates)
        for line, gate in zip(lines, circuit.gates):
            name, *fields = line.split()
            if "]" in line:
                fields = line.split("]", 1)[1].split()[1 if name == "CU" else 0 :]
            else:
                fields = fields[1:]
            got = np.array([float(f) for f in fields])
            want = np.array(_dumped_numbers(gate), dtype=float)
            assert got.tobytes() == want.tobytes(), line

    def test_gate_lines_are_one_per_gate(self):
        circuit = Circuit(2, [h(0), Cnot(0, 1), ry(1, 0.25)])
        lines = dump(circuit).strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("H 0")
        assert lines[1].startswith("CNOT 1 [0]")
        assert lines[2].startswith("RY 1") and "0.25" in lines[2]
