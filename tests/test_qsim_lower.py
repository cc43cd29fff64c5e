import hashlib
import math
import sys

import numpy as np
import pytest

import qpf.qsim.circuit as circuit_module
import qpf.qsim.lower as lower_module
from helpers import (
    asap_depth,
    benchmark_ring,
    count_named_builds,
    dense_circuit,
    gate_qubit_set,
    is_lowered,
    random_circuit,
    random_unitary,
    sqrt_2x2_alone,
)
from qpf.errors import InputError
from qpf.hhl import HHLConfig, plan_hhl, run_hhl
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
    ry,
    rz,
    zero_state,
)
from qpf.qsim.circuit import _X, _ry_matrix, _rz_matrix


def assert_equivalent(circuit, lowered, atol=1e-10):
    """Lowering must preserve the full unitary, global phase included."""
    np.testing.assert_allclose(
        dense_circuit(lowered), dense_circuit(circuit), atol=atol
    )


def test_basis_gates_pass_through(rng):
    circuit = Circuit(2, [h(0), Cnot(0, 1), SingleQubit(1, random_unitary(rng, 2))])
    lowered = lower_to_basis(circuit)
    assert lowered.gates == circuit.gates


def test_is_lowered():
    mixed = Circuit(2, [h(0), UniformlyControlledRy((0,), 1, [0.1, 0.2])])
    assert not is_lowered(mixed)
    assert is_lowered(lower_to_basis(mixed))


def test_controlled_ry_half_pi_costs_two_cnots():
    gate = ControlledUnitary(controls=(0,), targets=(1,), u=_ry_matrix(np.pi / 2))
    circuit = Circuit(2, [gate])
    lowered = lower_to_basis(circuit)
    cnots = [g for g in lowered.gates if isinstance(g, Cnot)]
    rotations = [g for g in lowered.gates if isinstance(g, SingleQubit)]
    assert len(cnots) == 2
    assert len(rotations) == 2
    assert all(g.name == "RY" for g in rotations)
    assert sorted(g.params[0] for g in rotations) == pytest.approx(
        [-np.pi / 4, np.pi / 4]
    )
    assert_equivalent(circuit, lowered, atol=1e-14)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_ucry_ladder_counts(rng, k):
    angles = rng.uniform(-np.pi, np.pi, size=2**k)
    gate = UniformlyControlledRy(tuple(range(1, k + 1)), 0, angles)
    circuit = Circuit(k + 1, [gate])
    lowered = lower_to_basis(circuit)
    n_cnot = sum(isinstance(g, Cnot) for g in lowered.gates)
    n_ry = sum(isinstance(g, SingleQubit) for g in lowered.gates)
    assert n_cnot == (2**k if k else 0)
    assert n_ry == 2**k
    assert_equivalent(circuit, lowered, atol=1e-12)


def _ladder_angles_by_double_loop(angles: np.ndarray) -> np.ndarray:
    """The ladder angles as one sign list per row, each sign a popcount."""
    size = len(angles)
    theta = np.empty(size)
    for i in range(size):
        gray = i ^ (i >> 1)
        signs = [(-1) ** bin(gray & j).count("1") for j in range(size)]
        theta[i] = np.dot(signs, angles) / size
    return theta


@pytest.mark.parametrize("k", range(1, 9))
def test_ucry_ladder_angles_match_the_double_loop_bit_for_bit(rng, k):
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=2**k)
    gate = UniformlyControlledRy(tuple(range(1, k + 1)), 0, angles)
    lowered = lower_to_basis(Circuit(k + 1, [gate]))
    theta = np.array([g.params[0] for g in lowered.gates if isinstance(g, SingleQubit)])
    assert theta.tobytes() == _ladder_angles_by_double_loop(angles).tobytes()


def test_ucry_ladder_reads_each_gray_code_once(rng, monkeypatch):
    # One parity table per gate, not a sign list per ladder angle: 2^k Gray
    # codes at k = 9, where a popcount per (row, column) pair makes 4^k.
    k = 9
    calls = []
    gray = lower_module._gray
    monkeypatch.setattr(lower_module, "_gray", lambda i: calls.append(i) or gray(i))
    gate = UniformlyControlledRy(tuple(range(1, k + 1)), 0, rng.uniform(-1, 1, 2**k))
    lower_to_basis(Circuit(k + 1, [gate]))
    assert len(calls) <= 2 * 2**k


def test_zero_pattern_controls(rng):
    # Pattern 0 means "fire when every control reads 0".
    u = random_unitary(rng, 2)
    gate = ControlledUnitary((1, 2), (0,), u, control_pattern=0)
    circuit = Circuit(3, [gate])
    assert_equivalent(circuit, lower_to_basis(circuit))


def test_multi_target_controlled_unitary(rng):
    gate = ControlledUnitary((2,), (0, 1), random_unitary(rng, 4))
    circuit = Circuit(3, [gate])
    assert_equivalent(circuit, lower_to_basis(circuit))


def test_uncontrolled_multi_qubit_unitary(rng):
    gate = ControlledUnitary((), (0, 1), random_unitary(rng, 4))
    circuit = Circuit(2, [gate])
    assert_equivalent(circuit, lower_to_basis(circuit))


def test_uncontrolled_single_qubit_unitary_is_a_basis_gate(rng):
    u = random_unitary(rng, 2)
    circuit = Circuit(1, [ControlledUnitary((), (0,), u)])
    (gate,) = lower_to_basis(circuit).gates
    assert isinstance(gate, SingleQubit)
    np.testing.assert_array_equal(gate.u, u)
    assert metrics(circuit) == metrics(Circuit(1, [SingleQubit(0, u)]))


def test_uncontrolled_single_qubit_unitary_is_not_checked_again(rng, monkeypatch):
    circuits = [
        Circuit(1, [ControlledUnitary((), (0,), np.eye(2))]),
        Circuit(1, [ControlledUnitary((), (0,), random_unitary(rng, 2))]),
    ]
    want = [dump(Circuit(1, [SingleQubit(0, c.gates[0].u)])) for c in circuits]
    assert want[0] == "U 0 1.0 0.0 0.0 0.0 0.0 0.0 1.0 0.0\n"
    calls = []
    check = circuit_module._check_unitary
    monkeypatch.setattr(
        circuit_module, "_check_unitary", lambda *a: calls.append(a) or check(*a)
    )
    assert [dump(lower_to_basis(c)) for c in circuits] == want
    assert calls == []


def test_lowering_is_idempotent(rng):
    circuit = random_circuit(rng, 3, length=5)
    once = lower_to_basis(circuit)
    twice = lower_to_basis(once)
    assert twice.gates == once.gates


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_circuits_against_dense_oracle(rng, n):
    for _ in range(6):
        circuit = random_circuit(rng, n, length=4)
        lowered = lower_to_basis(circuit)
        assert is_lowered(lowered)
        assert_equivalent(circuit, lowered, atol=1e-8)


def test_diagonal_unitary_phases(rng):
    # Pure phase gates exercise the diagonal-leftover branch.
    phis = rng.uniform(-np.pi, np.pi, size=4)
    gate = ControlledUnitary((), (0, 1), np.diag(np.exp(1j * phis)))
    circuit = Circuit(2, [gate])
    assert_equivalent(circuit, lower_to_basis(circuit), atol=1e-12)


def test_identity_lowering_emits_nothing_heavy():
    gate = ControlledUnitary((1,), (0,), np.eye(2, dtype=complex))
    lowered = lower_to_basis(Circuit(2, [gate]))
    assert_equivalent(Circuit(2, [gate]), lowered, atol=1e-14)


def _x_chain(depth: int) -> list[np.ndarray]:
    """X and its repeated principal square roots, each taken alone."""
    chain = [_X]
    for _ in range(depth):
        chain.append(sqrt_2x2_alone(chain[-1]))
    return chain


def test_stacked_roots_are_the_one_matrix_roots(rng):
    # Each root of a stack is bit for bit the root of its matrix alone, so
    # the lowered gates (their angles read off the roots) are unchanged.
    unitaries = [random_unitary(rng, 2) for _ in range(64)]
    phases = [np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 2))) for _ in range(16)]
    phases += [np.diag(d).astype(complex) for d in ([1, -1], [-1, 1], [1j, 1], [-1, -1])]
    for mats in (unitaries, phases, _x_chain(8)):
        stacked = lower_module._sqrt_2x2(np.array(mats))
        assert stacked.shape == (len(mats), 2, 2)
        for u, root in zip(mats, stacked, strict=True):
            assert np.array_equal(root, sqrt_2x2_alone(u))


def test_root_chains_hold_each_chain_and_skip_identities():
    chain = _x_chain(4)
    s_gate = np.diag([1, 1j])
    # chain[1] is a matrix and the root of another: its chain is taken once.
    roots = lower_module._root_chains([_X, np.eye(2, dtype=complex), chain[1], s_gate], 4)
    for u, root in zip(chain, chain[1:]):
        assert np.array_equal(roots[u.tobytes()], root)
    assert np.eye(2, dtype=complex).tobytes() not in roots
    u = s_gate
    for _ in range(4):
        u = roots[u.tobytes()]
    np.testing.assert_allclose(np.linalg.matrix_power(u, 16), s_gate, atol=1e-14)
    assert lower_module._root_chains([_X], 0) == {}


def test_wscc9_lowering_takes_one_stacked_eig_per_chain_level(wscc9_system, monkeypatch):
    # The square roots of every controlled unitary's factors, and of X, are
    # taken one stacked call per chain level for the whole circuit: the
    # evolutions on 1 + beta = 4 qubits read chains 2 levels deep.
    circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=5))
    levels = max(len(g.qubits) - 2 for g in circuit.gates
                 if isinstance(g, ControlledUnitary))
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda u: calls.append(u.shape) or eig(u))
    assert metrics(circuit).cnot_count == 23550
    assert len(calls) == levels == 2
    assert all(len(shape) == 3 for shape in calls)


def test_lowered_named_gates_are_what_the_public_helpers_make(wscc9_system):
    # RY and RZ from the ZYZ steps and the ladder, P from the ZYZ phase, and
    # the inverses of all three in the undone walks and adjoint blocks.
    circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=3))
    helpers = {"RY": ry, "RZ": rz, "P": phase}
    made = {id(g): g for g in lower_to_basis(circuit).gates
            if isinstance(g, SingleQubit) and g.name in helpers}.values()
    assert {g.name for g in made} == set(helpers)
    assert any(g.params[0] < 0 for g in made) and any(g.params[0] > 0 for g in made)
    for gate in made:
        want = helpers[gate.name](gate.target, gate.params[0])
        assert list(vars(gate).items()) == list(vars(want).items())
        assert "u" not in vars(gate)
        assert sys.getsizeof(vars(gate)) == sys.getsizeof(vars(want))
        assert gate.inverse().params == (-gate.params[0],)


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["RY", "RZ", "P"])
def test_a_non_finite_lowered_angle_fails_as_the_public_helper_does(name, angle):
    helper = {"RY": ry, "RZ": rz, "P": phase}[name]
    with pytest.raises(InputError) as public:
        helper(0, angle)
    with pytest.raises(InputError) as lowered:
        circuit_module._rotation(name, 0, angle)
    assert str(lowered.value) == str(public.value) == f"non-finite {name} angle"


def test_an_overflowing_ladder_angle_is_refused():
    # Each angle is finite, but their sum, the first ladder angle, is not.
    # The suite turns warnings into errors, so numpy must not warn first.
    gate = UniformlyControlledRy((1,), 0, [1e308, 1e308])
    with pytest.raises(InputError, match="^non-finite RY angle$"):
        lower_to_basis(Circuit(2, [gate]))


def test_a_ladder_angle_overflowing_both_ways_is_refused():
    # numpy's dot of 16 terms overflows partial sums of both signs, and
    # their sum is NaN, again with no warning before the InputError.
    gate = UniformlyControlledRy((1, 2, 3, 4), 0, [1e308] * 8 + [-1e308] * 8)
    with pytest.raises(InputError, match="^non-finite RY angle$"):
        lower_to_basis(Circuit(5, [gate]))


def test_near_identity_sub_block_is_dropped():
    # A phase of 1.5e-12 is kept, but its square root on one control falls
    # under the angle tolerance, so that multi-controlled sub-block is empty.
    gate = ControlledUnitary((1, 2), (0,), np.diag([1.0, np.exp(1.5e-12j)]))
    lowered = lower_to_basis(Circuit(3, [gate]))
    assert is_lowered(lowered)
    assert_equivalent(Circuit(3, [gate]), lowered, atol=1e-8)


@pytest.mark.parametrize("n_targets", [1, 2])
@pytest.mark.parametrize("patterned", [False, True])
def test_lowered_controlled_unitary_stays_on_its_qubits(rng, n_targets, patterned):
    # lower_to_basis splices lowered blocks without a width check; that is
    # sound only if every emitted gate lies on the input gate's qubits.
    for n_controls in range(4):
        qs = [int(q) for q in rng.permutation(7)]
        pattern = int(rng.integers(0, 2**n_controls)) if patterned else -1
        gate = ControlledUnitary(
            tuple(qs[n_targets : n_targets + n_controls]),
            tuple(qs[:n_targets]),
            random_unitary(rng, 2**n_targets),
            pattern,
        )
        lowered = lower_to_basis(Circuit(7, [gate]))
        assert lowered.gates
        assert set().union(*map(gate_qubit_set, lowered.gates)) <= gate_qubit_set(gate)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_lowered_ucry_stays_on_its_qubits(rng, k):
    qs = [int(q) for q in rng.permutation(7)]
    gate = UniformlyControlledRy(tuple(qs[1 : k + 1]), qs[0], rng.uniform(-np.pi, np.pi, 2**k))
    lowered = lower_to_basis(Circuit(7, [gate]))
    assert set().union(*map(gate_qubit_set, lowered.gates)) <= gate_qubit_set(gate)


def test_wscc9_gate_sequence_is_pinned(wscc9_system):
    # Same gates in the same order, byte for byte: sha256 of the dump of the
    # wscc9 alpha = 3 circuit lowered with the plain square-root recursion.
    circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=3))
    text = dump(lower_to_basis(circuit))
    assert text.count("\n") == 52229
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0930c7a1344e42211d19d905c85e170e3bc5b5c08bf07452ef691933e8819230"
    )


def _dump_digest(circuit) -> tuple[int, str]:
    text = dump(lower_to_basis(circuit))
    return text.count("\n"), hashlib.sha256(text.encode()).hexdigest()


def test_wscc9_alpha5_gate_sequence_is_pinned(wscc9_system):
    circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=5))
    assert _dump_digest(circuit) == (
        87139, "070d961bbee65db654d207effaf457561b2fcf4148f7e357d4d92d1d92f8f119"
    )


def test_wscc9_alpha11_gate_sequence_is_pinned(wscc9_system):
    # Eleven clock qubits: 22 evolutions and 110 controlled QFT phases share
    # one root pass.
    circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=11))
    assert _dump_digest(circuit) == (
        196045, "43947695ad5ffdf0d0b18bf2676b553897e67bdda30bc3f4c138080e73e3bdf3"
    )


def test_ring17_alpha1_gate_sequence_is_pinned():
    # The benchmark's 17-bus ring (perfbench/oracles.py RING17_SEED = 17017)
    # at alpha = 1: evolutions on four targets, so Givens walks over up to
    # four bits and square-root chains 3 levels deep.
    circuit, *_ = plan_hhl(benchmark_ring(17, 17017), HHLConfig(alpha=1))
    assert _dump_digest(circuit) == (
        307203, "83f71a19ca10cb58557c831e2f2d6afc469ab62b1b13b187f330e9e60f089c7f"
    )


def test_lowered_wscc9_alpha3_plan_solves_as_the_plan(wscc9_system):
    # End to end: the lowered circuit, the one ``metrics`` counts, computes
    # the state the solve reads, and gives the same scores.  The readout is
    # written here from the register layout, with numpy's own solve as the
    # classical reference.
    alpha = 3
    circuit, scaling, beta, _ = plan_hhl(wscc9_system, HHLConfig(alpha=alpha))
    lowered = lower_to_basis(circuit)
    assert len(lowered.gates) == 52229
    start = zero_state(circuit.num_qubits)
    state = apply_circuit(start, lowered)
    assert np.abs(state - apply_circuit(start, circuit)).max() <= 1e-10

    branch = state.reshape(2, 2**alpha, 2**beta)[1]  # [ancilla][clock, solution]
    probability = float(np.sum(np.abs(branch) ** 2))
    kept = branch[0] / math.sqrt(probability)
    pivot = kept[np.argmax(np.abs(kept))]
    solution = (kept * pivot.conjugate() / abs(pivot)).real[: len(wscc9_system.p)]
    theta = np.linalg.solve(wscc9_system.b, wscc9_system.p)
    fidelity = theta @ solution / (np.linalg.norm(theta) * np.linalg.norm(solution))
    result = run_hhl(wscc9_system, HHLConfig(alpha=alpha))
    assert abs(probability - result.success_probability) <= 1e-10
    assert abs(1.0 - np.sum(np.abs(kept) ** 2) - result.residual_clock_leak) <= 1e-10
    assert abs(fidelity**2 - result.fidelity) <= 1e-10

    assert asap_depth(lowered) == 34156
    assert sum(isinstance(g, Cnot) for g in lowered.gates) == 14108


def test_wscc9_metrics_build_no_named_matrix_and_one_cnot_per_pair(
    wscc9_system, monkeypatch
):
    # Lowering and counting never read a named gate's matrix, so none is
    # built; each (control, target) pair has one Cnot object per call.
    circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=5))
    built = count_named_builds(monkeypatch)
    assert metrics(circuit).cnot_count == 23550
    assert built == []
    lowered = lower_to_basis(circuit)
    cnots = {id(g): g for g in lowered.gates if isinstance(g, Cnot)}.values()
    pairs = {(g.control, g.target) for g in cnots}
    assert len(cnots) == len(pairs) == 53
    assert built == []


def test_patterned_six_control_gate_sequence_is_pinned():
    # Six controls reading pattern 0b000101: X-wrapped controls and a block
    # that sits neither first nor last among the 2^7 local basis states.
    u = _ry_matrix(0.3) @ _rz_matrix(1.1)
    gate = ControlledUnitary(tuple(range(1, 7)), (0,), u, 5)
    assert _dump_digest(Circuit(7, [gate])) == (
        3565, "1d91b9689dbaab2cd07b47b59d13dd2b2dae82cff7612c99106dc8e7d6c721be"
    )


def test_four_target_controlled_unitary_gate_sequence_is_pinned():
    # A seeded 16x16 block under one control reading 0: its Givens pairs
    # differ in up to four local bits, so each is reached by a walk over up
    # to three bits, and that walk is undone after the rotation.
    u = random_unitary(np.random.default_rng(16), 16)
    gate = ControlledUnitary((4,), (0, 1, 2, 3), u, 0)
    assert _dump_digest(Circuit(5, [gate])) == (
        154369, "067f3562d38a4bd854cec813fea1f80602ce1325d811a899ffa69c84eb13b876"
    )


def _block_structured_gate(seed: int) -> Circuit:
    """1-4 controls reading a random pattern over 1-3 targets, all seeded.

    Its matrix is a direct sum of random unitary blocks, permuted.  A dense
    random block is left, after its Givens rotations, with a phase on its
    last (odd) index alone; a column with nothing to eliminate keeps a phase
    on its own index, even or odd.
    """
    rng = np.random.default_rng(seed)
    n_controls, n_targets = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    qubits = [int(q) for q in rng.permutation(n_controls + n_targets)]
    dim = 2**n_targets
    u = np.zeros((dim, dim), dtype=complex)
    start = 0
    while start < dim:
        size = int(rng.integers(1, dim - start + 1))
        u[start : start + size, start : start + size] = random_unitary(rng, size)
        start += size
    perm = rng.permutation(dim)
    pattern = int(rng.integers(0, 2**n_controls))
    gate = ControlledUnitary(
        tuple(qubits[n_targets:]), tuple(qubits[:n_targets]), u[perm][:, perm], pattern
    )
    return Circuit(len(qubits), [gate])


# Together these lower phases on even and on odd indices, and Givens pairs
# that differ in one, two and three local bits.
@pytest.mark.parametrize("seed, lines, digest", [
    (0, 4725, "3632de2bee5d450dc3701f128d62a6683ac08fcc85f22b7b37342cf9ec9f1c63"),
    (1, 1369, "ce84a428fae4ad6f1be3ca0187b0a418bbccbba16c58c1b9546a8ef58b001ae2"),
    (2, 776, "1a6cdb7cc705fdce9ae5559d072532a843ee40760ca2e14884758088c02a0cab"),
    (6, 1000, "9b1612a1edd209754667b4b5f7ffa6b901a953f89295b8368bc72e47ca9ac7e2"),
    (9, 14940, "966bdf3d4bef44643f55cbe48ce14b468895c3a7fd78f0ebf450cbe00bc59602"),
    (11, 16, "a07850ecf4b03e7c46658513bdcc369d67176b53331317bd2daaee6d3c7548b4"),
    (14, 4841, "ef0c169cbfcc0e4f5756da0a2fbd641eb8b2d881eeb3c79c478bb12ebeda13ff"),
    (17, 22435, "58079f1f64f5f8354fa2c74d7b11a6d63da647a1f8d108ea9f8f47992aa2f5ed"),
    (21, 9389, "6ca0850dc19e393d01c7180c8388b0ab22f4a4db1c79958482b77513dae7262a"),
    (22, 8246, "03d0d914b5f693ba612490bf0b9826fc571e0f6da5df429ac85a9c7dda4d0d00"),
    (24, 79, "d1ed6c127cf4e9936dc40927f73b7459fad2447055cbc0774511fde54b6ea321"),
    (27, 2416, "e4d98333a30026a3aec71a9c34210b9f01273c322d9b2f3531e3a422cd19c102"),
])
def test_block_structured_gate_sequence_is_pinned(seed, lines, digest):
    assert _dump_digest(_block_structured_gate(seed)) == (lines, digest)


def test_shared_sub_blocks_stay_inside_one_call(rng):
    # Three-control gates make the square-root recursion repeat sub-blocks.
    first = Circuit(4, [ControlledUnitary((1, 2, 3), (0,), random_unitary(rng, 2), 5)])
    second = random_circuit(rng, 4, length=6)
    second.append(ControlledUnitary((0, 1, 2), (3,), random_unitary(rng, 2)))
    alone = dump(lower_to_basis(second))
    lower_to_basis(first)
    assert dump(lower_to_basis(second)) == alone

    once, again = lower_to_basis(second), lower_to_basis(second)
    passthrough = {id(g) for g in second.gates}
    made_once = {id(g) for g in once.gates} - passthrough
    made_again = {id(g) for g in again.gates} - passthrough
    assert made_once and made_again
    assert not made_once & made_again
