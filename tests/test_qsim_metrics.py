import pytest

from helpers import asap_depth, cnot_bound, random_circuit, random_unitary
from qpf.hhl import HHLConfig, plan_hhl
from qpf.qsim import (
    Circuit,
    Cnot,
    CircuitMetrics,
    ControlledUnitary,
    h,
    lower_to_basis,
    metrics,
    ry,
    x,
)


def test_empty_circuit():
    assert metrics(Circuit(4)) == CircuitMetrics(width=4, depth=0, cnot_count=0)


def test_disjoint_gates_share_a_layer():
    m = metrics(Circuit(3, [h(0), h(1), h(2)]))
    assert m.depth == 1


def test_serial_gates_stack():
    m = metrics(Circuit(1, [h(0), x(0), ry(0, 0.3)]))
    assert m.depth == 3


def test_cnot_orders_both_qubits():
    # CNOT after H(0) pushes qubit 1 to layer 2 as well.
    m = metrics(Circuit(2, [h(0), Cnot(0, 1), x(1)]))
    assert m.depth == 3
    assert m.cnot_count == 1


def test_counts_cnots_after_lowering(rng):
    circuit = random_circuit(rng, 3, length=6)
    from qpf.qsim import lower_to_basis

    assert metrics(circuit) == metrics(lower_to_basis(circuit))


def test_deterministic(rng):
    circuit = random_circuit(rng, 3, length=8)
    assert metrics(circuit) == metrics(circuit)


def test_cnot_count_adds_under_concatenation(rng):
    a = random_circuit(rng, 3, length=5)
    b = random_circuit(rng, 3, length=5)
    combined = Circuit(3, list(a.gates) + list(b.gates))
    assert (
        metrics(combined).cnot_count
        == metrics(a).cnot_count + metrics(b).cnot_count
    )


def test_depth_bounds_under_concatenation(rng):
    a = random_circuit(rng, 3, length=5)
    b = random_circuit(rng, 3, length=5)
    combined = Circuit(3, list(a.gates) + list(b.gates))
    da, db, dc = metrics(a).depth, metrics(b).depth, metrics(combined).depth
    assert max(da, db) <= dc <= da + db


def test_asap_oracle_on_hand_circuits():
    assert asap_depth(Circuit(3, [h(0), h(1), h(2)])) == 1
    assert asap_depth(Circuit(2, [h(0), Cnot(0, 1), x(1)])) == 3
    # x(2) waits for nothing, so it shares layer 1 with h(0).
    assert asap_depth(Circuit(3, [h(0), Cnot(0, 1), x(2)])) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matches_asap_oracle_after_lowering(rng, n):
    for _ in range(8):
        circuit = random_circuit(rng, n, length=6)
        lowered = lower_to_basis(circuit)
        assert metrics(circuit) == CircuitMetrics(
            width=n,
            depth=asap_depth(lowered),
            cnot_count=sum(isinstance(g, Cnot) for g in lowered.gates),
        )


def test_wscc9_alpha3_is_pinned(wscc9_system):
    circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=3))
    assert metrics(circuit) == CircuitMetrics(width=7, depth=34156, cnot_count=14108)
    assert asap_depth(lower_to_basis(circuit)) == 34156


@pytest.mark.parametrize(("targets", "controls", "cnots"), [
    (1, 0, 0), (1, 1, 4), (1, 2, 20),
    (2, 0, 22), (2, 1, 110), (2, 2, 374),
    (3, 0, 690), (3, 1, 2346), (3, 2, 7314),
])
def test_cnot_bound_is_exact_on_a_dense_gate(rng, targets, controls, cnots):
    width = targets + controls
    gate = ControlledUnitary(tuple(range(targets, width)), tuple(range(targets)),
                             random_unitary(rng, 2**targets))
    circuit = Circuit(width, [gate])
    assert cnot_bound(circuit) == metrics(circuit).cnot_count == cnots


@pytest.mark.parametrize("alpha", [3, 4, 5, 6])
def test_cnot_bound_holds_on_wscc9_plans(wscc9_system, alpha):
    circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=alpha))
    assert metrics(circuit).cnot_count <= cnot_bound(circuit)
