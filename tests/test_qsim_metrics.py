import importlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import asap_depth, benchmark_ring, cnot_bound, random_circuit, random_unitary
from qpf.errors import InputError
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
from qpf.qsim.metrics import MAX_LOWERED_CNOTS, lowered_cnot_bound

# The module, which its own function ``metrics`` shadows as an attribute of qpf.qsim.
metrics_module = importlib.import_module("qpf.qsim.metrics")


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


def _awkward_blocks(rng, dim):
    """Unitaries whose lowering skips Givens rotations: diagonal, permutation
    and block-diagonal ones, each with random phases."""
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=dim))
    perm = np.eye(dim)[rng.permutation(dim)]
    half = np.kron(np.eye(dim // 2), random_unitary(rng, 2)) if dim > 2 else perm
    return [np.diag(phases), perm * phases, half * phases, np.eye(dim)]


def test_library_bound_is_the_oracle_bound(rng, wscc9_system):
    circuits = [random_circuit(rng, n, length=12) for n in (1, 2, 3, 4, 5) for _ in range(4)]
    circuits += [plan_hhl(wscc9_system, HHLConfig(alpha=a))[0] for a in (3, 5, 11)]
    for circuit in circuits:
        assert lowered_cnot_bound(circuit) == cnot_bound(circuit)
    assert [lowered_cnot_bound(c) for c in circuits[-3:]] == [14120, 23590, 54136]


@pytest.mark.parametrize("targets, controls", [(1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_library_bound_holds_where_rotations_are_skipped(rng, targets, controls):
    width = targets + controls
    for u in [random_unitary(rng, 2**targets), *_awkward_blocks(rng, 2**targets)]:
        circuit = Circuit(width, [ControlledUnitary(
            tuple(range(targets, width)), tuple(range(targets)), u)])
        assert metrics(circuit).cnot_count <= lowered_cnot_bound(circuit)


def test_budget_refuses_the_129_bus_ring_before_lowering(monkeypatch):
    def never(circuit):
        raise AssertionError("lowered past the CNOT budget")

    monkeypatch.setattr(metrics_module, "lower_to_basis", never)
    circuit, *_ = plan_hhl(benchmark_ring(129, 1007), HHLConfig(alpha=1))
    message = f"circuit lowers to up to 286836804 CNOTs, over the {MAX_LOWERED_CNOTS}-CNOT limit"
    with pytest.raises(InputError, match=f"^{message}$"):
        metrics(circuit)
    # 65 buses at alpha = 1 (19,921,024 CNOTs when lowered) stay under it.
    circuit, *_ = plan_hhl(benchmark_ring(65, 1006), HHLConfig(alpha=1))
    assert lowered_cnot_bound(circuit) == 19_929_684 < MAX_LOWERED_CNOTS == 5 * 10**7


def test_budget_admits_a_bound_equal_to_it(wscc9_system, monkeypatch):
    circuit, *_ = plan_hhl(wscc9_system, HHLConfig(alpha=3))
    monkeypatch.setattr(metrics_module, "MAX_LOWERED_CNOTS", 14120)
    assert metrics(circuit).cnot_count == 14108
    monkeypatch.setattr(metrics_module, "MAX_LOWERED_CNOTS", 14119)
    with pytest.raises(InputError, match="up to 14120 CNOTs, over the 14119-CNOT limit"):
        metrics(circuit)


def test_time_metrics_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "time_metrics.py"
    done = subprocess.run([sys.executable, str(script), "--repeats", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sum("lower_to_basis median" in line for line in lines) == 4
    assert lines[0].startswith("wscc9-a5   9/56963/23550  ")
    assert sum("plan_hhl median" in line for line in lines) == 3
    assert sum("run_hhl alpha 3..6 cycle median" in line for line in lines) == 1
    gc_lines = [line for line in lines if "gc over 80 calls" in line]
    assert len(gc_lines) == 1
    assert re.search(r"collections gen0/gen1/gen2 \d+/\d+/\d+  \d+\.\d+ s of", gc_lines[0])
