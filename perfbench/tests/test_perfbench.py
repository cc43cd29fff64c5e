"""Tests of the benchmark's own parts: generator, oracles and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import signal

import numpy as np
import pytest

import netgen
import oracles
import tracing
import workloads
from qpf import cli, grid, hhl, qsim
from tracing import Span


# -- network generator ------------------------------------------------------


@pytest.mark.parametrize("beta", [3, 4, 6])
def test_generator_is_deterministic_and_valid(beta):
    buses = 2**beta + 1
    text = netgen.network_json(buses, seed=5)
    assert text == netgen.network_json(buses, seed=5)
    assert text != netgen.network_json(buses, seed=6)
    network = grid.parse_network(text)  # schema and connectivity checks
    assert len(network.buses) == buses
    system = grid.build_reduced_system(network)
    assert len(system.p) == 2**beta
    assert np.linalg.eigvalsh(system.b)[0] > 0  # connected: reduced B is SPD


def test_dense_system_matches_package():
    data = netgen.ring_chord_network(17, seed=3)
    b, p = oracles.dense_system(data)
    system = grid.build_reduced_system(grid.parse_network(json.dumps(data)))
    np.testing.assert_array_equal(b, system.b)
    np.testing.assert_array_equal(p, system.p)


# -- oracles reject perturbed results --------------------------------------


@pytest.fixture(scope="module")
def wscc9_run():
    network = grid.load_fixture("wscc9")
    data = {
        "base_mva": network.base_mva,
        "buses": [{"id": b.id, "slack": b.slack, "p_pu": b.p_pu} for b in network.buses],
        "branches": [{"from": br.from_bus, "to": br.to_bus, "x_pu": br.x_pu}
                     for br in network.branches],
    }
    b, p = oracles.dense_system(data)
    result = hhl.run_hhl(grid.build_reduced_system(network), hhl.HHLConfig(alpha=3))
    return result, oracles.hhl_model(b, p, 3)


def test_hhl_model_accepts_the_simulator(wscc9_run):
    result, model = wscc9_run
    oracles.check_hhl(model, result.fidelity, result.success_probability,
                      result.residual_clock_leak)
    assert result.fidelity == pytest.approx(oracles.WSCC9_FIDELITY[3], abs=1e-9)


@pytest.mark.parametrize("field", ["fidelity", "success_probability",
                                   "residual_clock_leak"])
def test_hhl_model_rejects_a_shift_of_1e6(wscc9_run, field):
    result, model = wscc9_run
    values = {f: getattr(result, f) for f in ("fidelity", "success_probability",
                                              "residual_clock_leak")}
    values[field] += 1e-6
    with pytest.raises(oracles.Mismatch, match=field):
        oracles.check_hhl(model, **values)


def test_wscc9_workload_check_rejects_perturbed_fidelity(wscc9_run):
    result, model = wscc9_run
    workload = workloads.Wscc9HHL()
    case = workloads.Case("alpha=3", None, model, {"alpha": 3})
    workload.check(case, result)
    with pytest.raises(oracles.Mismatch):
        workload.check(case, dataclasses.replace(result, fidelity=result.fidelity + 1e-6))


def test_metrics_oracle_rejects_depth_plus_one():
    pinned = oracles.WSCC9_METRICS[5]
    good = {"width": pinned[0], "depth": pinned[1], "cnot_count": pinned[2]}
    oracles.check_metrics_json(json.dumps(good), pinned)
    with pytest.raises(oracles.Mismatch):
        oracles.check_metrics_json(json.dumps({**good, "depth": pinned[1] + 1}), pinned)


PARAMS = oracles.CostParams(s=7.0, k=0.12, eps_classical=0.05, eps_quantum=0.3,
                            base_ratio=40.0, log_n_base="e", log_eps_base="10")


def _cli(argv):
    return workloads.exit_ok(workloads.run_cli(argv))


def test_crossover_oracle_matches_and_rejects_a_shift():
    n_star = oracles.crossover(PARAMS)
    text = _cli(["crossover"] + PARAMS.argv())
    oracles.check_crossover_json(text, PARAMS, n_star)
    payload = json.loads(text)
    payload["n_star"] *= 1 + 1e-5
    with pytest.raises(oracles.Mismatch, match="n_star"):
        oracles.check_crossover_json(json.dumps(payload), PARAMS, n_star)


def test_crossover_oracle_needs_a_single_crossing():
    dominant = dataclasses.replace(PARAMS, base_ratio=1e-6)  # quantum cheaper everywhere
    assert oracles.crossover(dominant) is None


def test_sweep_oracle_rejects_one_changed_cell():
    steps = 500
    text = _cli(["sweep", "--steps", str(steps), "--range", "10", "2000"] + PARAMS.argv())
    rows = oracles.sweep_rows(PARAMS, 10.0, 2000.0, steps)
    oracles.check_sweep_csv(text, rows)
    lines = text.split("\n")
    cells = lines[200].split(",")
    cells[1] = repr(round(float(cells[1]) * 1.001, 3))
    lines[200] = ",".join(cells)
    with pytest.raises(oracles.Mismatch, match="row 200"):
        oracles.check_sweep_csv("\n".join(lines), rows)


def test_sweep_oracle_rejects_extra_digits():
    rows = oracles.sweep_rows(PARAMS, 10.0, 20.0, 1)
    exact = f"{oracles.SWEEP_HEADER}\n" + ",".join(repr(float(v)) for v in rows[0]) + "\n"
    with pytest.raises(oracles.Mismatch, match="significant"):
        oracles.check_sweep_csv(exact, rows)


# -- spans -------------------------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span("hhl.run_hhl", 0.0, 10.0, None, 0),
        Span("hhl.build_hhl_circuit", 1.0, 4.0, 0, 0),
        Span("qsim.metrics", 5.0, 9.0, 0, 0, {"depth": 7, "cnot_count": 3}),
        Span("qsim.lower_to_basis", 6.0, 8.5, 2, 0,
             {"lowered_gates": 40, "input_gates": 4}),
        Span("hhl.run_hhl", 20.0, 22.0, None, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 1.5, 2.5, 2.0])
    metrics = tracing.layer_metrics(spans, ops=2)
    assert metrics["hhl.run_hhl_s"] == pytest.approx(2.5)
    assert metrics["qsim.metrics_s"] == pytest.approx(0.75)
    assert metrics["qsim.lower_to_basis_s"] == pytest.approx(1.25)
    assert metrics["qsim.depth"] == pytest.approx(3.5)
    assert metrics["qsim.lowering_expansion"] == pytest.approx(10.0)
    assert metrics["qsim.lowered_gates_per_s"] == pytest.approx(16.0)
    assert metrics["grid.parse_network_s"] == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("grid.parse_network", 1.0, 5.0, 0, 0),
        Span("grid.solve_dc", 3.0, 12.0, 0, 0),  # overlaps and overruns its parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_wraps_aliases_and_inner_calls_then_restores():
    originals = (cli.circuit_metrics, hhl.apply_circuit, qsim.apply_circuit)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.circuit_metrics is not originals[0]
        assert hhl.apply_circuit is qsim.apply_circuit is not originals[1]
        system = grid.ReducedSystem(np.diag([1.0, 2.0]), np.array([1.0, 1.0]), (2, 3))
        tracer.op = 0
        hhl.run_hhl(system, hhl.HHLConfig(alpha=2))
    finally:
        tracer.uninstall()
    assert (cli.circuit_metrics, hhl.apply_circuit, qsim.apply_circuit) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "hhl.run_hhl"
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parents["qsim.apply_circuit"] == "hhl.run_hhl"
    assert parents["qsim.lower_to_basis"] == "qsim.metrics"
    assert all(v >= 0 for v in tracing.self_times(tracer.spans))


def test_timeout_is_a_failed_operation_without_a_thread():
    import threading

    import run

    class Spin:
        timeout_s = 0.05

        def run(self, case):
            while True:
                pass

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    threads = threading.active_count()
    try:
        output, reason, detail = run.call(Spin(), workloads.Case("spin", None))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (output, reason) == (None, "timeout")
    assert "spin" in detail
    assert threading.active_count() == threads
