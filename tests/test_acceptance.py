"""Acceptance gate: one test per release criterion, tolerances as stated.

Each test prints a one-line verdict so a plain `pytest -v` run doubles as
the acceptance report.  Two checks are expected failures (strict xfail):

* criterion 1 — the packaged standard 9-bus dataset solves to a different
  angle vector than the stored reference vector.
  ``scripts/explain_reference.py`` prints the readings, and
  ``test_criterion_1_gaps_are_the_scripts`` holds them: the reference
  implies injections B theta_ref summing to -1.238 pu where the fixture's
  sum to -0.670 pu, so no relabeling of the injections reproduces it; the
  max per-element gap is 0.0658 in the documented bus order and at best over
  any order of the angle vector, 0.0562 at best over the 8! assignments of
  the injections to the non-slack buses, 0.0537 over 9! with the slack free
  to move, and 0.0451 at best over single changes to the data, all against
  the 5e-3 tolerance.  The conditioning of the system (k = 0.0169) does
  match.
* criterion 7 (fidelity clause) — the noiseless alpha=5 simulation reaches
  fidelity 0.85297, short of the 0.90 target.  A longer evolution time than
  the default t wraps lambda_max around the clock, and
  ``test_criterion_7_no_shorter_time_scores_higher`` finds that no shorter
  f * t (f = 0.30, 0.35, ..., 0.95) scores higher and that c does not change
  the fidelity.  The attained value is frozen as a regression constant in
  test_hhl.py.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import dense_circuit, exact_grid_system, random_circuit
from qpf.complexity import (
    ComplexityParams,
    base_speed_ratio,
    find_crossover,
    sweep,
)
from qpf.errors import InputError
from qpf.grid import solve_dc
from qpf.hhl import (
    HHLConfig,
    build_hhl_circuit,
    build_qpe,
    choose_scaling,
    eigendecompose,
    epsilon_from_fidelity,
    fidelity,
    run_hhl,
)
from qpf.qsim import (
    apply_circuit,
    is_lowered,
    lower_to_basis,
    metrics,
    prepare_state,
    zero_state,
)
from qpf.qsim.circuit import Circuit

EXPLAIN_REFERENCE = Path(__file__).resolve().parent.parent / "scripts" / "explain_reference.py"

REFERENCE_CLASSICAL = np.array(
    [0.1157, 0.0948, -0.0713, -0.1316, -0.0644, 0.0118, -0.0514, 0.0220]
)
REFERENCE_QUANTUM = np.array(
    [0.1125, 0.0599, -0.0299, -0.0826, -0.0458, 0.0047, -0.0858, -0.0040]
)


def verdict(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.mark.xfail(
    strict=True,
    reason="standard 9-bus dataset yields a different angle vector than the "
    "stored reference: max gap 0.0658, at best 0.0562 over 8! and 0.0537 over 9! "
    "injection relabelings, all > 5e-3 (scripts/explain_reference.py)",
)
def test_criterion_1_classical_reference_vector(wscc9_system):
    start = time.perf_counter()
    theta = solve_dc(wscc9_system)
    elapsed = time.perf_counter() - start
    verdict("1a", elapsed < 0.010, f"classical solve took {elapsed * 1e3:.3f} ms")
    gap = np.abs(theta - REFERENCE_CLASSICAL).max()
    verdict(
        "1b",
        gap <= 5e-3,
        f"max per-element gap to the reference vector = {gap:.4f} (tol 5e-3)",
    )


def test_criterion_1_gaps_are_the_scripts(wscc9):
    spec = importlib.util.spec_from_file_location("explain_reference", EXPLAIN_REFERENCE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert np.array_equal(script.REFERENCE, REFERENCE_CLASSICAL)
    gaps = [round(value, 4) for value in script.gaps(wscc9).values()]
    assert gaps == [0.0658, 0.0658, 0.0562, 0.0537, 0.0451]


def test_criterion_2_fidelity_convention():
    value = fidelity(REFERENCE_CLASSICAL, REFERENCE_QUANTUM)
    verdict(
        2,
        abs(value - 0.8725) <= 0.0010,
        f"fidelity(reference classical, reference quantum) = {value:.6f} "
        "(target 0.8725 +/- 0.0010)",
    )


def test_criterion_3_epsilon_formula():
    eps_low = epsilon_from_fidelity(0.872159)
    eps_high = epsilon_from_fidelity(0.99)
    verdict(
        3,
        abs(eps_low - 0.3636) <= 0.0005 and abs(eps_high - 0.1002) <= 0.0005,
        f"eps(0.872159) = {eps_low:.5f} (target 0.3636 +/- 0.0005), "
        f"eps(0.99) = {eps_high:.5f} (target 0.1002 +/- 0.0005)",
    )


def test_criterion_4_base_speed_ratio():
    ratio = base_speed_ratio(
        8,
        ComplexityParams(s=4, k=0.017, epsilon=0.1, log_eps_base="e"),
        ComplexityParams(s=4, k=0.017, epsilon=0.37, log_n_base="2"),
    )
    verdict(4, 33 <= ratio <= 35, f"base speed ratio at n=8 is {ratio:.4f}")


def test_criterion_5_crossover_band_and_single_crossing():
    classical = ComplexityParams(s=6, k=0.1, epsilon=0.1, log_eps_base="e")
    quantum = ComplexityParams(s=6, k=0.1, epsilon=0.37, log_n_base="2")
    report = find_crossover(classical, quantum, 34.0)

    in_band = 100 <= report.n_star <= 300
    documented = "log_" in report.convention
    sample_flips = sum(
        1
        for (_, c1, q1), (_, c2, q2) in zip(report.samples, report.samples[1:])
        if np.sign(c1 - q1) != np.sign(c2 - q2)
    )

    rows = sweep(classical, quantum, 34.0, (10.0, 2000.0), 100)
    signs = [np.sign(c - q) for _, c, q in rows]
    flips = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
    bracket_ok = (
        len(flips) == 1 and rows[flips[0] - 1][0] <= report.n_star <= rows[flips[0]][0]
    )
    verdict(
        5,
        in_band and documented and sample_flips == 1 and bracket_ok,
        f"n_star = {report.n_star:.3f} in [100, 300]; convention documented; "
        "sweep over [10, 2000] crosses once at n_star within one grid step",
    )


def test_criterion_6_exact_spectrum_suite():
    rng = np.random.default_rng(7)
    alpha = 4
    worst_solution = worst_probability = worst_norm_rel = 0.0
    start = time.perf_counter()
    for case in range(20):
        dim = 2 if case % 2 == 0 else 4
        system = exact_grid_system(rng, dim, alpha)
        result = run_hhl(system, HHLConfig(alpha=alpha))
        classical = solve_dc(system)
        unit = classical / np.linalg.norm(classical)
        sign = np.sign(np.dot(unit, result.solution_unit))
        worst_solution = max(
            worst_solution, np.abs(result.solution_unit - sign * unit).max()
        )
        eig = eigendecompose(system.b)
        proj = eig.vectors.T @ (system.p / np.linalg.norm(system.p))
        expected_p = result.config["c"] ** 2 * np.sum((proj / eig.lambdas) ** 2)
        worst_probability = max(
            worst_probability, abs(result.success_probability - expected_p)
        )
        worst_norm_rel = max(
            worst_norm_rel,
            abs(result.recovered_norm - np.linalg.norm(classical))
            / np.linalg.norm(classical),
        )
    elapsed = time.perf_counter() - start
    verdict(
        6,
        worst_solution <= 1e-8
        and worst_probability <= 1e-9
        and worst_norm_rel <= 0.02
        and elapsed < 5.0,
        f"20 exact-spectrum systems: worst solution error {worst_solution:.2e} "
        f"(tol 1e-8), worst probability error {worst_probability:.2e} (tol 1e-9), "
        f"worst norm error {worst_norm_rel:.2e} (tol 2%), runtime {elapsed:.2f} s "
        "(limit 5 s)",
    )


def test_criterion_7_headline_width_and_runtime(wscc9_system, wscc9_hhl):
    b, p = wscc9_system.b, wscc9_system.p
    eig = eigendecompose(b)
    scaling = choose_scaling(eig, alpha=5)
    circuit = build_hhl_circuit(eig, p / np.linalg.norm(p), scaling)
    start = time.perf_counter()
    apply_circuit(zero_state(circuit.num_qubits), circuit)
    elapsed = time.perf_counter() - start
    verdict(
        "7a",
        circuit.num_qubits == 9 and wscc9_hhl.metrics.width == 9,
        f"headline circuit width = {circuit.num_qubits} (required: 9)",
    )
    verdict(
        "7b",
        elapsed < 1.0,
        f"9-qubit statevector execution took {elapsed * 1e3:.1f} ms (limit 1 s)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="noiseless alpha=5 fidelity is 0.85297 < 0.90; see module docstring",
)
def test_criterion_7_headline_fidelity(wscc9_hhl):
    verdict(
        "7c",
        wscc9_hhl.fidelity >= 0.90,
        f"noiseless fidelity = {wscc9_hhl.fidelity:.6f} (required >= 0.90)",
    )


def test_criterion_7_no_shorter_time_scores_higher(wscc9_system, wscc9_hhl):
    # The default t maps lambda_max onto the top clock code, and any longer t
    # wraps it around; c scales every post-selected amplitude alike.
    t, c = wscc9_hhl.config["t"], wscc9_hhl.config["c"]
    for f in np.linspace(0.3, 1.0, 14, endpoint=False):
        shorter = run_hhl(wscc9_system, HHLConfig(alpha=5, t_override=f * t))
        assert shorter.fidelity < wscc9_hhl.fidelity, f
    for divisor in (2.0, 7.0):
        smaller_c = run_hhl(wscc9_system, HHLConfig(alpha=5, c_override=c / divisor))
        assert smaller_c.fidelity == pytest.approx(wscc9_hhl.fidelity, abs=1e-12)
    with pytest.raises(InputError, match="overflows the clock"):
        run_hhl(wscc9_system, HHLConfig(alpha=5, t_override=1.01 * t))


def test_criterion_8_simulator_correctness():
    rng = np.random.default_rng(11)

    worst_lowering = 0.0
    for case in range(100):
        n = 1 + case % 3
        circuit = random_circuit(rng, n, length=5)
        lowered = lower_to_basis(circuit)
        assert is_lowered(lowered)
        err = np.abs(dense_circuit(lowered) - dense_circuit(circuit)).max()
        worst_lowering = max(worst_lowering, err)

    worst_prepare = 0.0
    for _ in range(10):
        target = rng.normal(size=8)
        target /= np.linalg.norm(target)
        state = apply_circuit(zero_state(3), prepare_state(target))
        worst_prepare = max(worst_prepare, np.abs(state - target).max())

    basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    b = basis @ np.diag([0.4, 0.9, 1.7, 3.2]) @ basis.T
    eig = eigendecompose(b)
    qpe = build_qpe(eig, choose_scaling(eig, alpha=3))
    p = rng.normal(size=4)
    p /= np.linalg.norm(p)
    start = np.zeros(2**qpe.num_qubits, dtype=complex)
    start[:4] = p
    roundtrip = apply_circuit(start, qpe)
    roundtrip = apply_circuit(roundtrip, qpe.inverse())
    qpe_err = np.abs(roundtrip - start).max()

    verdict(
        8,
        worst_lowering <= 1e-8 and worst_prepare <= 1e-9 and qpe_err <= 1e-9,
        f"100 lowered circuits worst error {worst_lowering:.2e} (tol 1e-8); "
        f"length-8 state preparation worst error {worst_prepare:.2e} (tol 1e-9); "
        f"QPE + inverse QPE identity error {qpe_err:.2e} (tol 1e-9)",
    )


def test_criterion_9_metrics_determinism_and_additivity(wscc9_system, wscc9_hhl):
    # Fresh, independent construction of the headline circuit; its metrics
    # must be identical to the ones computed inside the shared run.
    eig = eigendecompose(wscc9_system.b)
    scaling = choose_scaling(eig, alpha=5)
    p_unit = wscc9_system.p / np.linalg.norm(wscc9_system.p)
    fresh = metrics(build_hhl_circuit(eig, p_unit, scaling))

    rng = np.random.default_rng(13)
    additive = True
    for _ in range(5):
        a = random_circuit(rng, 3, length=4)
        b = random_circuit(rng, 3, length=4)
        combined = Circuit(3, list(a.gates) + list(b.gates))
        additive &= (
            metrics(combined).cnot_count
            == metrics(a).cnot_count + metrics(b).cnot_count
        )

    verdict(
        9,
        fresh == wscc9_hhl.metrics and additive,
        f"headline circuit metrics width={fresh.width} depth={fresh.depth} "
        f"cnot_count={fresh.cnot_count}; identical across independent runs; "
        "cnot_count additive under concatenation",
    )
