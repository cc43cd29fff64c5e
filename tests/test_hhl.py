import json
import math
import re

import numpy as np
import pytest

import qpf.hhl as hhl_module
from helpers import exact_grid_system
from qpf.errors import InputError, NumericalError, PostSelectionError
from qpf.grid import ReducedSystem, solve_dc
from qpf.hhl import (
    HHLConfig,
    _qft_gates,
    build_hhl_circuit,
    build_qpe,
    build_reciprocal_rotation,
    choose_scaling,
    eigendecompose,
    epsilon_from_fidelity,
    fidelity,
    lambda_of_clock,
    plan_hhl,
    run_hhl,
)
from qpf.qsim import (
    Circuit,
    apply_circuit,
    lower_to_basis,
    prepare_state,
    x,
    zero_state,
)

# Stored 9-bus reference solution pair (a direct classical solve vs. a noisy
# HHL run) used to validate the fidelity convention.
REFERENCE_CLASSICAL = [0.1157, 0.0948, -0.0713, -0.1316, -0.0644, 0.0118, -0.0514, 0.0220]
REFERENCE_QUANTUM = [0.1125, 0.0599, -0.0299, -0.0826, -0.0458, 0.0047, -0.0858, -0.0040]


def diag_system(lambdas, p):
    lambdas = np.asarray(lambdas, dtype=float)
    return ReducedSystem(
        b=np.diag(lambdas),
        p=np.asarray(p, dtype=float),
        bus_order=tuple(range(2, len(lambdas) + 2)),
    )


class TestEigendecompose:
    def test_reconstructs_matrix(self, rng):
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        b = basis @ np.diag([0.5, 1.0, 2.0, 4.0]) @ basis.T
        eig = eigendecompose(b)
        np.testing.assert_allclose(eig.lambdas, [0.5, 1.0, 2.0, 4.0], atol=1e-12)
        recon = (eig.vectors * eig.lambdas) @ eig.vectors.T
        np.testing.assert_allclose(recon, b, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            eigendecompose(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError, match="symmetric"):
            eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError, match="positive definite"):
            eigendecompose(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row, col", [(0, 1), (1, 0), (0, 0), (1, 1)])
    def test_rejects_non_finite_before_eigh(self, bad, row, col, monkeypatch):
        def eigh(_):
            raise AssertionError("eigh reached")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        b = np.eye(2)
        b[row, col] = bad
        with pytest.raises(InputError, match="non-finite"):
            eigendecompose(b)


    def test_rejects_empty_matrix(self):
        with pytest.raises(InputError, match="empty"):
            eigendecompose(np.zeros((0, 0)))


class TestChooseScaling:
    def test_formula(self):
        eig = eigendecompose(np.diag([0.5, 1.0]))
        scaling = choose_scaling(eig, alpha=2)
        assert scaling.t == pytest.approx(2 * np.pi * 3 / 4)
        assert scaling.c == pytest.approx(1 / 3)
        assert scaling.alpha == 2

    def test_top_eigenvalue_maps_to_top_clock_integer(self, rng):
        for alpha in (1, 3, 5):
            lam_max = float(rng.uniform(0.5, 100))
            eig = eigendecompose(np.diag([lam_max / 3, lam_max]))
            scaling = choose_scaling(eig, alpha)
            phase = lam_max * scaling.t / (2 * np.pi) * 2**alpha
            assert phase == pytest.approx(2**alpha - 1, rel=1e-12)
            assert lambda_of_clock(2**alpha - 1, scaling) == pytest.approx(
                lam_max, rel=1e-12
            )

    def test_wscc9_spectrum_fits_clock(self, wscc9_system):
        eig = eigendecompose(wscc9_system.b)
        scaling = choose_scaling(eig, alpha=5)
        phases = eig.lambdas * scaling.t / (2 * np.pi) * 32
        assert np.all(phases > 0)
        assert np.all(phases <= 31 + 1e-9)

    def test_c_is_clock_one_eigenvalue(self):
        eig = eigendecompose(np.diag([1.0, 7.3]))
        scaling = choose_scaling(eig, alpha=4)
        assert scaling.c == pytest.approx(lambda_of_clock(1, scaling), rel=1e-14)

    def test_clock_grid_is_linear(self):
        eig = eigendecompose(np.diag([1.0, 2.0]))
        scaling = choose_scaling(eig, alpha=3)
        for m in range(1, 8):
            assert lambda_of_clock(m, scaling) == pytest.approx(
                m * lambda_of_clock(1, scaling), rel=1e-14
            )

    def test_t_override_echoed(self):
        eig = eigendecompose(np.diag([0.25, 0.5]))
        scaling = choose_scaling(eig, alpha=3, t_override=np.pi)
        assert scaling.t == np.pi

    def test_t_override_overflowing_clock_rejected(self):
        eig = eigendecompose(np.diag([0.5, 1.0]))
        good_t = choose_scaling(eig, alpha=3).t
        with pytest.raises(InputError, match="overflows"):
            choose_scaling(eig, alpha=3, t_override=good_t * 1.01)

    def test_nonpositive_t_rejected(self):
        eig = eigendecompose(np.diag([0.5, 1.0]))
        for t in (-1.0, float("nan")):
            with pytest.raises(InputError, match="t must be positive"):
                choose_scaling(eig, alpha=3, t_override=t)

    def test_c_override_bounds(self):
        eig = eigendecompose(np.diag([0.5, 1.0]))
        default = choose_scaling(eig, alpha=3)
        smaller = choose_scaling(eig, alpha=3, c_override=default.c / 2)
        assert smaller.c == default.c / 2
        with pytest.raises(InputError, match="c must lie"):
            choose_scaling(eig, alpha=3, c_override=default.c * 2)
        with pytest.raises(InputError, match="c must lie"):
            choose_scaling(eig, alpha=3, c_override=0.0)

    def test_alpha_must_be_positive(self):
        eig = eigendecompose(np.diag([0.5, 1.0]))
        with pytest.raises(InputError):
            choose_scaling(eig, alpha=0)

    # (alpha, matrix): 2^alpha * lambda_max overflows on wscc9 (lambda_max
    # ~ 53.9) from alpha = 1019, and 2 pi 2^alpha on diag(0.5, 1) at 1023.
    BAD_ALPHAS = [(a, "diag") for a in (2.5, "3", None, 1024, 10**6)]
    BAD_ALPHAS += [(a, "wscc9") for a in range(1019, 1024)] + [(1023, "diag")]

    @pytest.mark.parametrize("alpha, matrix", BAD_ALPHAS, ids=[
        f"{a}" if m == "diag" else f"{m}-{a}" for a, m in BAD_ALPHAS
    ])
    def test_alpha_must_be_an_int_whose_power_fits_a_float(self, wscc9_system, alpha, matrix):
        b = wscc9_system.b if matrix == "wscc9" else np.diag([0.5, 1.0])
        eig = eigendecompose(b)
        with pytest.raises(InputError, match="alpha"):
            choose_scaling(eig, alpha=alpha)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qft_matches_dense_dft(n):
    from helpers import dense_circuit

    circuit = Circuit(n, _qft_gates(tuple(range(n))))
    size = 2**n
    omega = np.exp(2j * np.pi / size)
    dft = np.array(
        [[omega ** (j * k) for j in range(size)] for k in range(size)]
    ) / np.sqrt(size)
    np.testing.assert_allclose(dense_circuit(circuit), dft, atol=1e-12)


class TestQpe:
    def test_eigenstate_reads_its_clock_integer(self):
        # lambda_min = lambda_max / (2^alpha - 1) sits exactly on clock 1.
        eig = eigendecompose(np.diag([1.0 / 7.0, 1.0]))
        scaling = choose_scaling(eig, alpha=3)
        qpe = build_qpe(eig, scaling)
        assert qpe.num_qubits == 4  # 1 solution + 3 clock
        state = apply_circuit(zero_state(4), qpe)  # input |0> = eigenstate
        # Probability of clock value 1 (clock bits are qubits 1..3).
        assert abs(state[0b0010]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_two_atom_clock_distribution(self, rng):
        # Both eigenvalues exactly representable: clock mass splits by |p_j|^2.
        eig = eigendecompose(np.diag([2.0 / 7.0, 1.0]))
        scaling = choose_scaling(eig, alpha=3)
        a, b = 0.6, -0.8
        circuit = Circuit(4)
        circuit.extend(prepare_state([a, b]).gates)
        circuit.extend(build_qpe(eig, scaling).gates)
        state = apply_circuit(zero_state(4), circuit)
        probs = np.abs(state.reshape(8, 2)) ** 2  # [clock value, solution bit]
        clock_mass = probs.sum(axis=1)
        assert clock_mass[2] == pytest.approx(a**2, abs=1e-9)
        assert clock_mass[7] == pytest.approx(b**2, abs=1e-9)
        assert clock_mass[[0, 1, 3, 4, 5, 6]].sum() == pytest.approx(0.0, abs=1e-9)

    def test_halfway_eigenvalue_leaks_symmetrically(self):
        # Phase exactly between clock integers 10 and 11 at alpha = 4; the
        # two nearest bins carry the bulk of the mass, split evenly.  The
        # masses are pinned as regression values from this simulator.
        eig = eigendecompose(np.diag([0.25, 1.0]))
        t = 2 * np.pi * 10.5 / 16
        scaling = choose_scaling(eig, alpha=4, t_override=t)
        circuit = Circuit(5, [x(0)])
        circuit.extend(build_qpe(eig, scaling).gates)
        state = apply_circuit(zero_state(5), circuit)
        probs = np.abs(state.reshape(16, 2)) ** 2
        clock_mass = probs.sum(axis=1)
        assert clock_mass[10] == pytest.approx(0.4065893317180361, abs=1e-12)
        assert clock_mass[11] == pytest.approx(0.4065893317180361, abs=1e-12)
        assert clock_mass[10] + clock_mass[11] == pytest.approx(
            0.8131786634360727, abs=1e-12
        )
        assert clock_mass[10] + clock_mass[11] >= 0.40

    def test_rejects_non_power_of_two_dimension(self):
        eig = eigendecompose(np.diag([1.0, 2.0, 3.0]))
        scaling = choose_scaling(eig, alpha=3)
        with pytest.raises(InputError, match="power of two"):
            build_qpe(eig, scaling)

    def test_pipeline_refuses_a_target_of_another_size(self):
        # Sized from p_unit, 8 eigenpairs and 4 entries put the QPE clock on
        # qubits 3-5 and the ancilla rotation on a clock qubit.
        eig = eigendecompose(np.diag(np.arange(1.0, 9.0)))
        with pytest.raises(InputError, match="4 entries for 8 eigenpairs"):
            build_hhl_circuit(eig, np.full(4, 0.5), choose_scaling(eig, 3))


class TestReciprocalRotation:
    @pytest.fixture
    def scaling(self):
        return choose_scaling(eigendecompose(np.diag([0.5, 2.0])), alpha=3)

    def test_angle_zero_for_clock_zero(self, scaling):
        gate = build_reciprocal_rotation(scaling, clock=(0, 1, 2), ancilla=3)
        assert gate.angles[0] == 0.0

    def test_angle_pi_where_grid_meets_c(self, scaling):
        gate = build_reciprocal_rotation(scaling, clock=(0, 1, 2), ancilla=3)
        assert gate.angles[1] == pytest.approx(np.pi)

    @pytest.mark.parametrize("lowered", [False, True])
    def test_ancilla_amplitude_is_c_over_lambda(self, scaling, lowered):
        gate = build_reciprocal_rotation(scaling, clock=(0, 1, 2), ancilla=3)
        circuit = Circuit(4, [gate])
        if lowered:
            circuit = lower_to_basis(circuit)
        for m in range(1, 8):
            state = zero_state(4)
            state[m] = 1.0  # clock register holds integer m
            out = apply_circuit(state, circuit)
            expected = scaling.c / lambda_of_clock(m, scaling)
            assert abs(out[m + 8]) == pytest.approx(expected, abs=1e-12)


class TestRunHhl:
    def test_eigenstate_input_recovered_exactly(self):
        system = diag_system([1.0, 0.5], [1.0, 0.0])
        result = run_hhl(system, HHLConfig(alpha=3))
        np.testing.assert_allclose(result.solution_unit, [1.0, 0.0], atol=1e-9)
        assert result.fidelity == pytest.approx(1.0, abs=1e-9)
        assert result.residual_clock_leak <= 1e-10

    def test_matches_classical_solve_on_grid_spectrum(self, rng):
        # Eigenvalues 1/2 and 1/4 both sit on the clock grid once t = pi
        # (clock integers 2 and 1 at alpha = 3).
        basis, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        b = basis @ np.diag([0.25, 0.5]) @ basis.T
        p = rng.normal(size=2)
        p /= np.linalg.norm(p)
        system = ReducedSystem(b=b, p=p, bus_order=(2, 3))
        result = run_hhl(system, HHLConfig(alpha=3, t_override=np.pi))
        classical = solve_dc(system)
        expected_unit = classical / np.linalg.norm(classical)
        sign = np.sign(np.dot(expected_unit, result.solution_unit))
        np.testing.assert_allclose(
            result.solution_unit, sign * expected_unit, atol=1e-8
        )
        assert result.recovered_norm == pytest.approx(
            np.linalg.norm(classical), abs=1e-8
        )

    @pytest.mark.parametrize("dim", [2, 4])
    def test_exact_spectrum_suite(self, rng, dim):
        alpha = 4
        for _ in range(5):
            system = exact_grid_system(rng, dim, alpha)
            result = run_hhl(system, HHLConfig(alpha=alpha))
            classical = solve_dc(system)
            unit = classical / np.linalg.norm(classical)
            sign = np.sign(np.dot(unit, result.solution_unit))
            np.testing.assert_allclose(
                result.solution_unit, sign * unit, atol=1e-8
            )
            assert result.residual_clock_leak <= 1e-10
            # Ancilla-success probability from the eigenbasis projections.
            eig = eigendecompose(system.b)
            c = result.config["c"]
            proj = eig.vectors.T @ (system.p / np.linalg.norm(system.p))
            expected_p = c**2 * np.sum((proj / eig.lambdas) ** 2)
            assert result.success_probability == pytest.approx(
                expected_p, abs=1e-9
            )
            assert result.recovered_norm == pytest.approx(
                np.linalg.norm(classical), rel=0.02
            )

    def test_norm_recovery_rebuilds_angles_elementwise(self, rng):
        system = exact_grid_system(rng, 4, alpha=4)
        result = run_hhl(system, HHLConfig(alpha=4))
        classical = solve_dc(system)
        rebuilt = result.recovered_norm * result.solution_unit
        if np.dot(rebuilt, classical) < 0:
            rebuilt = -rebuilt
        mask = np.abs(classical) > 0.01
        np.testing.assert_allclose(rebuilt[mask], classical[mask], rtol=0.02)

    def test_uncompute_roundtrip_is_identity(self, rng):
        # Phase estimation followed by its inverse must restore |p> even for
        # eigenvalues that fall between clock grid points.
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        b = basis @ np.diag([0.31, 0.77, 1.13, 2.41]) @ basis.T
        eig = eigendecompose(b)
        scaling = choose_scaling(eig, alpha=3)
        qpe = build_qpe(eig, scaling)
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        start = apply_circuit(zero_state(5), prepare_deep(p, width=5))
        state = apply_circuit(start, widen(qpe, 5))
        state = apply_circuit(state, widen(qpe.inverse(), 5))
        np.testing.assert_allclose(state, start, atol=1e-9)

    def test_padding_to_next_power_of_two(self, rng):
        system = exact_grid_system(rng, 3, alpha=4)
        result = run_hhl(system, HHLConfig(alpha=4))
        assert len(result.solution_unit) == 3
        assert result.config["beta"] == 2
        classical = solve_dc(system)
        unit = classical / np.linalg.norm(classical)
        sign = np.sign(np.dot(unit, result.solution_unit))
        np.testing.assert_allclose(result.solution_unit, sign * unit, atol=1e-8)

    def test_solution_sign_convention(self, rng):
        system = exact_grid_system(rng, 2, alpha=3)
        result = run_hhl(system, HHLConfig(alpha=3))
        largest = np.argmax(np.abs(result.solution_unit))
        assert result.solution_unit[largest] > 0

    def test_rejects_one_dimensional_system(self):
        system = ReducedSystem(b=np.array([[2.0]]), p=np.array([1.0]), bus_order=(2,))
        with pytest.raises(InputError):
            run_hhl(system)

    def test_rejects_zero_injections(self):
        system = diag_system([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(InputError, match="zero"):
            run_hhl(system)

    def test_statevector_budget_is_checked_before_any_build(self, wscc9_system, monkeypatch):
        def never(*args):
            raise AssertionError("built past the size budget")

        monkeypatch.setattr(hhl_module, "MAX_STATEVECTOR_BYTES", 16 * 2**6)
        monkeypatch.setattr(hhl_module, "eigendecompose", never)
        monkeypatch.setattr(hhl_module, "build_hhl_circuit", never)
        # wscc9 pads to beta = 3, so alpha = 3 needs 7 qubits, 2048 bytes.
        with pytest.raises(InputError, match=r"7 qubits needs a 2048-byte statevector"):
            plan_hhl(wscc9_system, HHLConfig(alpha=3))
        monkeypatch.undo()
        assert plan_hhl(wscc9_system, HHLConfig(alpha=3))[0].num_qubits == 7

    @pytest.mark.parametrize("alpha", [2.5, "3", None])
    def test_non_int_alpha_rejected(self, wscc9_system, alpha):
        with pytest.raises(InputError, match="alpha must be an int"):
            plan_hhl(wscc9_system, HHLConfig(alpha=alpha))

    # (system dimension, alpha, bytes): wscc9 (n = 8) needs no padding, and
    # n = 3 pads to 4, which must not run an eigendecomposition either.
    HUGE_ALPHAS = [
        (8, 60, str(16 * 2**64)),
        (8, 61, "2^69"),
        (8, 10**9, "2^1000000008"),
        (3, 10**9, "2^1000000007"),
    ]

    @pytest.mark.parametrize("n, alpha, state_bytes", HUGE_ALPHAS, ids=[
        f"{a}-{s}" if n == 8 else f"n{n}-{a}-{s}" for n, a, s in HUGE_ALPHAS
    ])
    def test_huge_alpha_is_refused_by_width(
        self, wscc9_system, monkeypatch, n, alpha, state_bytes
    ):
        def never(*args):
            raise AssertionError("built past the size budget")

        system = wscc9_system if n == 8 else diag_system([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
        monkeypatch.setattr(hhl_module, "eigendecompose", never)
        monkeypatch.setattr(np.linalg, "eigvalsh", never)
        width = (n - 1).bit_length() + alpha + 1
        message = f"{width} qubits needs a {state_bytes}-byte statevector"
        with pytest.raises(InputError, match=re.escape(message)):
            plan_hhl(system, HHLConfig(alpha=alpha))

    def test_tiny_c_starves_post_selection(self):
        system = diag_system([1.0, 0.5], [1.0, 0.0])
        with pytest.raises(PostSelectionError):
            run_hhl(system, HHLConfig(alpha=3, c_override=1e-10))


def widen(circuit, width):
    wide = Circuit(width)
    wide.extend(circuit.gates)
    return wide


def prepare_deep(p, width):
    return widen(prepare_state(p), width)


class TestWscc9Run:
    """Regression pins for the headline 9-bus experiment (noiseless)."""

    def test_fidelity(self, wscc9_hhl):
        assert wscc9_hhl.fidelity == pytest.approx(0.8529667277060066, abs=1e-9)

    def test_success_probability(self, wscc9_hhl):
        assert wscc9_hhl.success_probability == pytest.approx(
            0.021414191517717705, abs=1e-12
        )

    def test_residual_clock_leak(self, wscc9_hhl):
        assert wscc9_hhl.residual_clock_leak == pytest.approx(
            0.13944035606930694, abs=1e-12
        )

    def test_recovered_norm(self, wscc9_hhl):
        assert wscc9_hhl.recovered_norm == pytest.approx(
            0.2185409739588074, abs=1e-12
        )

    def test_circuit_metrics(self, wscc9_hhl):
        assert wscc9_hhl.metrics.width == 9
        assert wscc9_hhl.metrics.depth == 56963
        assert wscc9_hhl.metrics.cnot_count == 23550

    def test_config_echo(self, wscc9_hhl):
        config = wscc9_hhl.config
        assert config["alpha"] == 5
        assert config["beta"] == 3
        assert config["t_override"] is None
        assert config["readout"] == "exact"

    def test_serialization_schema(self, wscc9_hhl):
        data = wscc9_hhl.to_dict()
        assert set(data) == {
            "solution_unit",
            "success_probability",
            "recovered_norm",
            "fidelity",
            "residual_clock_leak",
            "metrics",
            "config",
        }
        assert set(data["metrics"]) == {"width", "depth", "cnot_count"}
        json.dumps(data)  # must be serializable as-is


@pytest.fixture(scope="module")
def fidelities(wscc9_system, wscc9_hhl):
    values = {5: wscc9_hhl.fidelity}
    for alpha in (3, 4, 6):
        values[alpha] = run_hhl(wscc9_system, HHLConfig(alpha=alpha)).fidelity
    return values


class TestAlphaSweep:
    """More clock bits resolve the off-grid 9-bus spectrum better."""

    PINNED = {
        3: 0.7218427204192934,
        4: 0.7468370351982756,
        5: 0.8529667277060066,
        6: 0.9996071579880378,
    }

    def test_pinned_values(self, fidelities):
        for alpha, expected in self.PINNED.items():
            assert fidelities[alpha] == pytest.approx(expected, abs=1e-9), alpha

    def test_monotone_within_sweep(self, fidelities):
        for lo, hi in [(3, 4), (4, 5), (5, 6)]:
            assert fidelities[hi] >= fidelities[lo] - 1e-6

    def test_saturates_for_deep_clocks(self, wscc9_system):
        # Fidelity levels off just below 1: the spectrum is irrational in
        # units of the clock grid, so some leakage always remains.
        result = run_hhl(wscc9_system, HHLConfig(alpha=7))
        assert result.fidelity >= 0.999


class TestFidelity:
    def test_identical(self):
        assert fidelity([1.0, 0.0], [1.0, 0.0]) == 1.0
        assert fidelity([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_reference_solution_pair(self):
        value = fidelity(REFERENCE_CLASSICAL, REFERENCE_QUANTUM)
        assert value == pytest.approx(0.8721329365456612, abs=1e-12)
        assert 0.8715 <= value <= 0.8735

    def test_scale_invariant(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert fidelity(a, b) == pytest.approx(fidelity(3 * a, b / 7), abs=1e-12)

    def test_sign_insensitive(self, rng):
        a = rng.normal(size=5)
        assert fidelity(a, -a) == pytest.approx(1.0)

    def test_symmetric(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        for reference, candidate in (([1.0, 2.0], [bad, 1.0]), ([bad, 1.0], [1.0, 2.0]),
                                     ([bad, 0.0], [bad, 0.0])):
            with pytest.raises(InputError, match="non-finite"):
                fidelity(reference, candidate)

    def test_clipped_to_one(self):
        v = [1 / math.sqrt(3)] * 3
        assert fidelity(v, v) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            fidelity([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("reference, candidate", [
        ([1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, 2.0]), ([[1.0, 2.0]], [[1.0, 2.0]]),
    ])
    def test_rejects_mismatched_shapes(self, reference, candidate):
        with pytest.raises(InputError, match="two vectors of one length"):
            fidelity(reference, candidate)


class TestEpsilonFromFidelity:
    def test_reference_fidelity(self):
        assert epsilon_from_fidelity(0.872159) == pytest.approx(
            0.3636082131636068, abs=1e-12
        )

    def test_high_fidelity(self):
        assert epsilon_from_fidelity(0.99) == pytest.approx(
            0.10012555011963764, abs=1e-12
        )

    def test_perfect_fidelity(self):
        assert epsilon_from_fidelity(1.0) == 0.0

    def test_worst_case(self):
        assert epsilon_from_fidelity(0.0) == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(InputError):
            epsilon_from_fidelity(bad)
