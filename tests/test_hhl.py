import dataclasses
import json
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

import qpf.hhl as hhl_module
from helpers import benchmark_ring, dense_unitary_deviation, exact_grid_system
from qpf.errors import InputError, NumericalError, PostSelectionError
from qpf.grid import ReducedSystem, solve_dc
from qpf.hhl import (
    MAX_SYSTEM_QUBITS,
    HHLConfig,
    HHLPlan,
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
    ControlledUnitary,
    apply_circuit,
    lower_to_basis,
    prepare_state,
    x,
    zero_state,
)
from qpf.qsim.circuit import MAX_QUBITS, UNITARY_TOL

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


def random_spd_system(rng, n):
    """SPD system of dimension n with a generic (off clock grid) spectrum in [0.5, 5]."""
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    b = basis @ np.diag(rng.uniform(0.5, 5.0, size=n)) @ basis.T
    return ReducedSystem(b=(b + b.T) / 2, p=rng.normal(size=n), bus_order=tuple(range(2, n + 2)))


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

    def test_symmetry_is_judged_against_the_largest_entry(self):
        # A last-bits skew of a 1e10 matrix is symmetric; a 1e-12 skew of a 1e-12 one is not.
        eig = eigendecompose([[3e10, -1e10 * (1 + 4e-16)], [-1e10, 2e10]])
        np.testing.assert_allclose(eig.lambdas, np.array([5 - 5**0.5, 5 + 5**0.5]) / 2 * 1e10,
                                   rtol=1e-12)
        with pytest.raises(InputError, match="symmetric"):
            eigendecompose([[3e-12, -2e-12], [-1e-12, 2e-12]])

    def test_skew_near_the_float_limit_is_judged_without_overflow(self):
        # b - b^T would overflow to inf here; halves of b and b^T do not.
        with pytest.raises(InputError, match="symmetric"):
            eigendecompose([[1e308, -1e308], [1e308, 1.0]])
        with pytest.raises(NumericalError, match="positive definite"):
            eigendecompose(np.zeros((2, 2)))

    def test_rejects_a_spectrum_past_the_float_range(self):
        # Finite entries whose largest eigenvalue, 2.5e308, is not a float.
        with pytest.raises(InputError, match="non-finite eigenvalue"):
            eigendecompose([[1.5e308, 1e308], [1e308, 1.5e308]])


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

    def test_overflowing_t_names_lambda_max(self):
        eig = eigendecompose(np.diag([1e-310, 1e-310]))
        with pytest.raises(InputError, match=r"^lambda_max = 1e-310 is too small: t overflows$"):
            choose_scaling(eig, alpha=3)

    def test_alpha_must_be_positive(self):
        eig = eigendecompose(np.diag([0.5, 1.0]))
        with pytest.raises(InputError):
            choose_scaling(eig, alpha=0)

    # (alpha, matrix): a clock of more than MAX_QUBITS qubits, on wscc9 and on
    # diag(0.5, 1), is refused whatever the spectrum, as are non-ints.
    BAD_ALPHAS = [(a, "diag") for a in (2.5, "3", None, MAX_QUBITS + 1, 1024, 10**6)]
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

    @staticmethod
    def assert_evolutions_are_exponentials(gates, b, scaling):
        # Clock bit k (qubit beta + k) controls the k-th evolution, e^{iBt 2^k}.
        beta = len(b).bit_length() - 1
        evolutions = [g for g in gates
                      if isinstance(g, ControlledUnitary) and len(g.targets) == beta]
        for k, gate in enumerate(evolutions[: scaling.alpha]):
            assert gate.controls == (beta + k,)
            want = expm(1j * b * scaling.t * 2**k)
            np.testing.assert_allclose(gate.u, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64, 128, 256])
    def test_evolutions_are_the_matrix_exponentials(self, rng, dim):
        system = exact_grid_system(rng, dim, 5)
        eig = eigendecompose(system.b)
        scaling = choose_scaling(eig, alpha=5)
        self.assert_evolutions_are_exponentials(build_qpe(eig, scaling).gates, system.b, scaling)

    def test_padded_wscc9_evolutions_are_the_matrix_exponentials(self, wscc9_system):
        circuit, scaling, beta, _ = plan_hhl(wscc9_system, HHLConfig(alpha=5))
        n = len(wscc9_system.p)
        padded = np.eye(2**beta) * np.linalg.eigvalsh(wscc9_system.b)[-1]
        padded[:n, :n] = wscc9_system.b
        self.assert_evolutions_are_exponentials(circuit.gates, padded, scaling)

    @pytest.mark.parametrize("case", ["wscc9-a5", "ring257-a7"])
    def test_every_evolution_meets_the_unitary_tolerance(self, wscc9_system, case):
        # The evolutions are made without a check of their own (their eigenbasis
        # is checked instead), so a Gram product written here reads each one.
        system, alpha = ((wscc9_system, 5) if case == "wscc9-a5"
                         else (benchmark_ring(257, 1008), 7))
        circuit, _, beta, _ = plan_hhl(system, HHLConfig(alpha=alpha))
        evolutions = [g.u for g in circuit.gates
                      if isinstance(g, ControlledUnitary) and len(g.targets) == beta]
        assert len(evolutions) == 2 * alpha  # the QPE's and its inverse's
        for u in evolutions:
            assert u.shape == (2**beta, 2**beta)
            assert dense_unitary_deviation(u) <= UNITARY_TOL

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

        monkeypatch.setattr(hhl_module, "MAX_QUBITS", 6)
        monkeypatch.setattr(hhl_module, "eigendecompose", never)
        monkeypatch.setattr(hhl_module, "build_hhl_circuit", never)
        # wscc9 pads to beta = 3, so alpha = 3 needs 7 qubits.
        message = r"^HHL circuit of 7 qubits is over the 6-qubit limit$"
        with pytest.raises(InputError, match=message):
            plan_hhl(wscc9_system, HHLConfig(alpha=3))
        monkeypatch.undo()
        assert plan_hhl(wscc9_system, HHLConfig(alpha=3))[0].num_qubits == 7

    @pytest.mark.parametrize("alpha", [2.5, "3", None])
    def test_non_int_alpha_rejected(self, wscc9_system, alpha):
        with pytest.raises(InputError, match="alpha must be an int"):
            plan_hhl(wscc9_system, HHLConfig(alpha=alpha))

    # (system dimension, alpha, bytes of the refused statevector, which the ids
    # show): wscc9 (n = 8) needs no padding, and n = 3 pads to 4, which must not
    # run an eigendecomposition either.
    HUGE_ALPHAS = [
        (8, 60, str(16 * 2**64)),
        (8, 61, "2^69"),
        (8, 10**9, "2^1000000008"),
        (3, 10**9, "2^1000000007"),
    ]

    @pytest.mark.parametrize("n, alpha", [(n, a) for n, a, _ in HUGE_ALPHAS], ids=[
        f"{a}-{s}" if n == 8 else f"n{n}-{a}-{s}" for n, a, s in HUGE_ALPHAS
    ])
    def test_huge_alpha_is_refused_by_width(self, wscc9_system, monkeypatch, n, alpha):
        def never(*args):
            raise AssertionError("built past the size budget")

        system = wscc9_system if n == 8 else diag_system([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
        monkeypatch.setattr(hhl_module, "eigendecompose", never)
        monkeypatch.setattr(np.linalg, "eigvalsh", never)
        width = (n - 1).bit_length() + alpha + 1
        message = f"HHL circuit of {width} qubits is over the {MAX_QUBITS}-qubit limit"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            plan_hhl(system, HHLConfig(alpha=alpha))

    def test_tiny_c_starves_post_selection(self):
        system = diag_system([1.0, 0.5], [1.0, 0.0])
        with pytest.raises(PostSelectionError):
            run_hhl(system, HHLConfig(alpha=3, c_override=1e-10))

    # (matrix scale, injection scale) applied to diag(1, 2) and p = (1, 1).
    @pytest.mark.parametrize("b_scale, p_scale", [
        (1.0, 1e-200), (1e300, 1.0), (1e-300, 1.0), (1.0, 1e200),
    ])
    def test_scales_near_the_float_range_change_only_the_norm(self, b_scale, p_scale):
        base = run_hhl(diag_system([1.0, 2.0], [1.0, 1.0]), HHLConfig(alpha=2))
        scaled = run_hhl(diag_system([b_scale, 2 * b_scale], [p_scale, p_scale]),
                         HHLConfig(alpha=2))
        for name in ("fidelity", "success_probability", "residual_clock_leak"):
            assert getattr(scaled, name) == pytest.approx(getattr(base, name), abs=1e-12), name
        np.testing.assert_allclose(scaled.solution_unit, base.solution_unit, atol=1e-12)
        assert scaled.recovered_norm == pytest.approx(
            base.recovered_norm * p_scale / b_scale, rel=1e-12)

    def test_non_finite_injection_norm_rejected(self):
        system = diag_system([1.0, 2.0], [1.7e308, 1.7e308])
        with pytest.raises(InputError, match="non-finite injection norm"):
            plan_hhl(system, HHLConfig(alpha=2))


def test_every_way_in_refuses_a_width_over_max_qubits(wscc9_system, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("allocated or decomposed past the width limit")

    eig = eigendecompose(np.diag([0.5, 1.0]))
    monkeypatch.setattr(np, "zeros", never)
    monkeypatch.setattr(hhl_module, "eigendecompose", never)
    for too_wide in (
        lambda: Circuit(MAX_QUBITS + 1),
        lambda: zero_state(MAX_QUBITS + 1),
        lambda: choose_scaling(eig, MAX_QUBITS + 1),
        lambda: plan_hhl(wscc9_system, HHLConfig(alpha=MAX_QUBITS - 3)),  # beta = 3
    ):
        with pytest.raises(InputError, match=rf"\b{MAX_QUBITS}\b"):
            too_wide()
    assert Circuit(MAX_QUBITS).num_qubits == MAX_QUBITS
    assert choose_scaling(eig, MAX_QUBITS).alpha == MAX_QUBITS
    monkeypatch.undo()
    monkeypatch.setattr(hhl_module, "build_hhl_circuit", lambda eig, p_unit, scaling: None)
    _, scaling, beta, _ = plan_hhl(wscc9_system, HHLConfig(alpha=MAX_QUBITS - 4))
    assert beta + scaling.alpha + 1 == MAX_QUBITS


class _ReachedEigh(Exception):
    pass


def test_a_system_over_max_system_qubits_is_refused_before_eigh(monkeypatch):
    # A ring of 2^10 + 1 buses reduces to 1,024 dims and plans; one bus more
    # needs an 11th solution qubit and is refused before its eigenbasis.
    at_limit = benchmark_ring(2**MAX_SYSTEM_QUBITS + 1, 5)
    over = benchmark_ring(2**MAX_SYSTEM_QUBITS + 2, 5)

    def reached(b):
        raise _ReachedEigh(b.shape)

    monkeypatch.setattr(np.linalg, "eigh", reached)
    with pytest.raises(_ReachedEigh, match=r"\(1024, 1024\)"):
        plan_hhl(at_limit, HHLConfig(alpha=1))
    with pytest.raises(InputError, match=r"^a system of dimension 1025 needs 11 solution "
                                         r"qubits, over the 10-qubit limit$"):
        plan_hhl(over, HHLConfig(alpha=1))


def test_a_plan_reads_by_name_and_by_position(wscc9_system):
    plan = plan_hhl(wscc9_system, HHLConfig(alpha=5))
    assert type(plan) is HHLPlan and plan._fields == ("circuit", "scaling", "beta", "p_norm")
    circuit, scaling, beta, p_norm = plan
    assert plan.circuit is circuit and plan.scaling is scaling
    assert (plan.beta, plan.p_norm) == (beta, p_norm) == (3, math.hypot(*wscc9_system.p))
    assert plan.circuit.num_qubits == 9 and plan.scaling.alpha == 5


def _with_dense_evolutions(circuit: Circuit) -> Circuit:
    """``circuit`` with each evolution made anew from its ``u`` as a matrix
    gate, which the simulator multiplies as a dense product."""
    return Circuit(circuit.num_qubits, [
        ControlledUnitary(g.controls, g.targets, g.u) if g.factored_form() is not None else g
        for g in circuit.gates])


# (buses, network seed, alpha): wscc9 at each alpha, and grid-scale-sim's rings
# at benchmark seeds 1 and 7 (network seed = benchmark seed * 1000 + beta).
_SOLVES = [(9, None, alpha) for alpha in range(1, 9)] + [
    (2**beta + 1, seed * 1000 + beta, 7) for seed in (1, 7) for beta in (6, 7, 8)]


@pytest.mark.parametrize("buses, network_seed, alpha", _SOLVES,
                         ids=[f"{b}-{s}-a{a}" for b, s, a in _SOLVES])
def test_a_plan_through_the_eigenbasis_solves_as_dense_evolutions(
        wscc9_system, buses, network_seed, alpha):
    system = wscc9_system if network_seed is None else benchmark_ring(buses, network_seed)
    plan = plan_hhl(system, HHLConfig(alpha=alpha))
    reference = solve_dc(system)
    outputs = []
    for circuit in (plan.circuit, _with_dense_evolutions(plan.circuit)):
        state = apply_circuit(zero_state(circuit.num_qubits), circuit)
        _, probability, leak, solution, _ = hhl_module._read_out(plan, state, system)
        outputs.append((state, fidelity(reference, solution), probability, leak))
    (state, *scores), (dense_state, *dense_scores) = outputs
    np.testing.assert_allclose(state, dense_state, rtol=0, atol=1e-12)
    np.testing.assert_allclose(scores, dense_scores, rtol=0, atol=1e-12)


class TestPadding:
    """A system of dimension n pads to 2^beta through its n x n eigendecomposition."""

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_one_eigh_on_the_unpadded_matrix(self, rng, monkeypatch, n):
        shapes = []
        eigh = np.linalg.eigh

        def counting(b):
            shapes.append(b.shape)
            return eigh(b)

        def never(*args):
            raise AssertionError("eigvalsh reached")

        monkeypatch.setattr(np.linalg, "eigh", counting)
        monkeypatch.setattr(np.linalg, "eigvalsh", never)
        circuit, _, beta, _ = plan_hhl(random_spd_system(rng, n), HHLConfig(alpha=2))
        assert shapes == [(n, n)]
        assert (beta, circuit.num_qubits) == ((n - 1).bit_length(), beta + 3)

    @pytest.mark.parametrize("n, alpha", [(3, 2), (3, 3), (5, 2), (6, 3), (7, 2)])
    def test_matches_the_explicitly_padded_system(self, rng, n, alpha):
        # The padded system written out: B beside a lambda_max identity block, p with zeros.
        system = random_spd_system(rng, n)
        dim = 2 ** (n - 1).bit_length()
        b_pad = np.eye(dim) * np.linalg.eigvalsh(system.b)[-1]
        b_pad[:n, :n] = system.b
        padded = ReducedSystem(b=b_pad, p=np.pad(system.p, (0, dim - n)),
                               bus_order=tuple(range(2, dim + 2)))
        got = run_hhl(system, HHLConfig(alpha=alpha))
        want = run_hhl(padded, HHLConfig(alpha=alpha))
        assert got.metrics == want.metrics
        for name in ("success_probability", "residual_clock_leak", "recovered_norm", "fidelity"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12), name
        np.testing.assert_allclose(got.solution_unit, want.solution_unit[:n], atol=1e-12)


def widen(circuit, width):
    wide = Circuit(width)
    wide.extend(circuit.gates)
    return wide


def prepare_deep(p, width):
    return widen(prepare_state(p), width)


class TestWscc9Run:
    """Regression pins for the headline 9-bus experiment (noiseless)."""

    def test_fidelity(self, wscc9_hhl):
        # The last bits depend on the BLAS build (one OpenBLAS build reads
        # ...7060086), so the pin holds to 1e-9 across builds; byte identity
        # is judged parent against change on one machine.
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

    def test_to_dict_keys_follow_the_fields_and_copy_config(self, wscc9_hhl):
        data = wscc9_hhl.to_dict()
        assert list(data) == [f.name for f in dataclasses.fields(wscc9_hhl)]
        data["config"]["alpha"] = -1
        assert wscc9_hhl.config["alpha"] == 5


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
        with pytest.raises(InputError, match="zero vector"):
            fidelity([], [])

    def test_scales_near_the_float_range(self):
        assert fidelity([1e-200, 0.0], [1.0, 0.0]) == 1.0
        assert fidelity([5e-324, 0.0], [1.0, 0.0]) == 1.0
        assert fidelity([1e200, 1e200], [1.0, 1.0]) == fidelity([1.0, 1.0], [1.0, 1.0])
        assert fidelity([1e308, -1e308], [1.0, 1.0]) == 0.0

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
