import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import qpf.complexity as complexity
from qpf.complexity import (
    ComplexityParams,
    CrossoverReport,
    base_speed_ratio,
    find_crossover,
    sweep,
    sweep_csv,
    t_classical,
    t_quantum,
)
from qpf.errors import InputError, NumericalError

# Parameter sets documented for the 9-bus comparison (classical conjugate
# gradient vs. HHL) and for the conservative crossover study.
CLASSICAL_9BUS = ComplexityParams(s=4, k=0.017, epsilon=0.1, log_eps_base="e")
QUANTUM_9BUS = ComplexityParams(s=4, k=0.017, epsilon=0.37, log_n_base="2")
CLASSICAL_CONSERVATIVE = ComplexityParams(s=6, k=0.1, epsilon=0.1, log_eps_base="e")
QUANTUM_CONSERVATIVE = ComplexityParams(s=6, k=0.1, epsilon=0.37, log_n_base="2")

params_strategy = st.builds(
    ComplexityParams,
    s=st.floats(1.0, 10.0),
    k=st.floats(0.01, 2.0),
    epsilon=st.floats(0.01, 0.9),
    log_n_base=st.sampled_from(["2", "e", "10"]),
    log_eps_base=st.sampled_from(["2", "e", "10"]),
)


class TestParams:
    def test_defaults(self):
        p = ComplexityParams(s=1, k=1, epsilon=0.5)
        assert p.log_n_base == "2"
        assert p.log_eps_base == "e"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": 0.5, "k": 1, "epsilon": 0.5},
            {"s": 1, "k": 0, "epsilon": 0.5},
            {"s": 1, "k": -1, "epsilon": 0.5},
            {"s": 1, "k": 1, "epsilon": 0.0},
            {"s": 1, "k": 1, "epsilon": 1.0},  # open interval: 1 excluded
            {"s": 1, "k": 1, "epsilon": 0.5, "log_n_base": "3"},
            {"s": 1, "k": 1, "epsilon": 0.5, "log_eps_base": "ln"},
            {"s": math.inf, "k": 1, "epsilon": 0.5},
            {"s": math.nan, "k": 1, "epsilon": 0.5},
            {"s": 1, "k": math.inf, "epsilon": 0.5},
            {"s": 1, "k": math.nan, "epsilon": 0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InputError):
            ComplexityParams(**kwargs)


class TestCostModels:
    def test_classical_9bus_value(self):
        assert t_classical(8, CLASSICAL_9BUS) == pytest.approx(
            1.2526062905887612, rel=1e-12
        )
        assert t_classical(8, CLASSICAL_9BUS) == pytest.approx(1.2526, abs=5e-5)

    def test_classical_unit_log_term(self):
        p = ComplexityParams(s=1, k=1, epsilon=1 / math.e, log_eps_base="e")
        assert t_classical(2, p) == pytest.approx(2.0, rel=1e-12)

    def test_classical_linear_in_n(self):
        assert t_classical(16, CLASSICAL_9BUS) == pytest.approx(
            2 * t_classical(8, CLASSICAL_9BUS), rel=1e-12
        )

    def test_quantum_9bus_value(self):
        assert t_quantum(8, QUANTUM_9BUS) == pytest.approx(
            0.0374918918918919, rel=1e-12
        )

    def test_quantum_unit_case(self):
        p = ComplexityParams(s=1, k=1, epsilon=0.5, log_n_base="2")
        assert t_quantum(2, p) == pytest.approx(2.0, rel=1e-12)

    def test_quantum_log_squaring(self):
        # log(n^2) = 2 log(n) in any base.
        for base in ("2", "e", "10"):
            p = ComplexityParams(s=2, k=0.3, epsilon=0.2, log_n_base=base)
            assert t_quantum(49, p) == pytest.approx(2 * t_quantum(7, p), rel=1e-12)

    @pytest.mark.parametrize("n", [1.0, 1.99, 0.0, -3.0])
    def test_domain_starts_at_two(self, n):
        with pytest.raises(InputError):
            t_classical(n, CLASSICAL_9BUS)
        with pytest.raises(InputError):
            t_quantum(n, QUANTUM_9BUS)

    @pytest.mark.parametrize("call, n", [
        (lambda: t_quantum(2.0, ComplexityParams(1e200, 0.1, 0.37)), "2"),  # s**2 overflows
        (lambda: t_classical(1e308, CLASSICAL_CONSERVATIVE), "1e+308"),
        (lambda: t_classical(np.array([4.0, 1e308]), CLASSICAL_CONSERVATIVE), "1e+308"),
        (lambda: base_speed_ratio(8.0, CLASSICAL_CONSERVATIVE,
                                  ComplexityParams(1, 1e-200, 0.5)), "8"),  # k**2 is 0
    ])
    def test_cost_that_is_not_finite_raises_naming_n(self, call, n):
        with pytest.raises(NumericalError, match=rf"model cost at n = {re.escape(n)} is not"):
            call()

    def test_ndarray_n_gives_the_point_values(self):
        n = np.array([[2.0, 8.0], [50.0, 1e6]])
        for model, p in ((t_classical, CLASSICAL_9BUS), (t_quantum, QUANTUM_9BUS)):
            assert model(n, p).tolist() == [[model(v, p) for v in row] for row in n.tolist()]
            assert model(np.array([]), p).shape == (0,)
            with pytest.raises(InputError):
                model(np.array([3.0, 1.99]), p)
            with pytest.raises(InputError):
                model(np.array([3.0, math.nan]), p)

    @given(p=params_strategy, n=st.floats(2.0, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_costs_positive(self, p, n):
        assert t_classical(n, p) > 0
        assert t_quantum(n, p) > 0

    @given(p=params_strategy, n=st.floats(2.0, 1e5), factor=st.floats(1.1, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_costs_increase_with_n(self, p, n, factor):
        assert t_classical(n * factor, p) > t_classical(n, p)
        assert t_quantum(n * factor, p) > t_quantum(n, p)

    @given(p=params_strategy, factor=st.floats(1.1, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_costs_increase_with_s_k_and_accuracy(self, p, factor):
        import dataclasses

        for field in ("s", "k"):
            bumped = dataclasses.replace(p, **{field: getattr(p, field) * factor})
            assert t_classical(10, bumped) > t_classical(10, p)
            assert t_quantum(10, bumped) > t_quantum(10, p)
        tighter = dataclasses.replace(p, epsilon=p.epsilon / factor)
        assert t_classical(10, tighter) > t_classical(10, p)
        assert t_quantum(10, tighter) > t_quantum(10, p)


class TestBaseSpeedRatio:
    def test_9bus_reference(self):
        ratio = base_speed_ratio(8, CLASSICAL_9BUS, QUANTUM_9BUS)
        assert ratio == pytest.approx(33.41005821207047, rel=1e-12)
        assert 33 <= ratio <= 35

    def test_is_cost_quotient(self):
        ratio = base_speed_ratio(50, CLASSICAL_9BUS, QUANTUM_9BUS)
        assert ratio == pytest.approx(
            t_classical(50, CLASSICAL_9BUS) / t_quantum(50, QUANTUM_9BUS)
        )

    def test_invariant_under_matched_prefactor_scaling(self):
        # Doubling the classical prefactor via k while doubling the quantum
        # k^2 prefactor leaves the ratio unchanged.
        import dataclasses

        ratio = base_speed_ratio(20, CLASSICAL_9BUS, QUANTUM_9BUS)
        scaled = base_speed_ratio(
            20,
            dataclasses.replace(CLASSICAL_9BUS, k=CLASSICAL_9BUS.k * 2),
            dataclasses.replace(QUANTUM_9BUS, k=QUANTUM_9BUS.k * math.sqrt(2)),
        )
        assert scaled == pytest.approx(ratio, rel=1e-12)

    def test_shape_is_n_over_log_n(self):
        # With every parameter and base matched, the ratio only depends on
        # n through n / log(n), so it scales accordingly.
        p = ComplexityParams(s=1, k=1, epsilon=0.5, log_n_base="e", log_eps_base="e")
        r1 = base_speed_ratio(10, p, p)
        r2 = base_speed_ratio(100, p, p)
        assert r2 / r1 == pytest.approx(
            (100 / math.log(100)) / (10 / math.log(10)), rel=1e-12
        )


class TestFindCrossover:
    def test_conservative_crossover_location(self):
        report = find_crossover(CLASSICAL_CONSERVATIVE, QUANTUM_CONSERVATIVE, 34.0)
        assert isinstance(report, CrossoverReport)
        # Independent oracle: scipy's Brent root of the same gap function.
        gap = lambda n: 34.0 * t_quantum(n, QUANTUM_CONSERVATIVE) - t_classical(
            n, CLASSICAL_CONSERVATIVE
        )
        reference = brentq(gap, 2.0, 1.0e7, xtol=1e-10)
        assert report.n_star == pytest.approx(reference, rel=1e-6)
        assert 100 <= report.n_star <= 300

    def test_report_contents(self):
        report = find_crossover(CLASSICAL_CONSERVATIVE, QUANTUM_CONSERVATIVE, 34.0)
        assert report.constant_ratio == 34.0
        assert "log_e" in report.convention and "log_2" in report.convention
        assert len(report.samples) == 200
        # The grid is priced in one call; each sample keeps its one-point bits.
        assert report.samples == [
            (n, t_classical(n, CLASSICAL_CONSERVATIVE), 34.0 * t_quantum(n, QUANTUM_CONSERVATIVE))
            for n in np.geomspace(2.0, 1e7, 200).tolist()
        ]
        # Sampled costs flip order exactly once, at n_star.
        below = [c < q for n, c, q in report.samples if n < report.n_star]
        above = [c > q for n, c, q in report.samples if n > report.n_star]
        assert all(below) and all(above)

    def test_each_model_runs_once_per_point(self, monkeypatch):
        seen = []
        for name in ("_classical", "_quantum"):  # the formulas, unguarded
            model = getattr(complexity, name)
            monkeypatch.setattr(
                complexity, name,
                lambda n, p, model=model, name=name:
                    seen.extend((name, v) for v in np.ravel(n).tolist()) or model(n, p),
            )
        find_crossover(CLASSICAL_CONSERVATIVE, QUANTUM_CONSERVATIVE, 34.0)
        assert len(seen) == len(set(seen)) > 2 * complexity.CROSSOVER_SAMPLES

    def test_against_brute_force_scan(self):
        classical = ComplexityParams(s=2, k=0.5, epsilon=0.25, log_eps_base="e")
        quantum = ComplexityParams(s=1.5, k=0.8, epsilon=0.3, log_n_base="2")
        report = find_crossover(classical, quantum, 10.0)
        # Oracle: dense scan of an independently written gap expression.
        grid = np.arange(2.0, 1000.0, 1e-3)
        gap = 10.0 * (np.log2(grid) * 1.5**2 * 0.8**2 / 0.3) - (
            grid * 2 * 0.5 * np.log(1 / 0.25)
        )
        flip = np.nonzero(np.diff(np.sign(gap)))[0]
        assert len(flip) == 1
        assert abs(report.n_star - grid[flip[0]]) <= 2e-3

    @given(
        n0=st.floats(5.0, 1e5),
        classical=params_strategy,
        quantum=params_strategy,
    )
    @settings(max_examples=60, deadline=None)
    def test_duality_with_base_speed_ratio(self, n0, classical, quantum):
        # Feeding the break-even ratio at n0 back in must return n0 itself.
        # (n0 >= 5 keeps the second, sub-n=2 branch of n/log n out of range.)
        ratio = base_speed_ratio(n0, classical, quantum)
        report = find_crossover(classical, quantum, ratio)
        assert report.n_star == pytest.approx(n0, rel=1e-4)

    def test_crossover_whose_neighbour_gaps_multiply_to_zero(self):
        # Costs near 1e-170: a product of neighbouring gaps underflows to 0,
        # which must not hide the sign change.  Scaled by 1e170 the models are
        # equal, so the crossover is where that of the unit models is.
        tiny = find_crossover(ComplexityParams(s=1, k=1e-170, epsilon=0.5),
                              ComplexityParams(s=1, k=1e-85, epsilon=0.5), 1.0)
        unit = find_crossover(ComplexityParams(s=1, k=1, epsilon=0.5),
                              ComplexityParams(s=1, k=1, epsilon=0.5), 1.0)
        assert tiny.n_star == pytest.approx(unit.n_star, rel=1e-5)

    def test_no_crossover_reports_dominant_side(self):
        # Near-free quantum model: the classical cost is the dominant term
        # over the entire search range.
        quantum = ComplexityParams(s=1, k=0.001, epsilon=0.9, log_n_base="2")
        with pytest.raises(NumericalError, match="no crossover.*classical"):
            find_crossover(CLASSICAL_CONSERVATIVE, quantum, 1.0)

    def test_quantum_dominant_side(self):
        # Ratio large enough that scaled quantum cost stays on top everywhere.
        classical = ComplexityParams(s=1, k=0.001, epsilon=0.5, log_eps_base="e")
        with pytest.raises(NumericalError, match="no crossover.*quantum"):
            find_crossover(classical, QUANTUM_CONSERVATIVE, 1e9)

    @pytest.mark.parametrize(
        "model",
        [
            lambda ratio: find_crossover(CLASSICAL_CONSERVATIVE, QUANTUM_CONSERVATIVE, ratio),
            lambda ratio: sweep(
                CLASSICAL_CONSERVATIVE, QUANTUM_CONSERVATIVE, ratio, (10.0, 2000.0), 5
            ),
        ],
        ids=["find_crossover", "sweep"],
    )
    @pytest.mark.parametrize("ratio", [0.0, -5.0, math.inf, math.nan])
    def test_rejects_nonpositive_ratio(self, model, ratio):
        with pytest.raises(InputError, match="constant_ratio"):
            model(ratio)


class TestSweep:
    def test_single_row(self):
        rows = sweep(CLASSICAL_9BUS, QUANTUM_9BUS, 34.0, (2.0, 2.0), 1)
        assert len(rows) == 1
        assert rows[0][0] == 2.0

    def test_crosses_once_at_n_star(self):
        report = find_crossover(CLASSICAL_CONSERVATIVE, QUANTUM_CONSERVATIVE, 34.0)
        rows = sweep(
            CLASSICAL_CONSERVATIVE, QUANTUM_CONSERVATIVE, 34.0, (10.0, 2000.0), 100
        )
        signs = [np.sign(c - q) for _, c, q in rows]
        flips = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
        assert len(flips) == 1
        low, high = rows[flips[0] - 1][0], rows[flips[0]][0]
        assert low <= report.n_star <= high

    def test_costs_positive_and_increasing(self):
        rows = sweep(CLASSICAL_9BUS, QUANTUM_9BUS, 34.0, (10.0, 2000.0), 50)
        ns = [r[0] for r in rows]
        classical = [r[1] for r in rows]
        quantum = [r[2] for r in rows]
        assert ns == sorted(ns)
        assert all(c > 0 and q > 0 for c, q in zip(classical, quantum))
        assert classical == sorted(classical)
        assert quantum == sorted(quantum)

    @pytest.mark.parametrize("base", ["2", "e", "10"])
    def test_rows_have_the_bits_of_one_point_evaluations(self, base):
        # sweep runs the models once over its grid; each row must still equal
        # the scalar models at its n, bit for bit (a SIMD log can differ).
        quantum = ComplexityParams(s=6, k=0.1, epsilon=0.37, log_n_base=base)
        classical = ComplexityParams(s=6, k=0.1, epsilon=0.1, log_eps_base=base)
        rows = sweep(classical, quantum, 34.0, (2.0, 1e9), 10000)
        assert rows == [(n, t_classical(n, classical), 34.0 * t_quantum(n, quantum))
                        for n, _, _ in rows]
        assert all(type(row) is tuple and all(type(v) is float for v in row) for row in rows)

    def test_range_validation(self):
        with pytest.raises(InputError):
            sweep(CLASSICAL_9BUS, QUANTUM_9BUS, 34.0, (1.0, 100.0), 10)
        with pytest.raises(InputError):
            sweep(CLASSICAL_9BUS, QUANTUM_9BUS, 34.0, (10.0, math.inf), 3)
        with pytest.raises(InputError):
            sweep(CLASSICAL_9BUS, QUANTUM_9BUS, 34.0, (10.0, 100.0), 0)


class TestSweepCsv:
    def test_header_and_shape(self):
        rows = sweep(CLASSICAL_9BUS, QUANTUM_9BUS, 34.0, (10.0, 2000.0), 5)
        text = sweep_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "n,classical_cost,quantum_cost_scaled"
        assert len(lines) == 7  # header + 5 rows + trailing newline
        assert lines[-1] == ""
        assert "\r" not in text

    def test_six_significant_digits_decimal_notation(self):
        text = sweep_csv([(1234567.0, 0.0374918918918919, 179.2466821061855)])
        assert text.splitlines()[1] == "1234570,0.0374919,179.247"

    def test_deterministic(self):
        rows = sweep(CLASSICAL_CONSERVATIVE, QUANTUM_CONSERVATIVE, 34.0, (10, 2000), 40)
        assert sweep_csv(rows) == sweep_csv(rows)

    # Every cell against numpy's positional formatting, called per cell here.
    @staticmethod
    def _per_cell(rows) -> str:
        cells = [
            ",".join(np.format_float_positional(
                v, precision=6, unique=False, fractional=False, trim="-") for v in row)
            for row in rows
        ]
        return "\n".join(["n,classical_cost,quantum_cost_scaled", *cells]) + "\n"

    EDGE_ROWS = [
        (0.0, -0.0, 5e-324),  # signed zeros and the smallest subnormal
        (2.2250738585072014e-308, 1e300, -1e300),
        (1234565.0, 1234575.0, 999999.5),  # round-half-even ties, exponent range
        (9.999995e-05, 1e-4, 999999.4),
        (0.0009765625, 123456.5, 0.5),  # ties in plain %.6g range
        (math.inf, -math.inf, math.nan),
    ]

    def test_edge_rows_match_per_cell(self):
        text = sweep_csv(self.EDGE_ROWS)
        assert text == self._per_cell(self.EDGE_ROWS)
        assert text.splitlines()[3] == "1234560,1234580,1000000"

    @given(
        rows=st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=12),
        kind=st.sampled_from(["tuples", "lists", "array"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_cell_positional_format(self, rows, kind):
        rows = rows + self.EDGE_ROWS
        given_rows = {
            "tuples": rows,
            "lists": [list(row) for row in rows],
            "array": np.array(rows),
        }[kind]
        assert sweep_csv(given_rows) == self._per_cell(rows)
