"""The four benchmark workloads.

Each one is a closed loop with a single client in one process: the next
operation starts when the previous one has returned.  A workload makes its
cases from the seed (``generate``), runs one case through qpf's public API
(``run``, the timed part) and compares the output with an oracle from
``oracles`` (``check``, untimed).  The first case is also the warm-up.  Expected values are computed once per case
by ``expect``, outside both the set-up and the measured time.

Calls go through module attributes (``grid.parse_network``) so that the
tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

import netgen
import oracles
from oracles import Mismatch
from qpf import cli, grid, hhl, qsim


class BadExit(Mismatch):
    """A CLI call returned a non-zero exit code."""


@dataclass
class Case:
    label: str
    inputs: object
    expected: object = None
    meta: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def exit_ok(result: tuple[int, str, str]) -> str:
    code, out, err = result
    if code != 0:
        raise BadExit(f"exit code {code}: {err.strip()}")
    return out


class Wscc9HHL:
    """``run_hhl`` on wscc9, cycling alpha over 3..6."""

    name = "wscc9-hhl"
    timeout_s = 20.0
    alphas = (3, 4, 5, 6)

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        system = grid.build_reduced_system(grid.load_fixture("wscc9"))
        return [Case(f"alpha={a}", (system, hhl.HHLConfig(alpha=a)), meta={"alpha": a})
                for a in self.alphas]

    def expect(self, case: Case) -> None:
        text = resources.files("qpf.data").joinpath("wscc9.json").read_text()
        b, p = oracles.dense_system(json.loads(text))
        case.expected = oracles.hhl_model(b, p, case.meta["alpha"])

    def run(self, case: Case):
        system, config = case.inputs
        return hhl.run_hhl(system, config)

    def check(self, case: Case, result) -> None:
        alpha = case.meta["alpha"]
        oracles.check_hhl(case.expected, result.fidelity, result.success_probability,
                          result.residual_clock_leak)
        oracles.check_close("pinned fidelity", result.fidelity,
                            oracles.WSCC9_FIDELITY[alpha])
        got = (result.metrics.width, result.metrics.depth, result.metrics.cnot_count)
        if got != oracles.WSCC9_METRICS[alpha]:
            raise Mismatch(f"metrics {got}, want {oracles.WSCC9_METRICS[alpha]}")


class GridScaleSim:
    """Parse, reduce, solve, build, simulate and score with no lowering."""

    name = "grid-scale-sim"
    timeout_s = 10.0
    alpha = 7
    betas = (6, 7, 8)

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        return [Case(f"buses={2**beta + 1}",
                     netgen.network_json(2**beta + 1, seed * 1000 + beta))
                for beta in self.betas]

    def expect(self, case: Case) -> None:
        network = json.loads(case.inputs)
        b, p = oracles.dense_system(network)
        case.expected = (oracles.grid_expect(network), oracles.hhl_model(b, p, self.alpha))

    def run(self, case: Case) -> dict:
        network = grid.parse_network(case.inputs)
        system = grid.build_reduced_system(network)
        stats = grid.network_stats(network)
        theta = grid.solve_dc(system)
        eig = hhl.eigendecompose(system.b)
        scaling = hhl.choose_scaling(eig, self.alpha)
        p_norm = float(np.linalg.norm(system.p))
        circuit = hhl.build_hhl_circuit(eig, system.p / p_norm, scaling)
        state = qsim.apply_circuit(qsim.zero_state(circuit.num_qubits), circuit)
        selected = qsim.post_select(state, circuit.num_qubits - 1, 1)
        # Read the solution off clock value 0 of the ancilla-1 branch.
        block = selected.state.reshape([2] * circuit.num_qubits)[(1,) + (0,) * self.alpha]
        amplitudes = block.reshape(-1)
        kept = float(np.sum(np.abs(amplitudes) ** 2))
        pivot = amplitudes[int(np.argmax(np.abs(amplitudes)))]
        solution = np.real(amplitudes * (pivot.conjugate() / abs(pivot)))
        solution = solution / np.linalg.norm(solution)
        return {
            "stats": stats,
            "theta": theta,
            "fidelity": hhl.fidelity(theta, solution),
            "success_probability": selected.probability,
            "residual_clock_leak": 1.0 - kept,
        }

    def check(self, case: Case, out: dict) -> None:
        want, model = case.expected
        stats = out["stats"]
        if (stats.n, stats.s) != (want.n, want.s):
            raise Mismatch(f"stats n, s = {stats.n}, {stats.s}; want {want.n}, {want.s}")
        oracles.check_close("k_ratio", stats.k_ratio, want.k_ratio,
                            oracles.TOL * want.k_ratio)
        scale = float(np.abs(want.theta).max())
        oracles.check_close("theta", float(np.abs(out["theta"] - want.theta).max()), 0.0,
                            oracles.TOL * scale)
        oracles.check_hhl(model, out["fidelity"], out["success_probability"],
                          out["residual_clock_leak"])


class CliResources:
    """``qpf metrics`` in process: wscc9 at alpha 3 and 5, a 17-bus ring at alpha 1."""

    name = "cli-resources"
    timeout_s = 45.0

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        workdir.mkdir(parents=True, exist_ok=True)
        ring = workdir / "ring17.json"
        ring.write_text(netgen.network_json(17, oracles.RING17_SEED), encoding="utf-8")
        return [
            Case("wscc9 alpha=3", ["metrics", "--fixture", "wscc9", "--alpha", "3"],
                 oracles.WSCC9_METRICS[3]),
            Case("wscc9 alpha=5", ["metrics", "--fixture", "wscc9", "--alpha", "5"],
                 oracles.WSCC9_METRICS[5]),
            Case("ring17 alpha=1", ["metrics", "--input", str(ring), "--alpha",
                                    str(oracles.RING17_ALPHA)], oracles.RING17_METRICS),
        ]

    def expect(self, case: Case) -> None:
        pass  # pinned counts are attached by generate

    def run(self, case: Case):
        return run_cli(case.inputs)

    def check(self, case: Case, result) -> None:
        oracles.check_metrics_json(exit_ok(result), case.expected)


class CostModel:
    """``qpf crossover`` then ``qpf sweep --steps 10000`` on seeded parameters."""

    name = "cost-model"
    timeout_s = 10.0
    draws = 8
    steps = 10000
    sweep_range = (10.0, 2000.0)

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        rng = np.random.default_rng(seed)
        cases = []
        while len(cases) < self.draws:
            params = oracles.CostParams(
                s=float(rng.integers(2, 13)),
                k=round(float(rng.uniform(0.02, 0.5)), 4),
                eps_classical=round(float(rng.uniform(0.01, 0.3)), 4),
                eps_quantum=round(float(rng.uniform(0.05, 0.6)), 4),
                base_ratio=round(float(rng.uniform(1.0, 100.0)), 2),
                log_n_base=str(rng.choice(["2", "e", "10"])),
                log_eps_base=str(rng.choice(["2", "e", "10"])),
            )
            n_star = oracles.crossover(params)
            if n_star is None:
                continue
            lo, hi = self.sweep_range
            argv = params.argv()
            cases.append(Case(f"draw {len(cases)}", (
                ["crossover"] + argv,
                ["sweep", "--steps", str(self.steps), "--range", repr(lo), repr(hi)] + argv,
            ), meta={"params": params, "n_star": n_star}))
        return cases

    def expect(self, case: Case) -> None:
        case.expected = oracles.sweep_rows(case.meta["params"], *self.sweep_range,
                                           self.steps)

    def run(self, case: Case):
        crossover_argv, sweep_argv = case.inputs
        return run_cli(crossover_argv), run_cli(sweep_argv)

    def check(self, case: Case, results) -> None:
        crossover, sweep = results
        oracles.check_crossover_json(exit_ok(crossover), case.meta["params"],
                                     case.meta["n_star"])
        oracles.check_sweep_csv(exit_ok(sweep), case.expected)


WORKLOADS = {w.name: w for w in (Wscc9HHL(), GridScaleSim(), CliResources(), CostModel())}
