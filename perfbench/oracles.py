"""Reference results for every benchmark operation, sharing no code with qpf.

* ``hhl_model``: the closed-form spectral model of the HHL pipeline.  With
  eigenpairs (lambda_j, v_j) of B, p = sum_j b_j v_j, phase phi_j =
  lambda_j t / 2 pi and the phase-estimation kernel
  K(m, phi) = M^-1 sum_k exp(2 pi i k (phi - m / M)), the clock-zero,
  ancilla-one amplitude along v_j is b_j sum_m |K(m, phi_j)|^2 c / lambda(m)
  and the post-selection probability is
  sum_j b_j^2 sum_m |K(m, phi_j)|^2 (c / lambda(m))^2.
* ``dense_system`` / ``grid_expect``: the reduced susceptance matrix built
  straight from the network JSON, solved with a dense LU solve.
* ``crossover``: n* from the Lambert W closed form of
  ratio * log(n) s_q^2 k_q^2 / eps_q = n s k log(1 / eps_c).
* Pinned values recorded from the seed commit of the package.

Only numpy and scipy are imported.  Every ``check_*`` raises ``Mismatch``
naming the first field that is off.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.special

TOL = 1e-9

# tests/test_hhl.py::TestAlphaSweep, wscc9 at alpha = 3..6.
WSCC9_FIDELITY = {
    3: 0.7218427204192934,
    4: 0.7468370351982756,
    5: 0.8529667277060066,
    6: 0.9996071579880378,
}

# (width, depth, cnot_count) of the lowered HHL circuit, recorded at the seed
# commit.  wscc9 alpha = 3 and 5 are also pinned in the package's own tests.
WSCC9_METRICS = {
    3: (7, 34156, 14108),
    4: (8, 45552, 18826),
    5: (9, 56963, 23550),
    6: (10, 68406, 28300),
}
RING17_SEED = 17017
RING17_ALPHA = 1
RING17_METRICS = (6, 196717, 83332)


class Mismatch(Exception):
    """An operation's output disagrees with its oracle."""


def check_close(field: str, got: float, want: float, tol: float = TOL) -> None:
    if not abs(float(got) - float(want)) <= tol:
        raise Mismatch(f"{field}: got {got!r}, want {want!r} (tol {tol:g})")


# -- grid and HHL -----------------------------------------------------------


def dense_system(network: dict) -> tuple[np.ndarray, np.ndarray]:
    """Reduced B and p: buses by ascending id, slack row and column removed."""
    ids = sorted(bus["id"] for bus in network["buses"])
    slack = next(bus["id"] for bus in network["buses"] if bus["slack"])
    keep = [bus_id for bus_id in ids if bus_id != slack]
    index = {bus_id: i for i, bus_id in enumerate(keep)}
    b = np.zeros((len(keep), len(keep)))
    for branch in network["branches"]:
        w = 1.0 / branch["x_pu"]
        ends = [index.get(branch["from"]), index.get(branch["to"])]
        for i in ends:
            if i is not None:
                b[i, i] += w
        if None not in ends:
            b[ends[0], ends[1]] -= w
            b[ends[1], ends[0]] -= w
    injection = {bus["id"]: bus["p_pu"] for bus in network["buses"]}
    return b, np.array([float(injection[bus_id]) for bus_id in keep])


@dataclass(frozen=True)
class GridExpect:
    n: int
    s: int
    k_ratio: float
    theta: np.ndarray


def grid_expect(network: dict) -> GridExpect:
    b, p = dense_system(network)
    eigenvalues = np.linalg.eigvalsh(b)
    return GridExpect(
        n=len(b),
        s=int(max(np.count_nonzero(row) for row in b)),
        k_ratio=float(eigenvalues[0] / eigenvalues[-1]),
        theta=np.linalg.solve(b, p),
    )


@dataclass(frozen=True)
class HHLModel:
    fidelity: float
    success_probability: float
    residual_clock_leak: float


def hhl_model(b: np.ndarray, p: np.ndarray, alpha: int) -> HHLModel:
    """Spectral model of the exact HHL run at clock width ``alpha``.

    ``len(p)`` must be a power of two, so the pipeline pads nothing.
    """
    n = len(p)
    if n & (n - 1):
        raise ValueError("model covers unpadded systems only")
    lambdas, vectors = np.linalg.eigh(b)
    size = 2**alpha
    t = 2.0 * math.pi * (size - 1) / (size * lambdas[-1])
    c = 2.0 * math.pi / (size * t)
    phi = lambdas * t / (2.0 * math.pi)
    m = np.arange(size)
    offset = np.subtract.outer(phi, m / size)  # [eigenpair, clock value]
    kernel = np.zeros(offset.shape, dtype=complex)
    for k in range(size):
        kernel += np.exp(2j * math.pi * k * offset)
    weight = np.abs(kernel / size) ** 2
    ratio = np.zeros(size)
    ratio[1:] = np.minimum(c / (2.0 * math.pi * m[1:] / (size * t)), 1.0)

    coeff = vectors.T @ (p / np.linalg.norm(p))
    component = coeff * (weight @ ratio)
    success = float(np.sum(coeff**2 * (weight @ ratio**2)))
    kept = float(np.sum(component**2)) / success
    solution = vectors @ component
    theta = np.linalg.solve(b, p)
    overlap = float(solution @ theta) / (np.linalg.norm(solution) * np.linalg.norm(theta))
    return HHLModel(
        fidelity=min(1.0, overlap * overlap),
        success_probability=success,
        residual_clock_leak=1.0 - kept,
    )


def check_hhl(model: HHLModel, fidelity: float, success_probability: float,
              residual_clock_leak: float) -> None:
    check_close("fidelity", fidelity, model.fidelity)
    check_close("success_probability", success_probability, model.success_probability)
    check_close("residual_clock_leak", residual_clock_leak, model.residual_clock_leak)


def check_metrics_json(text: str, pinned: tuple[int, int, int]) -> None:
    """``qpf metrics`` JSON output against pinned (width, depth, cnot_count)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"metrics output is not JSON: {exc}") from exc
    want = dict(zip(("width", "depth", "cnot_count"), pinned))
    if payload != want:
        raise Mismatch(f"metrics: got {payload}, want {want}")


# -- cost model -------------------------------------------------------------

_LN = {"2": math.log(2.0), "e": 1.0, "10": math.log(10.0)}
SEARCH_RANGE = (2.0, 1.0e7)
BISECT_REL_TOL = 1e-6


@dataclass(frozen=True)
class CostParams:
    s: float
    k: float
    eps_classical: float
    eps_quantum: float
    base_ratio: float
    log_n_base: str
    log_eps_base: str

    def argv(self) -> list[str]:
        return [
            "--s", repr(self.s), "--k", repr(self.k),
            "--eps-classical", repr(self.eps_classical),
            "--eps-quantum", repr(self.eps_quantum),
            "--base-ratio", repr(self.base_ratio),
            "--log-n-base", self.log_n_base, "--log-eps-base", self.log_eps_base,
        ]

    def slopes(self) -> tuple[float, float]:
        """(a, b) with scaled quantum cost a ln n and classical cost b n."""
        a = (self.base_ratio * self.s**2 * self.k**2
             / (self.eps_quantum * _LN[self.log_n_base]))
        b = self.s * self.k * math.log(1.0 / self.eps_classical) / _LN[self.log_eps_base]
        return a, b


def crossover(params: CostParams) -> float | None:
    """The one n in [2, 1e7] where a ln n = b n, or None.

    Only the case with the quantum model dearer at n = 2 and cheaper at
    n = 1e7 is accepted: there a ln n - b n changes sign exactly once in the
    range, at the larger root n = -(a / b) W_-1(-b / a).
    """
    a, b = params.slopes()
    lo, hi = SEARCH_RANGE
    if not (a * math.log(lo) > b * lo and a * math.log(hi) < b * hi):
        return None
    return float(-(a / b) * scipy.special.lambertw(-b / a, k=-1).real)


def check_crossover_json(text: str, params: CostParams, n_star: float) -> None:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"crossover output is not JSON: {exc}") from exc
    check_close("n_star", payload["n_star"], n_star, BISECT_REL_TOL * n_star)
    check_close("constant_ratio", payload["constant_ratio"], params.base_ratio, 0.0)
    classical, quantum = payload["params"]["classical"], payload["params"]["quantum"]
    for field, got, want in [
        ("classical.s", classical["s"], params.s),
        ("classical.k", classical["k"], params.k),
        ("classical.epsilon", classical["epsilon"], params.eps_classical),
        ("quantum.s", quantum["s"], params.s),
        ("quantum.k", quantum["k"], params.k),
        ("quantum.epsilon", quantum["epsilon"], params.eps_quantum),
    ]:
        check_close(field, got, want, 0.0)


SWEEP_HEADER = "n,classical_cost,quantum_cost_scaled"


def sweep_rows(params: CostParams, lo: float, hi: float, steps: int) -> np.ndarray:
    """Exact (n, classical cost, scaled quantum cost) rows, log-spaced n."""
    n = np.exp(np.linspace(math.log(lo), math.log(hi), steps))
    a, b = params.slopes()
    return np.column_stack([n, b * n, a * np.log(n)])


def check_sweep_csv(text: str, rows: np.ndarray) -> None:
    """Each cell is its exact value rounded to 6 significant digits."""
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        raise Mismatch("sweep CSV: bad header or missing final newline")
    body = lines[1:-1]
    if len(body) != len(rows):
        raise Mismatch(f"sweep CSV: {len(body)} rows, want {len(rows)}")
    cells = [line.split(",") for line in body]
    if any(len(row) != 3 for row in cells):
        raise Mismatch("sweep CSV: a row does not have 3 cells")
    try:
        got = np.array(cells, dtype=float)
    except ValueError as exc:
        raise Mismatch(f"sweep CSV: {exc}") from exc
    # Half a unit in the sixth significant digit, widened by a hair so a
    # value sitting on a rounding midpoint passes either way.
    half_unit = 0.5 * 10.0 ** (np.floor(np.log10(np.abs(rows))) - 5)
    off = np.abs(got - rows) > half_unit * (1 + 1e-9)
    if off.any():
        r, col = np.argwhere(off)[0]
        raise Mismatch(f"sweep CSV row {r + 1} cell {col + 1}: {body[r]!r}, "
                       f"exact value {rows[r, col]!r}")
    # At most 6 significant digits: rounding to 6 digits changes nothing.
    unit = 10.0 ** (np.floor(np.log10(np.abs(got))) - 5)
    long = np.abs(np.round(got / unit) * unit - got) > 1e-12 * np.abs(got)
    if long.any():
        r, col = np.argwhere(long)[0]
        raise Mismatch(f"sweep CSV row {r + 1} cell {col + 1}: {body[r]!r} has more "
                       "than 6 significant digits")
