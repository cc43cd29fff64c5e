"""Power-network model and classical DC power flow.

The DC approximation relates bus voltage angles to real-power injections
through a susceptance matrix built from branch reactances: B theta = p.
B has weighted-Laplacian structure (off-diagonal -1/x, diagonals the negated
row sums), so it is singular until the slack bus's row and column are
removed; the reduced matrix is symmetric positive definite for a connected
network with positive reactances and is solved by Cholesky factorization.

Injections are per-unit on the system MVA base, positive for generation and
negative for load.  The slack bus absorbs any imbalance and its injection
field is ignored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from qpf.errors import InputError, NumericalError, as_array, as_real


@dataclass(frozen=True)
class Bus:
    id: int
    slack: bool
    p_pu: float


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    x_pu: float


@dataclass(frozen=True)
class Network:
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    @property
    def slack_id(self) -> int:
        return next(b.id for b in self.buses if b.slack)


@dataclass(frozen=True, eq=False)
class ReducedSystem:
    """The solvable SLE B theta = p, slack removed.

    Row i of ``b``/``p`` belongs to bus ``bus_order[i]``; ordering is
    ascending bus id with the slack bus dropped.  InputError unless p is n >= 1
    finite reals and b a finite real n x n matrix.
    """

    b: np.ndarray
    p: np.ndarray
    bus_order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_array(self.p, "injection", 1))
        object.__setattr__(self, "b", as_array(self.b, "matrix entry", 2))
        if not len(self.p) or self.b.shape != (len(self.p),) * 2:
            raise InputError(f"need n >= 1 injections, b n x n: got {len(self.p)}, {self.b.shape}")


@dataclass(frozen=True)
class NetworkStats:
    n: int
    s: int
    k_ratio: float
    eigenvalues: tuple[float, ...]


def _require_keys(obj: dict, required: dict, where: str) -> None:
    if obj.keys() != required.keys():  # the sets below only name the difference
        missing = set(required) - set(obj)
        unknown = set(obj) - set(required)
        if missing:
            raise InputError(f"{where}: missing field(s) {sorted(missing)}")
        raise InputError(f"{where}: unknown field(s) {sorted(unknown)}")
    for key, kind in required.items():
        # bool is an int subclass: only a bool field takes a bool, and only a bool
        if (kind is bool) != isinstance(obj[key], bool) or not isinstance(obj[key], kind):
            raise InputError(f"{where}: field {key!r} has wrong type")


def network_from_dict(data: dict) -> Network:
    """Validate the JSON object form of a network (schema is strict)."""
    if not isinstance(data, dict):
        raise InputError("top level must be a JSON object")
    _require_keys(data, {"base_mva": (int, float), "buses": list, "branches": list},
                  "network")
    base_mva = as_real(data["base_mva"], "base_mva", 0)

    buses = []
    for i, entry in enumerate(data["buses"]):
        if not isinstance(entry, dict):
            raise InputError(f"buses[{i}]: must be an object")
        _require_keys(entry, {"id": int, "slack": bool, "p_pu": (int, float)},
                      f"buses[{i}]")
        if entry["id"] < 1:
            raise InputError(f"buses[{i}]: id must be a positive integer")
        p_pu = as_real(entry["p_pu"], f"buses[{i}]: p_pu")
        buses.append(Bus(id=entry["id"], slack=entry["slack"], p_pu=p_pu))

    ids = [b.id for b in buses]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate bus id")
    if len(buses) < 2:
        raise InputError("a network needs at least 2 buses")
    slack_count = sum(b.slack for b in buses)
    if slack_count == 0:
        raise InputError("no slack bus")
    if slack_count > 1:
        raise InputError("multiple slacks")

    known = set(ids)
    branches = []
    for i, entry in enumerate(data["branches"]):
        if not isinstance(entry, dict):
            raise InputError(f"branches[{i}]: must be an object")
        _require_keys(entry, {"from": int, "to": int, "x_pu": (int, float)},
                      f"branches[{i}]")
        f, t = entry["from"], entry["to"]
        if f not in known or t not in known:
            raise InputError(f"branches[{i}]: unknown bus id")
        if f == t:
            raise InputError(f"branches[{i}]: self-loop at bus {f}")
        x_pu = as_real(entry["x_pu"], f"branches[{i}]: reactance", 0)
        branches.append(Branch(from_bus=f, to_bus=t, x_pu=x_pu))

    network = Network(base_mva=base_mva, buses=tuple(buses), branches=tuple(branches))
    if not _connected(network):
        raise InputError("network graph is disconnected")
    return network


def _connected(network: Network) -> bool:
    adjacency: dict[int, list[int]] = {b.id: [] for b in network.buses}
    for br in network.branches:
        adjacency[br.from_bus].append(br.to_bus)
        adjacency[br.to_bus].append(br.from_bus)
    seen = {network.buses[0].id}
    stack = [network.buses[0].id]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(network.buses)


def parse_network(text: str) -> Network:
    if not isinstance(text, str):
        raise InputError(f"network text must be a str, got {type(text).__name__}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    return network_from_dict(data)


def load_network(path: str | Path) -> Network:
    if not isinstance(path, (str, os.PathLike)):
        raise InputError(f"network path must be a str or os.PathLike, got {type(path).__name__}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or text not UTF-8
        raise InputError(f"cannot read {os.fspath(path)!r}: {exc}") from exc
    return parse_network(text)


def load_fixture(name: str) -> Network:
    """Load a packaged test network (currently just ``wscc9``)."""
    ref = resources.files("qpf.data").joinpath(f"{name}.json")
    try:
        text = ref.read_text(encoding="utf-8")
    except (FileNotFoundError, ValueError) as exc:  # ValueError: a NUL in the name
        raise InputError(f"unknown fixture {name!r}") from exc
    return parse_network(text)


def full_susceptance(network: Network) -> np.ndarray:
    """Unreduced weighted-Laplacian susceptance matrix, buses by ascending id.

    Branch k with w = 1/x adds w to cells (i, i) and (j, j) and -w to (i, j)
    and (j, i), by one ``np.add.at`` over the branches' four cells in branch
    order, so each cell sums its terms in that order.
    """
    order = sorted(b.id for b in network.buses)
    index = {bus_id: i for i, bus_id in enumerate(order)}
    n = len(order)
    i = np.array([index[br.from_bus] for br in network.branches], dtype=np.intp)
    j = np.array([index[br.to_bus] for br in network.branches], dtype=np.intp)
    w = np.array([1.0 / br.x_pu for br in network.branches])
    b = np.zeros((n, n))
    np.add.at(b, (np.stack([i, j, i, j], axis=1), np.stack([i, j, j, i], axis=1)),
              np.stack([w, w, -w, -w], axis=1))
    return b


def build_reduced_system(network: Network) -> ReducedSystem:
    order = sorted(b.id for b in network.buses)
    full = full_susceptance(network)
    slack_id = network.slack_id
    keep = [i for i, bus_id in enumerate(order) if bus_id != slack_id]
    reduced = full[np.ix_(keep, keep)]
    injections = {b.id: b.p_pu for b in network.buses}
    bus_order = tuple(order[i] for i in keep)
    p = np.array([injections[bus_id] for bus_id in bus_order])
    return ReducedSystem(b=reduced, p=p, bus_order=bus_order)


def solve_dc(system: ReducedSystem) -> np.ndarray:
    """Bus voltage angles (radians) from a Cholesky solve of B theta = p.

    B = L L^T, then forward substitution for L y = p and back substitution
    for L^T theta = y.
    """
    try:
        low = np.linalg.cholesky(system.b)  # the only step that raises LinAlgError
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"reduced matrix is not positive definite: {exc}") from exc
    n = len(system.p)
    with np.errstate(invalid="ignore", over="ignore"):  # inf or NaN, which the bound refuses
        y = np.empty(n)
        for i in range(n):
            y[i] = (system.p[i] - low[i, :i] @ y[:i]) / low[i, i]
        theta = np.empty(n)
        for i in reversed(range(n)):
            theta[i] = (y[i] - low[i + 1:, i] @ theta[i + 1:]) / low[i, i]
        residual = np.abs(system.b @ theta - system.p).max()
    bound = 1e-10 * max(1.0, np.abs(system.p).max())
    if not residual <= bound:
        raise NumericalError(f"solve residual {residual:.3e} exceeds {bound:.3e}")
    return theta


def network_stats(network: Network) -> NetworkStats:
    """System size n, row sparsity s, and spectral ratio of the reduced matrix."""
    system = build_reduced_system(network)
    eigenvalues = as_array(np.linalg.eigvalsh(system.b), "eigenvalue", 1)
    s = int(np.max(np.count_nonzero(system.b, axis=1)))
    return NetworkStats(
        n=len(system.p),
        s=s,
        k_ratio=float(eigenvalues[0] / eigenvalues[-1]),
        eigenvalues=tuple(float(v) for v in eigenvalues),
    )
