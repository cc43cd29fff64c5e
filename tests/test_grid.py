import json

import numpy as np
import pytest

from helpers import benchmark_network, full_susceptance_by_loop
from qpf.cli import main
from qpf.errors import InputError, NumericalError
from qpf.grid import (
    ReducedSystem,
    build_reduced_system,
    full_susceptance,
    load_fixture,
    load_network,
    network_from_dict,
    network_stats,
    parse_network,
    solve_dc,
)

# Independently computed reference solution for the packaged 9-bus case
# (buses 2..9; slack is bus 1 and held at angle 0).
WSCC9_ANGLES = [
    0.1709727826086957,
    0.08832343478260873,
    -0.038591999999999994,
    -0.07091971739130433,
    -0.065242,
    0.06909778260869569,
    0.014354304347826129,
    0.038513434782608734,
]
WSCC9_EIGENVALUES = [
    0.9123411935791299,
    5.698716303644225,
    9.857906256646467,
    17.24018544964909,
    20.37356565839682,
    45.01303838123059,
    47.53197707255265,
    53.93772957751289,
]


def two_bus_dict(**overrides):
    data = {
        "base_mva": 100.0,
        "buses": [
            {"id": 1, "slack": True, "p_pu": 0.0},
            {"id": 2, "slack": False, "p_pu": -0.5},
        ],
        "branches": [{"from": 1, "to": 2, "x_pu": 0.1}],
    }
    data.update(overrides)
    return data


class TestFixture:
    def test_loads(self, wscc9):
        assert len(wscc9.buses) == 9
        assert len(wscc9.branches) == 9
        assert wscc9.slack_id == 1
        assert wscc9.base_mva == 100.0

    def test_reduced_shape_and_order(self, wscc9_system):
        assert wscc9_system.b.shape == (8, 8)
        assert wscc9_system.bus_order == (2, 3, 4, 5, 6, 7, 8, 9)

    def test_injection_vector(self, wscc9_system):
        np.testing.assert_allclose(
            wscc9_system.p, [1.63, 0.85, 0.0, -1.25, -0.9, 0.0, -1.0, 0.0]
        )
        assert np.linalg.norm(wscc9_system.p) == pytest.approx(2.5984418407961334)

    def test_angles(self, wscc9_system):
        np.testing.assert_allclose(solve_dc(wscc9_system), WSCC9_ANGLES, atol=1e-12)

    def test_slack_branch_carries_total_imbalance(self, wscc9_system):
        # Bus 4 hangs off the slack on the only slack branch (x = 0.0576),
        # so its angle is x times the net injection of the rest of the grid.
        theta = solve_dc(wscc9_system)
        total = wscc9_system.p.sum()
        assert total == pytest.approx(-0.67)
        assert theta[2] == pytest.approx(0.0576 * total, abs=1e-14)

    def test_eigenvalues_and_conditioning(self, wscc9):
        stats = network_stats(wscc9)
        assert stats.n == 8
        assert stats.s == 4
        np.testing.assert_allclose(stats.eigenvalues, WSCC9_EIGENVALUES, rtol=1e-12)
        assert stats.k_ratio == pytest.approx(0.01691471259034034, rel=1e-12)


class TestSusceptance:
    def test_full_matrix_is_a_laplacian(self, wscc9):
        full = full_susceptance(wscc9)
        np.testing.assert_allclose(full, full.T)
        np.testing.assert_allclose(full.sum(axis=1), 0.0, atol=1e-12)
        off_diag = full - np.diag(np.diag(full))
        assert np.all(off_diag <= 0)

    def test_reduced_matrix_is_positive_definite(self, wscc9_system):
        assert np.linalg.eigvalsh(wscc9_system.b).min() > 0

    def test_input_order_does_not_matter(self, wscc9):
        data = {
            "base_mva": 100.0,
            "buses": [
                {"id": b.id, "slack": b.slack, "p_pu": b.p_pu}
                for b in reversed(wscc9.buses)
            ],
            "branches": [
                {"from": br.to_bus, "to": br.from_bus, "x_pu": br.x_pu}
                for br in reversed(wscc9.branches)
            ],
        }
        shuffled = build_reduced_system(network_from_dict(data))
        reference = build_reduced_system(wscc9)
        assert shuffled.bus_order == reference.bus_order
        np.testing.assert_allclose(shuffled.b, reference.b)
        np.testing.assert_allclose(shuffled.p, reference.p)


def random_tree_network(rng, n):
    buses = [{"id": 1, "slack": True, "p_pu": 0.0}]
    branches = []
    for bus_id in range(2, n + 1):
        buses.append(
            {"id": bus_id, "slack": False, "p_pu": float(rng.uniform(-1, 1))}
        )
        parent = int(rng.integers(1, bus_id))
        branches.append(
            {"from": parent, "to": bus_id, "x_pu": float(rng.uniform(0.01, 0.5))}
        )
    return network_from_dict(
        {"base_mva": 100.0, "buses": buses, "branches": branches}
    )


def test_tree_network_against_flow_recursion(rng):
    # On a tree every branch flow is fixed by conservation alone: the branch
    # into a subtree carries that subtree's total injection.  Walking from
    # the slack accumulates angles without any linear algebra.
    for _ in range(5):
        net = random_tree_network(rng, 12)
        system = build_reduced_system(net)
        theta = dict(zip(system.bus_order, solve_dc(system)))
        children = {b.id: [] for b in net.buses}
        for br in net.branches:
            children[br.from_bus].append(br)

        def subtree_injection(bus_id):
            total = next(b.p_pu for b in net.buses if b.id == bus_id)
            return total + sum(subtree_injection(br.to_bus) for br in children[bus_id])

        expected = {1: 0.0}
        stack = [1]
        while stack:
            parent = stack.pop()
            for br in children[parent]:
                expected[br.to_bus] = (
                    expected[parent] + br.x_pu * subtree_injection(br.to_bus)
                )
                stack.append(br.to_bus)
        for bus_id, angle in theta.items():
            assert angle == pytest.approx(expected[bus_id], abs=1e-10)


def test_reduction_matches_laplacian_pseudoinverse(wscc9, wscc9_system):
    # Independent route: solve on the full singular Laplacian with the slack
    # absorbing the imbalance, then rebase angles to the slack.
    full = full_susceptance(wscc9)
    order = sorted(b.id for b in wscc9.buses)
    p_full = np.zeros(len(order))
    for i, bus_id in enumerate(order):
        bus = next(b for b in wscc9.buses if b.id == bus_id)
        if not bus.slack:
            p_full[i] = bus.p_pu
    slack_pos = order.index(wscc9.slack_id)
    p_full[slack_pos] = -np.delete(p_full, slack_pos).sum()
    theta_full = np.linalg.pinv(full) @ p_full
    theta_full -= theta_full[slack_pos]
    np.testing.assert_allclose(
        np.delete(theta_full, slack_pos), solve_dc(wscc9_system), atol=1e-10
    )


def test_two_bus_stats():
    stats = network_stats(network_from_dict(two_bus_dict()))
    assert stats.n == 1
    assert stats.s == 1
    assert stats.k_ratio == 1.0


class TestSchema:
    def test_round_trips_through_json_text(self):
        net = parse_network(json.dumps(two_bus_dict()))
        assert net.slack_id == 1

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("base_mva"), "missing"),
            (lambda d: d.update(extra=1), "unknown"),
            (lambda d: d.update(base_mva="100"), "wrong type"),
            (lambda d: d.update(base_mva=0), "positive"),
            (lambda d: d["buses"][0].pop("slack"), "missing"),
            (lambda d: d["buses"][0].update(name="x"), "unknown"),
            (lambda d: d["buses"][0].update(slack=1), "wrong type"),
            (lambda d: d["buses"][0].update(id=True), "wrong type"),
            (lambda d: d["buses"][1].update(p_pu=float("nan")), "finite"),
            (lambda d: d["buses"][1].update(id=1), "duplicate"),
            (lambda d: d["buses"][0].update(slack=False), "no slack"),
            (lambda d: d["buses"][1].update(slack=True), "multiple"),
            (lambda d: d["branches"][0].update(to=7), "unknown bus"),
            (lambda d: d["branches"][0].update(to=1), "self-loop"),
            (lambda d: d["branches"][0].update(x_pu=-0.1), "positive"),
            (lambda d: d["branches"].clear(), "disconnected"),
            (lambda d: d["buses"].pop(), "2 buses"),
            (lambda d: d["buses"].append(3), "must be an object"),
            (lambda d: d["branches"].append([1, 2, 0.1]), "must be an object"),
            (lambda d: d["buses"][1].update(id=0), "positive integer"),
        ],
    )
    def test_rejects_bad_input(self, mutate, message):
        data = two_bus_dict()
        mutate(data)
        with pytest.raises(InputError, match=message):
            network_from_dict(data)

    def test_rejects_malformed_json(self):
        with pytest.raises(InputError, match="JSON"):
            parse_network("{not json")

    def test_rejects_non_object_top_level(self):
        with pytest.raises(InputError):
            parse_network("[1, 2]")


def test_a_missing_field_is_named_before_an_unknown_one():
    data = two_bus_dict()
    data["buses"][0] = {"id": 1, "p_pu": 0.0, "name": "x"}
    with pytest.raises(InputError, match=r"^buses\[0\]: missing field\(s\) \['slack'\]$"):
        network_from_dict(data)
    data["buses"][0]["slack"] = True
    with pytest.raises(InputError, match=r"^buses\[0\]: unknown field\(s\) \['name'\]$"):
        network_from_dict(data)


# Parallel branches between buses 1 and 2, one of them given as 2 -> 1, and a
# pair between 3 and 4 in both directions: several terms land in one cell.
PARALLEL = {
    "base_mva": 100.0,
    "buses": [{"id": i, "slack": i == 1, "p_pu": 0.1 * i} for i in (1, 2, 3, 4)],
    "branches": [{"from": f, "to": t, "x_pu": x} for f, t, x in [
        (1, 2, 0.1), (2, 3, 0.07), (1, 2, 0.3), (2, 1, 0.7), (3, 4, 0.013),
        (4, 3, 0.11), (1, 4, 0.9), (3, 4, 3.0),
    ]],
}
SUSCEPTANCE_CASES = {
    "wscc9": lambda: load_fixture("wscc9"),
    "parallel": lambda: network_from_dict(PARALLEL),
    **{f"ring{2**beta + 1}-seed{seed}": (lambda b=beta, s=seed:
                                         benchmark_network(2**b + 1, s * 1000 + b))
       for seed in (1, 7) for beta in (6, 7, 8)},
}


@pytest.mark.parametrize("make", SUSCEPTANCE_CASES.values(), ids=SUSCEPTANCE_CASES.keys())
def test_full_susceptance_is_the_branch_loop_bit_for_bit(make):
    network = make()
    assert full_susceptance(network).tobytes() == full_susceptance_by_loop(network).tobytes()


def test_load_network_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        load_network(tmp_path / "nope.json")


def test_load_network_roundtrip(tmp_path, wscc9):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(two_bus_dict()))
    assert load_network(path).slack_id == 1


@pytest.mark.parametrize("read", [parse_network, load_network])
@pytest.mark.parametrize("arg", [None, 3, b"{}"])
def test_readers_refuse_a_non_string(read, arg):
    with pytest.raises(InputError, match="must be a str"):
        read(arg)


def test_unknown_fixture():
    with pytest.raises(InputError, match="fixture"):
        load_fixture("nosuchgrid")


@pytest.mark.parametrize("name", ["\0", "wscc9\0", "wscc9.json\0"])
def test_a_nul_in_a_path_or_fixture_name_is_an_input_error(name):
    with pytest.raises(InputError, match="unknown fixture"):
        load_fixture(name)
    with pytest.raises(InputError, match="cannot read"):
        load_network(name)


def test_a_network_file_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "net.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InputError, match="cannot read"):
        load_network(path)


def test_solve_rejects_indefinite_matrix():
    system = ReducedSystem(
        b=np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues 3 and -1
        p=np.array([1.0, 0.0]),
        bus_order=(2, 3),
    )
    with pytest.raises(NumericalError, match="positive definite"):
        solve_dc(system)


@pytest.mark.parametrize("p", [1e308, 1e200])
def test_solve_refuses_a_solution_that_is_not_finite(p):
    # The solve overflows to NaN or inf; a NaN residual must not pass the bound.
    system = ReducedSystem(b=np.diag([1e-200, 1.0]), p=np.array([p, p]), bus_order=(2, 3))
    with pytest.raises(NumericalError, match="solve residual"):
        solve_dc(system)


def test_a_linalg_error_in_the_solve_is_a_numerical_error(wscc9_system, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("planted")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(NumericalError, match="positive definite: planted"):
        solve_dc(wscc9_system)
    assert main(["solve", "--fixture", "wscc9"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["numerical error: reduced matrix is not positive definite: planted"]


def test_removed_bus_pops_cleanly():
    # "bus removed" sanity: dropping a leaf and its branch still validates.
    data = two_bus_dict()
    data["buses"].append({"id": 3, "slack": False, "p_pu": 0.2})
    data["branches"].append({"from": 2, "to": 3, "x_pu": 0.2})
    net = network_from_dict(data)
    assert network_stats(net).n == 2


# (b, p): b 4 x 4 with p of length 8 used to plan a 7-qubit circuit whose
# clock sat on the wrong qubits, and b 8 x 8 with p of length 4 to simulate
# in full before a bare ValueError from the classical solve.
MISMATCHED = [
    (np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(8)), (np.diag(np.arange(1.0, 9.0)), np.ones(4)),
    (np.ones((2, 3)), np.ones(2)), (np.eye(2), np.ones((2, 1))), (np.zeros((0, 0)), []),
]


@pytest.mark.parametrize("b, p", MISMATCHED, ids=["b4-p8", "b8-p4", "b2x3", "p2x1", "empty"])
def test_reduced_system_checks_its_shapes_when_made(b, p, monkeypatch):
    from qpf import hhl

    def never(*args):
        raise AssertionError("a circuit was built")

    monkeypatch.setattr(hhl, "build_hhl_circuit", never)
    for use in (solve_dc, lambda s: hhl.plan_hhl(s, hhl.HHLConfig(alpha=3)), hhl.run_hhl):
        with pytest.raises(InputError, match="injections|expected a"):
            use(ReducedSystem(b=b, p=p, bus_order=()))


def test_reduced_system_holds_float_arrays():
    system = ReducedSystem(b=[[2, -1], [-1, 2]], p=[1, 0], bus_order=(2, 3))
    assert system.b.dtype == system.p.dtype == np.float64
    np.testing.assert_allclose(solve_dc(system), [2 / 3, 1 / 3])
