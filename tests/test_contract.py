"""The input contract of the public API, as a property over a hostile domain.

Every array-, scalar-, index- or gate-taking name in ``qpf.__all__`` and
``qpf.qsim.__all__`` has a row below.  Called on empty, 0-d and wrong-ndim
arrays, mismatched lengths, NaN and +-inf, Python and numpy complex, bools,
strings, floats for ints, numpy ints and huge ints, each must return finite
output or raise InputError, NumericalError or PostSelectionError.  Any other
exception, and any warning, fails.  The rows of the cost models, ``solve_dc``,
the network readers, ``fidelity``, ``prepare_state``, ``eigendecompose``,
``plan_hhl``, ``run_hhl`` and ``post_select`` also draw magnitudes near the ends of
the float range.
Every other public name is exempted by name, with the reason.

All cases are tiny (widths <= 10, alpha <= 4): no draw allocates more than a
few MiB.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import numbers
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qpf
import qpf.qsim
from qpf import (
    ComplexityParams,
    HHLConfig,
    InputError,
    NumericalError,
    PostSelectionError,
    ReducedSystem,
    base_speed_ratio,
    build_reciprocal_rotation,
    choose_scaling,
    eigendecompose,
    epsilon_from_fidelity,
    fidelity,
    find_crossover,
    load_network,
    parse_network,
    plan_hhl,
    run_hhl,
    solve_dc,
    sweep,
    t_classical,
    t_quantum,
)
from qpf.qsim import (
    Circuit,
    Cnot,
    ControlledUnitary,
    SingleQubit,
    UniformlyControlledRy,
    apply_circuit,
    controlled_evolutions,
    dump,
    h,
    metrics,
    phase,
    post_select,
    prepare_state,
    ry,
    rz,
    x,
    zero_state,
)

QPF_ERRORS = (InputError, NumericalError, PostSelectionError)

# -- the hostile domain ------------------------------------------------------

HOSTILE = [
    math.nan, math.inf, -math.inf, np.float64(math.nan), 1j, 1 + 2j, np.complex128(1 + 2j),
    np.complex64(0), True, False, np.bool_(True), "3", None, 2**64, -(2**70), 10**400,
    np.array(1.0), np.array([1.0]),
]
REALS = HOSTILE + [0, 0.0, -1.0, 0.25, 0.5, 2.0, 3, 1e-3, np.float64(0.75), np.float32(0.5),
                   np.int64(3)]
INDICES = HOSTILE + [0, 1, 2, 3, -1, np.int64(1), np.uint8(2), np.int32(0), 1.0, 2.5,
                     np.float64(1.0)]

VECTORS = [
    [], [0.6, 0.8], [1, 2, 3], [3, 4], np.ones(4) / 2, np.arange(1.0, 9.0), [0.0, 0.0],
    [[0.6, 0.8]], np.array(1.0), np.array([[1.0, 0.0], [0.0, 1.0]]),
    [math.nan, 1.0], [math.inf, 0.0], [1.0, -math.inf], [1j, 0], np.array([1 + 2j, 1]),
    np.array([0.6, 0.8], dtype=complex), [True, False], np.array([True, True]),
    ["a", "b"], [[1, 2], [3]], [10**400, 1], [2**64, 1], [None, 1.0],
    np.array([1, 0], dtype=np.int64), np.array([0.6, 0.8], dtype=np.float32),
]
MATRICES = [
    np.diag([1.0, 2.0]), np.eye(2) * 2, [[2, 1], [1, 3]], np.diag([1.0, 2.0, 3.0]),
    np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(1), np.zeros((2, 2)), np.diag([1.0, -1.0]),
    [[1.0, 2.0], [0.0, 1.0]], np.zeros((0, 0)), np.ones((2, 3)), np.array(1.0), [1.0, 2.0],
    np.ones((2, 2, 2)), [[2, 1j], [-1j, 2]], np.array([[math.nan, 0], [0, 1]]),
    [[math.inf, 0], [0, 1]], np.eye(2, dtype=bool), [["a", "b"], ["c", "d"]],
    [[1, 2], [3]], [[10**400, 0], [0, 1]], np.eye(2, dtype=np.int64),
]
UNITARIES = [
    None, np.eye(2), np.eye(2, dtype=complex), np.eye(4), np.eye(1), np.array([[0, 1], [1, 0]]),
    [[1, 0], [0, 1]], np.eye(2, dtype=bool), np.array([["a", "b"], ["c", "d"]]),
    np.array([[math.nan, 0], [0, 1]]), np.eye(2, dtype=object), np.ones((2, 2)), np.eye(3),
    np.ones(2), np.array(1.0),
]
# Eigenbases and phase tables for controlled_evolutions: the matrices above,
# orthogonal ones and (controls, dim) tables, hostile ones among them.
BASES = MATRICES + [np.array([[0.6, 0.8], [-0.8, 0.6]]), np.eye(4), [[0, 1], [1, 0]]]
PHASES = VECTORS + [np.zeros((1, 2)), [[0.5, -1.0]], np.ones((2, 2)), np.zeros((1, 4)),
                    np.zeros((1, 1)), [[math.nan, 0.0]], [[1e308, -1e308]], [[1j, 0]],
                    [[True, False]], np.zeros((0, 2))]
QUBIT_TUPLES = [(), (1,), (1, 2), (2, 1), (1, 1), (0.5,), (True,), (np.int64(2),), (2**64,),
                ("1",), (-1,), (9,)]

# Magnitudes near the ends of the float range, where squares and products overflow or
# underflow, as scalars, vectors and spectra, matrices whose skew or spectrum overflows,
# and two systems whose Cholesky solve overflows.
NEAR_LIMITS = [1e308, -1e308, 1e200, 1e-300, 5e-324]
NEAR_LIMIT_VECTORS = [[v, v] for v in NEAR_LIMITS] + [[v, 0.0] for v in NEAR_LIMITS] + [
    np.array(NEAR_LIMITS[:4]), np.array([1e-200, 1e-200]), np.array([1e200, 0.0], dtype=complex)]
NEAR_LIMIT_MATRICES = [np.diag([v, 2 * v]) for v in (1e300, 1e-300, 1e-200)] + [
    np.diag([5e-324, 1.0]), np.diag([1.0, 1e308]), np.array([[1e308, -1e308], [1e308, 1.0]]),
    np.array([[1.5e308, 1e308], [1e308, 1.5e308]]), np.diag([1e-310, 1e-310])]
NEAR_LIMIT_SYSTEMS = [(np.diag([1e-200, 1.0]), np.array([1e308, 1e308])),
                      (np.diag([1e-200, 1.0]), np.array([1e200, 1e200]))]


def _network_text(p_pu, x_pu) -> str:
    return json.dumps({"base_mva": 100.0, "branches": [{"from": 1, "to": 2, "x_pu": x_pu}],
                       "buses": [{"id": 1, "slack": True, "p_pu": 0.0},
                                 {"id": 2, "slack": False, "p_pu": p_pu}]})


TEXTS = HOSTILE + NEAR_LIMITS + [b"{}", "", "{not json", "[1, 2]", _network_text(-0.5, 0.1)] + [
    _network_text(v, 0.1) for v in NEAR_LIMITS] + [_network_text(-0.5, v) for v in NEAR_LIMITS]
WSCC9 = Path(qpf.__file__).parent / "data" / "wscc9.json"
PATHS = HOSTILE + NEAR_LIMITS + [WSCC9, str(WSCC9), b"wscc9.json", "no/such/network.json",
                                 "\0", "wscc9.json\0"]

reals = st.sampled_from(REALS)
near_limit_reals = st.sampled_from(REALS + NEAR_LIMITS)
indices = st.sampled_from(INDICES)
vectors = st.sampled_from(VECTORS)
near_limit_vectors = st.sampled_from(VECTORS + NEAR_LIMIT_VECTORS)
matrices = st.sampled_from(MATRICES)
optional_reals = st.sampled_from([None] + REALS)
optional_near_limit_reals = st.sampled_from([None] + REALS + NEAR_LIMITS)

SANE = ComplexityParams(s=6.0, k=0.1, epsilon=0.1)
QUANTUM = ComplexityParams(s=6.0, k=0.1, epsilon=0.37)
EIG = eigendecompose(np.diag([0.5, 1.0]))
SCALING = choose_scaling(EIG, 2)

# -- the calls ---------------------------------------------------------------


def _run(circuit: Circuit):
    """Run, count and dump a circuit."""
    state = apply_circuit(zero_state(circuit.num_qubits), circuit)
    return state, metrics(circuit), dump(circuit)


def _exercise(gate, width: int = 3):
    """Put a gate in a circuit, then run, count and dump it."""
    return _run(Circuit(width, [gate]))


def _system(b, p) -> ReducedSystem:
    return ReducedSystem(b=b, p=p, bus_order=())


def _hhl(run, b, p, alpha, t, c):
    return run(_system(b, p), HHLConfig(alpha=alpha, t_override=t, c_override=c))


SYSTEMS = st.tuples(matrices, vectors)
N_VALUES = REALS + VECTORS + NEAR_LIMITS + [np.array(NEAR_LIMITS), np.array([4.0, 1e308])]
# Matrices have n <= 4 and alpha <= 4, so a planned circuit has at most 2 + 4 + 1 = 7 qubits.
HHL_ARGS = st.tuples(st.sampled_from(MATRICES + NEAR_LIMIT_MATRICES), near_limit_vectors,
                     st.sampled_from(INDICES + [4]), optional_near_limit_reals,
                     optional_near_limit_reals)

# name -> (call, strategy of its positional arguments)
ROWS = {
    "ComplexityParams": (
        lambda s, k, eps, base: t_quantum(4.0, ComplexityParams(s, k, eps, base, base)),
        st.tuples(near_limit_reals, near_limit_reals, near_limit_reals,
                  st.sampled_from(["2", "e", "10", "x", None, 2, ["2"]]))),
    "ReducedSystem": (lambda b, p: _system(b, p).p, SYSTEMS),
    "base_speed_ratio": (lambda n: base_speed_ratio(n, SANE, QUANTUM),
                         st.tuples(near_limit_reals)),
    "build_reciprocal_rotation": (
        lambda clock, ancilla: _exercise(build_reciprocal_rotation(SCALING, clock, ancilla), 4),
        st.tuples(st.sampled_from(QUBIT_TUPLES), indices)),
    "choose_scaling": (lambda alpha, t, c: choose_scaling(EIG, alpha, t, c),
                       st.tuples(indices, optional_reals, optional_reals)),
    "eigendecompose": (eigendecompose,
                       st.tuples(st.sampled_from(MATRICES + NEAR_LIMIT_MATRICES))),
    "epsilon_from_fidelity": (epsilon_from_fidelity, st.tuples(reals)),
    "fidelity": (fidelity, st.tuples(near_limit_vectors, near_limit_vectors)),
    "find_crossover": (lambda ratio: find_crossover(SANE, QUANTUM, ratio),
                       st.tuples(near_limit_reals)),
    "load_network": (load_network, st.tuples(st.sampled_from(PATHS))),
    "parse_network": (parse_network, st.tuples(st.sampled_from(TEXTS))),
    "plan_hhl": (lambda *args: _hhl(plan_hhl, *args), HHL_ARGS),
    "run_hhl": (lambda *args: _hhl(run_hhl, *args), HHL_ARGS),
    "solve_dc": (lambda b, p: solve_dc(_system(b, p)),
                 st.one_of(SYSTEMS, st.sampled_from(NEAR_LIMIT_SYSTEMS))),
    "sweep": (
        lambda ratio, n_range, steps: sweep(SANE, QUANTUM, ratio, n_range, steps),
        st.tuples(near_limit_reals, st.sampled_from([
            (10.0, 100.0), (2, 2), [2.0, 1e3], np.array([10.0, 20.0]), (10.0, math.inf),
            (2.0, 1e308), (1e200, 1e300), (1e-300, 10.0),
            (math.nan, 10.0), (1.0, 5.0), (20.0, 10.0), ("a", 5.0), (10.0,), (10.0, 20.0, 30.0),
            (True, 10.0), (True, True), (10**400, 10**401), (1j, 5.0), 10.0, "ab", None,
        ]), st.sampled_from(INDICES + [10**6 + 1]))),
    "t_classical": (lambda n: t_classical(n, SANE), st.tuples(st.sampled_from(N_VALUES))),
    "t_quantum": (lambda n: t_quantum(n, QUANTUM), st.tuples(st.sampled_from(N_VALUES))),
    # qpf.qsim
    "Circuit": (lambda width, gates: _run(Circuit(width, gates)),
                st.tuples(indices, st.sampled_from([[], [h(0)], [x(2)], ["x"], [None]]))),
    "Cnot": (lambda control, target: _exercise(Cnot(control, target)),
             st.tuples(indices, indices)),
    "ControlledUnitary": (
        lambda controls, targets, u: _exercise(ControlledUnitary(controls, targets, u)),
        st.tuples(st.sampled_from(QUBIT_TUPLES), st.sampled_from(QUBIT_TUPLES[:3] + [(0,)]),
                  st.sampled_from(UNITARIES))),
    "SingleQubit": (
        lambda target, u, name, params: _exercise(SingleQubit(target, u, name, params)),
        st.tuples(indices, st.sampled_from(UNITARIES),
                  st.sampled_from(["U", "H", "X", "RY", "RZ", "P", "FOO", None]),
                  st.sampled_from([(), (0.3,), (0.1, 0.2)] + [(v,) for v in REALS]))),
    "UniformlyControlledRy": (
        lambda controls, target, angles: _exercise(
            UniformlyControlledRy(controls, target, angles)),
        st.tuples(st.sampled_from(QUBIT_TUPLES), indices, vectors)),
    "controlled_evolutions": (
        lambda controls, targets, vectors, phases: _run(
            Circuit(3, controlled_evolutions(controls, targets, vectors, phases))),
        st.tuples(st.sampled_from(QUBIT_TUPLES), st.sampled_from(QUBIT_TUPLES[:3] + [(0,)]),
                  st.sampled_from(BASES), st.sampled_from(PHASES))),
    "apply_circuit": (lambda state: apply_circuit(state, Circuit(2, [h(0), Cnot(0, 1)])),
                      st.tuples(vectors)),
    "h": (lambda target: _exercise(h(target)), st.tuples(indices)),
    "x": (lambda target: _exercise(x(target)), st.tuples(indices)),
    "phase": (lambda target, phi: _exercise(phase(target, phi)), st.tuples(indices, reals)),
    "ry": (lambda target, theta: _exercise(ry(target, theta)), st.tuples(indices, reals)),
    "rz": (lambda target, theta: _exercise(rz(target, theta)), st.tuples(indices, reals)),
    "post_select": (post_select, st.tuples(near_limit_vectors, indices, indices)),
    "prepare_state": (lambda target: _run(prepare_state(target)),
                      st.tuples(near_limit_vectors)),
    "zero_state": (zero_state, st.tuples(indices)),
}

EXEMPT = {
    "Branch": "a record; network_from_dict checks each field it is made from",
    "Bus": "a record; network_from_dict checks each field it is made from",
    "Network": "a record; network_from_dict checks each field it is made from",
    "build_reduced_system": "takes only a Network, checked when it was parsed",
    "network_stats": "takes only a Network, checked when it was parsed",
    "load_fixture": "takes a fixture name; test_grid.py covers unknown names",
    "HHLConfig": "its fields are checked by plan_hhl and run_hhl (their rows draw them)",
    "EigenDecomposition": "the checked output of eigendecompose",
    "SpectralScaling": "the checked output of choose_scaling",
    "build_qpe": "takes only the checked outputs of eigendecompose and choose_scaling",
    "CrossoverReport": "an output record",
    "HHLPlan": "the checked output of plan_hhl",
    "HHLResult": "an output record",
    "NetworkStats": "an output record",
    "CircuitMetrics": "an output record",
    "PostSelection": "an output record",
    "InputError": "an exception class",
    "NumericalError": "an exception class",
    "PostSelectionError": "an exception class",
    "Gate": "the abstract base of the four gate kinds, which have rows",
    "dump": "takes a Circuit; every gate row dumps one",
    "metrics": "takes a Circuit; every gate row counts one",
    "lower_to_basis": "takes a Circuit; every gate row counts one through metrics",
}


# -- the property ------------------------------------------------------------


# Rows whose output holds a state or a gate matrix, which may be complex.
COMPLEX_OUTPUT = set(qpf.qsim.__all__) | {"plan_hhl", "build_reciprocal_rotation"}


def _finite(value, real: bool) -> bool:
    """True when every number reachable from ``value`` is finite (and real)."""
    if isinstance(value, (str, bool)) or value is None:
        return True
    if isinstance(value, numbers.Number):
        is_complex = isinstance(value, (complex, np.complexfloating))
        return cmath.isfinite(value) and not (real and is_complex)
    if isinstance(value, np.ndarray):
        kinds = "iuf" if real else "iufc"
        return value.dtype.kind in kinds and bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(_finite(v, real) for v in value)
    if isinstance(value, dict):
        return all(_finite(v, real) for v in value.values())
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name), real) for f in dataclasses.fields(value))
    return True


def check_contract(name: str, args: tuple) -> None:
    call, _ = ROWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(*args)
        except QPF_ERRORS:
            return
    assert _finite(out, name not in COMPLEX_OUTPUT), f"{name}{args!r} returned {out!r}"


CASES = st.sampled_from(sorted(ROWS)).flatmap(
    lambda name: st.tuples(st.just(name), ROWS[name][1]))


@given(case=CASES)
@example(case=("fidelity", ([1 + 2j, 1], [1, 1])))
@example(case=("eigendecompose", (np.array([[2, 1j], [-1j, 2]]),)))
@example(case=("prepare_state", ([1j, 0],)))
@example(case=("UniformlyControlledRy", ((1,), 0, np.array([1j, 0]))))
@example(case=("UniformlyControlledRy", ((1,), 0, np.array([[0.1, 0.2], [0.3, 0.4]]))))
@example(case=("post_select", (np.array([1, 0], dtype=complex), 0.5, 0)))
@example(case=("Circuit", (1.5, [])))
@example(case=("Circuit", (True, [])))
@example(case=("zero_state", (-1,)))
@example(case=("choose_scaling", (3, "x", None)))
@example(case=("sweep", (1.0, (10.0, 100.0), 5.5)))
@example(case=("ComplexityParams", ("a", 0.1, 0.1, "2")))
@example(case=("t_classical", (np.array([4 + 1j]),)))
@example(case=("find_crossover", ("a",)))
@example(case=("plan_hhl", (np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(8), 3, None, None)))
@example(case=("run_hhl", (np.diag([1.0, 2.0, 3.0, 4.0]), np.ones(8), 3, None, None)))
@example(case=("run_hhl", (np.diag(np.arange(1.0, 9.0)), np.ones(4), 3, None, None)))
@example(case=("ComplexityParams", (1e200, 0.1, 0.37, "2")))
@example(case=("t_classical", (1e308,)))
@example(case=("t_classical", (np.array([1e308]),)))
@example(case=("base_speed_ratio", (1e308,)))
@example(case=("solve_dc", NEAR_LIMIT_SYSTEMS[0]))
@example(case=("solve_dc", NEAR_LIMIT_SYSTEMS[1]))
@example(case=("run_hhl", (np.diag([1e-300, 2e-300]), [1.0, 1.0], 2, None, None)))
@example(case=("run_hhl", (np.diag([1.0, 2.0]), [1e200, 1e200], 2, None, None)))
@example(case=("plan_hhl", (np.diag([1.0, 2.0]), [1e200, 1e200], 2, None, None)))
@example(case=("fidelity", ([1e200, 1e200], [1, 1])))
@example(case=("prepare_state", ([1e200, 0],)))
@example(case=("post_select", (np.array([1e200, 1e200], dtype=complex), 0, 1)))
@example(case=("parse_network", (None,)))
@example(case=("load_network", (None,)))
@example(case=("load_network", ("\0",)))
@example(case=("eigendecompose", (NEAR_LIMIT_MATRICES[5],)))
@example(case=("eigendecompose", (NEAR_LIMIT_MATRICES[6],)))
@settings(max_examples=1500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_hostile_input_gives_finite_output_or_a_qpf_error(case):
    check_contract(*case)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_every_row_runs_a_valid_call(name):
    # A row whose every draw is refused would test nothing: its first valid
    # example must return.
    call, strategy = ROWS[name]
    valid = {
        "ComplexityParams": (6.0, 0.1, 0.1, "2"), "ReducedSystem": (np.eye(2), [1.0, 0.0]),
        "base_speed_ratio": (8.0,), "build_reciprocal_rotation": ((1, 2), 3),
        "choose_scaling": (3, None, None), "eigendecompose": (np.eye(2),),
        "epsilon_from_fidelity": (0.5,), "fidelity": ([1.0, 0.0], [1.0, 1.0]),
        "find_crossover": (34.0,), "plan_hhl": ([[2, 1], [1, 3]], [3, 4], 2, None, None),
        "run_hhl": ([[2, 1], [1, 3]], [3, 4], 2, None, None),
        "solve_dc": ([[2, 1], [1, 3]], [3, 4]), "parse_network": (_network_text(-0.5, 0.1),),
        "load_network": (WSCC9,),
        "sweep": (34.0, (10.0, 100.0), 5), "t_classical": (4.0,),
        "t_quantum": (4,), "Circuit": (3, [h(0)]), "Cnot": (np.int64(0), 1),
        "ControlledUnitary": ((1,), (0,), np.eye(2)),
        "SingleQubit": (0, None, "RZ", (np.float32(0.5),)),
        "UniformlyControlledRy": ((1,), 0, [0.1, 0.2]),
        "controlled_evolutions": ((1, 2), (0,), [[0.6, 0.8], [-0.8, 0.6]], [[0.5, 1], [2, 0]]),
        "apply_circuit": (np.array([1, 0, 0, 0]),),
        "h": (np.uint8(1),), "x": (2,), "phase": (1, 0.25), "ry": (0, 3), "rz": (1, -1.0),
        "post_select": (np.ones(4) / 2, 1, np.int64(0)), "prepare_state": ([0.6, 0.8],),
        "zero_state": (2,),
    }[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finite(call(*valid), name not in COMPLEX_OUTPUT)


def test_every_public_name_has_a_row_or_an_exemption():
    public = set(qpf.__all__) | set(qpf.qsim.__all__)
    assert sorted(public - set(ROWS) - set(EXEMPT)) == []
    assert sorted((set(ROWS) | set(EXEMPT)) - public) == []
    assert set(ROWS).isdisjoint(EXEMPT)
