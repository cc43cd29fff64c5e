"""Gate checks made when a gate is made: the unitarity check against a dense
oracle, on non-finite entries too, the names, params and matrices a
SingleQubit can honour, and the gates that need no check: named gates and
inverses.  A named gate builds its matrix on first read.  The QPE evolutions
of ``controlled_evolutions`` are checked once, through their eigenbasis."""

import copy
import dataclasses
import math
import operator
import pickle
import re
import warnings

import numpy as np
import pytest

import qpf.qsim.circuit as circuit_module
from helpers import (
    count_named_builds,
    dense_unitary_deviation,
    held_slots,
    holds,
    named_matrix,
    random_unitary,
)
from qpf.errors import InputError
from qpf.qsim import (
    Cnot,
    ControlledUnitary,
    SingleQubit,
    UniformlyControlledRy,
    controlled_evolutions,
    h,
    phase,
    ry,
    rz,
    x,
)
from qpf.qsim.circuit import (
    _NAMED,
    MAX_EVOLUTION_QUBITS,
    UNITARY_TOL,
    _adjoint,
    _check_unitary,
    _rotation,
    _ry_matrix,
    _rz_matrix,
    _unchecked,
)


def _two_by_twos(rng):
    """2x2 arrays on both sides of the tolerance, non-finite ones and int/float dtypes."""
    cases = [random_unitary(rng, 2) for _ in range(20)]
    for scale in (1e-11, 1e-9):
        for _ in range(20):
            noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            cases.append(random_unitary(rng, 2) + scale * noise)
    for bad in (math.nan, math.inf, -math.inf):
        for row, col in np.ndindex(2, 2):
            for u in (random_unitary(rng, 2), _ry_matrix(0.7).real.copy(), np.eye(2)):
                u[row, col] = bad
                cases.append(u)
    cases += [_ry_matrix(a).real.copy() for a in rng.uniform(-7, 7, size=5)]
    cases += [np.array(m, dtype=np.int64) for m in (
        [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]], [[1, 1], [0, 1]],
        [[2, 0], [0, 1]], [[1, 0], [0, 0]], [[-1, 0], [0, -1]],
    )]
    cases += [np.array([[1.0, 0.0], [0.0, 1.0 + d]]) for d in (1e-11, -1e-11, 1e-9)]
    return cases


def _rejected(u) -> bool:
    try:
        _check_unitary(u, 2)
    except InputError:
        return True
    return False


def test_closed_form_2x2_check_matches_the_dense_oracle(rng):
    outcomes = set()
    for u in _two_by_twos(rng):
        want = dense_unitary_deviation(u)
        assert _rejected(u) == (not want <= UNITARY_TOL), u
        outcomes.add(_rejected(u))
    assert outcomes == {True, False}


@pytest.mark.parametrize("dim", [2, 256])
def test_not_unitary_message_gives_the_dense_deviation(rng, dim):
    u = random_unitary(rng, dim) + 1e-6 * rng.normal(size=(dim, dim))
    want = np.abs(u.conj().T @ u - np.eye(dim)).max()
    with pytest.raises(InputError) as info:
        _check_unitary(u, dim)
    assert str(info.value) == f"matrix not unitary (deviation {want:.2e})"


def test_an_integer_matrix_is_checked_without_wrapping():
    # 129^2 = 1 mod 256: a uint8 product would read this matrix as unitary.
    with pytest.raises(InputError, match=r"^matrix not unitary \(deviation 1.66e\+04\)"):
        SingleQubit(0, np.array([[129, 0], [0, 129]], dtype=np.uint8))


@pytest.mark.parametrize("u, want", [
    (np.array([[2**62, 0], [0, 1]]), "2.13e+37"),
    (np.array([[1.0, 0.0], [math.nan, 1.0]]), "nan"),
    (np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]), "2.00e-09"),
])
def test_a_real_matrix_is_refused_by_its_real_product(u, want):
    with pytest.raises(InputError, match=rf"^matrix not unitary \(deviation {re.escape(want)}\)$"):
        _check_unitary(u, 2)
    _check_unitary(np.array([[0, 1], [1, 0]]), 2)
    _check_unitary(_ry_matrix(0.7).real.copy(), 2)


@pytest.mark.parametrize("u, message", [
    ([[1, 0], [0, 1]], "numpy array, got list"),
    (np.eye(3), r"matrix shape \(3, 3\), expected \(2, 2\)"),
    (np.eye(2)[:1], r"matrix shape \(1, 2\), expected \(2, 2\)"),
])
def test_non_arrays_and_wrong_shapes_keep_their_messages(u, message):
    with pytest.raises(InputError, match=message):
        SingleQubit(0, u)


@pytest.mark.parametrize("name, params", [
    ("RZ", ()),
    ("RY", (0.3, 0.3)),
    ("P", (math.nan,)),
    ("RZ", (math.inf,)),
    ("FOO", (1.0,)),
    ("rz", (0.3,)),
    ("U", (0.3,)),
    ("H", (0.3,)),
])
def test_single_qubit_rejects_a_name_or_params_it_cannot_honour(name, params):
    with pytest.raises(InputError):
        SingleQubit(0, _rz_matrix(0.3), name, params)



NAMED_GATES = [(h, ()), (x, ()), (ry, (0.3,)), (rz, (-1.7,)), (phase, (2.9,))]


@pytest.mark.parametrize("factory, params", NAMED_GATES)
def test_named_gate_given_a_matrix_is_rejected(factory, params):
    gate = factory(0, *params)
    with pytest.raises(InputError, match="builds its own matrix"):
        SingleQubit(0, gate.u, gate.name, gate.params)


def test_matrix_and_name_cannot_disagree():
    with pytest.raises(InputError):
        SingleQubit(0, h(0).u, "RZ", (0.3,))


@pytest.mark.parametrize("factory, params", NAMED_GATES)
def test_named_gate_inverse_undoes_it(factory, params):
    gate = factory(0, *params)
    inverse = gate.inverse()
    assert (inverse.name, inverse.params) == (gate.name, tuple(-p for p in params))
    np.testing.assert_allclose(inverse.u @ gate.u, np.eye(2), rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dense_check_rejects_non_finite_entries_without_a_warning(bad):
    u = np.eye(4, dtype=complex)
    u[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^matrix not unitary"):
            ControlledUnitary((), (0, 1), u)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_2x2_check_rejects_non_finite_entries_without_a_warning(bad):
    u = np.eye(2, dtype=complex)
    u[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^matrix not unitary"):
            SingleQubit(0, u)


EXTREME_ANGLES = [
    0.0, math.pi, -math.pi, 1e-300, -1e-300, 1e300, -1e300,
    1.7976931348623157e308, -1.7976931348623157e308, 5e-324,
]


@pytest.mark.parametrize("factory, params", NAMED_GATES)
def test_named_gates_are_unitary_by_construction(rng, factory, params):
    # Named gates skip the unitarity check, so their builders must be exact
    # at every finite angle, extreme ones included.
    angles = EXTREME_ANGLES + list(rng.uniform(-4 * math.pi, 4 * math.pi, size=200))
    for angle in angles if params else [None]:
        gate = factory(0) if angle is None else factory(0, angle)
        for made in (gate, gate.inverse()):
            assert dense_unitary_deviation(made.u) <= 1e-15, (made.name, angle)


@pytest.mark.parametrize("angle", [0.0, 0.3, -1.7, math.pi, 2.5, -7.25])
def test_named_gate_matrices_are_their_closed_forms(angle):
    # The dense oracle writes named gates from these forms, so a wrong gate matrix shows.
    for gate in (h(0), x(0), ry(0, angle), rz(0, angle), phase(0, angle)):
        np.testing.assert_allclose(gate.u, named_matrix(gate.name, gate.params),
                                   rtol=0, atol=1e-15, err_msg=gate.name)


def test_inverse_is_the_exact_conjugate_transpose(rng):
    gates = [
        SingleQubit(1, random_unitary(rng, 2)),
        ControlledUnitary((2,), (0, 1), random_unitary(rng, 4)),
        ControlledUnitary((0, 2), (1,), random_unitary(rng, 2)),
        ControlledUnitary((), (2, 0, 1), random_unitary(rng, 8)),
        *controlled_evolutions((2, 0), (1,), _eigenbasis(rng, 2), rng.normal(size=(2, 2))),
    ]
    for gate in gates:
        inverse = gate.inverse()
        assert type(inverse) is type(gate)
        assert np.array_equal(inverse.u, gate.u.conj().T)
        assert inverse.dump_line() != gate.dump_line()
        assert inverse.inverse().dump_line() == gate.dump_line()


def test_named_gate_builds_its_matrix_on_first_read(rng, monkeypatch):
    built = count_named_builds(monkeypatch)
    angles = rng.uniform(-4 * math.pi, 4 * math.pi, size=5)
    factories = [(h, ()), (x, ())] + [
        (factory, (float(a),)) for factory in (ry, rz, phase) for a in angles
    ]
    for factory, params in factories:
        gate = factory(0, *params)
        inverse, twin, line = gate.inverse(), copy.copy(gate), gate.dump_line()
        assert built == [] and not holds(gate, "u")
        assert line == f"{gate.name} 0{''.join(f' {p!r}' for p in params)}"
        assert (inverse.name, inverse.params) == (gate.name, tuple(-p for p in params))
        assert (twin.name, twin.params) == (gate.name, params)
        want = _NAMED[gate.name][1](*params)
        built.clear()
        first = gate.u
        assert built == [gate.name]
        assert first.dtype == complex and np.array_equal(first, want)
        assert gate.u is first and built == [gate.name]
        assert np.array_equal(twin.u, want)
        assert np.array_equal(inverse.u, _NAMED[gate.name][1](*inverse.params))
        fresh = factory(0, *params)
        assert f"name={gate.name!r}" in repr(fresh)  # reads and builds u
        assert np.array_equal(fresh.u, want)
        built.clear()


_HELPERS = {"H": h, "X": x, "RY": ry, "RZ": rz, "P": phase}


@pytest.mark.parametrize("name, params, message", [
    ("FOO", (), "unknown one-qubit gate name"),
    ("RZ", (), "takes 1 params"),
    ("RY", (0.3, 0.3), "takes 1 params"),
    ("H", (0.3,), "takes 0 params"),
    ("P", (math.nan,), "non-finite"),
    ("RZ", (math.inf,), "non-finite"),
    ("RY", (-math.inf,), "non-finite"),
    ("P", (math.inf,), "non-finite P angle"),
    ("P", (-math.inf,), "non-finite P angle"),
    ("RZ", (math.nan,), "non-finite RZ angle"),
    ("RZ", (-math.inf,), "non-finite RZ angle"),
    ("RY", (math.nan,), "non-finite RY angle"),
    ("RY", (math.inf,), "non-finite RY angle"),
    ("RZ", ("0.3",), "RZ angle must be a real number, got str"),
    ("RZ", (1j,), "RZ angle must be a real number, got complex"),
    ("RZ", (None,), "RZ angle must be a real number, got NoneType"),
    ("RY", ("0.3",), "RY angle must be a real number"),
    ("P", (None,), "P angle must be a real number"),
    # Rows a fast path keyed on the angle's type could get wrong: a bool is an
    # int subclass, a numpy float a float subclass.
    ("RZ", (True,), "RZ angle must be a real number, got bool"),
    ("P", (False,), "P angle must be a real number, got bool"),
    ("RZ", (np.float64(np.inf),), "non-finite RZ angle"),
    ("RY", (np.float64(-np.inf),), "non-finite RY angle"),
    ("P", (np.float64(np.nan),), "non-finite P angle"),
    # None: the gate is made, its finite angle kept in params exactly as given.
    ("RZ", (3,), None),
    ("RY", (-(2**70),), None),
    ("P", (np.float64(0.3),), None),
    ("RZ", (np.float64(-1.7),), None),
])
def test_named_gate_is_checked_when_made_not_when_read(name, params, message):
    makers = [lambda: SingleQubit(0, None, name, params)]
    # The helper of a known name, given its param count, runs the same checks.
    if name in _HELPERS and len(params) == _NAMED[name][0]:
        makers.append(lambda: _HELPERS[name](0, *params))
    for make in makers:
        if message is None:
            made = make().params
            assert len(made) == len(params) and all(map(operator.is_, made, params))
            # The inverse negates the angle as given, an int as an int.
            (inverse,) = make().inverse().params
            assert type(inverse) is type(-params[0]) and inverse == -params[0]
        else:
            with pytest.raises(InputError, match=message):
                make()


@pytest.mark.parametrize("angle", [
    np.complex128(1 + 2j), np.complex128(0.3), np.complex64(1 + 2j), np.complex64(0),
], ids=repr)
@pytest.mark.parametrize("make", [rz, ry, phase, lambda q, a: SingleQubit(q, None, "RZ", (a,))],
                         ids=["rz", "ry", "phase", "SingleQubit"])
def test_numpy_complex_angle_is_rejected_without_a_warning(make, angle):
    # math.isfinite takes the real part of a numpy complex, with only a ComplexWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"angle must be a real number, got {type(angle).__name__}"):
            make(0, angle)


@pytest.mark.parametrize("name, params", [
    ("H", ()), ("X", ()), ("RY", (0.3,)), ("RZ", (-1.7,)), ("P", (2.5,)), ("RZ", (0.0,)),
])
def test_helper_made_gate_is_the_constructor_made_gate(name, params):
    made, want = _HELPERS[name](3, *params), SingleQubit(3, None, name, params)
    inverse, want_inverse = made.inverse(), want.inverse()
    for got, ref in ((made, want), (inverse, want_inverse)):
        assert type(got) is SingleQubit
        assert held_slots(got) == held_slots(ref)  # no u yet
        assert ([getattr(got, f.name) for f in dataclasses.fields(got) if f.name != "u"]
                == [getattr(ref, f.name) for f in dataclasses.fields(ref) if f.name != "u"])
        assert got.dump_line() == ref.dump_line()
        assert np.array_equal(got.u, ref.u) and got.u.dtype == ref.u.dtype
        assert repr(got) == repr(ref)
    assert inverse.dump_line() == f"{name} 3{''.join(f' {-p!r}' for p in params)}"


@pytest.mark.parametrize("make", [
    lambda: rz(1, 0.3), lambda: h(1), lambda: SingleQubit(1, _rz_matrix(0.3)),
])
def test_single_qubit_keeps_its_dataclass_fields_and_frozenness(make):
    assert [f.name for f in dataclasses.fields(SingleQubit)] == ["target", "u", "name", "params"]
    gate = make()
    for read_u in (False, True):
        if read_u:
            gate.u
        for attr, value in (("target", 0), ("name", "H"), ("params", ()), ("u", np.eye(2))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(gate, attr, value)
        assert (gate.target, gate.params) == (1, make().params)
    assert np.array_equal(gate.u, make().u)


def _one_of_each_kind(rng) -> list:
    (evolution,) = controlled_evolutions((2,), (0, 1), _eigenbasis(rng, 4),
                                         rng.normal(size=(1, 4)))
    return [SingleQubit(1, random_unitary(rng, 2)), h(0), rz(1, -0.3), _rotation("P", 2, 0.7),
            Cnot(0, 1), ControlledUnitary((2,), (0, 1), random_unitary(rng, 4)),
            evolution, evolution.inverse(), UniformlyControlledRy((1,), 0, [0.1, 0.2])]


def test_no_gate_has_an_instance_dict(rng):
    for gate in _one_of_each_kind(rng):
        assert not hasattr(gate, "__dict__"), gate
        for attr in ("u", "params"):
            if attr in type(gate).__slots__:
                getattr(gate, attr)
        assert not hasattr(gate, "__dict__"), gate
        with pytest.raises(AttributeError):
            object.__setattr__(gate, "extra", 0)


@pytest.mark.parametrize("name", ["RY", "RZ", "P"])
def test_a_lowered_gate_builds_its_params_once_as_its_angle(name):
    angle = -1.25
    gate = _rotation(name, 2, angle)
    assert held_slots(gate) == [("target", 2), ("name", name), ("_angle", angle)]
    params = gate.params
    assert params == (angle,) and params[0] is angle
    assert gate.params is params and not holds(gate, "u")
    assert held_slots(gate) == [("target", 2), ("name", name), ("params", params),
                                ("_angle", angle)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        gate._angle = 0.0


def test_copies_hold_the_slots_their_gate_holds(rng, monkeypatch):
    # copy and pickle build neither u nor params for the copy.
    built = count_named_builds(monkeypatch)
    for copier in (copy.copy, lambda gate: pickle.loads(pickle.dumps(gate))):
        for gate in _one_of_each_kind(rng):
            twin = copier(gate)
            assert type(twin) is type(gate)
            if isinstance(gate, (SingleQubit, ControlledUnitary)):
                assert [s for s, _ in held_slots(twin)] == [s for s, _ in held_slots(gate)]
            assert twin.dump_line() == gate.dump_line()
    assert built == []


def test_unchecked_and_adjoint_carry_every_field_of_each_kind(rng):
    for gate in _one_of_each_kind(rng):
        names = [f.name for f in dataclasses.fields(gate)]
        twin = _unchecked(type(gate), **{name: getattr(gate, name) for name in names})
        assert type(twin) is type(gate)
        assert all(getattr(twin, name) is getattr(gate, name) for name in names)
        if isinstance(gate, ControlledUnitary) or getattr(gate, "name", None) == "U":
            adjoint = _adjoint(gate)
            assert type(adjoint) is type(gate)
            assert all(getattr(adjoint, name) is getattr(gate, name)
                       for name in names if name != "u")
            assert np.array_equal(adjoint.u, gate.u.conj().T)


def _eigenbasis(rng, dim):
    """The eigenvectors, by ``eigh``, of a random symmetric matrix."""
    a = rng.normal(size=(dim, dim))
    return np.linalg.eigh(a + a.T)[1]


@pytest.mark.parametrize("beta", [1, 3, 8])
def test_evolutions_are_v_exp_i_phases_v_transposed(rng, beta):
    dim, controls = 2**beta, (beta + 1, beta, beta + 3)
    v, phases = _eigenbasis(rng, dim), rng.uniform(-50, 50, size=(3, dim))
    targets = tuple(range(beta))
    gates = controlled_evolutions(controls, targets, v, phases)
    assert [type(g) for g in gates] == [ControlledUnitary] * 3
    for gate, control, row in zip(gates, controls, phases):
        assert (gate.controls, gate.targets) == ((control,), targets)
        np.testing.assert_allclose(gate.u, (v * np.exp(1j * row)) @ v.T, rtol=0, atol=1e-12)
        assert dense_unitary_deviation(gate.u) <= UNITARY_TOL


def test_evolutions_check_the_basis_once_not_each_matrix(rng, monkeypatch):
    calls = []
    check = circuit_module._check_unitary
    monkeypatch.setattr(circuit_module, "_check_unitary",
                        lambda *a: calls.append(a) or check(*a))
    v = _eigenbasis(rng, 256)
    controlled_evolutions((8, 9, 10), tuple(range(8)), v, rng.normal(size=(3, 256)))
    assert len(calls) == 1 and calls[0][0] is v
    assert calls[0][1:] == (256, UNITARY_TOL / 1024)


def test_an_evolution_and_its_inverse_build_u_once_on_first_read(rng, monkeypatch):
    built = []
    build = circuit_module._evolution_matrix
    monkeypatch.setattr(circuit_module, "_evolution_matrix",
                        lambda *a: built.append(a) or build(*a))
    v, phases = _eigenbasis(rng, 8), rng.normal(size=(2, 8))
    forward, other = controlled_evolutions((3, 4), (0, 1, 2), v, phases)
    inverse = forward.inverse()
    twice = inverse.inverse()
    assert built == [] and not any(holds(g, "u") for g in (forward, inverse, twice))
    assert forward.factored_form()[:3] == ((3,), (0, 1, 2), v)
    assert forward.factored_form()[3] is not None and inverse.factored_form()[2] is v
    assert np.array_equal(inverse.factored_form()[3], -phases[0])
    assert np.array_equal(twice.factored_form()[3], phases[0])
    # The inverse's u is its forward gate's u.conj().T; the forward's u is
    # built once, for both, by the two real products.
    u_inverse = inverse.u
    assert len(built) == 1 and built[0][0] is v and holds(forward, "u")
    assert np.array_equal(u_inverse, forward.u.conj().T) and len(built) == 1
    assert inverse.u is u_inverse and np.array_equal(twice.u, forward.u)
    assert np.array_equal(forward.u, build(v, phases[0])) and len(built) == 1
    assert (inverse.controls, inverse.targets) == (forward.controls, forward.targets)
    assert not holds(other, "u")
    assert ControlledUnitary((3,), (0, 1, 2), forward.u).factored_form() is None


def _never(*args, **fields):
    raise AssertionError("a gate was made")


@pytest.mark.parametrize("dim", [4, 256])
def test_a_non_orthogonal_basis_is_refused_before_any_gate(rng, dim, monkeypatch):
    v = _eigenbasis(rng, dim)
    v[:, 1] *= 1 + 1e-8
    beta = dim.bit_length() - 1
    monkeypatch.setattr(circuit_module, "_unchecked", _never)
    monkeypatch.setattr(circuit_module, "ControlledUnitary", _never)
    with pytest.raises(InputError, match=r"^matrix not unitary \(deviation 2.00e-08\)$"):
        controlled_evolutions((beta,), tuple(range(beta)), v, np.zeros((1, dim)))


@pytest.mark.parametrize("change, message", [
    (lambda v, p: (v + 0j, p), "eigenvector entry must be float, got complex128"),
    (lambda v, p: (v.astype(bool), p), "eigenvector entry must be float, got bool"),
    (lambda v, p: (v, p.astype(complex)), "phase must be float, got complex128"),
    (lambda v, p: (v, np.where(p == p[0, 0], math.nan, p)), "non-finite phase"),
    (lambda v, p: (v, np.where(p == p[1, 2], math.inf, p)), "non-finite phase"),
    (lambda v, p: (v, p[:, :4]), r"phases of shape \(2, 4\) for 2 controls on 8 dims"),
    (lambda v, p: (v, p[:1]), r"phases of shape \(1, 8\) for 2 controls"),
    (lambda v, p: (v, p[0]), r"phase: expected a 2-D array, got shape \(8,\)"),
    (lambda v, p: (v[:4, :4], p), r"eigenvectors of shape \(4, 4\)"),
    (lambda v, p: (v.tolist(), p), None),
])
def test_evolution_inputs_are_checked(rng, change, message):
    v, phases = change(_eigenbasis(rng, 8), rng.normal(size=(2, 8)))
    if message is None:  # any real array of the right shape will do
        assert len(controlled_evolutions((3, 4), (0, 1, 2), v, phases)) == 2
        return
    with pytest.raises(InputError, match=message):
        controlled_evolutions((3, 4), (0, 1, 2), v, phases)


@pytest.mark.parametrize("controls", [(3, 1), (2,), (3, 4, 0)])
def test_an_evolution_reusing_a_qubit_is_refused(rng, controls):
    with pytest.raises(InputError, match="gate reuses a qubit"):
        controlled_evolutions(controls, (0, 1, 2), _eigenbasis(rng, 8),
                              rng.normal(size=(len(controls), 8)))


def test_evolutions_up_to_the_width_limit_are_made_and_past_it_refused(rng, monkeypatch):
    # One check of the basis bounds every evolution up to 2^10 dims; a wider
    # register is refused before its arrays are read.
    calls = []
    check = circuit_module._check_unitary
    monkeypatch.setattr(circuit_module, "_check_unitary",
                        lambda *a: calls.append(a) or check(*a))
    v = _eigenbasis(rng, 2**MAX_EVOLUTION_QUBITS)
    (gate,) = controlled_evolutions((10,), tuple(range(10)), v, rng.normal(size=(1, 1024)))
    assert gate.u.shape == (1024, 1024) and len(calls) == 1 and calls[0][0] is v
    monkeypatch.setattr(circuit_module, "as_array", _never)
    monkeypatch.setattr(circuit_module, "_check_unitary", _never)
    with pytest.raises(InputError, match=r"^evolutions on 11 qubits are over the 10-qubit limit$"):
        controlled_evolutions((11,), tuple(range(11)), np.eye(2), np.zeros((1, 2)))
