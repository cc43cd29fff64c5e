"""Gate checks made when a gate is made: the unitarity check against a dense
oracle, on non-finite entries too, the names, params and matrices a
SingleQubit can honour, and the gates that need no check: named gates and
inverses.  A named gate builds its matrix on first read.  The QPE evolutions
of ``controlled_evolutions`` are checked once, through their eigenbasis."""

import copy
import dataclasses
import math
import operator
import re
import warnings

import numpy as np
import pytest

import qpf.qsim.circuit as circuit_module
from helpers import count_named_builds, dense_unitary_deviation, named_matrix, random_unitary
from qpf.errors import InputError
from qpf.qsim import ControlledUnitary, SingleQubit, controlled_evolutions, h, phase, ry, rz, x
from qpf.qsim.circuit import _NAMED, UNITARY_TOL, _check_unitary, _ry_matrix, _rz_matrix


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
        ControlledUnitary((0, 2), (1,), random_unitary(rng, 2), control_pattern=1),
        ControlledUnitary((), (2, 0, 1), random_unitary(rng, 8)),
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
        assert built == [] and "u" not in vars(gate)
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
        assert list(vars(got).items()) == list(vars(ref).items())  # no u yet
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
        assert (gate.controls, gate.targets, gate.pattern) == ((control,), targets, 1)
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


def test_past_the_bounded_width_each_evolution_is_checked(rng, monkeypatch):
    # Where one check of the basis no longer bounds every evolution, each is
    # checked as a caller's matrix is, and the basis is not.
    monkeypatch.setattr(circuit_module, "_MAX_BASIS_CHECKED_DIM", 4)
    calls = []
    check = circuit_module._check_unitary
    monkeypatch.setattr(circuit_module, "_check_unitary",
                        lambda *a: calls.append(a) or check(*a))
    v, phases = _eigenbasis(rng, 8), rng.normal(size=(2, 8))
    gates = controlled_evolutions((3, 4), (0, 1, 2), v, phases)
    assert len(calls) == 2
    assert all(u is g.u and dim == 8 for (u, dim), g in zip(calls, gates))
    v[:, 1] *= 1 + 1e-8
    with pytest.raises(InputError, match=r"^matrix not unitary \(deviation 2\.\d\de-08\)$"):
        controlled_evolutions((3, 4), (0, 1, 2), v, phases)
