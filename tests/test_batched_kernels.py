"""The batched Cl(1,3) product, the batched Cl(1,3) route, the batched
exponentials and induced matrices of both routes, and the batched oracle:
each row of a batch is bit for bit its batch-of-one result.

verify stacks its trials and runs each route once, so these tests are what
makes its deviations the same numbers a per-trial run would measure.
"""

import ast
import inspect
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from emconf import oracle
from emconf.bridge import even_to_cl3
from emconf.cl3 import Faraday3, Paravector3, exp_complex_vector
from emconf.cl13 import (
    DIM,
    SIGN_TABLE,
    Faraday13,
    FourVector,
    Multivector13,
    exp_bivector,
    geometric_product,
    grade_project,
    vector_sandwich,
)
from emconf.conformal13 import _project, _versors, induced_matrix, transform
from emconf.conformal3 import induced_matrix3, transform3
from emconf.errors import GradeLeakageError, LightConeError, SctConeError
from emconf.maps import (
    CoordinateFrame,
    Inversion,
    Lorentz,
    LorentzClass,
    QuantityKind,
    Sct,
)


def _dense_structure_tensor():
    tensor = np.zeros((DIM, DIM, DIM))
    for i in range(DIM):
        for j in range(DIM):
            tensor[i, j, i ^ j] = SIGN_TABLE[i, j]
    return tensor


def test_sparse_product_equals_dense_structure_tensor_on_blade_pairs():
    tensor = _dense_structure_tensor()
    blades = np.eye(DIM)
    i, j = np.divmod(np.arange(DIM * DIM), DIM)
    batched = geometric_product(Multivector13(blades[i]), Multivector13(blades[j])).c
    for n, (a, b) in enumerate(zip(i, j)):
        dense = np.einsum("i,j,ijk->k", blades[a], blades[b], tensor)
        single = geometric_product(Multivector13.blade(a), Multivector13.blade(b)).c
        assert np.array_equal(single, dense)
        assert np.array_equal(batched[n], dense)


def test_sparse_product_agrees_with_dense_product_on_random_elements():
    tensor = _dense_structure_tensor()
    rng = np.random.default_rng(71)
    a = rng.uniform(-1, 1, (50, DIM))
    b = rng.uniform(-1, 1, (50, DIM))
    dense = np.einsum("ni,nj,ijk->nk", a, b, tensor)
    got = geometric_product(Multivector13(a), Multivector13(b)).c
    assert np.max(np.abs(got - dense)) <= 1e-14


@pytest.mark.parametrize("shape", [(37,), (5, 7)])
def test_batched_product_rows_are_single_products(shape):
    rng = np.random.default_rng(72)
    a = rng.standard_normal(shape + (DIM,)) * rng.uniform(0.1, 10, shape + (1,))
    b = rng.standard_normal(shape + (DIM,))
    one = rng.standard_normal(DIM)
    batch = geometric_product(Multivector13(a), Multivector13(b)).c
    left = geometric_product(Multivector13(one), Multivector13(b)).c
    right = geometric_product(Multivector13(a), Multivector13(one)).c
    for idx in np.ndindex(*shape):
        A, B = Multivector13(a[idx]), Multivector13(b[idx])
        assert np.array_equal(batch[idx], geometric_product(A, B).c)
        assert np.array_equal(left[idx], geometric_product(Multivector13(one), B).c)
        assert np.array_equal(right[idx], geometric_product(A, Multivector13(one)).c)


def _events(rng, n, guard=0.05):
    rows = []
    while len(rows) < n:
        x = rng.uniform(-2, 2, 4)
        a = rng.uniform(-1, 1, 4)
        if abs(oracle.msq(x)) > guard and abs(oracle.sct_scale(x, a)) > guard:
            rows.append((x, a))
    return tuple(np.array(part) for part in zip(*rows))


@pytest.mark.parametrize("frame", list(CoordinateFrame))
@pytest.mark.parametrize("kind", list(QuantityKind))
@pytest.mark.parametrize("family", ["inversion", "sct"])
def test_transform_batch_rows_are_single_events(family, kind, frame):
    """Per-trial vectors a ride the batch axis of the special conformal map."""
    rng = np.random.default_rng(73)
    X, A = _events(rng, 12)
    E, B, V = rng.uniform(-2, 2, (12, 3)), rng.uniform(-2, 2, (12, 3)), rng.uniform(-2, 2, (12, 4))

    def params(rows):
        return Inversion(-1) if family == "inversion" else Sct(FourVector.from_array(A[rows]))

    def value(rows):
        if kind is QuantityKind.FARADAY:
            return Faraday13(E[rows], B[rows])
        return FourVector.from_array((X if kind is QuantityKind.POSITION else V)[rows])

    def arrays(out):
        if isinstance(out, Faraday13):
            return np.concatenate([out.E, out.B], axis=-1)
        return out.as_array()

    every = np.arange(12)
    batch = arrays(transform(params(every), kind, value(every), FourVector.from_array(X), frame))
    for i in range(12):
        single = transform(params(i), kind, value(i), FourVector.from_array(X[i]), frame)
        assert np.array_equal(batch[i], arrays(single))


def test_transform_batch_raises_the_first_refused_rows_error():
    x = FourVector.from_array([[1.0, 0.2, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
    F = Faraday13(np.ones((3, 3)), np.zeros((3, 3)))
    with pytest.raises(LightConeError, match="x\\^2 = 0.000e\\+00"):
        transform(Inversion(1), QuantityKind.FARADAY, F, x)
    a = FourVector.from_array([[0.0, 0.0, 0.0, 0.0], [-0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    # sigma = 1 + 2 a.x + a^2 x^2 vanishes at the second row only.
    x = FourVector.from_array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]])
    with pytest.raises(SctConeError):
        transform(Sct(a), QuantityKind.FARADAY, F, x)


@pytest.mark.parametrize("kind", [QuantityKind.POTENTIAL, QuantityKind.CURRENT, QuantityKind.FARADAY])
def test_project_equals_the_guarded_extraction(kind):
    """_project reads the kind's blades straight from the weighted sandwich;
    the old path projected and guarded a second time through from_mv."""
    rng = np.random.default_rng(78)
    X, A = _events(rng, 30)
    x, a = FourVector.from_array(X), FourVector.from_array(A)
    if kind is QuantityKind.FARADAY:
        q = Faraday13(rng.uniform(-2, 2, (30, 3)), rng.uniform(-2, 2, (30, 3))).to_mv()
    else:
        q = FourVector.from_array(rng.uniform(-2, 2, (30, 4))).to_mv()
    lorentz = Lorentz(rng.uniform(-1, 1, (30, 3)), rng.uniform(-1, 1, (30, 3)))
    families = (Inversion(1), lorentz, Sct(a))
    for left, right in (_versors(p, x, frame) for p in families for frame in CoordinateFrame):
        out = vector_sandwich(left, q, right)
        for weight in (rng.uniform(-3, 3, 30), -1.0):
            got = _project(kind, out, (left, q, right), weight)
            if kind is QuantityKind.FARADAY:
                old = Faraday13.from_mv((weight * out).grade(2))
                assert got.E.tobytes() + got.B.tobytes() == old.E.tobytes() + old.B.tobytes()
            else:
                old = FourVector.from_mv((weight * out).grade(1))
                assert got.as_array().tobytes() == old.as_array().tobytes()


def test_grade_project_refuses_any_leaking_row():
    c = np.zeros((4, DIM))
    c[:, 1] = 1.0
    c[2, 3] = 1e-6
    with pytest.raises(GradeLeakageError, match="1.000e-06"):
        grade_project(Multivector13(c), 1)
    c[2, 3] = 0.0
    assert np.array_equal(grade_project(Multivector13(c), 1).c, c)


def test_induced_matrix_maps_the_basis_as_one_batch():
    """Column k is the image of basis event k mapped on its own."""
    params = Lorentz(boost=(0.3, -0.2, 0.1), rotation=(0.0, 0.4, -0.1),
                     lorentz_class=LorentzClass.IMPROPER_ANTICHRONOUS)
    L = induced_matrix(params)
    for k in range(4):
        image = transform(params, QuantityKind.POSITION, FourVector.from_array(np.eye(4)[k]))
        assert np.array_equal(L[:, k], image.as_array())


def test_batched_exponentials_are_their_rows():
    rng = np.random.default_rng(75)
    w = rng.uniform(-2, 2, (6, 3)) + 1j * rng.uniform(-2, 2, (6, 3))
    w[0] = (1.0, 1j, 0.0)  # null: w.w = 0
    e3 = exp_complex_vector(w)
    e13 = exp_bivector(Faraday13(w.real, w.imag).to_mv())
    for i in range(6):
        one = exp_complex_vector(w[i])
        assert one.s.tobytes() + one.v.tobytes() == e3.s[i].tobytes() + e3.v[i].tobytes()
        one = exp_bivector(Faraday13(w[i].real, w[i].imag).to_mv())
        assert one.c.tobytes() == e13.c[i].tobytes()
    grid = exp_complex_vector(w.reshape(2, 3, 3))
    assert np.array_equal(grid.v.reshape(6, 3), e3.v)


@pytest.mark.parametrize("cls", list(LorentzClass))
@pytest.mark.parametrize("induced", [induced_matrix, induced_matrix3])
def test_batched_induced_matrices_are_their_rows(induced, cls):
    """One class's maps stacked on a leading axis, shape (n, 3)."""
    rng = np.random.default_rng(76)
    boost, rotation = rng.uniform(-1, 1, (2, 5, 3))
    M = induced(Lorentz(boost, rotation, cls))
    assert M.shape == (5, 4, 4)
    for i in range(5):
        one = induced(Lorentz(tuple(boost[i]), tuple(rotation[i]), cls))
        assert np.array_equal(M[i], one)


def _parts(out) -> tuple:
    """The arrays holding a result's components, batch axes first."""
    if isinstance(out, FourVector):
        return (out.as_array(),)
    if isinstance(out, Faraday13):
        return out.E, out.B
    if isinstance(out, Paravector3):
        return out.s, out.v
    if isinstance(out, Faraday3):
        return (out.F,)
    return (out,)


def _mixed_classes(n: int, seed: int):
    """Boost and rotation rows and a shuffled array holding every class."""
    rng = np.random.default_rng(seed)
    boost, rotation = rng.uniform(-1, 1, (2, n, 3))
    classes = np.array(list(LorentzClass) * (n // 4), dtype=object)
    rng.shuffle(classes)
    return boost, rotation, classes


def _assert_rows_are_single_calls(call, boost, rotation, classes):
    """Row i of call on the mixed batch holds the bytes of call on map i
    alone, of class classes[i]; call(params, rows) also takes the rows of
    its other inputs, every row or row i."""
    batch = _parts(call(Lorentz(boost, rotation, classes), slice(None)))
    for i, cls in enumerate(classes):
        single = _parts(call(Lorentz(tuple(boost[i]), tuple(rotation[i]), cls), i))
        assert [b[i].tobytes() for b in batch] == [s.tobytes() for s in single]


@pytest.mark.parametrize("induced", [induced_matrix, induced_matrix3])
def test_mixed_class_induced_matrices_are_single_class_calls(induced):
    boost, rotation, classes = _mixed_classes(12, 78)
    assert induced(Lorentz(boost, rotation, classes)).shape == (12, 4, 4)
    _assert_rows_are_single_calls(lambda p, rows: induced(p), boost, rotation, classes)


@pytest.mark.parametrize("kind", list(QuantityKind))
@pytest.mark.parametrize("route", [transform, transform3])
def test_mixed_class_lorentz_rows_are_single_class_calls(route, kind):
    """Every class in one batch, against each row mapped with its own class;
    row 5 holds a boost whose image leaves the float64 range."""
    boost, rotation, classes = _mixed_classes(12, 79)
    boost[5] = (400.0, 0.0, 0.0)
    v, E, B = np.random.default_rng(80).uniform(-2, 2, (3, 12, 4))

    def call(params, rows):
        if kind is QuantityKind.FARADAY:
            field = Faraday13 if route is transform else Faraday3
            value = field(E[rows, :3], B[rows, :3])
        elif route is transform:
            value = FourVector.from_array(v[rows])
        else:
            value = Paravector3.from_event(v[rows])
        return route(params, kind, value)

    with np.errstate(all="ignore"):
        _assert_rows_are_single_calls(call, boost, rotation, classes)


def test_cl13_rotor_maps_onto_the_cl3_rotor():
    """exp of the generator with boost b and rotation r goes through the
    bridge to exp(b + i r)."""
    rng = np.random.default_rng(77)
    boost, rotation = rng.uniform(-2, 2, (2, 50, 3))
    L13 = exp_bivector(Faraday13(boost, rotation).to_mv())
    L3 = exp_complex_vector(boost + 1j * rotation)
    dev = (even_to_cl3(L13) - L3).max_abs()
    assert (dev <= 1e-15 * np.fmax(1.0, L3.max_abs())).all()


# -- the oracle -------------------------------------------------------------------


ROWS = 40


def _oracle_inputs():
    rng = np.random.default_rng(74)
    X, A = _events(rng, ROWS)
    E, B = rng.uniform(-2, 2, (ROWS, 3)), rng.uniform(-2, 2, (ROWS, 3))
    M = oracle.jacobian_sct(X, A)
    return {
        "x": X, "a": A, "E": E, "B": B, "A": rng.uniform(-2, 2, (ROWS, 4)),
        "M": M, "Mi": oracle.jacobian_inversion(X, -1),
        "F": oracle.pack_faraday(E, B), "lam": np.abs(oracle.sct_scale(X, A)),
        "theta": np.where(rng.uniform(size=ROWS) < 0.5, 1, -1),
        "xn": oracle.sct_event(X, A), "det": np.linalg.det(np.asarray(M, np.float64)),
    }


# Every public oracle function, called on one set of inputs, which may be a
# batch or one row of it.
ORACLE_CALLS = {
    "lower": lambda d: oracle.lower(d["x"]),
    "mdot": lambda d: oracle.mdot(d["x"], d["a"]),
    "msq": lambda d: oracle.msq(d["x"]),
    "pack_faraday": lambda d: oracle.pack_faraday(d["E"], d["B"]),
    "unpack_faraday": lambda d: oracle.unpack_faraday(d["F"]),
    "invert_event": lambda d: oracle.invert_event(d["x"], -1),
    "sct_scale": lambda d: oracle.sct_scale(d["x"], d["a"]),
    "sct_event": lambda d: oracle.sct_event(d["x"], d["a"]),
    "jacobian_inversion": lambda d: oracle.jacobian_inversion(d["x"], 1),
    "jacobian_sct": lambda d: oracle.jacobian_sct(d["x"], d["a"]),
    "fd_jacobian": lambda d: oracle.fd_jacobian(lambda p: oracle.sct_event(p, d["a"]), d["x"]),
    "conformal_factor": lambda d: oracle.conformal_factor(d["M"]),
    "conformality_residual": lambda d: oracle.conformality_residual(d["M"]),
    "time_orientation": lambda d: oracle.time_orientation(d["Mi"]),
    "conformal_inverse": lambda d: oracle.conformal_inverse(d["M"], d["lam"]),
    "transform_potential": lambda d: oracle.transform_potential(d["M"], d["A"], d["lam"], d["theta"]),
    "transform_current": lambda d: oracle.transform_current(d["Mi"], d["A"]),
    "transform_faraday": lambda d: oracle.transform_faraday(d["M"], d["F"], d["lam"], 1),
    "transform_potential_covariant": lambda d: oracle.transform_potential_covariant(d["M"], d["A"]),
    "inversion_faraday_tensor": lambda d: oracle.inversion_faraday_tensor(d["F"], d["x"], -1),
    "sct_faraday_tensor": lambda d: oracle.sct_faraday_tensor(d["F"], d["x"], d["a"]),
    "inversion_field_forms": lambda d: tuple(
        oracle.inversion_field_forms(d["E"], d["B"], d["x"], eps) for eps in (1, -1)),
    "sct_field_components": lambda d: oracle.sct_field_components(d["E"], d["B"], d["x"], d["a"]),
    "sct_field_components_newcoords": lambda d: oracle.sct_field_components_newcoords(
        d["E"], d["B"], d["xn"], d["a"]),
    "inversion_potential_components": lambda d: oracle.inversion_potential_components(
        d["A"], d["x"]),
    "sct_potential_components": lambda d: oracle.sct_potential_components(d["A"], d["x"], d["a"]),
    "invariants_from_tensor": lambda d: oracle.invariants_from_tensor(d["F"]),
    "invariants_transformed": lambda d: oracle.invariants_transformed(
        d["F"], d["M"], d["lam"], 1, d["det"]),
    "inversion_inverse_jacobian_det": lambda d: oracle.inversion_inverse_jacobian_det(d["x"], 1),
}


def test_every_public_oracle_function_is_covered():
    public = {
        name for name, fn in inspect.getmembers(oracle, inspect.isfunction)
        if fn.__module__ == oracle.__name__ and not name.startswith("_")
    }
    assert public == set(ORACLE_CALLS)


def _assert_rows_equal(batch, single, row):
    if isinstance(single, tuple):
        assert isinstance(batch, tuple) and len(batch) == len(single)
        for b, s in zip(batch, single):
            _assert_rows_equal(b, s, row)
        return
    assert np.asarray(single).shape == np.asarray(batch)[row].shape
    assert np.array_equal(np.asarray(batch)[row], np.asarray(single))


@pytest.mark.parametrize("name", sorted(ORACLE_CALLS))
def test_batched_oracle_rows_are_single_event_calls(name):
    inputs = _oracle_inputs()
    batch = ORACLE_CALLS[name](inputs)
    for row in range(ROWS):
        single = ORACLE_CALLS[name]({k: v[row] for k, v in inputs.items()})
        _assert_rows_equal(batch, single, row)


def test_inversion_field_forms_agree_row_by_row():
    """The dot-product and double-cross forms of the inverted fields agree
    to roundoff in every row of a batch, for both signs."""
    d = _oracle_inputs()
    for eps in (1, -1):
        (Ep, Bp), (Ec, Bc) = oracle.inversion_field_forms(d["E"], d["B"], d["x"], eps)
        dev = np.maximum(np.abs(Ep - Ec).max(axis=-1), np.abs(Bp - Bc).max(axis=-1))
        scale = np.maximum(1.0, np.maximum(np.abs(Ep).max(axis=-1), np.abs(Bp).max(axis=-1)))
        assert (dev <= 1e-12 * scale).all()


def test_single_event_oracle_keeps_float_returns():
    x, a = np.array([1.0, 0.2, 0.1, 0.0]), np.array([0.1, 0.0, 0.2, 0.0])
    for value in (oracle.msq(x), oracle.mdot(x, a), oracle.sct_scale(x, a),
                  oracle.conformal_factor(oracle.jacobian_sct(x, a)),
                  *oracle.invariants_from_tensor(oracle.pack_faraday([1, 0, 0], [0, 1, 0]))):
        assert type(value) is float
    assert type(oracle.time_orientation(oracle.jacobian_sct(x, a))) is int
    E, B = oracle.unpack_faraday(oracle.pack_faraday([1, 2, 3], [4, 5, 6]))
    assert E.tolist() == [1, 2, 3] and B.tolist() == [4, 5, 6]


def _imports(name: str) -> set:
    """The modules emconf.<name> imports: the package's own by their short
    name (errors, cl13, ...), any other by its top-level name."""
    def short(module: str) -> str:
        parts = module.split(".")
        return parts[1] if parts[0] == "emconf" and len(parts) > 1 else parts[0]

    tree = ast.parse(Path(inspect.getsourcefile(import_module(f"emconf.{name}"))).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(short(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.module == "emconf":  # from . import oracle
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(short(node.module))
    return imported


# Each case: the modules, the package modules none of them may import, and
# the modules outside the standard library they may import, if limited.
LAYERS = [
    # The oracle is the independent route: never an algebra.
    pytest.param(["oracle"], {"cl13", "cl3", "conformal13", "conformal3", "bridge"}, None,
                 id="oracle"),
    # The map parameters are shared by every route, so they import no route.
    pytest.param(["maps"], set(), {"numpy", "errors"}, id="maps"),
    # The Cl(3) path, which serves every CLI sweep, runs no Cl(1,3) code.
    pytest.param(["cl3", "conformal3", "fields", "numtext"],
                 {"cl13", "conformal13", "bridge", "oracle", "verify"}, None, id="cl3_path"),
]


@pytest.mark.parametrize("modules, forbidden, only", LAYERS)
def test_layers_import_only_what_they_may(modules, forbidden, only):
    """The three routes stay independent at import time."""
    for name in modules:
        imported = _imports(name)
        assert not imported & forbidden, (name, imported & forbidden)
        if only is not None:
            assert imported - set(sys.stdlib_module_names) <= only, (name, imported)
    # The walk sees relative imports: the oracle's error types are one.
    assert "errors" in _imports("oracle")
