"""Transformation-family tests in the Cl(3) representation, and the tests
that run both Clifford routes through their one entry each."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emconf.cl13 import Faraday13, FourVector
from emconf.cl3 import Faraday3, Paravector3, minkowski_square
from emconf.conformal13 import induced_matrix, sct_factor, transform
from emconf.conformal3 import (
    Refusal,
    _inverse_lorentz,
    induced_matrix3,
    preimage_rows,
    raise_refusal,
    sct_factor3,
    transform3,
    transform_rows,
)
from emconf.errors import LightConeError, SctConeError
from emconf.fields import Coulomb, sweep
from emconf.oracle import (
    invert_event,
    jacobian_inversion,
    jacobian_sct,
    sct_event,
    sct_scale,
)
from emconf.maps import (
    CoordinateFrame,
    Dilation,
    Inversion,
    Lorentz,
    LorentzClass,
    QuantityKind,
    Sct,
    Translation,
)

ORIG = CoordinateFrame.ORIGINAL
TRANS = CoordinateFrame.TRANSFORMED
POSITION = QuantityKind.POSITION
POTENTIAL = QuantityKind.POTENTIAL
CURRENT = QuantityKind.CURRENT
FARADAY = QuantityKind.FARADAY


def ev(v) -> Paravector3:
    return Paravector3.from_event(v)


def rand_event(rng, guard=0.2):
    while True:
        v = rng.uniform(-2, 2, 4)
        p = ev(v)
        if abs(minkowski_square(p)) > guard:
            return p


def _event13(v) -> FourVector:
    return FourVector(*v)


def _array(q) -> np.ndarray:
    """Components of either route's output: (t, x, y, z), or E then B."""
    if isinstance(q, (Faraday13, Faraday3)):
        return np.concatenate([q.E, q.B])
    if isinstance(q, FourVector):
        return q.as_array()
    return q.event()


# Each route: its entry, how it builds an event or four-vector from
# components, its field type, and its special conformal scale.
ROUTES = [
    pytest.param((transform, _event13, Faraday13, sct_factor), id="cl13"),
    pytest.param((transform3, ev, Faraday3, sct_factor3), id="cl3"),
]


# -- both routes ------------------------------------------------------------------


@pytest.mark.parametrize("route", ROUTES)
def test_inversion_frozen_values(route):
    """On the time axis the inversion scales by powers of x^2 = 4."""
    tf, vec, field, _ = route
    x = vec((2.0, 0.0, 0.0, 0.0))
    inv = Inversion(1)
    assert np.array_equal(_array(tf(inv, POSITION, x)), [0.5, 0.0, 0.0, 0.0])
    assert np.array_equal(
        _array(tf(Inversion(-1), POSITION, x)), [-0.5, 0.0, 0.0, 0.0]
    )
    out = tf(inv, CURRENT, vec((1.0, 0.0, 0.0, 0.0)), x, ORIG)
    assert np.allclose(_array(out), [64.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-12)
    out = tf(inv, POTENTIAL, vec((0.0, 1.0, 0.0, 0.0)), vec((1.0, 0.0, 0.0, 0.0)), ORIG)
    assert np.allclose(_array(out), [0.0, -1.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
    out = tf(inv, FARADAY, field((1.0, 0.0, 0.0), (0.0, 0.0, 0.0)), x, ORIG)
    assert np.allclose(out.E, [16.0, 0.0, 0.0], rtol=0.0, atol=1e-12)
    assert np.allclose(out.B, 0.0, rtol=0.0, atol=1e-12)
    with pytest.raises(LightConeError):
        tf(inv, POSITION, vec((1.0, 1.0, 0.0, 0.0)))


def test_inversion_sign_is_validated():
    for bad in (2, 0):
        with pytest.raises(ValueError, match="inversion sign"):
            Inversion(bad)


@pytest.mark.parametrize("route", ROUTES)
def test_sct_position_frozen(route):
    tf, vec, _, factor = route
    x = vec((1.0, 0.0, 0.0, 0.0))
    a = FourVector(1.0, 0.0, 0.0, 0.0)
    assert factor(x, vec(a.as_array())) == pytest.approx(4.0, abs=1e-15)
    out = tf(Sct(a), POSITION, x)
    assert np.allclose(_array(out), [0.5, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
    with pytest.raises(SctConeError):
        tf(Sct(a), POSITION, vec((-1.0, 0.0, 0.0, 0.0)))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("kind", [POTENTIAL, CURRENT, FARADAY])
def test_sct_refuses_the_excluded_cone(route, kind):
    """Every kind guards the scale, the potential included, in both frames."""
    tf, vec, field, _ = route
    a = FourVector(1.0, 0.0, 0.0, 0.0)
    value = field((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) if kind is FARADAY else vec(
        (0.2, 1.0, 0.0, 0.0)
    )
    with pytest.raises(SctConeError):
        tf(Sct(a), kind, value, vec((-1.0, 0.0, 0.0, 0.0)), ORIG)
    with pytest.raises(SctConeError):
        tf(Sct(a), kind, value, vec((1.0, 0.0, 0.0, 0.0)), TRANS)


@pytest.mark.parametrize("route", ROUTES)
def test_lorentz_boost_frozen(route):
    """Rapidity parameter 0.5 doubles in the sandwich: e0 boosts by rapidity 1."""
    tf, vec, _, _ = route
    out = tf(Lorentz(boost=(0.5, 0.0, 0.0)), POSITION, vec((1.0, 0.0, 0.0, 0.0)))
    want = [np.cosh(1.0), np.sinh(1.0), 0.0, 0.0]
    assert np.allclose(_array(out), want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("route", ROUTES)
def test_lorentz_rotation_turns_the_field_by_twice_its_parameter(route):
    """A pure rotation r keeps E along r and turns the rest by 2|r|."""
    tf, _, field, _ = route
    r, E = np.array([0.3, -0.5, 0.4]), np.array([1.0, 0.2, -0.7])
    out = _array(tf(Lorentz(rotation=tuple(r)), FARADAY, field(E, np.zeros(3))))
    n = r / np.linalg.norm(r)
    Ep = out[:3]
    assert Ep @ n == pytest.approx(E @ n, abs=1e-15)
    a, b = E - (E @ n) * n, Ep - (Ep @ n) * n
    angle = np.arctan2(np.linalg.norm(np.cross(a, b)), a @ b)
    assert angle == pytest.approx(2.0 * np.linalg.norm(r), abs=1e-14)
    assert np.abs(out[3:]).max() == 0.0


@pytest.mark.parametrize("route", ROUTES)
def test_frames_agree_through_the_image_point(route):
    """ORIGINAL at the source equals TRANSFORMED at the image, both maps."""
    tf, vec, field, factor = route
    rng = np.random.default_rng(42)
    a = FourVector(0.3, -0.2, 0.1, 0.4)
    checked = 0
    for i in range(25):
        x = rand_event(rng)
        x = vec(_array(x))
        if abs(factor(x, vec(a.as_array()))) < 0.2:
            continue
        A = vec(rng.uniform(-2, 2, 4))
        F = field(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        for params in (Inversion(1 if i % 2 == 0 else -1), Sct(a)):
            image = tf(params, POSITION, x)
            for kind, value in ((POTENTIAL, A), (CURRENT, A), (FARADAY, F)):
                ref = _array(tf(params, kind, value, x, ORIG))
                alt = _array(tf(params, kind, value, image, TRANS))
                assert np.max(np.abs(ref - alt)) <= 1e-9
                checked += 1
    assert checked >= 60


_FAMILIES = [
    pytest.param(Dilation(2.5), id="dilation"),
    pytest.param(Translation(FourVector(0.5, -1.0, 0.25, 2.0)), id="translation"),
    *(
        pytest.param(
            Lorentz(boost=(0.3, -0.2, 0.4), rotation=(0.5, 0.1, -0.7), lorentz_class=c),
            id=c.value,
        )
        for c in LorentzClass
    ),
    pytest.param(Inversion(1), id="inversion+"),
    pytest.param(Inversion(-1), id="inversion-"),
    pytest.param(Sct(FourVector(0.3, -0.2, 0.1, 0.4)), id="sct"),
]


@pytest.mark.parametrize("frame", list(CoordinateFrame), ids=lambda f: f.value)
@pytest.mark.parametrize("kind", list(QuantityKind), ids=lambda k: k.value)
@pytest.mark.parametrize("params", _FAMILIES)
def test_routes_agree_through_the_bridge(params, kind, frame):
    """transform and transform3 carry the same map, read through the bridge."""
    rng = np.random.default_rng(55)
    a = FourVector(0.3, -0.2, 0.1, 0.4)
    minus_a = FourVector(*(-a.as_array()))
    done = 0
    while done < 10:
        v = rng.uniform(-2, 2, 4)
        x = FourVector(*v)
        # clear of the light cone and of both special conformal cones, so
        # that every family is defined at x read as a source or an image
        if min(abs(x.minkowski_sq()), abs(sct_factor(x, a)),
               abs(sct_factor(x, minus_a))) < 0.2:
            continue
        if kind is FARADAY:
            E, B = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            v13, v3 = Faraday13(E, B), Faraday3(E, B)
        else:
            q = x if kind is POSITION else FourVector(*rng.uniform(-2, 2, 4))
            v13, v3 = q, ev(q)
        out13 = transform(params, kind, v13, x, frame)
        out3 = transform3(params, kind, v3, ev(x), frame)
        bridged = Faraday3(out13.E, out13.B) if kind is FARADAY else ev(out13)
        want = _array(out3)
        dev = np.max(np.abs(_array(bridged) - want))
        assert dev <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
        done += 1


# -- the Cl(3) route ----------------------------------------------------------------


def test_sct3_pure_time_field_factor():
    """At rest on the time axis the field just scales by the squared factor."""
    x = ev((1.0, 0.0, 0.0, 0.0))
    sct = Sct(FourVector(0.5, 0.0, 0.0, 0.0))
    F = Faraday3(E=(0.7, -0.2, 0.1), B=(0.0, 0.3, -0.4))
    out = transform3(sct, FARADAY, F, x, ORIG)
    assert np.allclose(out.E, 5.0625 * F.E, atol=1e-12)
    assert np.allclose(out.B, 5.0625 * F.B, atol=1e-12)


def test_induced_matrix3_classes():
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    rng = np.random.default_rng(52)
    for cls in LorentzClass:
        params = Lorentz(
            boost=tuple(rng.uniform(-1, 1, 3)),
            rotation=tuple(rng.uniform(-2, 2, 3)),
            lorentz_class=cls,
        )
        L = induced_matrix3(params)
        assert np.max(np.abs(L.T @ eta @ L - eta)) < 1e-12


@pytest.mark.parametrize("cls", list(LorentzClass))
def test_lorentz_preimage_is_the_inverse_matrix(cls):
    """The closed-form preimage of the basis events is the inverse of the
    induced matrix, column by column."""
    rng = np.random.default_rng(54)
    basis = ev(np.eye(4))
    for _ in range(10):
        params = Lorentz(
            boost=tuple(rng.uniform(-1, 1, 3)),
            rotation=tuple(rng.uniform(-2, 2, 3)),
            lorentz_class=cls,
        )
        want = np.linalg.inv(induced_matrix3(params))
        back, reason = preimage_rows(params, basis)
        assert not reason.any()
        got = np.concatenate([back.s.real[:, None], back.v.real], axis=1).T
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_lorentz_preimage_of_mixed_classes_is_each_rows_preimage():
    """The undoing map of a batch with a class per row holds, row by row,
    the bytes of each map's own undoing map."""
    rng = np.random.default_rng(55)
    boost, rotation = rng.uniform(-1, 1, (2, 8, 3))
    classes = np.array(list(LorentzClass) * 2, dtype=object)
    inv = _inverse_lorentz(Lorentz(boost, rotation, classes))
    assert inv.lorentz_class is classes
    for i, cls in enumerate(classes):
        one = _inverse_lorentz(Lorentz(boost[i], rotation[i], cls))
        assert inv.boost[i].tobytes() == one.boost.tobytes()
        assert inv.rotation[i].tobytes() == one.rotation.tobytes()


@pytest.mark.parametrize("classes", [
    LorentzClass.PROPER_ORTHOCHRONOUS,
    np.array([LorentzClass.IMPROPER_ORTHOCHRONOUS, LorentzClass.PROPER_ANTICHRONOUS]),
], ids=["one-class", "class-per-row"])
def test_preimage_of_a_batch_of_lorentz_maps_is_each_rows_preimage(classes):
    """A batch of maps undoes each event by its own map, with the bytes of
    that map's own preimage: two boosts, or one boost and a class per row."""
    boost = np.array([[0.3, 0.0, 0.0], [0.0, 0.2, 0.0]])
    rotation = np.array([[0.0, 0.0, 0.0], [0.1, -0.4, 0.2]])
    events = np.array([[1.5, 0.2, -1.0, 0.7], [-0.5, 2.0, 0.3, -0.4]])
    for params, rows in (
        (Lorentz(boost, rotation, classes), range(2)),
        (Lorentz(boost[0], rotation[0], classes), [0, 0]),
    ):
        back, _ = preimage_rows(params, ev(events))
        for i, m in enumerate(rows):
            cls = classes if isinstance(classes, LorentzClass) else classes[i]
            one, _ = preimage_rows(Lorentz(boost[m], rotation[m], cls), ev(events[i]))
            assert back.s[i].tobytes() == one.s.tobytes()
            assert back.v[i].tobytes() == one.v.tobytes()


@pytest.mark.parametrize("params", [
    Dilation(factor=2.5),
    Translation(offset=FourVector(0.5, -1.0, 0.25, 2.0)),
    Lorentz(boost=(0.2, -0.1, 0.3), rotation=(0.4, 0.0, -0.2)),
    Inversion(eps=-1),
    Sct(a=FourVector(0.2, 0.1, -0.3, 0.05)),
], ids=["dilation", "translation", "lorentz", "inversion", "sct"])
def test_preimage_rows_round_trips(params):
    """preimage_rows undoes each family's forward position map."""
    rng = np.random.default_rng(53)
    for _ in range(10):
        x = rand_event(rng, guard=0.5)
        a = ev(params.a) if isinstance(params, Sct) else None
        if a is not None and abs(sct_factor3(x, a)) < 0.5:
            continue
        back, reason = preimage_rows(params, transform3(params, POSITION, x))
        assert not reason.any()
        assert back.approx_eq(x, 1e-9 * max(1.0, x.max_abs()))


def test_transform_rows_returns_the_conformal_scale():
    x = ev((2.0, 0.0, 1.0, 0.0))
    F = Faraday3((1.0, 0.0, 0.0), (0.0, 0.5, 0.0))

    def scale(params, x, frame=ORIG):
        return transform_rows(params, FARADAY, F, x, frame)[1]

    assert scale(Dilation(3.0), x) == 3.0
    assert scale(Translation(FourVector(1, 0, 0, 0)), x) == 1.0
    assert scale(Inversion(1), x, ORIG) == pytest.approx(3.0, abs=1e-15)
    # the image-frame scale is the reciprocal evaluated at the image point
    xi = transform3(Inversion(1), POSITION, x)
    assert scale(Inversion(1), xi, TRANS) == pytest.approx(3.0, rel=1e-12)
    sct = Sct(FourVector(0.5, 0, 0, 0))
    s = sct_factor3(x, ev((0.5, 0.0, 0.0, 0.0)))
    xs = transform3(sct, POSITION, x)
    assert scale(sct, x, ORIG) == pytest.approx(s)
    assert scale(sct, xs, TRANS) == pytest.approx(s, rel=1e-12)


def test_transform3_linear_families():
    F = Faraday3(E=(1.0, 2.0, 0.0), B=(0.0, -1.0, 0.5))
    x = ev((1.0, 0, 0, 0))
    out = transform3(Dilation(2.0), FARADAY, F, x)
    assert np.allclose(out.F, 4.0 * F.F)
    out = transform3(Translation(FourVector(1, 1, 1, 1)), FARADAY, F, x)
    assert np.allclose(out.F, F.F)


@pytest.mark.parametrize("kind", [POSITION, FARADAY])
def test_lorentz_overflow_rows_are_non_finite_in_both_routes(kind):
    """A boost past the float64 range leaves non-finite rows for the caller
    to check, the same rows in both routes, and no exception; the finite
    rows of the batch are the rows computed alone."""
    boost = np.array([[400.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, -400.0, 0.0]])
    params = Lorentz(boost=boost, rotation=np.zeros((3, 3)))
    if kind is FARADAY:
        E, B = np.tile([1.0, 0.0, 0.0], (3, 1)), np.tile([0.0, 0.5, 0.0], (3, 1))
        value13, value3 = Faraday13(E, B), Faraday3(E, B)
    else:
        X = np.tile([1.0, 0.2, 0.0, 0.0], (3, 1))
        value13, value3 = FourVector.from_array(X), ev(X)
    with np.errstate(over="ignore", invalid="ignore"):
        out13 = transform(params, kind, value13)
        out3 = transform3(params, kind, value3)
    if kind is FARADAY:
        got13 = np.concatenate([out13.E, out13.B], axis=-1)
        got3 = np.concatenate([out3.E, out3.B], axis=-1)
    else:
        got13 = out13.as_array()
        got3 = np.concatenate([out3.s.real[:, None], out3.v.real], axis=-1)
    non_finite = [True, False, True]
    assert list(~np.isfinite(got13).all(axis=-1)) == non_finite
    assert list(~np.isfinite(got3).all(axis=-1)) == non_finite
    alone = transform(Lorentz(boost=(0.3, 0.0, 0.0)), kind, value13)
    alone = alone.as_array() if kind is POSITION else np.concatenate([alone.E, alone.B], axis=-1)
    assert got13[1].tobytes() == alone[1].tobytes()


def test_refusal_ledger_takes_the_maps_batch_shape():
    """A batch of maps with one shared value or event: the ledger has the
    maps' rows, so an overflowing Lorentz row comes back non-finite and the
    other row is its single-map result, and a row on the excluded cone of
    the special conformal map, at the source or at the preimage, is refused
    with its typed error."""
    F = Faraday3((1.0, 0.0, 0.0), (0.0, 0.5, 0.0))
    params = Lorentz(boost=[[400.0, 0.0, 0.0], [0.3, 0.0, 0.0]], rotation=np.zeros((2, 3)))
    with np.errstate(over="ignore", invalid="ignore"):
        out = transform3(params, FARADAY, F)
        F2, scale, reason = transform_rows(params, FARADAY, F, ev((0.5, 0.1, -0.2, 0.3)))
    assert out.F.shape == F2.F.shape == (2, 3)
    assert not np.isfinite(out.F[0]).all()
    alone = transform3(Lorentz(boost=(0.3, 0.0, 0.0), rotation=(0.0, 0.0, 0.0)), FARADAY, F)
    assert out.F[1].tobytes() == alone.F.tobytes() == F2.F[1].tobytes()
    assert scale.tolist() == [1.0, 1.0]
    assert reason.tolist() == [Refusal.NON_FINITE, Refusal.OK]
    # sigma = (1 + a_0)^2 at the source x = (1, 0, 0, 0) vanishes for
    # a_0 = -1, and sigma of the map by -a at the image x for a_0 = 1.
    x = ev((1.0, 0.0, 0.0, 0.0))
    sct = Sct(FourVector.from_array([[0.1, 0, 0, 0], [-1.0, 0, 0, 0]]))
    _, scale, reason = transform_rows(sct, FARADAY, F, x)
    assert scale.shape == (2,)
    assert reason.tolist() == [Refusal.OK, Refusal.SCT_CONE]
    with pytest.raises(SctConeError):
        transform3(sct, FARADAY, F, x)
    sct = Sct(FourVector.from_array([[0.1, 0, 0, 0], [1.0, 0, 0, 0]]))
    src, reason = preimage_rows(sct, x)
    assert src.s.shape == (2,)
    assert reason.tolist() == [Refusal.OK, Refusal.SCT_CONE]
    with pytest.raises(SctConeError):
        raise_refusal(reason)


_TWO_CLASSES = np.array(
    [LorentzClass.PROPER_ORTHOCHRONOUS, LorentzClass.IMPROPER_ORTHOCHRONOUS], dtype=object
)


@pytest.mark.parametrize("b", [0.3, 400.0])
def test_class_per_row_with_a_shared_boost_is_each_rows_single_class_call(b):
    """An array of classes with one boost, on one field at one event: the
    batch has the classes' rows, each the bytes of the map of that class
    alone, in both routes; at b = 400 both rows overflow, and transform_rows
    marks them NON_FINITE."""
    E, B, x = (1.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.5, 0.1, -0.2, 0.3)

    def tf13(p):
        out = transform(p, FARADAY, Faraday13(E, B), FourVector(*x))
        return np.concatenate([out.E, out.B], axis=-1)

    def tf3(p):
        return transform3(p, FARADAY, Faraday3(E, B), ev(x)).F

    def params(cls):
        return Lorentz(boost=(b, 0.0, 0.0), lorentz_class=cls)

    with np.errstate(over="ignore", invalid="ignore"):
        for call in (tf13, tf3, induced_matrix, induced_matrix3):
            batch = call(params(_TWO_CLASSES))
            assert len(batch) == 2
            singles = [call(params(c)) for c in _TWO_CLASSES]
            assert [row.tobytes() for row in batch] == [one.tobytes() for one in singles]
        _, _, reason = transform_rows(params(_TWO_CLASSES), FARADAY, Faraday3(E, B), ev(x))
    assert reason.tolist() == [Refusal.NON_FINITE if b > 355 else Refusal.OK] * 2


_BATCHED_MAPS = [
    (
        Lorentz(boost=[[0.3, 0.0, 0.0], [0.0, 0.2, 0.1]], rotation=np.zeros((2, 3))),
        [Lorentz(boost=(0.3, 0.0, 0.0)), Lorentz(boost=(0.0, 0.2, 0.1))],
    ),
    (
        Lorentz(boost=(0.3, 0.0, 0.0), lorentz_class=_TWO_CLASSES),
        [Lorentz(boost=(0.3, 0.0, 0.0), lorentz_class=c) for c in _TWO_CLASSES],
    ),
    (
        Sct(FourVector.from_array([[0.1, 0.0, 0.2, 0.0], [0.0, -0.1, 0.0, 0.3]])),
        [Sct(FourVector(0.1, 0.0, 0.2, 0.0)), Sct(FourVector(0.0, -0.1, 0.0, 0.3))],
    ),
    (Inversion(np.array([1, -1])), [Inversion(1), Inversion(-1)]),
]


@pytest.mark.parametrize("frame", [ORIG, TRANS])
@pytest.mark.parametrize("batch, singles", _BATCHED_MAPS)
def test_batched_map_on_one_event_gives_every_result_the_maps_rows(batch, singles, frame):
    """Two maps on one event: every public entry returns its values, scale
    and ledger with the maps' two rows, each the bytes of its map alone."""
    x, F = ev((0.5, 0.1, -0.2, 0.3)), Faraday3((1.0, 0.0, 0.0), (0.0, 0.5, 0.0))
    A = ev((0.3, 0.1, -0.2, 0.4))

    def results(params):
        out, scale, reason = transform_rows(params, FARADAY, F, x, frame)
        src, why = preimage_rows(params, x)
        return [
            out.F, scale, reason, src.s, src.v, why,
            transform3(params, FARADAY, F, x, frame).F,
            transform3(params, POTENTIAL, A, x, frame).v,
            transform3(params, POSITION, x).v,
        ]

    got = results(batch)
    assert [len(r) for r in got] == [2] * len(got)
    alone = [results(p) for p in singles]
    for i, one in enumerate(alone):
        assert [np.asarray(r[i]).tobytes() for r in got] == [np.asarray(r).tobytes() for r in one]


@pytest.mark.parametrize("kind", [POTENTIAL, FARADAY])
def test_sct_batch_of_vectors_raises_the_typed_error_in_both_routes(kind):
    """One row of a batched a puts the shared event on the excluded cone."""
    x = FourVector(1.0, 0.0, 0.0, 0.0)
    # sigma = 1 + 2 a.x + a^2 x^2 = (1 + a_0)^2 vanishes at the second row.
    a = FourVector.from_array([[0.1, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    if kind is FARADAY:
        value13 = Faraday13((1.0, 0.0, 0.0), (0.0, 0.5, 0.0))
        value3 = Faraday3(value13.E, value13.B)
    else:
        value13 = FourVector(0.3, 0.1, -0.2, 0.4)
        value3 = ev(value13)
    with pytest.raises(SctConeError):
        transform(Sct(a), kind, value13, x)
    with pytest.raises(SctConeError):
        transform3(Sct(a), kind, value3, ev(x))



# -- the shape rule ---------------------------------------------------------------

# Row shapes of a map, and of events and values, with n drawn.
MAP_ROWS = [(), ("n",)]
VALUE_ROWS = [(), ("n",), ("n", 1)]


def _map(family, rows, rng):
    """A map of the family with the given rows."""
    if family == "dilation":
        return Dilation(rng.uniform(0.5, 2.0, rows))
    if family == "translation":
        return Translation(rng.uniform(-1, 1, rows + (4,)))
    if family == "lorentz":
        cls = np.array(list(LorentzClass), dtype=object)[rng.integers(0, 4, rows)]
        return Lorentz(rng.uniform(-0.5, 0.5, rows + (3,)), rng.uniform(-1, 1, rows + (3,)), cls)
    if family == "inversion":
        return Inversion(rng.choice([-1, 1], rows))
    return Sct(rng.uniform(-0.05, 0.05, rows + (4,)))


def _map_row(params, shape, idx):
    """The one map at index idx of a ledger of the given shape: each
    parameter's row, its trailing axes those after the map's rows."""
    def pick(arr):
        return np.broadcast_to(arr, shape + np.shape(arr)[len(params.rows):])[idx]

    return type(params)(*(pick(getattr(params, f.name)) for f in dataclasses.fields(params)))


def _events(rows, rng) -> np.ndarray:
    """Events with t in [2, 4] and |r_i| < 1, so x^2 >= 1 and, for |a_i| <
    0.05, sigma > 0.1."""
    X = rng.uniform(-1, 1, rows + (4,))
    X[..., 0] += 3.0
    return X


def _parts(q) -> list:
    """A result of either route, a scale or a ledger as arrays whose last
    axis follows the rows; a list is such arrays already."""
    if isinstance(q, list):
        return q
    if isinstance(q, Faraday3):
        return [q.F]
    if isinstance(q, Faraday13):
        return [q.E, q.B]
    if isinstance(q, FourVector):
        return [q.c]
    if isinstance(q, Paravector3):
        return [q.s[..., None], q.v]
    return [np.asarray(q)[..., None]]


def _row_key(a: np.ndarray):
    """A row's bytes, or a longdouble row's values: its padding bytes are
    undefined."""
    return a.tolist() if a.dtype == np.longdouble else a.tobytes()


def _oracle(family, params, X) -> list:
    """The oracle's image events, Jacobians (16 entries on the last axis)
    and scales of the inversion and the special conformal map."""
    if family == "inversion":
        arg, image, jacobian, scales = params.eps, invert_event, jacobian_inversion, []
    elif family == "sct":
        arg, image, jacobian, scales = params.a, sct_event, jacobian_sct, [sct_scale(X, params.a)]
    else:
        return []
    J = jacobian(X, arg)
    return [[image(X, arg)], [J.reshape(J.shape[:-2] + (16,))], *scales]


@settings(deadline=None, database=None)
@given(
    family=st.sampled_from(["dilation", "translation", "lorentz", "inversion", "sct"]),
    kind=st.sampled_from(list(QuantityKind)),
    frame=st.sampled_from(list(CoordinateFrame)),
    n=st.integers(2, 3),
    map_rows=st.sampled_from(MAP_ROWS),
    x_rows=st.sampled_from(VALUE_ROWS),
    value_rows=st.sampled_from(VALUE_ROWS),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_results_have_the_ledgers_rows(
    family, kind, frame, n, map_rows, x_rows, value_rows, seed
):
    """transform3, transform and transform_rows give every result the
    ledger's shape, the broadcast of the map's, the events' and the values'
    rows (a position reads no event); preimage_rows, fields.sweep and the
    oracle's event maps, scales and Jacobians, which read no value, the
    broadcast of the map's and the events' rows; induced_matrix3 and
    induced_matrix the map's rows.  Each row holds the bytes of that row's
    single call, or its values where the oracle computes in longdouble."""
    rng = np.random.default_rng(seed)
    mrows, xrows, vrows = (tuple(n if d == "n" else d for d in p)
                           for p in (map_rows, x_rows, value_rows))
    params = _map(family, mrows, rng)
    X = _events(xrows, rng)
    if kind is POSITION:
        V = _events(vrows, rng)
    else:
        V = rng.uniform(-1, 1, vrows + ((6,) if kind is FARADAY else (4,)))

    def at_values(params, V, X):
        if kind is FARADAY:
            v3, v13 = Faraday3(V[..., :3], V[..., 3:]), Faraday13(V[..., :3], V[..., 3:])
        else:
            v3, v13 = ev(V), FourVector.from_array(V)
        return [
            transform3(params, kind, v3, ev(X), frame),
            transform(params, kind, v13, FourVector.from_array(X), frame),
            *transform_rows(params, kind, v3, ev(X), frame),
        ]

    def at_events(params, X):
        return [
            *preimage_rows(params, ev(X)),
            *sweep(Coulomb(1.5), params, X, frame),
            *_oracle(family, params, X),
        ]

    # A position reads no event, so its own events stand in for them.
    at = V if kind is POSITION else X
    for calls, shape, args in (
        (at_values, np.broadcast_shapes(mrows, vrows, at.shape[:-1]), (V, at)),
        (at_events, np.broadcast_shapes(mrows, xrows), (X,)),
    ):
        outs = [_parts(out) for out in calls(params, *args)]
        assert [parts[0].shape[:-1] for parts in outs] == [shape] * len(outs)
        for idx in np.ndindex(*shape):
            rows = [np.broadcast_to(a, shape + a.shape[-1:])[idx] for a in args]
            one = calls(_map_row(params, shape, idx), *rows)
            assert [[_row_key(a[idx]) for a in parts] for parts in outs] == [
                [_row_key(a) for a in _parts(o)] for o in one
            ]
    # The induced matrices read the map alone.
    if family == "lorentz":
        for induced in (induced_matrix3, induced_matrix):
            M = induced(params)
            assert M.shape == mrows + (4, 4)
            for idx in np.ndindex(*mrows):
                assert M[idx].tobytes() == induced(_map_row(params, mrows, idx)).tobytes()
