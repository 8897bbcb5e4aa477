"""Transformation-family tests in the Cl(3) representation, and the tests
that run both Clifford routes through their one entry each."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emconf.cl13 import Faraday13, FourVector
from emconf.cl3 import Faraday3, Paravector3, cl3_product, minkowski_square
from emconf.conformal13 import induced_matrix, sct_factor, transform, transform_kinds
from emconf.conformal3 import (
    Refusal,
    _inverse,
    _versor,
    induced_matrix3,
    no_refusals,
    preimage_rows,
    raise_refusal,
    sct_factor3,
    transform3,
    transform_kinds_rows,
    transform_rows,
)
from emconf.errors import LightConeError, NonRealEventError, SctConeError
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
    inv = _inverse(Lorentz(boost, rotation, classes))
    assert inv.lorentz_class is classes
    for i, cls in enumerate(classes):
        one = _inverse(Lorentz(boost[i], rotation[i], cls))
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


def _lorentz_up_to_3(cls) -> Lorentz:
    """Ten maps of the class, with |b| and |r| spread over [0.3, 3] in
    random directions."""
    d = np.random.default_rng(57).normal(size=(2, 10, 3))
    d *= np.linspace(0.3, 3.0, 10)[:, None] / np.linalg.norm(d, axis=-1, keepdims=True)
    return Lorentz(d[0], d[1], cls)


@pytest.mark.parametrize("params", [
    Dilation(factor=2.5),
    Translation(offset=FourVector(0.5, -1.0, 0.25, 2.0)),
    Lorentz(boost=(0.2, -0.1, 0.3), rotation=(0.4, 0.0, -0.2)),
    *(_lorentz_up_to_3(cls) for cls in LorentzClass),
    Inversion(eps=-1),
    Sct(a=FourVector(0.2, 0.1, -0.3, 0.05)),
], ids=["dilation", "translation", "lorentz", *(c.value for c in LorentzClass), "inversion", "sct"])
def test_preimage_rows_round_trips(params):
    """preimage_rows undoes each family's forward position map, to 1e-9 of
    max(1, |x|).  A batch of Lorentz maps with |b| up to 3 rounds its image
    to about e^(2|b|) |x|, and the preimage grows that by e^(2|b|) again: it
    holds to 1e-14 e^(4|b|) of max(1, |x|), five times the worst deviation
    over 200,000 draws of |b|, |r| up to 3 and events in [-2, 2]."""
    rng = np.random.default_rng(53)
    tol = 1e-9
    if isinstance(params, Lorentz) and params.rows:
        tol = 1e-14 * np.exp(4.0 * np.linalg.norm(params.boost, axis=-1))
    for _ in range(10):
        x = rand_event(rng, guard=0.5)
        a = ev(params.a) if isinstance(params, Sct) else None
        if a is not None and abs(sct_factor3(x, a)) < 0.5:
            continue
        back, reason = preimage_rows(params, transform3(params, POSITION, x))
        assert not reason.any()
        dev = np.maximum(np.abs(back.s - x.s), np.abs(back.v - x.v).max(axis=-1))
        assert (dev <= tol * max(1.0, x.max_abs())).all()


@settings(deadline=None, database=None)
@given(
    family=st.sampled_from(["dilation", "translation", "lorentz", "inversion", "sct"]),
    n=st.integers(1, 4),
    map_rows=st.sampled_from([(), ("n",)]),
    x_rows=st.sampled_from([(), ("n",), ("n", 1)]),
    on_cone=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_preimage_is_the_image_under_the_inverse_map(
    family, n, map_rows, x_rows, on_cone, seed
):
    """preimage_rows gives the bytes and the ledger of the image under the
    map that undoes params (see _inverse), and a dilation's preimage is
    factor times the event.  The maps hold a Lorentz class, an eps or an a
    per row, with boosts and rotations up to 3 and a up to 1; the events
    may sit on the light cone, where the inversion refuses them."""
    rng = np.random.default_rng(seed)
    mrows, xrows = (tuple(n if d == "n" else d for d in p) for p in (map_rows, x_rows))
    if family == "lorentz":
        cls = np.array(list(LorentzClass), dtype=object)[rng.integers(0, 4, mrows)]
        params = Lorentz(rng.uniform(-3, 3, mrows + (3,)), rng.uniform(-3, 3, mrows + (3,)), cls)
    elif family == "inversion":
        params = Inversion(rng.choice([-1, 1], mrows))
    elif family == "sct":
        params = Sct(rng.uniform(-1, 1, mrows + (4,)))
    elif family == "translation":
        params = Translation(rng.uniform(-1, 1, mrows + (4,)))
    else:
        params = Dilation(rng.uniform(0.1, 10.0, mrows))
    X = rng.uniform(-2, 2, xrows + (4,))
    if on_cone:
        X[..., 0] = np.linalg.norm(X[..., 1:], axis=-1)
    y = ev(X)
    back, reason = preimage_rows(params, y)
    if family == "dilation":
        want, want_reason = params.factor * y, no_refusals(np.broadcast_shapes(mrows, xrows))
    else:
        want, _, want_reason = transform_rows(_inverse(params), POSITION, y)
    assert (back.s.tobytes(), back.v.tobytes()) == (want.s.tobytes(), want.v.tobytes())
    assert reason.shape == want_reason.shape
    assert reason.tobytes() == want_reason.tobytes()


@pytest.mark.parametrize("params", [Sct(FourVector(0.1, 0.0, 0.2, 0.0)), Inversion(1)])
def test_a_non_real_event_raises_for_the_inversion_and_the_sct_alike(params):
    """Both maps read an event's conformal scale through one check, which
    raises NonRealEventError for an event with imaginary parts: at the
    source, at the image and for a preimage."""
    x = Paravector3(1 + 0.5j, [0.2, 0.1j, 0.3])
    F = Faraday3((1.0, 0.0, 0.0), (0.0, 0.5, 0.0))
    for call, args in (
        (transform_rows, (params, FARADAY, F, x)),
        (transform_rows, (params, FARADAY, F, x, TRANS)),
        (preimage_rows, (params, x)),
    ):
        with pytest.raises(NonRealEventError):
            call(*args)


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


_VERSOR_MAPS = [
    Sct(FourVector(0.3, -0.2, 0.1, 0.25)),
    Inversion(1),
    Inversion(-1),
    *(Lorentz((0.3, -0.2, 0.4), (0.5, 0.1, -0.7), cls) for cls in LorentzClass),
]


@pytest.mark.parametrize("params", _VERSOR_MAPS, ids=repr)
def test_versor_norm_is_the_scale_and_the_image_versor_the_source_over_it(params):
    """The rule of _versor's docstring on a batch of events: J bar(J) is the
    conformal scale at the source event, x^2 to the bit for the inversion,
    and J read at the image event is J at the source times eps for the
    inversion, or 1, over that scale."""
    rng = np.random.default_rng(23)
    X = rng.uniform(-2, 2, (400, 4))
    x = ev(X)
    keep = np.abs(minkowski_square(x)) > 0.2
    if isinstance(params, Sct):
        keep &= np.abs(sct_factor3(x, ev(params.a))) > 0.2
    x = ev(X[keep])
    y, scale, reason = transform_rows(params, POSITION, x)
    assert (reason == Refusal.OK).all()
    J = _versor(params, x, ORIG)[0]
    norm = cl3_product(J, J.bar())
    if isinstance(params, Inversion):
        assert norm.s.real.tobytes() == scale.tobytes()
    else:
        assert (np.abs(norm.s - scale) <= 1e-13 * np.abs(scale)).all()
    assert (np.abs(norm.v).max(axis=-1) <= 1e-13 * np.abs(scale)).all()
    sign = params.eps if isinstance(params, Inversion) else 1.0
    expected = (sign / scale) * J
    got = _versor(params, y, TRANS)[0]
    size = np.maximum(np.abs(expected.s), np.abs(expected.v).max(axis=-1))
    dev = np.maximum(np.abs(got.s - expected.s), np.abs(got.v - expected.v).max(axis=-1))
    assert (dev <= 1e-14 * size).all()


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
    rows of the batch are the rows computed alone.  The last row's field
    is finite in both routes, though the modulus of a component, 1.8e308,
    is not: transform_rows leaves it OK."""
    boost = np.array([[400.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, -400.0, 0.0], [0.0, 0.59375, 0.0]])
    rotation = np.zeros((4, 3))
    rotation[3, 0] = 1.0
    params = Lorentz(boost=boost, rotation=rotation)
    if kind is FARADAY:
        E, B = np.tile([1.0, 0.0, 0.0], (4, 1)), np.tile([0.0, 0.5, 0.0], (4, 1))
        E[3], B[3] = (1e308, 1e308, 0.0), 0.0
        value13, value3 = Faraday13(E, B), Faraday3(E, B)
    else:
        X = np.tile([1.0, 0.2, 0.0, 0.0], (4, 1))
        value13, value3 = FourVector.from_array(X), ev(X)
    with np.errstate(over="ignore", invalid="ignore"):
        out13 = transform(params, kind, value13)
        out3, _, reason = transform_rows(params, kind, value3)
        raise_refusal(reason)
    if kind is FARADAY:
        got13 = np.concatenate([out13.E, out13.B], axis=-1)
        got3 = np.concatenate([out3.E, out3.B], axis=-1)
    else:
        got13 = out13.as_array()
        got3 = np.concatenate([out3.s.real[:, None], out3.v.real], axis=-1)
    non_finite = [True, False, True, False]
    assert list(~np.isfinite(got13).all(axis=-1)) == non_finite
    assert list(~np.isfinite(got3).all(axis=-1)) == non_finite
    assert reason.tolist() == [Refusal.NON_FINITE if bad else Refusal.OK for bad in non_finite]
    alone = transform(Lorentz(boost=(0.3, 0.0, 0.0)), kind, value13)
    alone = alone.as_array() if kind is POSITION else np.concatenate([alone.E, alone.B], axis=-1)
    assert got13[1].tobytes() == alone[1].tobytes()


# Per frame, an event where the inversion and the special conformal map by
# (0.5, 0, 0, 0) scale a value of 1e308 past the float64 range; the
# TRANSFORMED frame's event is an image event close to their cones.
_OVERFLOW_EVENTS = {
    (ORIG, "inversion"): (4.0, 0.5, -0.2, 0.1),
    (ORIG, "sct"): (4.0, 0.5, -0.2, 0.1),
    (TRANS, "inversion"): (0.4, 0.05, 0.0, 0.05),
    (TRANS, "sct"): (1.2, 0.3, 0.0, 0.05),
}


@settings(deadline=None, database=None)
@given(
    family=st.sampled_from(["dilation", "translation", "lorentz", "inversion", "sct"]),
    kind=st.sampled_from([FARADAY, POTENTIAL]),
    frame=st.sampled_from(list(CoordinateFrame)),
    bad=st.sampled_from(["nan", "inf", "overflow"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_a_non_finite_image_is_non_finite_in_every_route(family, kind, frame, bad, seed):
    """A NaN or infinite value, and a value of about 1e308 that the map
    takes past the float64 range, is NON_FINITE in transform_rows' ledger
    for every family, kind and frame, never a residue; transform3 and the
    Cl(1,3) transform return the non-finite value without raising, and the
    finite row of the batch stays OK.  A translation moves no value, so its
    1e308 stays finite and OK.  A NaN event is still refused by the cone
    guards of the inversion and the special conformal map."""
    rng = np.random.default_rng(seed)
    params = {
        "dilation": Dilation(rng.uniform(2.0, 10.0)),
        "translation": Translation(rng.uniform(-1.0, 1.0, 4)),
        "lorentz": Lorentz((0.0, 0.0, rng.uniform(1.0, 3.0)), (0.0, 0.0, rng.uniform(-1.0, 1.0)),
                           list(LorentzClass)[rng.integers(4)]),
        "inversion": Inversion(rng.choice([-1, 1])),
        "sct": Sct((0.5, 0.0, 0.0, 0.0)),
    }[family]
    X = np.array(_OVERFLOW_EVENTS.get((frame, family), (4.0, 0.5, -0.2, 0.1)))
    # The bad row, then a finite row.  The overflowing field lies across the
    # Lorentz boost, along z, and the potential along time.
    n = 6 if kind is FARADAY else 4
    V = np.zeros((2, n))
    V[1] = rng.uniform(-1.0, 1.0, n)
    if bad == "overflow":
        cols = [0, 1] if kind is FARADAY else [0]
        V[0, cols] = rng.choice([-1.0, 1.0], len(cols)) * 1e308
    else:
        V[0, rng.integers(n)] = np.nan if bad == "nan" else rng.choice([-np.inf, np.inf])

    def values(V):
        if kind is FARADAY:
            return Faraday3(V[..., :3], V[..., 3:]), Faraday13(V[..., :3], V[..., 3:])
        return ev(V), FourVector.from_array(V)

    finite = bad == "overflow" and family == "translation"
    with np.errstate(all="ignore"):
        v3, v13 = values(V)
        out3, _, reason = transform_rows(params, kind, v3, ev(X), frame)
        assert reason.tolist() == [Refusal.OK if finite else Refusal.NON_FINITE, Refusal.OK]
        for out in (out3, transform3(params, kind, v3, ev(X), frame),
                    transform(params, kind, v13, FourVector.from_array(X), frame)):
            rows = np.logical_and.reduce([np.isfinite(a).all(axis=-1) for a in _parts(out)])
            assert rows.tolist() == [finite, True]
        if family in ("inversion", "sct"):
            error = LightConeError if family == "inversion" else SctConeError
            Y = X.copy()
            Y[rng.integers(4)] = np.nan
            v3, v13 = values(V[0])
            with pytest.raises(error):
                transform3(params, kind, v3, ev(Y), frame)
            with pytest.raises(error):
                transform(params, kind, v13, FourVector.from_array(Y), frame)


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


# -- several kinds in one call ----------------------------------------------------


def _cone_event(params, frame) -> np.ndarray:
    """An event on the cone that the map's first row guards in the frame:
    x^2 = 0 for the inversion; sigma = 0 for the special conformal map by a
    at -a / a^2 in the ORIGINAL frame, and for the map by -a, which the
    TRANSFORMED frame reads, at a / a^2."""
    if isinstance(params, Inversion):
        return np.array([1.5, 0.0, -1.5, 0.0])
    a = params.a.reshape(-1, 4)[0]
    a2 = a[0] * a[0] - a[1:] @ a[1:]
    return (-a if frame is ORIG else a) / a2


def _outcome(call):
    """The results of call, or the type and text of the error it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@settings(deadline=None, database=None)
@given(
    family=st.sampled_from(["dilation", "translation", "lorentz", "inversion", "sct"]),
    kinds=st.lists(st.sampled_from([POTENTIAL, CURRENT, FARADAY]), min_size=1, max_size=4),
    frame=st.sampled_from(list(CoordinateFrame)),
    n=st.integers(2, 3),
    map_rows=st.sampled_from(MAP_ROWS),
    x_rows=st.sampled_from(VALUE_ROWS),
    value_rows=st.lists(st.sampled_from(VALUE_ROWS), min_size=4, max_size=4),
    on_cone=st.booleans(),
    non_finite=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_kinds_entries_are_each_kinds_own_call(
    family, kinds, frame, n, map_rows, x_rows, value_rows, on_cone, non_finite, seed
):
    """transform_kinds_rows gives each (kind, value) pair the value, scale
    and ledger of its own transform_rows call, and transform_kinds the image
    of its own transform call, byte for byte and shape for shape: for every
    family, a class per row of a Lorentz batch among them, for batched maps,
    both frames and values of their own rows per kind.  With a row on the
    cone that the inversion or the special conformal map guards, or an
    infinite value, the ledgers still match, and the error raised is the one
    that the one-kind calls in turn raise first."""
    rng = np.random.default_rng(seed)
    mrows, xrows = (tuple(n if d == "n" else d for d in p) for p in (map_rows, x_rows))
    params = _map(family, mrows, rng)
    X = _events(xrows, rng)
    guarded = on_cone and family in ("inversion", "sct")
    if guarded:
        X.reshape(-1, 4)[0] = _cone_event(params, frame)
    values3, values13 = [], []
    for kind, rows in zip(kinds, value_rows):
        rows = tuple(n if d == "n" else d for d in rows)
        V = rng.uniform(-1, 1, rows + ((6,) if kind is FARADAY else (4,)))
        if non_finite:
            V.reshape(-1, V.shape[-1])[-1, rng.integers(V.shape[-1])] = np.inf
        if kind is FARADAY:
            values3.append((kind, Faraday3(V[..., :3], V[..., 3:])))
            values13.append((kind, Faraday13(V[..., :3], V[..., 3:])))
        else:
            values3.append((kind, ev(V)))
            values13.append((kind, FourVector.from_array(V)))
    x3, x13 = ev(X), FourVector.from_array(X)

    def keys(results):
        if not isinstance(results, (list, tuple)) or isinstance(results[0], type):
            return results
        return [[(a.shape, a.tobytes()) for a in _parts(r)] for r in results]

    with np.errstate(all="ignore"):
        many = transform_kinds_rows(params, values3, x3, frame)
        ones = [transform_rows(params, k, v, x3, frame) for k, v in values3]
        assert [keys(list(r)) for r in many] == [keys(list(r)) for r in ones]
        if guarded:
            code = Refusal.LIGHT_CONE if family == "inversion" else Refusal.SCT_CONE
            assert all((reason == code).any() for _, _, reason in many)

        def raise_in_turn():
            for _, _, reason in many:
                raise_refusal(reason)
            return [out for out, _, _ in many]

        assert keys(_outcome(raise_in_turn)) == keys(
            _outcome(lambda: [transform3(params, k, v, x3, frame) for k, v in values3])
        )
        assert keys(_outcome(lambda: transform_kinds(params, values13, x13, frame))) == keys(
            _outcome(lambda: [transform(params, k, v, x13, frame) for k, v in values13])
        )


@pytest.mark.parametrize("entry", [transform_kinds, transform_kinds_rows])
def test_kinds_entries_take_a_position_alone(entry):
    """A position is its own event, so it has no place among the kinds that
    share one batch of events; alone it maps as in the one-kind entry, which
    ignores the events and the frame it is given."""
    x, y = (2.0, 0.5, 0.0, 0.0), (3.0, 0.0, 1.0, 0.0)
    one = transform if entry is transform_kinds else transform_rows
    value, other = (FourVector(*x), FourVector(*y)) if entry is transform_kinds else (ev(x), ev(y))
    with pytest.raises(ValueError, match="a position is its own event"):
        entry(Inversion(1), [(POTENTIAL, value), (POSITION, value)], value)
    for params in (Inversion(1), Sct((0.1, 0.2, 0.0, 0.3)), Lorentz(boost=(0.5, 0.0, 0.0))):
        (alone,) = entry(params, [(POSITION, value)], other, TRANS)
        want = one(params, POSITION, value)
        keys = [
            [a.tobytes() for q in (r if isinstance(r, tuple) else (r,)) for a in _parts(q)]
            for r in (alone, want)
        ]
        assert keys[0] == keys[1]
