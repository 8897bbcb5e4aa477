"""Transformation-family tests in the Cl(3) representation."""

import math

import numpy as np
import pytest

from emconf.cl3 import Faraday3, Paravector3, minkowski_square
from emconf.conformal13 import (
    CoordinateFrame,
    Dilation,
    Inversion,
    Lorentz,
    LorentzClass,
    QuantityKind,
    Sct,
    Translation,
)
from emconf.cl13 import FourVector
from emconf.conformal3 import (
    induced_matrix3,
    inverse_position3,
    invert3_current,
    invert3_faraday,
    invert3_position,
    invert3_potential,
    lorentz3,
    sct3_current,
    sct3_faraday,
    sct3_position,
    sct3_potential,
    scale_of,
    sct_factor3,
    transform_faraday3,
)
from emconf.errors import LightConeError, SctConeError

ORIG = CoordinateFrame.ORIGINAL
TRANS = CoordinateFrame.TRANSFORMED


def ev(t, r):
    return Paravector3.from_event(t, r)


def rand_event(rng, guard=0.2):
    while True:
        v = rng.uniform(-2, 2, 4)
        p = ev(v[0], v[1:])
        if abs(minkowski_square(p)) > guard:
            return p


def test_invert3_frozen_values():
    x = ev(2.0, (0.0, 0.0, 0.0))
    out = invert3_position(x, 1)
    assert out.approx_eq(ev(0.5, (0, 0, 0)), 1e-15)
    J = ev(1.0, (0.0, 0.0, 0.0))
    out = invert3_current(J, x, 1, ORIG)
    assert out.approx_eq(ev(64.0, (0, 0, 0)), 1e-12)
    A = Paravector3.vector(np.array([1.0, 0.0, 0.0]))
    out = invert3_potential(A, ev(1.0, (0, 0, 0)), 1, ORIG)
    assert out.approx_eq(Paravector3.vector(np.array([-1.0, 0.0, 0.0])), 1e-14)
    F = Faraday3(E=(1.0, 0.0, 0.0))
    out = invert3_faraday(F, x, 1, ORIG)
    assert np.allclose(out.E, [16.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(out.B, 0.0, atol=1e-12)
    with pytest.raises(LightConeError):
        invert3_position(ev(1.0, (1.0, 0.0, 0.0)), 1)
    # the sign is validated in every op, as in the Cl(1,3) route
    for bad in (2, 0):
        with pytest.raises(ValueError, match="inversion sign"):
            invert3_position(x, bad)
        with pytest.raises(ValueError, match="inversion sign"):
            invert3_potential(A, x, bad, ORIG)
        with pytest.raises(ValueError, match="inversion sign"):
            invert3_current(J, x, bad, TRANS)
        with pytest.raises(ValueError, match="inversion sign"):
            invert3_faraday(F, x, bad, ORIG)


def test_sct3_frozen_values():
    x = ev(1.0, (0.0, 0.0, 0.0))
    a = ev(1.0, (0.0, 0.0, 0.0))
    assert sct_factor3(x, a) == pytest.approx(4.0, abs=1e-15)
    assert sct3_position(x, a).approx_eq(ev(0.5, (0, 0, 0)), 1e-15)
    with pytest.raises(SctConeError):
        sct3_position(ev(-1.0, (0, 0, 0)), a)


def test_sct3_pure_time_field_factor():
    """At rest on the time axis the field just scales by the squared factor."""
    x = ev(1.0, (0.0, 0.0, 0.0))
    a = ev(0.5, (0.0, 0.0, 0.0))
    F = Faraday3(E=(0.7, -0.2, 0.1), B=(0.0, 0.3, -0.4))
    out = sct3_faraday(F, x, a, ORIG)
    assert np.allclose(out.E, 5.0625 * F.E, atol=1e-12)
    assert np.allclose(out.B, 5.0625 * F.B, atol=1e-12)


def test_frames_agree_through_the_image_point():
    rng = np.random.default_rng(51)
    a = ev(0.3, (-0.2, 0.1, 0.4))
    for i in range(25):
        eps = 1 if i % 2 == 0 else -1
        x = rand_event(rng)
        if abs(sct_factor3(x, a)) < 0.2:
            continue
        A = Paravector3.from_event(rng.uniform(-2, 2), rng.uniform(-2, 2, 3))
        F = Faraday3(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))

        xi = invert3_position(x, eps)
        ref = invert3_potential(A, x, eps, ORIG)
        alt = invert3_potential(A, xi, eps, TRANS)
        assert ref.approx_eq(alt, 1e-9 * max(1.0, ref.max_abs()))
        reff = invert3_faraday(F, x, eps, ORIG)
        altf = invert3_faraday(F, xi, eps, TRANS)
        assert np.max(np.abs(reff.F - altf.F)) < 1e-9 * max(
            1.0, float(np.max(np.abs(reff.F)))
        )

        xs = sct3_position(x, a)
        ref = sct3_current(A, x, a, ORIG)
        alt = sct3_current(A, xs, a, TRANS)
        assert ref.approx_eq(alt, 1e-9 * max(1.0, ref.max_abs()))


def test_lorentz3_boost_frozen():
    params = Lorentz(boost=(0.5, 0.0, 0.0))
    out = lorentz3(QuantityKind.POSITION, ev(1.0, (0, 0, 0)), params)
    assert out.s.real == pytest.approx(math.cosh(1.0), abs=1e-14)
    assert out.v[0].real == pytest.approx(math.sinh(1.0), abs=1e-14)


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


def test_inverse_position3_round_trips():
    """inverse_position3 undoes each family's forward position map."""
    rng = np.random.default_rng(53)
    b = ev(0.5, (-1.0, 0.25, 2.0))
    a = ev(0.2, (0.1, -0.3, 0.05))
    boost = Lorentz(boost=(0.2, -0.1, 0.3), rotation=(0.4, 0.0, -0.2))
    families = [
        (Dilation(factor=2.5), lambda x: (1.0 / 2.5) * x),
        (Translation(offset=FourVector(0.5, -1.0, 0.25, 2.0)), lambda x: x + b),
        (boost, lambda x: lorentz3(QuantityKind.POSITION, x, boost)),
        (Inversion(eps=-1), lambda x: invert3_position(x, -1)),
        (Sct(a=FourVector(0.2, 0.1, -0.3, 0.05)), lambda x: sct3_position(x, a)),
    ]
    for params, forward in families:
        for _ in range(10):
            x = rand_event(rng, guard=0.5)
            if isinstance(params, Sct) and abs(sct_factor3(x, a)) < 0.5:
                continue
            back = inverse_position3(params, forward(x))
            assert back.approx_eq(x, 1e-9 * max(1.0, x.max_abs()))


def test_scale_of():
    x = ev(2.0, (0.0, 1.0, 0.0))
    assert scale_of(Dilation(3.0), x) == 3.0
    assert scale_of(Translation(FourVector(1, 0, 0, 0)), x) == 1.0
    assert scale_of(Inversion(1), x, ORIG) == pytest.approx(3.0, abs=1e-15)
    # the image-frame scale is the reciprocal evaluated at the image point
    xi = invert3_position(x, 1)
    assert scale_of(Inversion(1), xi, TRANS) == pytest.approx(3.0, rel=1e-12)
    a = ev(0.5, (0.0, 0.0, 0.0))
    s = sct_factor3(x, a)
    xs = sct3_position(x, a)
    assert scale_of(Sct(FourVector(0.5, 0, 0, 0)), x, ORIG) == pytest.approx(s)
    assert scale_of(Sct(FourVector(0.5, 0, 0, 0)), xs, TRANS) == pytest.approx(
        s, rel=1e-12
    )


def test_transform_faraday3_linear_families():
    F = Faraday3(E=(1.0, 2.0, 0.0), B=(0.0, -1.0, 0.5))
    x = ev(1.0, (0, 0, 0))
    out = transform_faraday3(Dilation(2.0), F, x)
    assert np.allclose(out.F, 4.0 * F.F)
    out = transform_faraday3(Translation(FourVector(1, 1, 1, 1)), F, x)
    assert np.allclose(out.F, F.F)
