"""An inversion with one sign eps per row: every route maps each row exactly
as it maps that row alone with its scalar sign."""

import numpy as np
import pytest

from emconf import oracle
from emconf.cl13 import Faraday13, FourVector
from emconf.cl3 import Faraday3, Paravector3
from emconf.conformal13 import transform
from emconf.conformal3 import transform3
from emconf.maps import CoordinateFrame, Inversion, QuantityKind

EPS = np.array([1, -1, -1, 1, -1, 1, 1])
FRAMES = (CoordinateFrame.ORIGINAL, CoordinateFrame.TRANSFORMED)
KINDS = (QuantityKind.POSITION, QuantityKind.POTENTIAL, QuantityKind.CURRENT, QuantityKind.FARADAY)


def _samples():
    rng = np.random.default_rng(2024)
    X = rng.uniform(-2.0, 2.0, (4 * EPS.size, 4))
    X = X[np.abs(oracle.msq(X)) > 0.1][: EPS.size]
    return X, rng.uniform(-2.0, 2.0, (EPS.size, 4)), rng.uniform(-2.0, 2.0, (2, EPS.size, 3))


X, A4, (E, B) = _samples()


def assert_same(got, want):
    """Equal values with equal signs of zero: the same bits, for the real
    and complex float64 and longdouble results here, none of them NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    if np.iscomplexobj(got):
        got, want = (np.stack([v.real, v.imag]) for v in (got, want))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _value13(kind, rows):
    if kind is QuantityKind.FARADAY:
        return Faraday13(E[rows], B[rows])
    return FourVector.from_array((X if kind is QuantityKind.POSITION else A4)[rows])


def _value3(kind, rows):
    if kind is QuantityKind.FARADAY:
        return Faraday3(E[rows], B[rows])
    v = (X if kind is QuantityKind.POSITION else A4)[rows]
    return Paravector3.from_event(v)


def _arr13(out):
    if isinstance(out, Faraday13):
        return np.concatenate([out.E, out.B], axis=-1)
    return out.as_array()


def _arr3(out):
    if isinstance(out, Faraday3):
        return out.F
    return np.concatenate([out.s[..., None], out.v], axis=-1)


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("kind", KINDS)
def test_spacetime_algebra_rows_match_scalar_signs(kind, frame):
    every = slice(None)
    x13 = FourVector.from_array(X)
    got = _arr13(transform(Inversion(EPS), kind, _value13(kind, every), x13, frame))
    for eps in (1, -1):
        whole = _arr13(transform(Inversion(eps), kind, _value13(kind, every), x13, frame))
        for i in np.flatnonzero(EPS == eps):
            x_i = FourVector.from_array(X[i])
            alone = transform(Inversion(eps), kind, _value13(kind, i), x_i, frame)
            assert_same(got[i], whole[i])
            assert_same(got[i], _arr13(alone))


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("kind", KINDS)
def test_paravector_algebra_rows_match_scalar_signs(kind, frame):
    every = slice(None)
    x3 = _value3(QuantityKind.POSITION, every)
    got = _arr3(transform3(Inversion(EPS), kind, _value3(kind, every), x3, frame))
    for eps in (1, -1):
        whole = _arr3(transform3(Inversion(eps), kind, _value3(kind, every), x3, frame))
        for i in np.flatnonzero(EPS == eps):
            x_i = _value3(QuantityKind.POSITION, i)
            alone = transform3(Inversion(eps), kind, _value3(kind, i), x_i, frame)
            assert_same(got[i], whole[i])
            assert_same(got[i], _arr3(alone))


ORACLE = {
    "invert_event": lambda rows, eps: oracle.invert_event(X[rows], eps),
    "jacobian_inversion": lambda rows, eps: oracle.jacobian_inversion(X[rows], eps),
    "inversion_faraday_tensor": lambda rows, eps: oracle.inversion_faraday_tensor(
        oracle.pack_faraday(E[rows], B[rows]), X[rows], eps
    ),
    "inversion_field_forms": lambda rows, eps: np.stack([
        part
        for form in oracle.inversion_field_forms(E[rows], B[rows], X[rows], eps)
        for part in form
    ]),
    "inversion_inverse_jacobian_det": lambda rows, eps: oracle.inversion_inverse_jacobian_det(
        X[rows], eps
    ),
}


@pytest.mark.parametrize("name", ORACLE)
def test_oracle_rows_match_scalar_signs(name):
    fn = ORACLE[name]
    got = np.asarray(fn(slice(None), EPS))
    # The row axis of inversion_field_forms follows its four stacked parts.
    axis = 1 if name == "inversion_field_forms" else 0
    for eps in (1, -1):
        whole = np.asarray(fn(slice(None), eps))
        for i in np.flatnonzero(EPS == eps):
            assert_same(np.take(got, i, axis), np.take(whole, i, axis))
            assert_same(np.take(got, i, axis), np.asarray(fn(i, eps)))


@pytest.mark.parametrize("eps", [np.array([1, 0]), np.array([2, -1]), 0, 2])
def test_signs_other_than_plus_or_minus_one_are_refused(eps):
    with pytest.raises(ValueError, match="inversion sign"):
        Inversion(eps)
