"""Tests for the complexified Cl(3) paravector layer."""

import math
import warnings

import numpy as np
import pytest

from emconf.cl3 import (
    Faraday3,
    Paravector3,
    cl3_product,
    cross3,
    exp_complex_vector,
    minkowski_square,
    real_rows,
    vector_rows,
)
from emconf.errors import NonRealEventError

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def test_unit_vector_products():
    """Orthonormal vectors multiply to i times the third: the Pauli relations."""
    xy = cl3_product(Paravector3.vector(X), Paravector3.vector(Y))
    assert xy.s == 0.0
    assert np.array_equal(xy.v, 1j * Z)
    xx = cl3_product(Paravector3.vector(X), Paravector3.vector(X))
    assert xx.s == 1.0 and np.all(xx.v == 0.0)


def test_product_decomposition():
    # vector product = dot + i cross, with complex entries
    rng = np.random.default_rng(21)
    u = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    v = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    prod = cl3_product(Paravector3.vector(u), Paravector3.vector(v))
    assert prod.s == pytest.approx(np.dot(u, v), abs=1e-15)
    assert np.allclose(prod.v, 1j * np.cross(u, v), atol=1e-15)


def test_cross3_is_np_cross_bit_for_bit():
    """One vector, a batch, and one vector against a batch."""
    rng = np.random.default_rng(27)
    u, w = rng.normal(size=(2, 50, 3))
    for a, b in ((u[0], w[0]), (u, w), (u[0], w), (u, w[0])):
        assert cross3(a, b).tobytes() == np.cross(a, b).tobytes()


def test_conjugation_involutions():
    p = Paravector3(1.0 + 2.0j, np.array([0.5, -1.0j, 2.0]))
    for q in (p.bar().bar(), p.star().star()):
        assert q.s == p.s and np.array_equal(q.v, p.v)
    # bar fixes the scalar, star conjugates it
    assert p.bar().s == p.s
    assert p.star().s == p.s.conjugate()


def test_minkowski_square_is_interval():
    ev = Paravector3.from_event((2.0, 1.0, -0.5, 0.25))
    assert minkowski_square(ev) == pytest.approx(4.0 - 1.0 - 0.25 - 0.0625, abs=1e-15)
    with pytest.raises(NonRealEventError):
        minkowski_square(Paravector3(1.0, np.array([1j, 0, 0])))


def test_exp_real_vector_is_boost():
    out = exp_complex_vector(0.5 * X)
    assert out.s == pytest.approx(math.cosh(0.5), abs=1e-14)
    assert out.v[0] == pytest.approx(math.sinh(0.5), abs=1e-14)
    assert abs(out.v[1]) < 1e-14 and abs(out.v[2]) < 1e-14


def test_exp_imaginary_vector_is_rotation():
    out = exp_complex_vector(1j * (math.pi / 2) * Z)
    assert abs(out.s) < 1e-14
    assert out.v[2] == pytest.approx(1j, abs=1e-14)


def test_exp_large_argument_converges():
    """The scaling-and-squaring path: exp(w) exp(-w) = 1 for a big argument."""
    w = np.array([3.0 + 2.0j, -4.0, 1.5j])
    prod = cl3_product(
        exp_complex_vector(w), exp_complex_vector(-w)
    )
    assert prod.s == pytest.approx(1.0, abs=1e-10)
    assert float(np.max(np.abs(prod.v))) < 1e-10


def _norm_sq(p: Paravector3):
    """Squared Euclidean norm over the complex components, per row."""
    return np.abs(p.s) ** 2 + (np.abs(p.v) ** 2).sum(axis=-1)


def test_exp_of_negative_is_the_inverse_for_large_boosts():
    """exp(w) exp(-w) = 1 up to 1e-15 |exp(w)|^2 for boost parts up to 10."""
    rng = np.random.default_rng(25)
    w = rng.uniform(-10, 10, (200, 3)) * rng.uniform(0, 1, (200, 1))
    w = w + 1j * rng.uniform(-3, 3, (200, 3))
    e = exp_complex_vector(w)
    p = cl3_product(e, exp_complex_vector(-w))
    dev = np.maximum(np.abs(p.s - 1.0), np.abs(p.v).max(axis=-1))
    assert (dev <= 1e-15 * _norm_sq(e)).all()


def test_exp_of_a_null_vector_is_one_plus_the_vector():
    w = X + 1j * Y  # w.w = 1 + i^2 = 0
    out = exp_complex_vector(w)
    assert out.s == 1.0 and np.array_equal(out.v, w)


def _taylor_exp(w):
    """exp(w) in longdouble: 60 terms of the Taylor series, each the last
    times w over k, with (s, v) w = (v.w, s w + i v x w)."""
    w = w.astype(np.clongdouble)
    s, v = np.clongdouble(1.0), np.zeros(3, dtype=np.clongdouble)
    acc_s, acc_v = s, v
    for k in range(1, 60):
        s, v = (v @ w) / k, (s * w + 1j * np.cross(v, w)) / k
        acc_s, acc_v = acc_s + s, acc_v + v
    return acc_s, acc_v


def test_exp_agrees_with_a_longdouble_taylor_series():
    rng = np.random.default_rng(26)
    for _ in range(100):
        d = rng.normal(size=6)
        d *= rng.uniform(0.0, 2.0) / np.linalg.norm(d)
        w = d[:3] + 1j * d[3:]
        out = exp_complex_vector(w)
        s, v = _taylor_exp(w)
        dev = max(abs(out.s - s), np.abs(out.v - v).max())
        assert dev <= 1e-15 * max(1.0, float(out.max_abs()))


def test_residue_guards():
    """A residue above tolerance refuses the row and hands back the part the
    guard keeps; a clean row passes unchanged."""
    real, refused = real_rows(Paravector3(1.0, np.array([0.0, 1e-3j, 0.0])))
    assert refused and real.s == 1.0 and np.array_equal(real.v, np.zeros(3))
    v, refused = vector_rows(Paravector3(1e-3, X))
    assert refused and np.array_equal(v, X)
    v, refused = vector_rows(Paravector3.vector(X))
    assert not refused and np.array_equal(v, X)


def test_batched_product_rows_are_single_products():
    """A batch multiplies row by row, bit for bit as the single elements do,
    and a single element broadcasts against a batch."""
    rng = np.random.default_rng(24)

    def batch():
        return Paravector3(rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5),
                           rng.uniform(-1, 1, (5, 3)) + 1j * rng.uniform(-1, 1, (5, 3)))

    a, b = batch(), batch()
    prod = cl3_product(a, b)
    assert prod.s.shape == (5,) and prod.v.shape == (5, 3)
    for i in range(5):
        one = cl3_product(Paravector3(a.s[i], a.v[i]), Paravector3(b.s[i], b.v[i]))
        assert one.s.shape == () and one.s.tobytes() == prod.s[i].tobytes()
        assert one.v.tobytes() == prod.v[i].tobytes()
    c = Paravector3(0.5 - 1j, [1.0, 2j, -0.5])
    got = cl3_product(c, b)
    want = cl3_product(Paravector3(np.full(5, c.s), np.tile(c.v, (5, 1))), b)
    assert np.array_equal(got.s, want.s) and np.array_equal(got.v, want.v)


def test_residue_rows_refuse_only_their_rows():
    p = Paravector3([1.0, 1.0, 1e-3], [[1.0, 0.0, 0.0], [0.0, 1e-3j, 0.0], [0.0, 0.0, 1.0]])
    _, imag = real_rows(p)
    _, scalar = vector_rows(p)
    assert imag.tolist() == [False, True, False]
    assert scalar.tolist() == [True, True, True]
    assert vector_rows(Paravector3.vector(np.eye(3)))[1].tolist() == [False] * 3
    real, _ = real_rows(p)
    assert np.array_equal(real.s, p.s.real) and np.array_equal(real.v, p.v.real)
    events = Paravector3.from_event([[2.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(minkowski_square(events), [3.0, 0.0])


def test_faraday3_round_trip():
    F = Faraday3(E=(1.0, 2.0, 3.0), B=(-1.0, 0.5, 0.0))
    assert np.array_equal(F.E, [1.0, 2.0, 3.0])
    assert np.array_equal(F.B, [-1.0, 0.5, 0.0])
    assert np.array_equal(Faraday3(F.E, F.B).F, F.F)


def test_faraday3_keeps_e_where_b_is_not_finite():
    """1j * inf is nan + inf j, so E + 1j B once read E as NaN, with a
    numpy warning, on the axes where B was infinite or NaN.  Those entries
    now hold E itself; every other entry, and every entry of a finite
    field, keeps the bits of E + 1j B, the sign of each zero included."""
    E = np.array([[1.0, -0.0, 2.0], [-0.0, 0.0, -3.0]])
    B = np.array([[np.inf, -0.0, np.nan], [-0.0, -np.inf, 0.0]])
    bad = ~np.isfinite(B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = Faraday3((1.0, 0.0, 0.0), (np.inf, 0.0, 0.0))
        F = Faraday3(E, B)
        finite = Faraday3(E, np.where(bad, 0.5, B))
    assert np.array_equal(one.E, [1.0, 0.0, 0.0]) and np.array_equal(one.B, [np.inf, 0.0, 0.0])
    assert F.E[bad].tobytes() == E[bad].tobytes()
    assert np.array_equal(F.B, B, equal_nan=True)
    assert finite.F.tobytes() == (E + 1j * np.where(bad, 0.5, B)).tobytes()
    assert F.F[~bad].tobytes() == finite.F[~bad].tobytes()


def test_faraday3_square_gives_invariants():
    rng = np.random.default_rng(23)
    E = rng.uniform(-2, 2, 3)
    B = rng.uniform(-2, 2, 3)
    sq = np.dot(Faraday3(E, B).F, Faraday3(E, B).F)
    assert sq.real == pytest.approx(np.dot(E, E) - np.dot(B, B), abs=1e-13)
    assert sq.imag == pytest.approx(2.0 * np.dot(E, B), abs=1e-13)
