"""Correspondence tests between the Cl(1,3) and Cl(3) representations."""

import numpy as np
import pytest

from emconf.bridge import (
    even_to_cl3,
    product_correspondence_check,
    sandwich_correspondence_check,
)
from emconf.cl13 import Faraday13, FourVector, Multivector13, geometric_product
from emconf.cl3 import Faraday3, Paravector3
from emconf.errors import GradeLeakageError


def rand_vec(rng):
    return FourVector(*rng.uniform(-2, 2, 4))


def test_paravector_embeddings():
    v = FourVector(1.0, 2.0, -3.0, 0.5)
    p = Paravector3.from_event(v)
    assert p.s == 1.0 and np.array_equal(p.v.real, [2.0, -3.0, 0.5])
    pb = Paravector3.from_event(v).bar()
    assert pb.s == 1.0 and np.array_equal(pb.v.real, [-2.0, 3.0, -0.5])


def test_faraday_embedding():
    F = Faraday13((1.0, 0.0, -2.0), (0.5, 3.0, 0.0))
    f3 = Faraday3(F.E, F.B)
    assert np.array_equal(f3.E, F.E)
    assert np.array_equal(f3.B, F.B)


def test_even_to_cl3_rejects_odd_elements():
    with pytest.raises(GradeLeakageError):
        even_to_cl3(Multivector13.blade(1 << 1))


def test_even_subalgebra_product_maps_to_cl3():
    """x bar(y) in Cl(3) mirrors the even product x y in Cl(1,3)."""
    rng = np.random.default_rng(61)
    for _ in range(50):
        dev = product_correspondence_check(rand_vec(rng), rand_vec(rng))
        assert dev < 1e-12


def test_sandwich_correspondence():
    # vector-field-vector sandwiches map to -x F* bar(y)
    rng = np.random.default_rng(62)
    for _ in range(50):
        F = Faraday13(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        dev = sandwich_correspondence_check(rand_vec(rng), F, rand_vec(rng))
        assert dev < 1e-12


def test_even_product_round_trip_is_isomorphism():
    # multiplying two even elements commutes with the translation to Cl(3)
    rng = np.random.default_rng(63)
    for _ in range(20):
        x, y = rand_vec(rng), rand_vec(rng)
        u, v = rand_vec(rng), rand_vec(rng)
        even1 = geometric_product(x.to_mv(), y.to_mv())
        even2 = geometric_product(u.to_mv(), v.to_mv())
        lhs = even_to_cl3(geometric_product(even1, even2))
        from emconf.cl3 import cl3_product

        rhs = cl3_product(even_to_cl3(even1), even_to_cl3(even2))
        assert (lhs - rhs).max_abs() <= 1e-11 * max(1.0, lhs.max_abs())
