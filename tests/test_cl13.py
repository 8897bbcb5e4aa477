"""Exactness and algebra tests for the Cl(1,3) blade layer."""

import math

import numpy as np
import pytest

from emconf.cl13 import (
    BLADE_NAMES,
    DIM,
    GRADE_OF,
    METRIC_SIGNS,
    SIGN_TABLE,
    Faraday13,
    FourVector,
    Multivector13,
    exp_bivector,
    geometric_product,
    grade_project,
    left_matrix,
    vector_sandwich,
    versor_inverse,
)
from emconf.conformal13 import EXP_TOL, GRADE_TOL, RESIDUE_TOL
from emconf.errors import GradeLeakageError, SingularVersorError


def test_blade_product_table_exact():
    """Every blade pair lands on the XOR blade with an integer sign, nothing else."""
    for i in range(DIM):
        for j in range(DIM):
            prod = Multivector13.blade(i) * Multivector13.blade(j)
            target = i ^ j
            sign = prod.c[target]
            assert sign in (-1.0, 0.0, 1.0)
            assert sign == int(sign)
            rest = np.delete(prod.c, target)
            assert np.all(rest == 0.0)
            # A blade product can only vanish if the signature did it, and
            # Cl(1,3) is nondegenerate: it never does.
            assert sign != 0.0


def test_vector_anticommutation():
    # e_a e_b + e_b e_a = 2 eta_ab, integer-exact in every component
    for a in range(4):
        for b in range(4):
            ea = Multivector13.basis_vector(a)
            eb = Multivector13.basis_vector(b)
            anti = ea * eb + eb * ea
            expected = np.zeros(DIM)
            if a == b:
                expected[0] = 2.0 * METRIC_SIGNS[a]
            assert np.array_equal(anti.c, expected)


def test_blade_associativity_exact():
    """Associativity holds exactly on blades (signs are integers)."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        i, j, k = rng.integers(0, DIM, 3)
        a, b, c = (Multivector13.blade(int(m)) for m in (i, j, k))
        left = (a * b) * c
        right = a * (b * c)
        assert np.array_equal(left.c, right.c)


def test_general_associativity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = Multivector13(rng.uniform(-1, 1, DIM))
        b = Multivector13(rng.uniform(-1, 1, DIM))
        c = Multivector13(rng.uniform(-1, 1, DIM))
        left = (a * b) * c
        right = a * (b * c)
        scale = max(1.0, left.max_abs())
        assert np.max(np.abs(left.c - right.c)) <= 1e-13 * scale


def test_grade_bookkeeping():
    assert list(GRADE_OF[[0, 1, 3, 7, 15]]) == [0, 1, 2, 3, 4]
    assert BLADE_NAMES[0] == "1"
    assert BLADE_NAMES[3] == "e01"
    m = Multivector13(np.arange(16.0))
    total = np.zeros(DIM)
    for g in range(5):
        total += m.grade(g).c
    assert np.array_equal(total, m.c)


def test_grade_projection_guard():
    m = Multivector13.blade(1, 1.0) + Multivector13.blade(6, 1e-3)
    with pytest.raises(GradeLeakageError):
        grade_project(m, 1, tol=1e-12)
    # below the guard the leakage is dropped silently
    clean = grade_project(
        Multivector13.blade(1, 1.0) + Multivector13.blade(6, 1e-15), 1, tol=1e-12
    )
    assert clean.c[6] == 0.0


def test_exp_boost_generator():
    """exp(e1 e0) = cosh 1 + sinh 1 e1 e0; e1 e0 squares to +1."""
    gen = Multivector13.blade(3, -1.0)  # e1 e0 in ascending storage
    sq = gen * gen
    assert sq.c[0] == 1.0
    out = exp_bivector(gen, EXP_TOL)
    assert out.c[0] == pytest.approx(math.cosh(1.0), abs=1e-15)
    assert out.c[3] == pytest.approx(-math.sinh(1.0), abs=1e-15)
    assert float(np.max(np.abs(np.delete(out.c, [0, 3])))) < 1e-15


def test_exp_rotation_generator():
    # exp((pi/2) e2 e1) rotates all the way to the pure bivector
    gen = Multivector13.blade(6, -math.pi / 2)  # e2 e1 = -e1 e2
    out = exp_bivector(gen, EXP_TOL)
    assert abs(out.c[0]) < 1e-15
    assert out.c[6] == pytest.approx(-1.0, abs=1e-15)


def test_exp_of_negative_is_the_inverse_for_large_boosts():
    """exp(F) exp(-F) = 1 up to 1e-15 |exp(F)|^2 for boost parts up to 10."""
    rng = np.random.default_rng(17)
    one = Multivector13.scalar(1.0)
    for _ in range(200):
        boost = rng.uniform(-10, 10, 3) * rng.uniform(0, 1)
        F = Faraday13(boost, rng.uniform(-3, 3, 3)).to_mv()
        L = exp_bivector(F, EXP_TOL)
        dev = (L * exp_bivector(-1.0 * F, EXP_TOL) - one).max_abs()
        assert dev <= 1e-15 * float(np.sum(L.c**2))


def test_exp_of_a_null_bivector_is_one_plus_the_bivector():
    F = Faraday13((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)).to_mv()  # F^2 = E^2 - B^2 + 2 E.B I = 0
    out = exp_bivector(F, EXP_TOL)
    assert np.array_equal(out.c, (Multivector13.scalar(1.0) + F).c)


# term[i] c[i ^ k] lands on blade k with sign SIGN_TABLE[i, i ^ k].
_PARTNER = np.arange(DIM)[:, None] ^ np.arange(DIM)
_SIGNS = SIGN_TABLE[np.arange(DIM)[:, None], _PARTNER]


def _taylor_exp(c):
    """exp of coefficients c in longdouble: 60 terms of the Taylor series,
    each the last times c over k, by the blade table."""
    c = c.astype(np.longdouble)
    term = np.zeros(DIM, dtype=np.longdouble)
    term[0] = 1.0
    acc = term.copy()
    for k in range(1, 60):
        term = (term[:, None] * c[_PARTNER] * _SIGNS).sum(axis=0) / k
        acc = acc + term
    return acc


def test_exp_agrees_with_a_longdouble_taylor_series():
    rng = np.random.default_rng(18)
    for _ in range(100):
        d = rng.normal(size=6)
        d *= rng.uniform(0.0, 2.0) / np.linalg.norm(d)
        F = Faraday13(d[:3], d[3:]).to_mv()
        out = exp_bivector(F, EXP_TOL)
        dev = np.abs(out.c - _taylor_exp(F.c)).max()
        assert dev <= 1e-15 * max(1.0, float(out.max_abs()))


def test_versor_inverse():
    rng = np.random.default_rng(13)
    one = Multivector13.scalar(1.0)
    for _ in range(20):
        gen = Multivector13(np.where(GRADE_OF == 2, rng.uniform(-0.8, 0.8, DIM), 0.0))
        L = exp_bivector(gen, EXP_TOL)
        Li = versor_inverse(L, RESIDUE_TOL)
        assert (L * Li).approx_eq(one, 1e-12)
        assert (Li * L).approx_eq(one, 1e-12)


def test_versor_inverse_singular():
    with pytest.raises(SingularVersorError):
        versor_inverse(Multivector13(), RESIDUE_TOL)


def test_left_matrix_matches_product():
    rng = np.random.default_rng(14)
    a = Multivector13(rng.uniform(-1, 1, DIM))
    b = Multivector13(rng.uniform(-1, 1, DIM))
    assert np.allclose(left_matrix(a) @ b.c, (a * b).c, atol=1e-14)


def test_vector_sandwich_is_triple_product():
    rng = np.random.default_rng(15)
    u = Multivector13(rng.uniform(-1, 1, DIM))
    m = Multivector13(rng.uniform(-1, 1, DIM))
    v = Multivector13(rng.uniform(-1, 1, DIM))
    direct = u * m * v
    assert vector_sandwich(u, m, v).approx_eq(direct, 1e-13)


def test_fourvector_round_trip():
    v = FourVector(1.5, -0.25, 2.0, 0.75)
    assert FourVector.from_mv(v.to_mv(), GRADE_TOL) == v
    assert v.minkowski_sq() == pytest.approx(
        1.5**2 - 0.25**2 - 4.0 - 0.75**2, abs=1e-15
    )
    w = FourVector(2.0, 1.0, 0.0, 0.0)
    assert v.mdot(w) == pytest.approx(1.5 * 2.0 - (-0.25) * 1.0, abs=1e-15)


def test_fourvector_from_mv_rejects_mixed_grades():
    with pytest.raises(GradeLeakageError):
        FourVector.from_mv(
            Multivector13.blade(1, 1.0) + Multivector13.scalar(0.5), GRADE_TOL
        )


def test_faraday_storage_signs():
    """Ascending-mask storage: E on the e0i channels, B on the spatial ones."""
    F = Faraday13((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
    c = F.to_mv().c
    assert c[3] == -1.0 and c[5] == -2.0 and c[9] == -3.0
    assert c[12] == -4.0 and c[10] == 5.0 and c[6] == -6.0
    back = Faraday13.from_mv(F.to_mv(), GRADE_TOL)
    assert np.array_equal(back.E, F.E) and np.array_equal(back.B, F.B)


def test_faraday_square_gives_invariants():
    # F^2 = (E^2 - B^2) + 2 E.B e0123 for the field bivector
    rng = np.random.default_rng(16)
    E = rng.uniform(-2, 2, 3)
    B = rng.uniform(-2, 2, 3)
    sq = Faraday13(E, B).to_mv()
    sq = sq * sq
    assert sq.c[0] == pytest.approx(np.dot(E, E) - np.dot(B, B), abs=1e-13)
    assert sq.c[15] == pytest.approx(2.0 * np.dot(E, B), abs=1e-13)
    assert float(np.max(np.abs(sq.c[1:15]))) < 1e-13
