"""Exactness and algebra tests for the Cl(1,3) blade layer."""

import math

import numpy as np
import pytest

from emconf.cl13 import (
    BLADE_NAMES,
    DIM,
    FULL,
    GRADE_OF,
    METRIC_SIGNS,
    SIGN_TABLE,
    Faraday13,
    FourVector,
    Multivector13,
    exp_bivector,
    geometric_product,
    grade_project,
    vector_sandwich,
)
from emconf.errors import GradeLeakageError


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
        grade_project(m, 1)
    # below the guard the leakage is dropped silently
    clean = grade_project(
        Multivector13.blade(1, 1.0) + Multivector13.blade(6, 1e-15), 1
    )
    assert clean.c[6] == 0.0


def test_exp_boost_generator():
    """exp(e1 e0) = cosh 1 + sinh 1 e1 e0; e1 e0 squares to +1."""
    gen = Multivector13.blade(3, -1.0)  # e1 e0 in ascending storage
    sq = gen * gen
    assert sq.c[0] == 1.0
    out = exp_bivector(gen)
    assert out.c[0] == pytest.approx(math.cosh(1.0), abs=1e-15)
    assert out.c[3] == pytest.approx(-math.sinh(1.0), abs=1e-15)
    assert float(np.max(np.abs(np.delete(out.c, [0, 3])))) < 1e-15


def test_exp_rotation_generator():
    # exp((pi/2) e2 e1) rotates all the way to the pure bivector
    gen = Multivector13.blade(6, -math.pi / 2)  # e2 e1 = -e1 e2
    out = exp_bivector(gen)
    assert abs(out.c[0]) < 1e-15
    assert out.c[6] == pytest.approx(-1.0, abs=1e-15)


def test_exp_of_negative_is_the_inverse_for_large_boosts():
    """exp(F) exp(-F) = 1 up to 1e-15 |exp(F)|^2 for boost parts up to 10."""
    rng = np.random.default_rng(17)
    one = Multivector13.scalar(1.0)
    for _ in range(200):
        boost = rng.uniform(-10, 10, 3) * rng.uniform(0, 1)
        F = Faraday13(boost, rng.uniform(-3, 3, 3)).to_mv()
        L = exp_bivector(F)
        dev = (L * exp_bivector(-1.0 * F) - one).max_abs()
        assert dev <= 1e-15 * float(np.sum(L.c**2))


def test_exp_of_a_null_bivector_is_one_plus_the_bivector():
    F = Faraday13((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)).to_mv()  # F^2 = E^2 - B^2 + 2 E.B I = 0
    out = exp_bivector(F)
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
        out = exp_bivector(F)
        dev = np.abs(out.c - _taylor_exp(F.c)).max()
        assert dev <= 1e-15 * max(1.0, float(out.max_abs()))


def test_rotor_reverse_is_its_inverse():
    rng = np.random.default_rng(13)
    one = Multivector13.scalar(1.0)
    for _ in range(20):
        gen = Multivector13(np.where(GRADE_OF == 2, rng.uniform(-0.8, 0.8, DIM), 0.0))
        L = exp_bivector(gen)
        Li = L.reverse()
        assert (L * Li).approx_eq(one, 1e-12)
        assert (Li * L).approx_eq(one, 1e-12)


def test_vector_sandwich_is_triple_product():
    rng = np.random.default_rng(15)
    u = Multivector13(rng.uniform(-1, 1, DIM))
    m = Multivector13(rng.uniform(-1, 1, DIM))
    v = Multivector13(rng.uniform(-1, 1, DIM))
    direct = u * m * v
    assert vector_sandwich(u, m, v).approx_eq(direct, 1e-13)


def test_fourvector_round_trip():
    v = FourVector(1.5, -0.25, 2.0, 0.75)
    assert FourVector.from_mv(v.to_mv()) == v
    assert v.minkowski_sq() == pytest.approx(
        1.5**2 - 0.25**2 - 4.0 - 0.75**2, abs=1e-15
    )
    w = FourVector(2.0, 1.0, 0.0, 0.0)
    assert v.mdot(w) == pytest.approx(1.5 * 2.0 - (-0.25) * 1.0, abs=1e-15)


def test_fourvector_from_mv_rejects_mixed_grades():
    with pytest.raises(GradeLeakageError):
        FourVector.from_mv(
            Multivector13.blade(1, 1.0) + Multivector13.scalar(0.5)
        )


def test_faraday_storage_signs():
    """Ascending-mask storage: E on the e0i channels, B on the spatial ones."""
    F = Faraday13((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
    c = F.to_mv().c
    assert c[3] == -1.0 and c[5] == -2.0 and c[9] == -3.0
    assert c[12] == -4.0 and c[10] == 5.0 and c[6] == -6.0
    back = Faraday13.from_mv(F.to_mv())
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


# -- blade sets and the planned product ------------------------------------------

_REF_SIGN = _SIGNS.astype(np.float64)


def _dense_product(a, b):
    """The product over the whole XOR table, as it was before blade sets:
    coefficient k sums SIGN_TABLE[i, i ^ k] a[i] b[i ^ k] over all 16 i in
    order."""
    return np.add.reduce(a[..., :, None] * (b[..., _PARTNER] * _REF_SIGN), axis=-2)


def _set_of(grades):
    return sum(1 << i for i in range(DIM) if GRADE_OF[i] in grades)


# The blade sets the routes build: scalar, four-vector, field, the versors
# 1 + a x, rotors, odd sandwiches, the blade e0, and the full set.
ROUTE_SETS = {
    "scalar": _set_of({0}),
    "vector": _set_of({1}),
    "bivector": _set_of({2}),
    "even": _set_of({0, 2}),
    "rotor": _set_of({0, 2, 4}),
    "odd": _set_of({1, 3}),
    "e0": 1 << 1,
    "full": FULL,
}


def _element(rng, m, shape):
    """Random coefficients on the blade set m, zero elsewhere, as an element
    that carries m."""
    c = rng.standard_normal(shape + (DIM,)) * rng.uniform(0.1, 10, shape + (1,))
    c[..., [(m >> i) & 1 == 0 for i in range(DIM)]] = 0.0
    return Multivector13._wrap(c, m)


def _reachable(ma, mb):
    blades = {i ^ j for i in range(DIM) for j in range(DIM) if (ma >> i) & 1 and (mb >> j) & 1}
    return sum(1 << k for k in blades)


def _check_planned_product(rng, ma, mb):
    a, b = _element(rng, ma, (9,)), _element(rng, mb, (9,))
    got = geometric_product(a, b)
    assert np.array_equal(got.c, _dense_product(a.c, b.c))
    assert got.m == _reachable(ma, mb)
    assert np.all(got.c[..., [(got.m >> i) & 1 == 0 for i in range(DIM)]] == 0.0)
    for row in range(9):
        one = geometric_product(Multivector13._wrap(a.c[row].copy(), ma), b)
        assert one.c[row].tobytes() == got.c[row].tobytes()
        one = geometric_product(
            Multivector13._wrap(a.c[row].copy(), ma), Multivector13._wrap(b.c[row].copy(), mb)
        )
        assert one.c.tobytes() == got.c[row].tobytes()


@pytest.mark.parametrize("left", sorted(ROUTE_SETS))
@pytest.mark.parametrize("right", sorted(ROUTE_SETS))
def test_planned_product_equals_the_dense_table_on_route_sets(left, right):
    _check_planned_product(np.random.default_rng(21), ROUTE_SETS[left], ROUTE_SETS[right])


def test_planned_product_equals_the_dense_table_on_random_sets():
    rng = np.random.default_rng(22)
    sets = [0, FULL, *rng.integers(0, FULL + 1, 58)]
    for ma, mb in zip(sets, rng.permutation(sets)):
        _check_planned_product(rng, int(ma), int(mb))


def test_planned_product_only_differs_where_the_dense_sum_is_nan():
    """Rows holding inf or NaN: every coefficient the dense sum does not
    leave NaN has its bits, up to the sign of a zero."""
    rng = np.random.default_rng(23)
    for ma, mb in [(ROUTE_SETS["rotor"], ROUTE_SETS["vector"]),
                   (ROUTE_SETS["odd"], ROUTE_SETS["rotor"]),
                   (ROUTE_SETS["even"], ROUTE_SETS["vector"])]:
        a, b = _element(rng, ma, (6,)), _element(rng, mb, (6,))
        a.c.setflags(write=True)
        b.c.setflags(write=True)
        a.c[1, np.flatnonzero([(ma >> i) & 1 for i in range(DIM)])[0]] = np.inf
        b.c[3, np.flatnonzero([(mb >> i) & 1 for i in range(DIM)])[-1]] = -np.inf
        b.c[4, np.flatnonzero([(mb >> i) & 1 for i in range(DIM)])[0]] = np.nan
        with np.errstate(invalid="ignore"):
            got = geometric_product(a, b).c
            dense = _dense_product(a.c, b.c)
        kept = ~np.isnan(dense)
        assert np.array_equal(got[kept], dense[kept])
        assert np.array_equal(got[[0, 2, 5]], dense[[0, 2, 5]])


def test_blade_sets_follow_construction_and_arithmetic():
    rng = np.random.default_rng(24)
    v = FourVector(*rng.uniform(-1, 1, 4)).to_mv()
    F = Faraday13(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)).to_mv()
    one = Multivector13.scalar(1.0)
    assert (v.m, F.m, one.m) == (ROUTE_SETS["vector"], ROUTE_SETS["bivector"], ROUTE_SETS["scalar"])
    assert exp_bivector(F).m == ROUTE_SETS["rotor"]
    assert exp_bivector(Multivector13(F.c)).m == FULL
    assert Multivector13.basis_vector(2).m == 1 << 4
    assert (one + v * v).m == ROUTE_SETS["even"]
    assert (one - F).m == ROUTE_SETS["scalar"] | ROUTE_SETS["bivector"]
    for same in (-v, v.reverse(), 2.0 * v, v * np.float64(-0.5)):
        assert same.m == v.m
    odd = v * F
    assert odd.m == ROUTE_SETS["odd"]
    assert odd.grade(1).m == ROUTE_SETS["vector"]
    assert odd.grade(2).m == 0
    assert np.array_equal(odd.grade(2).c, np.zeros(DIM))


def test_narrow_blade_sets_hold_read_only_coefficients():
    narrow = [
        FourVector(1.0, 2.0, 3.0, 4.0).to_mv(),
        Faraday13((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)).to_mv(),
        Multivector13.scalar(2.0),
        Multivector13.blade(5),
    ]
    narrow.append(narrow[0] * narrow[1])
    for m in narrow:
        assert m.m != FULL
        with pytest.raises(ValueError):
            m.c[0] = 1.0
    full = Multivector13(np.arange(16.0))
    assert full.m == FULL
    full.c[3] = -1.0
    assert full.c[3] == -1.0
    assert Multivector13().m == FULL


def test_fourvector_holds_one_array():
    v = FourVector(1.5, -0.25, 2.0, 0.75)
    assert v.c.shape == (4,) and v.c.dtype == np.float64
    assert v.as_array() is v.c
    assert (v.t, v.x, v.y, v.z) == (1.5, -0.25, 2.0, 0.75)
    assert np.shares_memory(v.x, v.c)
    assert repr(v) == "FourVector(t=1.5, x=-0.25, y=2.0, z=0.75)"
    # Components broadcast against each other.
    b = FourVector(np.arange(3.0), 0, np.ones(3), 2)
    assert b.c.shape == (3, 4)
    assert np.array_equal(b.c[:, 0], np.arange(3.0)) and np.array_equal(b.z, [2.0, 2.0, 2.0])
    arr = np.random.default_rng(25).uniform(-1, 1, (2, 5, 4))
    w = FourVector.from_array(arr)
    assert w.c is arr and w.as_array() is arr
    assert np.array_equal(w.y, arr[..., 2]) and np.shares_memory(w.y, arr)
    assert FourVector.from_array(w.as_array()) == w
    assert FourVector.from_array([1, 2, 3, 4]) == FourVector(1.0, 2.0, 3.0, 4.0)
    assert FourVector(1.0, 2.0, 3.0, 4.0) != FourVector(1.0, 2.0, 3.0, 5.0)
    assert FourVector.from_array(arr) != FourVector.from_array(arr[0])
    assert FourVector.from_mv(w.to_mv()) == w
    with pytest.raises(ValueError):
        FourVector.from_array(np.zeros(3))


def test_fourvector_reads_as_its_array_with_or_without_a_copy_argument():
    """numpy 1 calls __array__() or __array__(dtype) and numpy 2 adds copy:
    each call gives the components, copied only where asked or needed."""
    v = FourVector(1.5, -0.25, 2.0, 0.75)
    assert v.__array__() is v.c and v.__array__(None, False) is v.c
    assert v.__array__(np.dtype(np.float32)).dtype == np.float32
    copied = v.__array__(None, True)
    assert np.array_equal(copied, v.c) and not np.shares_memory(copied, v.c)
    assert np.asarray(v) is v.c
    assert not np.shares_memory(np.array(v), v.c)
