"""Transformation-family tests in the Cl(1,3) representation."""

import copy
import math

import numpy as np
import pytest

from emconf import conformal13
from emconf.cl13 import Faraday13, FourVector, Multivector13, vector_sandwich
from emconf.conformal13 import induced_matrix, sct_factor, transform
from emconf.errors import GradeLeakageError, NonPositiveScaleError
from emconf.maps import (
    GRADE_TOL,
    Dilation,
    Inversion,
    Lorentz,
    LorentzClass,
    QuantityKind,
    Sct,
    Translation,
)

POSITION = QuantityKind.POSITION
POTENTIAL = QuantityKind.POTENTIAL
CURRENT = QuantityKind.CURRENT
FARADAY = QuantityKind.FARADAY
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def rand_event(rng, guard=0.2):
    while True:
        v = rng.uniform(-2, 2, 4)
        x = FourVector(*v)
        if abs(x.minkowski_sq()) > guard:
            return x


def test_invert_position_involution():
    rng = np.random.default_rng(41)
    for i in range(25):
        inv = Inversion(1 if i % 2 == 0 else -1)
        x = rand_event(rng)
        back = transform(inv, POSITION, transform(inv, POSITION, x))
        assert np.allclose(back.as_array(), x.as_array(), atol=1e-12)


def test_sct_zero_vector_is_identity():
    zero = Sct(FourVector(0.0, 0.0, 0.0, 0.0))
    x = FourVector(1.2, 0.3, -0.7, 0.5)
    A = FourVector(0.4, -1.0, 2.0, 0.1)
    F = Faraday13((1.0, -2.0, 0.5), (0.0, 1.0, -1.0))
    out = transform(zero, POSITION, x)
    assert np.allclose(out.as_array(), x.as_array(), atol=1e-15)
    for kind in (POTENTIAL, CURRENT):
        out = transform(zero, kind, A, x)
        assert np.allclose(out.as_array(), A.as_array(), atol=1e-14)
    assert transform(zero, FARADAY, F, x).approx_eq(F, 1e-14)


def test_vector_maps_hold_four_components_and_compare_by_value():
    """Translation and Sct take any array-like of shape (..., 4), a FourVector
    included, and refuse any other shape; every family compares by the
    values of its parameters, batches included, and is unhashable."""
    fv = FourVector(0.1, 0.2, 0.3, 0.4)
    for family in (Translation, Sct):
        assert family(fv) == family((0.1, 0.2, 0.3, 0.4))
        assert family(fv) != family((0.1, 0.2, 0.3, 0.5))
        assert family(fv) != family([(0.1, 0.2, 0.3, 0.4)] * 2)
        for bad in (1.0, (1.0,), np.zeros((2, 3))):
            with pytest.raises(ValueError, match="4 components"):
                family(bad)
    assert Translation(fv) != Sct(fv)
    classes = np.array([LorentzClass.PROPER_ORTHOCHRONOUS, LorentzClass.IMPROPER_ANTICHRONOUS])
    pairs = [
        (Dilation(1.5), Dilation(2.0)),
        (Dilation(np.array([1.5, 2.0])), Dilation([1.5, 2.5])),
        (Lorentz(), Lorentz((0.1, 0.0, 0.0))),
        (Lorentz(np.zeros((2, 3)), lorentz_class=classes), Lorentz(np.zeros((2, 3)))),
        (Inversion(np.array([1, -1])), Inversion([1, 1])),
        (Sct(fv), Translation(fv)),
    ]
    for params, other in pairs:
        assert params == copy.deepcopy(params)
        assert params != other
        with pytest.raises(TypeError, match="unhashable"):
            hash(params)
    assert Lorentz(np.zeros(3)) == Lorentz()
    assert Inversion(np.array([1, -1])) == Inversion(np.array([1, -1]))
    assert Inversion(1) == Inversion(1.0) != Inversion(-1)
    with pytest.raises(ValueError, match="3 components"):
        Lorentz(rotation=np.zeros(4))


def test_lorentz_reads_its_class_flags_once():
    """improper and antichronous replace a per-call flag method: the table's
    read-only 0-d views for one class, one entry per row for an array."""
    assert not hasattr(Lorentz(), "class_flags")
    for cls in LorentzClass:
        params = Lorentz(lorentz_class=cls)
        assert params.rows == params.improper.shape == params.antichronous.shape == ()
        assert not params.improper.flags.writeable
        assert bool(params.improper) == cls.value.startswith("improper")
        assert bool(params.antichronous) == cls.value.endswith("antichronous")
    batch = Lorentz(lorentz_class=np.array(list(LorentzClass)))
    assert batch.rows == (4,)
    assert batch.improper.tolist() == [False, True, True, False]
    assert batch.antichronous.tolist() == [False, False, True, True]


def test_sct_equals_inversion_translation_inversion():
    """The defining composite, run for both inversion signs."""
    rng = np.random.default_rng(43)
    a = FourVector(0.25, -0.1, 0.3, -0.2)
    done = 0
    while done < 20:
        eps = 1 if done % 2 == 0 else -1
        x = rand_event(rng, guard=0.5)
        if abs(sct_factor(x, a)) < 0.5:
            continue
        y = transform(Inversion(eps), POSITION, x)
        # the middle translation carries the inversion sign with it
        shift = FourVector(*(eps * a.as_array()))
        y = transform(Translation(shift), POSITION, y)
        if abs(y.minkowski_sq()) < 1e-6:
            continue
        chain = transform(Inversion(eps), POSITION, y)
        direct = transform(Sct(a), POSITION, x)
        assert np.allclose(chain.as_array(), direct.as_array(), atol=1e-10)
        done += 1


def test_dilate_weights():
    x = FourVector(1.0, 2.0, 3.0, 4.0)
    F = Faraday13((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    d = Dilation(2.0)
    assert np.allclose(transform(d, POSITION, x).as_array(), x.as_array() / 2)
    assert np.allclose(transform(d, POTENTIAL, x).as_array(), 2 * x.as_array())
    assert np.allclose(transform(d, CURRENT, x).as_array(), 8 * x.as_array())
    out = transform(d, FARADAY, F)
    assert np.allclose(out.E, 4 * F.E) and np.allclose(out.B, 4 * F.B)
    for bad in (0.0, np.nan, np.array([2.0, -1.0])):
        with pytest.raises(NonPositiveScaleError):
            Dilation(bad)


def test_translate_moves_only_positions():
    b = FourVector(1.0, -1.0, 0.5, 0.0)
    shift = Translation(b)
    assert transform(shift, POSITION, FourVector(0.0, 0.0, 0.0, 0.0)) == b
    A = FourVector(0.3, 0.1, 0.0, -0.2)
    assert transform(shift, POTENTIAL, A, b) == A
    assert transform(shift, CURRENT, A, b) == A
    F = Faraday13((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert transform(shift, FARADAY, F, b).approx_eq(F, 0.0)


def test_lorentz_rotation_doubles_angle():
    """Parameter pi/4 turns x into +-y; applied twice it must reach -x."""
    params = Lorentz(rotation=(0.0, 0.0, math.pi / 4))
    once = transform(params, POSITION, FourVector(0.0, 1.0, 0.0, 0.0))
    assert abs(once.t) < 1e-14 and abs(once.z) < 1e-14
    assert abs(once.x) < 1e-13
    assert abs(once.y) == pytest.approx(1.0, abs=1e-14)
    twice = transform(params, POSITION, once)
    assert twice.x == pytest.approx(-1.0, abs=1e-13)
    assert abs(twice.y) < 1e-13


_CLASS_SIGNS = {
    LorentzClass.PROPER_ORTHOCHRONOUS: (1.0, 1),
    LorentzClass.IMPROPER_ORTHOCHRONOUS: (-1.0, 1),
    LorentzClass.IMPROPER_ANTICHRONOUS: (-1.0, -1),
    LorentzClass.PROPER_ANTICHRONOUS: (1.0, -1),
}


def test_lorentz_classes():
    rng = np.random.default_rng(44)
    for cls, (det_sign, time_sign) in _CLASS_SIGNS.items():
        for _ in range(10):
            params = Lorentz(
                boost=tuple(rng.uniform(-1, 1, 3)),
                rotation=tuple(rng.uniform(-2, 2, 3)),
                lorentz_class=cls,
            )
            L = induced_matrix(params)
            assert np.max(np.abs(L.T @ ETA @ L - ETA)) < 1e-12
            assert np.linalg.det(L) == pytest.approx(det_sign, abs=1e-12)
            assert np.sign(L[0, 0]) == time_sign


def test_improper_class_at_zero_generator_is_parity():
    L = induced_matrix(Lorentz(lorentz_class=LorentzClass.IMPROPER_ORTHOCHRONOUS))
    assert np.allclose(L, ETA, atol=1e-14)


def test_antichronous_flip_spares_current_and_potential():
    """Position and field flip overall sign, sources do not."""
    params = Lorentz(lorentz_class=LorentzClass.PROPER_ANTICHRONOUS)
    x = FourVector(1.0, 2.0, 3.0, 4.0)
    out = transform(params, POSITION, x)
    assert np.allclose(out.as_array(), -x.as_array(), atol=1e-14)
    out = transform(params, CURRENT, x)
    assert np.allclose(out.as_array(), x.as_array(), atol=1e-14)


def _leaky(monkeypatch, relative_leak):
    """Make every sandwich leak a grade-3 part of the given relative size."""

    def leaky_sandwich(u, m, v):
        size = u.max_abs() * m.max_abs() * v.max_abs()
        leak = Multivector13.blade(0b0111, relative_leak * size)
        return vector_sandwich(u, m, v) + leak

    monkeypatch.setattr(conformal13, "vector_sandwich", leaky_sandwich)


@pytest.mark.parametrize(
    "params",
    [Inversion(-1), Sct(FourVector(0.3, 0.1, 0.0, 0.2)), Lorentz(boost=(0.3, 0.0, -0.2))],
    ids=["inv", "sct", "lorentz"],
)
def test_grade_guard_scales_with_the_operands(monkeypatch, params):
    """An off-grade part of 1e-9 of the operands' size is refused, one of half
    GRADE_TOL is not: the bound is GRADE_TOL times the product of the sizes
    of the sandwich's operands, which roundoff follows, not the result's."""
    x = FourVector(10.0, 3.0, -2.0, 1.0)
    F = Faraday13((10.0, 0.0, 1.0), (0.0, -3.0, 2.0))
    _leaky(monkeypatch, 1e-9)
    with pytest.raises(GradeLeakageError):
        transform(params, FARADAY, F, x)
    _leaky(monkeypatch, 0.5 * GRADE_TOL)
    transform(params, FARADAY, F, x)
