"""Guards of all three routes refuse NaN instead of passing it on.

A guard written as `abs(v) <= tol` or `residue > bound` is false for NaN, so
the NaN would flow through the arithmetic into every output; each cone guard
tests `not abs(v) > tol` and each residue guard `not residue <= bound`.
"""

import numpy as np
import pytest

from emconf import oracle
from emconf.bridge import even_to_cl3
from emconf.cl13 import (
    Faraday13,
    FourVector,
    Multivector13,
    exp_bivector,
    grade_project,
)
from emconf.cl3 import (
    Faraday3,
    Paravector3,
    minkowski_square,
    real_rows,
    vector_rows,
)
from emconf.conformal13 import transform
from emconf.conformal3 import transform3
from emconf.errors import (
    GradeLeakageError,
    LightConeError,
    NonBivectorError,
    NonRealEventError,
    SctConeError,
)
from emconf.maps import (
    CoordinateFrame,
    Inversion,
    QuantityKind,
    Sct,
)

NAN = float("nan")
TRANS = CoordinateFrame.TRANSFORMED
POSITION = QuantityKind.POSITION
FARADAY = QuantityKind.FARADAY
EVENT = (NAN, 1.0, 0.0, 0.0)
A = (0.1, 0.2, 0.0, 0.0)


def _cl13_calls():
    x, sct = FourVector(*EVENT), Sct(FourVector(*A))
    F = Faraday13(np.array([1.0, 0.0, 0.0]), np.zeros(3))
    return [
        (LightConeError, lambda: transform(Inversion(), POSITION, x)),
        (SctConeError, lambda: transform(sct, POSITION, x)),
        (SctConeError, lambda: transform(sct, FARADAY, F, x, TRANS)),
    ]


def _cl3_calls():
    x = Paravector3.from_event(EVENT)
    sct = Sct(FourVector(*A))
    F = Faraday3(E=(1.0, 0.0, 0.0))
    return [
        (LightConeError, lambda: transform3(Inversion(), POSITION, x)),
        (SctConeError, lambda: transform3(sct, POSITION, x)),
        (SctConeError, lambda: transform3(sct, FARADAY, F, x, TRANS)),
    ]


def _oracle_calls():
    x, a = np.array(EVENT), np.array(A)
    return [
        (LightConeError, lambda: oracle.invert_event(x, 1)),
        (SctConeError, lambda: oracle.sct_event(x, a)),
        (LightConeError, lambda: oracle.jacobian_inversion(x, 1)),
        (SctConeError, lambda: oracle.jacobian_sct(x, a)),
    ]


@pytest.mark.parametrize("calls", [_cl13_calls, _cl3_calls, _oracle_calls],
                         ids=["cl13", "cl3", "oracle"])
def test_nan_event_is_refused(calls):
    for error, call in calls():
        with pytest.raises(error):
            call()


def _with_nan_blade(m: Multivector13, mask: int) -> Multivector13:
    return m + Multivector13.blade(mask, NAN)


# A NaN imaginary part of the vector: 1 + NaN i.
_NAN_IMAG = Paravector3(2.0, [complex(1.0, NAN), 0.0, 0.0])

# Each residue guard, fed a value whose residue is NaN.
_RESIDUE_CASES = {
    "grade_project": (
        GradeLeakageError,
        lambda: grade_project(
            _with_nan_blade(FourVector(1, 0, 0, 0).to_mv(), 3), 1
        ),
    ),
    "from_mv": (
        GradeLeakageError,
        lambda: FourVector.from_mv(
            _with_nan_blade(FourVector(1, 0, 0, 0).to_mv(), 3)
        ),
    ),
    "exp_bivector": (
        NonBivectorError,
        lambda: exp_bivector(_with_nan_blade(Multivector13.blade(3, 0.5), 1)),
    ),
    "minkowski_square": (NonRealEventError, lambda: minkowski_square(_NAN_IMAG)),
    "even_to_cl3": (
        GradeLeakageError,
        lambda: even_to_cl3(_with_nan_blade(Multivector13.scalar(1.0), 1)),
    ),
}


@pytest.mark.parametrize("case", _RESIDUE_CASES)
def test_nan_residue_is_refused(case):
    error, call = _RESIDUE_CASES[case]
    with pytest.raises(error):
        call()


def test_nan_residue_row_is_refused():
    """The row-wise guards refuse a row whose residue is NaN, and hand back
    the part they keep: the real part, or the vector part."""
    real, refused = real_rows(_NAN_IMAG)
    assert refused.shape == () and refused
    assert real.s == 2.0 and real.v.tolist() == [1.0, 0.0, 0.0]
    v, refused = vector_rows(Paravector3(complex(0.0, NAN), [1, 0, 0]))
    assert refused.shape == () and refused
    assert v.tolist() == [1.0, 0.0, 0.0]


def test_paravector_norms_keep_nan():
    """max_abs and imag_residue see a NaN in any component."""
    p = Paravector3(1.0, [0.0, NAN, 0.0])
    assert np.isnan(p.max_abs())
    assert np.isnan(_NAN_IMAG.imag_residue())
    assert np.isnan(Paravector3(complex(0.0, NAN)).imag_residue())


def test_approx_eq_refuses_nan():
    """A NaN component is never within tolerance, in either argument."""
    assert not Paravector3(1.0, [NAN, 0, 0]).approx_eq(Paravector3(1.0, [0, 0, 0]))
    assert not Paravector3(1.0, [0, 0, 0]).approx_eq(Paravector3(1.0, [NAN, 0, 0]))
    one = Faraday13((1, 0, 0), (0, 0, 0))
    assert not Faraday13((1, 0, 0), (NAN, 0, 0)).approx_eq(one, 1e-12)
    assert not one.approx_eq(Faraday13((1, 0, 0), (NAN, 0, 0)), 1e-12)
    assert not Faraday3(E=(NAN, 0, 0)).approx_eq(Faraday3(E=(0, 0, 0)))
    assert one.approx_eq(one, 0.0)
