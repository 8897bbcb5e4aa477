"""Cone guards of all three routes refuse a NaN event instead of passing it on.

A guard written as `abs(v) <= tol` is false for NaN, so the NaN would flow
through the arithmetic into every output; each guard tests `abs(v) > tol`.
"""

import numpy as np
import pytest

from emconf import oracle
from emconf.cl13 import Faraday13, FourVector
from emconf.cl3 import Faraday3, Paravector3
from emconf.conformal13 import CoordinateFrame, invert_position, sct_faraday, sct_position
from emconf.conformal3 import invert3_position, sct3_faraday, sct3_position
from emconf.errors import LightConeError, SctConeError

NAN = float("nan")
TRANS = CoordinateFrame.TRANSFORMED
EVENT = (NAN, 1.0, 0.0, 0.0)
A = (0.1, 0.2, 0.0, 0.0)


def _cl13_calls():
    x, a = FourVector(*EVENT), FourVector(*A)
    F = Faraday13(np.array([1.0, 0.0, 0.0]), np.zeros(3))
    return [
        (LightConeError, lambda: invert_position(x)),
        (SctConeError, lambda: sct_position(x, a)),
        (SctConeError, lambda: sct_faraday(F, x, a, TRANS)),
    ]


def _cl3_calls():
    x = Paravector3.from_event(EVENT[0], EVENT[1:])
    a = Paravector3.from_event(A[0], A[1:])
    F = Faraday3(E=(1.0, 0.0, 0.0))
    return [
        (LightConeError, lambda: invert3_position(x)),
        (SctConeError, lambda: sct3_position(x, a)),
        (SctConeError, lambda: sct3_faraday(F, x, a, TRANS)),
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
